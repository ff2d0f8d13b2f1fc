"""The sampled hosts of tests/sampled_hosts.py: every entry decodes, the
n = 60 entries come back from their seeds, and the drawing of each dual
and the flow's answers on each quadrangulation are pinned.  Unlike the
face-split duals that the benchmark draws, where every augmenting path of
the flow has length 3, about one path in eight is longer on these."""

import hashlib
import io
import json
import random

import schnyder_kit.duality as D
import schnyder_kit.orientation as O
import schnyder_kit.sampler as SA
import schnyder_kit.schnyder as S
from schnyder_kit.cli import main
from schnyder_kit.even import is_even_schnyder
from schnyder_kit.errors import OrientationError

from sampled_hosts import SAMPLED_HOSTS, triple


def _pairs():
    """(n, seed, decoded pair) of each catalogue entry."""
    return [(e[0], e[1], SA.decode(triple(e))) for e in SAMPLED_HOSTS]


def test_every_entry_decodes_and_the_small_ones_come_from_their_seeds():
    for entry in SAMPLED_HOSTS:
        n, seed, _ = entry
        ang, s = SA.decode(triple(entry))
        assert ang.map.n_faces == n and SA.encode(ang, s) == triple(entry)
        assert S.validate_schnyder(s) == [] and is_even_schnyder(s)
        if n == 60:
            _, t, _ = SA.rejection_sample_fast(n, random.Random(seed), 10**9)
            assert t == triple(entry)


def test_sampled_draw_stdout_is_pinned(tmp_path):
    # recorded before the flow read its NoSolution certificates off its
    # last search, which must change no drawing
    digests = {}
    for n, seed, (ang, _) in _pairs():
        rv = D.dualize(ang)
        path = tmp_path / "dual.json"
        path.write_text(json.dumps({
            "map": rv.map.to_json_obj(), "d": 4,
            "root_vertex": rv.root_vertex,
            "first_root_dart": rv.root_darts[0]}))
        out = io.StringIO()
        assert main(["draw", str(path), "--compact", "--with-root"],
                    out=out) == 0
        digests[n, seed] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == {
        (60, 0):
            "1bfb5e17f6d73af370cb4fa1e2895b9d0f65bb28ffefbf44d25a0ea62f457adb",
        (60, 1):
            "7c3e1d25a64bdb428618537d01c9a951f0c7221796bf424bc78b8f4e49d9eb3f",
        (120, 0):
            "6c278f40cdedd5e915d6c501997dc68cd6e30e5da408b872dd4eec8ef942d812",
        (120, 1):
            "ff8607e618c480f560b30a08d30344482d2c77419fb403b2db28b113a5d89912"}


def test_sampled_flow_results_are_pinned():
    """One sha256 per host over the flow's answers, recorded before the
    NoSolution certificate was read off the last search: the 2/1- and
    4/2-orientations, and five d/(d-2) alphas with 1 to 4 units moved from
    an internal vertex to a random one, answered by their values or by the
    NoSolution detail and certificate."""
    rng = random.Random(30)
    digests = {}
    refused = 0
    for n, seed, (ang, _) in _pairs():
        digest = hashlib.sha256()
        digest.update(repr(O.compute_p_p1_orientation(ang).values).encode())
        digest.update(repr(O.compute_dd2_orientation(ang).values).encode())
        m, internal = ang.map, ang.internal_vertices()
        for _ in range(5):
            alpha = [4 * (v in internal) for v in range(m.n_vertices)]
            shift = rng.randint(1, 4)
            alpha[rng.choice(internal)] -= shift
            alpha[rng.randrange(m.n_vertices)] += shift
            try:
                answer = O.compute_alpha_k_orientation(
                    m, ang.internal_edges(), alpha, 2)
            except OrientationError as err:
                assert err.kind == "NoSolution" and err.certificate
                answer = (err.detail, err.certificate)
                refused += 1
            digest.update(repr(answer).encode())
        digests[n, seed] = digest.hexdigest()
    assert refused == 9
    assert digests == {
        (60, 0):
            "a5840405ad99631a77c49ed93169f1d584b30562a5af8c197d0bebfe3eaf5396",
        (60, 1):
            "bb3d0729c89b5d16e143ff164b6f474fcc552496dc30d0e84f61e6ea2fddd4ac",
        (120, 0):
            "462ebd0e24fbfbd50a0541d09656aef065ba5da7d48eec5c7220f3e67e463784",
        (120, 1):
            "d871f1141ccf0eeaf081068c937f221b2bdcce2278121c8c6f98974ec598a12e"}

import hashlib
import random

import pytest

from schnyder_kit.errors import OrientationError
from schnyder_kit.planar_map import as_angulation
import schnyder_kit.orientation as O
import schnyder_kit.planar_map as P

import instances as I
from oracles import (
    brute_force_dd2, brute_force_orientations, ccw_traversal_by_flood_fill,
    edmonds_karp, enumerate_angulations, flood_fill_d_circuits, is_even,
)


def tetra():
    return as_angulation(I.tetrahedron(), 3)


def cube():
    return as_angulation(I.cube(), 4)


def outdegrees(o):
    """Each vertex's outdegree in o: the sum of its darts' values."""
    got = [0] * o.map.n_vertices
    for h, x in enumerate(o.values):
        got[o.map.origin[h]] += max(x, 0)
    return got


def assert_alpha_orientation(o, alpha):
    """o orients whole edges, the two values of each summing to o.k, with
    outdegree alpha[v] at each vertex v."""
    m, vals = o.map, o.values
    for h in m.edges():
        a, b = vals[h], vals[m.twin[h]]
        assert (a < 0) == (b < 0) and (a < 0 or a + b == o.k), h
    assert outdegrees(o) == list(alpha)


def test_tetrahedron_forced_orientation():
    o = O.compute_dd2_orientation(tetra())
    assert o.k == 1
    inner = tetra().internal_vertices()[0]
    assert outdegrees(o) == [3 * (v == inner) for v in range(4)]
    assert O.validate_orientation(o) == []


def test_alpha_k_infeasible_certificate():
    # cube with alpha demanding too little at the internal vertices
    c = cube()
    m = c.map
    alpha = [0] * m.n_vertices
    ivs = c.internal_vertices()
    # sum(alpha) == k|E| but one vertex starved: internal quad needs 1 per
    # vertex at k=1 on its 4 inner-square edges... use k=1, all 8 internal
    # edges, alpha = 3,3,1,1 on internal vertices (sum 8 = k|E|), but the
    # inner 4-cycle S has |E_S| = 4 and alpha-sum possibly < 4.
    alpha[ivs[0]] = 3
    alpha[ivs[1]] = 3
    alpha[ivs[2]] = 1
    alpha[ivs[3]] = 1
    with pytest.raises(OrientationError) as ei:
        O.compute_alpha_k_orientation(m, c.internal_edges(), alpha, 1)
    assert ei.value.kind == "NoSolution"
    cert = ei.value.certificate
    if cert is not None:
        cs = set(cert)
        inner = sum(1 for e in c.internal_edges()
                    if m.origin[e] in cs and m.target_of[e] in cs)
        assert sum(alpha[v] for v in cert) < 1 * inner


def test_certificate_search_skips_a_tight_component():
    """Unreached vertices a-b (a wants its edge, b nothing) form a
    component that is not violated, and the triangle c, d, e (wanting
    nothing) one that is: the search passes over b, already in a's
    component, and certifies the triangle.  Path a-b-x-c, triangle c d e,
    k = 1, alpha(x) = 5 for x's two edges."""
    coords = [(-3.0, 0.0), (-2.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, -1.0),
              (-1.0, 0.0)]
    m = I.map_from_coords(coords, [(0, 1), (1, 5), (5, 2), (2, 3), (3, 4),
                                   (4, 2)])
    with pytest.raises(OrientationError) as ei:
        O.compute_alpha_k_orientation(m, m.edges(), [1, 0, 0, 0, 0, 5], 1)
    assert ei.value.kind == "NoSolution"
    assert ei.value.certificate == [2, 3, 4]


def test_every_angulation_closes_a_d_cycle(study_corpus):
    """The outer face of a view from as_angulation is a d-cycle, so the
    girth check of the flow needs no case for acyclic maps."""
    for d, angs in study_corpus.items():
        for ang in angs:
            assert ang.map.girth() <= d


def test_alpha_sum_mismatch():
    c = cube()
    alpha = [1] * c.map.n_vertices  # sum 8 != k|E| = 16
    with pytest.raises(OrientationError) as ei:
        O.compute_alpha_k_orientation(c.map, c.internal_edges(), alpha, 2)
    assert ei.value.kind == "NoSolution"


def test_girth_too_small():
    g2 = as_angulation(I.girth2_quadrangulation(), 4)
    with pytest.raises(OrientationError) as ei:
        O.compute_dd2_orientation(g2)
    assert ei.value.kind == "GirthTooSmall"
    with pytest.raises(OrientationError):
        O.compute_p_p1_orientation(g2)


def test_odd_d_rejected():
    with pytest.raises(OrientationError) as ei:
        O.compute_p_p1_orientation(tetra())
    assert ei.value.kind == "OddD"


def test_p_p1_and_doubling():
    c = cube()
    o = O.compute_p_p1_orientation(c)
    assert o.k == 1
    assert_alpha_orientation(o, [2 * (v not in c.external)
                                 for v in range(c.map.n_vertices)])
    d = O.double(o)
    assert O.validate_orientation(d) == []
    assert d.k == 2
    assert is_even(d)
    assert not is_even(O.compute_dd2_orientation(tetra()))


def test_dodecahedron_5_3_orientation():
    dod = as_angulation(I.dodecahedron(), 5)
    o = O.compute_dd2_orientation(dod)
    assert O.validate_orientation(o) == []
    assert o.k == 3
    assert {outdegrees(o)[v] for v in dod.internal_vertices()} == {5}


def test_flow_meets_alpha_without_a_certificate(study_corpus):
    """compute_alpha_k_orientation does not check its own result: on every
    study-corpus map, the outdegrees of the d/(d-2)- and (for d = 4)
    2/1-orientations, and of a random k-orientation of the internal edges
    for k = 1, 2, 3, are met exactly, with each edge summing to k."""
    rng = random.Random(5)
    for ang in [a for angs in study_corpus.values() for a in angs]:
        m = ang.map
        edges = ang.internal_edges()
        for k in (1, 2, 3):
            vals = [-1] * m.n_darts
            for e in edges:
                vals[e] = rng.randint(0, k)
                vals[m.twin[e]] = k - vals[e]
            alpha = outdegrees(O.FracOrientation(ang, k, tuple(vals)))
            assert_alpha_orientation(O.FracOrientation(
                ang, k, O.compute_alpha_k_orientation(m, edges, alpha, k)),
                alpha)
        internal = set(ang.internal_vertices())
        assert_alpha_orientation(
            O.compute_dd2_orientation(ang),
            [ang.d * (v in internal) for v in range(m.n_vertices)])
        if ang.d == 4:
            assert_alpha_orientation(
                O.compute_p_p1_orientation(ang),
                [2 * (v in internal) for v in range(m.n_vertices)])


def test_max_flow_matches_textbook_edmonds_karp():
    """_FlowNet.max_flow gives the value and the final residual capacities
    of textbook Edmonds-Karp on 3,000 seeded random networks of 2 to 9
    nodes.  Their arcs join random nodes, so the networks have arcs into
    the source, parallel arcs, arcs between the source's neighbours,
    several arcs into the sink from one node and zero-capacity arcs: the
    early stop, the sink-arc lookup and the start past the saturated
    source arcs are exact without the orientation network's layers."""
    rng = random.Random(24)
    seen = {"into s": 0, "parallel": 0, "between s's neighbours": 0,
            "sink arcs at one node": 0,
            "saturated source arc before an open one": 0}
    for _ in range(3000):
        n = rng.randint(2, 9)
        arcs = []
        for _ in range(rng.randint(1, 3 * n)):
            arcs.append((rng.randrange(n), rng.randrange(n),
                         rng.choice((0, 1, 1, 2, 3))))
            if rng.random() < 0.2:
                arcs.append(arcs[-1])
        net = O._FlowNet(n)
        for arc in arcs:
            net.add(*arc)
        assert (net.max_flow(0, 1), net.cap) == edmonds_karp(n, arcs, 0, 1)
        tails = [u for u, v, _ in arcs if v == 1]
        seen["into s"] += any(v == 0 for _, v, _ in arcs)
        seen["parallel"] += len(set(arcs)) < len(arcs)
        nbrs = {v for u, v, _ in arcs if u == 0}
        seen["between s's neighbours"] += \
            any(u in nbrs and v in nbrs for u, v, _ in arcs)
        seen["sink arcs at one node"] += len(set(tails)) < len(tails)
        out = net.adj[0]             # residual arcs out of the source
        seen["saturated source arc before an open one"] += \
            bool(out) and out[0] % 2 == 0 and arcs[out[0] // 2][2] > 0 and \
            net.cap[out[0]] == 0 and any(net.cap[a] for a in out)
    assert min(seen.values()) >= 100, seen


def test_flow_results_are_pinned(study_corpus):
    """One sha256 over the flow's answers, recorded before each augmenting
    path search stopped at its first sink arc: the d/(d-2)-orientation of
    every study-corpus map, the 2/1-orientation of each d = 4 map, and, on
    each map with an internal vertex, the answer to the d/(d-2) alpha with
    1 to d units moved from an internal vertex to a random one: the values
    when the flow meets it, else the NoSolution detail and certificate."""
    rng = random.Random(23)
    digest = hashlib.sha256()
    refused = certified = 0
    for d, angs in sorted(study_corpus.items()):
        for ang in angs:
            digest.update(repr(O.compute_dd2_orientation(ang).values).encode())
            if d == 4:
                digest.update(
                    repr(O.compute_p_p1_orientation(ang).values).encode())
            m, internal = ang.map, ang.internal_vertices()
            if not internal:
                continue
            alpha = [d * (v in internal) for v in range(m.n_vertices)]
            shift = rng.randint(1, d)
            alpha[rng.choice(internal)] -= shift
            alpha[rng.randrange(m.n_vertices)] += shift
            try:
                answer = O.compute_alpha_k_orientation(
                    m, ang.internal_edges(), alpha, d - 2)
            except OrientationError as err:
                assert err.kind == "NoSolution"
                answer = (err.detail, err.certificate)
                refused += 1
                certified += err.certificate is not None
            digest.update(repr(answer).encode())
    assert (refused, certified) == (459, 459)
    assert digest.hexdigest() == \
        "f8b78bfc63f6f1c6d670a09ecd809922bf5abcebc7c4f6c51405a25aa7e97389"


def test_push_preserves_outdegrees():
    c = cube()
    for o in O.lattice_enumerate(c):
        for trav in flood_fill_d_circuits(o)[0]:
            o2 = O.push_cycle(o, trav)
            assert O.validate_orientation(o2) == []
            assert outdegrees(o2) == outdegrees(o)
            # pushing back up restores the original
            back = tuple(c.map.twin[h] for h in reversed(trav))
            assert O.push_cycle(o2, back).values == o.values


def _checked_ccw_circuits(o):
    """The full ccw scan of o, once both scans match the oracle's lists."""
    circuits = O._find_d_circuits(o, True)
    assert (circuits, O._find_d_circuits(o, False)) == \
        flood_fill_d_circuits(o)
    return circuits


def test_circuit_scan_matches_flood_fill_oracle(study_corpus):
    """The scan that tests dart values before the side lists the same
    circuits in the same order as flood-filling every d-cycle, on every
    lattice element of the study corpus."""
    elements = circuits = 0
    for angs in study_corpus.values():
        for ang in angs:
            for o in O.lattice_enumerate(ang):
                circuits += len(_checked_ccw_circuits(o))
                elements += 1
    assert elements == 1154 and circuits == 1130


def _walk_hosts():
    """(map, pushes of the walk to the minimum): quadrangulations whose
    nested 4-cycles separate.  The ringed one is host 0 of the benchmark's
    orient-min workload (25 rings, 20 face splits, 120 vertices), whose
    walk the benchmark times."""
    yield I.ringed_quadrangulation(25, 20, random.Random("ringed:0")), 48
    yield I.concentric_quadrangulation(4), 6
    yield I.concentric_quadrangulation(6), 10


def test_walk_to_the_minimum_pushes_the_oracle_first_circuit():
    """At every step of the walk down to the minimum, the scan stopped at
    its first circuit returns the first circuit of the full lists, the
    library's and the flood-fill oracle's, and the walk ends at
    minimal_orientation."""
    for m, height in _walk_hosts():
        ang = as_angulation(m, 4)
        o = O.compute_dd2_orientation(ang)
        pushes = 0
        while True:
            first = O._find_d_circuits(o, True, limit=1)
            assert first == _checked_ccw_circuits(o)[:1]
            if not first:
                break
            o = O.push_cycle(o, first[0])
            pushes += 1
        assert pushes == height
        assert o.values == O.minimal_orientation(
            O.compute_dd2_orientation(ang)).values


def test_limited_scan_stops_drawing_d_cycles(monkeypatch):
    """The scan stopped at its first circuit draws fewer d-cycles from the
    listing than the full scan: the cycles are listed lazily."""
    listing = O._simple_cycles_of_length
    drawn = []

    def counted(*args):
        for cyc in listing(*args):
            drawn.append(cyc)
            yield cyc

    monkeypatch.setattr(O, "_simple_cycles_of_length", counted)
    ang = as_angulation(next(_walk_hosts())[0], 4)
    o = O.compute_dd2_orientation(ang)
    first = O._find_d_circuits(o, True, limit=1)
    limited = len(drawn)
    drawn.clear()
    circuits = O._find_d_circuits(o, True)
    assert first == circuits[:1] and len(first) == 1
    assert 0 < limited < len(drawn)


def _side_test_hosts():
    """(map, d): every girth-d d-angulation with (d, faces) = (3, 7),
    (4, 6), (5, 5), (6, 5), and quadrangulations whose 4-cycles nest:
    ringed ones with and without face splits (the last one host 0 of the
    benchmark's orient-min workload), face-split ones and the concentric
    ones of the instances."""
    for d, faces in ((3, 7), (4, 6), (5, 5), (6, 5)):
        yield from ((m, d) for m in enumerate_angulations(d, faces))
    for rings in range(1, 7):
        for splits in (0, 3, 12):
            yield I.ringed_quadrangulation(
                rings, splits, random.Random(100 * rings + splits)), 4
    for faces in (3, 5, 9, 17, 30, 60):
        yield I.face_split_quadrangulation(faces, random.Random(faces)), 4
    for k in (2, 3, 5):
        yield I.concentric_quadrangulation(k), 4
    yield I.ringed_quadrangulation(25, 20, random.Random("ringed:0")), 4


def test_ccw_traversal_matches_flood_fill_on_every_d_cycle():
    """The parity count on the dual spanning tree puts the outer face on
    the left of every simple d-cycle, given in either direction, exactly
    when the face flood fill turns that direction around."""
    hosts = cycles = 0
    for m, d in _side_test_hosts():
        hosts += 1
        for cyc in O._simple_cycles_of_length(m, d, m.edges()):
            for trav in (cyc, tuple(m.twin[h] for h in reversed(cyc))):
                assert m.outer_face_left_of(trav) == \
                    (ccw_traversal_by_flood_fill(m, trav) != trav)
                cycles += 1
    assert hosts == 310 and cycles > 6000


class _CountedReads(tuple):
    """A tuple that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


def test_minimal_orientation_builds_one_side_index(monkeypatch):
    """A walk to the minimum on host 0 of the benchmark's orient-min
    workload (120 vertices, 48 pushes) builds the dual-tree side index once
    for all its scans, and reads no face orbit beyond that build: a flood
    fill per cycle would read many."""
    ang = as_angulation(next(_walk_hosts())[0], 4)
    m = ang.map
    builds = []
    build = P.dual_tree_intervals
    monkeypatch.setattr(P, "dual_tree_intervals",
                        lambda m: builds.append(m) or build(m))
    faces = _CountedReads(m.faces)
    object.__setattr__(m, "faces", faces)    # PlaneMap refuses setattr
    scans = []
    scan = O._find_d_circuits
    monkeypatch.setattr(O, "_find_d_circuits",
                        lambda o, ccw, limit=None:
                        scans.append(ccw) or scan(o, ccw, limit))
    O.minimal_orientation(O.compute_dd2_orientation(ang))
    assert len(scans) == 49                  # 48 pushes, then none left
    assert builds == [m]
    assert faces.reads == m.n_faces


def test_push_rejects_non_circuit():
    o = O.minimal_orientation(O.compute_dd2_orientation(cube()))
    with pytest.raises(OrientationError):
        O.push_cycle(o, (0, 5))


def test_minimal_orientation_start_independent():
    c = cube()
    lat = O.lattice_enumerate(c)
    mins = {O.minimal_orientation(o).values for o in lat}
    assert len(mins) == 1
    m0 = O.minimal_orientation(O.compute_dd2_orientation(c))
    assert O._find_d_circuits(m0, True) == []
    assert O.minimal_orientation(m0).values == m0.values  # idempotent


def test_lattice_counts_match_brute_force():
    for ang in (tetra(), cube()):
        assert len(O.lattice_enumerate(ang)) == len(brute_force_dd2(ang))
    # lattice output is closed under ccw pushes and contains the minimum
    c = cube()
    lat = {o.values for o in O.lattice_enumerate(c)}
    assert O.minimal_orientation(O.compute_dd2_orientation(c)).values \
        in lat
    for o in O.lattice_enumerate(c):
        for trav in O._find_d_circuits(o, True):
            assert O.push_cycle(o, trav).values in lat


def test_two_orientation_lattice_cube():
    c = cube()
    n2 = len(brute_force_orientations(c, 2, 1))
    assert n2 == 2  # frozen from the exhaustive oracle
    o = O.compute_p_p1_orientation(c)
    # push saturation inside the 2-orientation lattice also works
    o_min = O.minimal_orientation(o)
    assert O._find_d_circuits(o_min, True) == []


def test_explosion_guard(monkeypatch):
    monkeypatch.setattr(O, "LATTICE_CAP", 1)
    with pytest.raises(OrientationError) as ei:
        O.lattice_enumerate(cube())
    assert ei.value.kind == "ExplosionGuard"


def test_json_round_trip():
    c = cube()
    o = O.compute_dd2_orientation(c)
    o2 = O.FracOrientation.from_json_obj(o.to_json_obj(), c)
    assert o2.values == o.values and o2.k == o.k

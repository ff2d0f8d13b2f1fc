import hashlib
import io
import json
import random
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from schnyder_kit.errors import SamplerError
from schnyder_kit.planar_map import as_angulation
import schnyder_kit.cli as cli
import schnyder_kit.planar_map as PM
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D
import schnyder_kit.drawing as DR
import schnyder_kit.even as E
import schnyder_kit.orientation as O
import schnyder_kit.sampler as SA

import instances as I
import oracles
from oracles import (
    _fixed_popcount_word, _geometric, grow_tree, pair_code,
    rejection_sample, rooted_code, sample_geometric_triple,
    sweep_closes, tree_word_closes,
)


def even_pairs(even_decompositions, name):
    """The pairs (angulation, s) of a handmade quadrangulation."""
    return [(ang, s) for ang, s, _ in even_decompositions[name]]


def compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def all_sum_valid_triples(n):
    for r in range(1, n + 1):
        for alpha in compositions(n, r):
            for beta in compositions(n, n - r + 1):
                for gamma in compositions(n, n - r + 1):
                    yield SA.EncodingTriple(alpha, beta, gamma)


def test_encode_cube(even_decompositions):
    triples = {(t.alpha, t.beta, t.gamma) for t in (
        SA.encode(a, s) for a, s in even_pairs(even_decompositions, "cube"))}
    assert triples == {((3, 2, 1), (1, 1, 2, 2), (2, 2, 1, 1)),
                       ((3, 2, 1), (1, 2, 1, 2), (2, 1, 2, 1))}
    for alpha, beta, gamma in triples:
        assert sum(alpha) == sum(beta) == sum(gamma) == 6


def test_round_trip_exhaustive_small_n(small_pairs):
    for n in range(2, 7):
        seen = set()
        for ang, s in small_pairs[n]:
            t = SA.encode(ang, s)
            key = (t.alpha, t.beta, t.gamma)
            assert key not in seen      # encode is injective
            seen.add(key)
            ang2, s2 = SA.decode(t)
            assert pair_code(ang, s) == pair_code(ang2, s2)


def test_round_trip_handmade_instances(even_decompositions):
    for name in ("cube", "cube_plus", "rings3", "wheel4", "wheel5"):
        for ang, s in even_pairs(even_decompositions, name):
            ang2, s2 = SA.decode(SA.encode(ang, s))
            assert pair_code(ang, s) == pair_code(ang2, s2)


def test_decode_accepts_exactly_the_encodable_triples():
    n = 5
    image = {(t.alpha, t.beta, t.gamma)
             for t in (SA.encode(a, s) for a, s in oracles.enumerate_pairs(n))}
    accepted = set()
    stages = Counter()
    for t in all_sum_valid_triples(n):
        try:
            SA.decode(t)
            accepted.add((t.alpha, t.beta, t.gamma))
        except SamplerError as exc:
            assert exc.kind == "Invalid"
            stages[exc.stage] += 1
    assert accepted == image
    assert set(stages) <= {"TreeReconstructionFailed", "ClosureFailed",
                           "ValidationFailed"}


def test_decode_error_stages():
    with pytest.raises(SamplerError) as ei:
        SA.decode(SA.EncodingTriple((2, 1), (1, 2), (2, 2)))
    assert ei.value.kind == "Invalid"
    assert ei.value.stage == "TreeReconstructionFailed"   # sum mismatch
    with pytest.raises(SamplerError) as ei:
        SA.decode(SA.EncodingTriple((1,), (1,), (1,)))    # u2 would equal u4
    assert ei.value.stage == "TreeReconstructionFailed"
    with pytest.raises(SamplerError) as ei:
        SA.decode(SA.EncodingTriple((2, 2), (1, 2, 1), (1, 2, 1)))
    assert ei.value.stage == "ClosureFailed"
    assert ei.value.as_object()["kind"] == "Invalid"
    for bad in ((3, 1.0), (3, 0, 1), (3, "1"), (None,), (3, True)):
        for t in (SA.EncodingTriple((2, 2), bad, (2, 1, 1)),
                  SA.EncodingTriple(bad, (2, 2), (2, 2))):
            with pytest.raises(SamplerError) as ei:
                SA.decode(t)
            assert ei.value.detail == "degrees must be positive integers"
    # isinstance(True, int) holds, but a bool is no degree: with 1 in place
    # of each True this triple decodes
    SA.decode(SA.EncodingTriple((2,), (1, 1), (1, 1)))
    with pytest.raises(SamplerError) as ei:
        SA.decode(SA.EncodingTriple((2,), (True, True), (True, True)))
    assert ei.value.stage == "TreeReconstructionFailed"
    assert ei.value.detail == "degrees must be positive integers"


def test_decode_results_are_pinned():
    # a digest of decode's output on every sum-valid triple with n <= 6 and
    # on 20 seeded n = 24 samples: the map tables, outer dart, externals and
    # masks of each decoded pair, or the kind, stage and detail of each
    # failure, so a rewrite of decode must number every dart as before
    triples = [t for n in range(1, 7) for t in all_sum_valid_triples(n)]
    triples += [SA.rejection_sample_fast(24, random.Random(seed), 10 ** 5)[1]
                for seed in range(20)]
    digest = hashlib.sha256()
    for t in triples:
        try:
            ang, s = SA.decode(t)
        except SamplerError as exc:
            record = (exc.kind, exc.stage, exc.detail)
        else:
            m = ang.map
            record = (m.twin, m.next_cw, m.origin, m.outer_dart,
                      ang.external, s.masks)
        digest.update(repr(record).encode())
    assert len(triples) == 2687
    assert digest.hexdigest() == \
        "f513d384386248195c55cf37862f4d0ea44bffc52f851c16d4b8002f89a40edb"


def test_geometric_marginal_and_determinism():
    rng = random.Random(99)
    draws = [_geometric(rng) for _ in range(10 ** 5)]
    assert abs(draws.count(1) / len(draws) - 0.5) < 0.01
    t1 = sample_geometric_triple(12, random.Random(5))
    t2 = sample_geometric_triple(12, random.Random(5))
    assert t1 == t2
    r = len(t1.alpha)
    assert r <= 12 and len(t1.beta) == len(t1.gamma) == 12 - r + 1
    assert sum(t1.alpha) >= 12


def accepted_histogram(fn, n, seed, k):
    rng = random.Random(seed)
    c = Counter()
    for _ in range(k):
        _, t, _ = fn(n, rng)
        c[(t.alpha, t.beta, t.gamma)] += 1
    return c


def test_fast_sampler_matches_reference_distribution():
    # the geometric rejection path and the exactly conditioned path accept
    # with the same distribution; compare accepted-triple frequencies at
    # n = 4 (6 valid pairs)
    k = 1500
    h_slow = accepted_histogram(rejection_sample, 4, 11, k)
    h_fast = accepted_histogram(SA.rejection_sample_fast, 4, 11, k)
    assert set(h_slow) == set(h_fast) and len(h_slow) == 6
    for key in h_slow:
        assert abs(h_slow[key] - h_fast[key]) / k < 0.05


def test_exact_conditioning_weights_match_the_bit_filter():
    # The bit filter keeps a word triple iff its words pass independent
    # per-word tests once s = popcount(a) is fixed, so the triples it keeps
    # for each s number (words a passing) * (words b passing)^2.  Count
    # them from all n-bit words, both with the filter's bit tests and with
    # the run sums they stand for (r runs in a, n-r+1 in b and c, all
    # summing to n), and compare with the weights the sampler draws s from.
    for n in range(1, 9):
        top = 1 << (n - 1)
        by_popcount = Counter()
        by_runs = Counter()
        for w in range(1 << n):
            if not w & top:
                by_popcount[w.bit_count()] += 1
            runs = SA._word_to_runs(w, n)
            if sum(runs) == n:
                by_runs[len(runs)] += 1
        cum = SA._popcount_table(n)
        weights = [cum[0]] + [hi - lo for lo, hi in zip(cum, cum[1:])]
        for s in range(n):
            r = n - s
            filtered = by_popcount[s] * by_popcount[n - 1 - s] ** 2
            summed = by_runs[r] * by_runs[n - r + 1] ** 2
            assert filtered == summed == weights[s] == comb(n - 1, s) ** 3, \
                (n, s)


def test_fixed_popcount_draw_reaches_exactly_its_class():
    width = 3                                   # the flip words at n = 4
    for k in range(width + 1):
        cls = {w for w in range(1 << width) if w.bit_count() == k}
        seen = {_fixed_popcount_word(random.Random(seed), width, k)
                for seed in range(200)}
        assert seen == cls, (k, seen)


class LoggingRandom(random.Random):
    """A Random that logs every getrandbits(k) call and its value."""

    def __init__(self, seed):
        self.log = []
        super().__init__(seed)

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.log.append((k, value))
        return value


def test_attempts_count_drawn_triples(monkeypatch):
    # each attempt draws one class, by total.bit_length()-bit draws until
    # one is below total, and then its three words, so the attempts
    # returned (or the cap reached) equal the class draws kept in the log
    # of getrandbits calls; the sampler decodes at most one triple per
    # attempt, the returned one last
    decoded = []
    decode = SA.decode
    monkeypatch.setattr(SA, "decode", lambda t: decoded.append(t) or decode(t))

    def classes(log, n):
        total = SA._popcount_table(n)[-1]
        return sum(k == total.bit_length() and value < total
                   for k, value in log)

    for n in (4, 10, 24):
        for seed in range(40):
            decoded.clear()
            rng = LoggingRandom(seed)
            try:
                _, t, attempts = SA.rejection_sample_fast(n, rng)
            except SamplerError as exc:
                assert exc.kind == "RejectionLimitExceeded"
                assert classes(rng.log, n) == SA.default_max_decodes(n)
                continue
            assert classes(rng.log, n) == attempts, (n, seed)
            assert 1 <= len(decoded) <= attempts and decoded[-1] == t
            assert all(sum(seq) == n for seq in (t.alpha, t.beta, t.gamma))
    monkeypatch.setattr(SA, "default_max_decodes", lambda n: 2)
    for cap, limit in ((3, 3), (None, 2)):
        decoded.clear()
        rng = LoggingRandom(0)
        with pytest.raises(SamplerError) as ei:
            SA.rejection_sample_fast(24, rng, cap)
        assert ei.value.kind == "RejectionLimitExceeded"
        assert classes(rng.log, 24) == limit >= len(decoded)


class _ClassDrawn(Exception):
    pass


def test_class_draw_consumes_the_generator_as_randrange():
    # the sampler draws its class inline; stopped at the first word draw,
    # it has taken the value randrange(total) takes, and left the same
    # generator state.  n = 2 has total 2, a power of two, where randrange
    # draws total.bit_length() = 2 bits, not 1.
    class StopAtWords(random.Random):
        def getrandbits(self, k):
            if k != self.bits:
                raise _ClassDrawn
            self.value = super().getrandbits(k)
            return self.value

    assert SA._popcount_table(2)[-1] == 2
    for n in range(2, 41):
        total = SA._popcount_table(n)[-1]
        assert total.bit_length() != n - 1
        for seed in range(200):
            rng = StopAtWords(seed)
            rng.bits = total.bit_length()
            with pytest.raises(_ClassDrawn):
                SA.rejection_sample_fast(n, rng, 1)
            ref = random.Random(seed)
            assert rng.value == ref.randrange(total), (n, seed)
            assert rng.getstate() == ref.getstate(), (n, seed)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_n_below_two_is_a_bad_parameter_before_any_draw(n):
    # at n = 1 alpha is (1), which never decodes: no triple is drawn
    rng = LoggingRandom(0)
    for call in (lambda: SA.rejection_sample_fast(n, rng),
                 lambda: SA.concentration_experiment(n, 1, seed=0)):
        with pytest.raises(SamplerError) as ei:
            call()
        assert ei.value.kind == "BadParameter"
        assert ei.value.detail == f"n = {n} must be at least 2"
    assert rng.log == []


def test_n_above_the_sample_cap_is_a_bad_parameter_before_any_table(
        monkeypatch):
    """The weight table grows like n^2.6 before the first draw, so n above
    SAMPLE_CAP is refused before it is built."""
    def table(n):
        raise AssertionError("weight table built")

    monkeypatch.setattr(SA, "_popcount_table", table)
    n = SA.SAMPLE_CAP + 1
    rng = LoggingRandom(0)
    for call in (lambda: SA.rejection_sample_fast(n, rng),
                 lambda: SA.concentration_experiment(n, 1, seed=0)):
        with pytest.raises(SamplerError) as ei:
            call()
        assert ei.value.kind == "BadParameter"
        assert ei.value.detail == f"n = {n} exceeds the cap {SA.SAMPLE_CAP}"
    assert rng.log == []


# sha256 prefixes of the outcomes of seeds 0-39, recorded where decoding
# every drawn triple gave the same outcomes
PRETEST_OUTCOMES = {
    (4, None): "052304e28903960b", (6, None): "53a5d93adbaf3e9a",
    (10, None): "ef553519828db1da", (24, None): "eabd6f4782b98fb6",
    (4, 3): "8da6a1c678da4466", (6, 3): "cae396ce120bae5c",
    (10, 3): "fac7df5f4d00ceb9", (24, 3): "9b29bfa2519a77b1",
}


@pytest.mark.parametrize("n", [4, 6, 10, 24])
@pytest.mark.parametrize("cap", [None, 3])
def test_pretest_keeps_the_draws_and_results(n, cap):
    # the tree-stage pre-test only skips decodes that would fail, so the
    # sampler returns the (triple, attempts), or the error, that decoding
    # every drawn triple returns
    def outcome(seed):
        try:
            _, t, attempts = SA.rejection_sample_fast(n, random.Random(seed),
                                                      cap)
        except SamplerError as exc:
            return exc.kind, exc.detail
        return (t.alpha, t.beta, t.gamma), attempts

    outcomes = repr([outcome(seed) for seed in range(40)]).encode()
    assert hashlib.sha256(outcomes).hexdigest()[:16] == \
        PRETEST_OUTCOMES[n, cap]


def test_pretest_fails_exactly_when_the_tree_does():
    # every pair of flip words (a, b) with the conditioned popcounts, n <= 8;
    # the pre-test also agrees with growing the tree recursively
    for n in range(1, 9):
        width = n - 1
        by_popcount = [[] for _ in range(n)]
        for w in range(1 << width):
            by_popcount[w.bit_count()].append(w)
        for s in range(n):
            for a in by_popcount[s]:
                alpha = SA._word_to_runs(a, n)
                for b in by_popcount[n - 1 - s]:
                    beta = SA._word_to_runs(b, n)
                    passes = bool(a & 1) and SA._contour_closes(a, b, n)
                    assert passes == (alpha[0] >= 2 and
                                      tree_word_closes(alpha, beta))
                    t = SA.EncodingTriple(tuple(alpha), tuple(beta),
                                          tuple(beta))
                    try:
                        SA.decode(t)
                        fails = False
                    except SamplerError as exc:
                        fails = exc.stage == "TreeReconstructionFailed"
                    assert passes != fails, (n, a, b)


@pytest.mark.parametrize("n", [24, 40, 100, 320])
def test_word_walk_agrees_with_the_tree_on_random_pairs(n):
    # pairs of flip words drawn as the sampler draws them, at sizes the
    # exhaustive test cannot reach; a is odd or even, and both outcomes
    # occur often (about 4/n of the pairs close, hence 20n pairs at n = 320)
    rng = random.Random(n)
    cum = SA._popcount_table(n)
    outcomes = Counter()
    for _ in range(max(2000, 20 * n)):
        s = bisect_right(cum, rng.randrange(cum[-1]))
        a = _fixed_popcount_word(rng, n - 1, s)
        b = _fixed_popcount_word(rng, n - 1, n - 1 - s)
        closes = SA._contour_closes(a, b, n)
        assert closes == tree_word_closes(SA._word_to_runs(a, n),
                                          SA._word_to_runs(b, n)), (n, a, b)
        outcomes[closes] += 1
    assert min(outcomes.values()) >= 40, outcomes


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_tree_stage_counts_plane_trees():
    # every pair of flip words with popcount(a) = s and popcount(b) = n-1-s,
    # n <= 11: the pairs that pass the ballot test are the plane trees with
    # n edges and n - s black (even-depth) nodes, which number the Narayana
    # number C(n, s) C(n, s+1) / n; Cat(n) in all, and Cat(n) - Cat(n-1)
    # with a odd, the trees whose root has degree at least 2
    for n in range(2, 12):
        by_popcount = [[] for _ in range(n)]
        for w in range(1 << (n - 1)):
            by_popcount[w.bit_count()].append(w)
        counts = [0] * n
        odd = 0
        for s in range(n):
            for a in by_popcount[s]:
                for b in by_popcount[n - 1 - s]:
                    if SA._contour_closes(a, b, n):
                        counts[s] += 1
                        odd += a & 1
        assert counts == [comb(n, s) * comb(n, s + 1) // n
                          for s in range(n)], n
        assert sum(counts) == catalan(n)
        assert odd == catalan(n) - catalan(n - 1)


def test_decode_checks_lengths_before_building_words(monkeypatch):
    # a degree of 10**12 with lengths that do not match the sum fails the
    # input checks; no flip word of 10**12 bits is built
    words = []
    to_word = SA._runs_to_word
    monkeypatch.setattr(SA, "_runs_to_word",
                        lambda seq: words.append(seq) or to_word(seq))
    huge = 10 ** 12
    for t, detail in (
            (SA.EncodingTriple((huge,), (huge,), (huge,)),
             "r + s + 1 does not match the edge count"),
            (SA.EncodingTriple((huge, 1), (1, huge), (huge, 1)),
             "r + s + 1 does not match the edge count"),
            (SA.EncodingTriple((huge,), (1, 1), (1, 1)),
             f"sums differ: {huge}, 2, 2")):
        with pytest.raises(SamplerError) as ei:
            SA.decode(t)
        assert ei.value.stage == "TreeReconstructionFailed"
        assert ei.value.detail == detail
    assert words == []
    SA.decode(SA.EncodingTriple((3, 2, 1), (1, 1, 2, 2), (2, 2, 1, 1)))
    assert words == [(3, 2, 1), (1, 1, 2, 2), (2, 2, 1, 1)]


def test_strands_pretest_fails_exactly_when_the_sweep_does():
    # every triple of flip words with the conditioned popcounts, n <= 8,
    # that passes the tree stage: the count-only strand walk on the words
    # fails exactly when the full matching sweep over the tree does,
    # counting its u2/u4 check; the oracle grows the tree recursively from
    # the degree lists, so it shares no walk with the library.  The triples
    # that pass number the pairs with n faces (Baxter numbers, as counted
    # by test_enumerate_pairs_counts).
    closing = []
    for n in range(1, 9):
        by_popcount = [[] for _ in range(n)]
        for w in range(1 << (n - 1)):
            by_popcount[w.bit_count()].append(w)
        closing.append(0)
        for s in range(n):
            words = by_popcount[n - 1 - s]
            for a in by_popcount[s]:
                if not a & 1:
                    continue
                alpha = SA._word_to_runs(a, n)
                for b in words:
                    beta = SA._word_to_runs(b, n)
                    if not SA._contour_closes(a, b, n):
                        continue
                    for c in words:
                        color, children, gamma_of = grow_tree(
                            alpha, beta, SA._word_to_runs(c, n))
                        closes = SA._strands_close(a, b, c)
                        assert closes == sweep_closes(
                            color, children, gamma_of), (n, a, b, c)
                        closing[-1] += closes
    assert closing == [0, 1, 2, 6, 22, 92, 422, 2074]


@pytest.mark.parametrize("n", [24, 40, 100])
def test_strands_word_walk_agrees_with_the_sweep(n):
    # triples drawn as the sampler draws them that pass the tree stage, at
    # sizes the exhaustive test cannot reach, against the matching sweep
    # over the grown tree; few of them close, so the triples of three
    # samples, which all close, are compared too
    def agree(a, b, c):
        closes = SA._strands_close(a, b, c)
        lists = [SA._word_to_runs(w, n) for w in (a, b, c)]
        assert closes == sweep_closes(*grow_tree(*lists)), (n, a, b, c)
        return closes

    rng = random.Random(n)
    cum = SA._popcount_table(n)
    compared = 0
    while compared < 1000:
        s = bisect_right(cum, rng.randrange(cum[-1]))
        a = _fixed_popcount_word(rng, n - 1, s)
        b = _fixed_popcount_word(rng, n - 1, n - 1 - s)
        c = _fixed_popcount_word(rng, n - 1, n - 1 - s)
        if a & 1 and SA._contour_closes(a, b, n):
            agree(a, b, c)
            compared += 1
    for seed in range(3):
        _, t, _ = SA.rejection_sample_fast(n, random.Random(seed), 10 ** 7)
        assert agree(*map(SA._runs_to_word, (t.alpha, t.beta, t.gamma)))


def baxter_summand(n, s):
    """Theta(n, s) = C(n, s-1) C(n, s) C(n, s+1) / (C(n, 1) C(n, 2)), the
    summand of the Baxter number B(n-1) = sum_s Theta(n, s)."""
    if s == 0:
        return 0
    return comb(n, s - 1) * comb(n, s) * comb(n, s + 1) // \
        (comb(n, 1) * comb(n, 2))


BAXTER = [1, 2, 6, 22, 92, 422, 2074, 10754]       # B(1), ..., B(8)


def test_closing_triples_per_popcount_class_are_baxter_summands():
    # every triple of flip words in popcount class s (popcount(a) = s,
    # popcount(b) = popcount(c) = n-1-s) that passes both pre-tests, for
    # 2 <= n <= 9: the count per class is Theta(n, s) and the total is
    # B(n-1); decode accepts each of them for n <= 7
    for n in range(2, 10):
        by_popcount = [[] for _ in range(n)]
        for w in range(1 << (n - 1)):
            by_popcount[w.bit_count()].append(w)
        counts = [0] * n
        for s in range(n):
            runs = [(w, SA._word_to_runs(w, n))
                    for w in by_popcount[n - 1 - s]]
            for a in by_popcount[s]:
                if not a & 1:
                    continue
                alpha = SA._word_to_runs(a, n)
                for b, beta in runs:
                    if not SA._contour_closes(a, b, n):
                        continue
                    for c, gamma in runs:
                        if not SA._strands_close(a, b, c):
                            continue
                        counts[s] += 1
                        if n <= 7:
                            SA.decode(SA.EncodingTriple(
                                tuple(alpha), tuple(beta), tuple(gamma)))
        assert counts == [baxter_summand(n, s) for s in range(n)], n
        assert sum(counts) == BAXTER[n - 2]


def test_default_decode_cap_keeps_the_filter_budget():
    # 10**6 uniform word triples hold 10**6 * sum_s C(n-1, s)**3 / 8**n
    # triples with all sums n on average
    assert SA.default_max_decodes(1) == 10 ** 6 // 8
    assert SA.default_max_decodes(6) == 10 ** 6 * 2252 // 8 ** 6
    assert SA.default_max_decodes(24) == 1968


def test_rejection_sample_validates_and_limits():
    pair, t, attempts = rejection_sample(6, random.Random(3))
    ang, s = pair
    assert attempts >= 1
    assert ang.map.n_faces == 6
    assert S.validate_schnyder(s) == []
    assert (t.alpha, t.beta, t.gamma) == \
        tuple((u.alpha, u.beta, u.gamma) for u in (SA.encode(ang, s),))[0]
    with pytest.raises(SamplerError) as ei:
        rejection_sample(8, random.Random(0), max_attempts=1)
    assert ei.value.kind == "RejectionLimitExceeded"


def test_part_full_counts_pair_vs_geometry(even_decompositions):
    for m in (4, 5):
        for ang, s, rd in even_decompositions[f"wheel{m}"]:
            part, full = SA.part_full_counts((ang, s))
            fc = DR.classify_faces(DR.orthogonal_drawing(rd))
            cls = [info.cls for info in fc.values()]
            assert (part, full) == (cls.count("partly_reducible"),
                                    cls.count("fully_reducible"))


def test_enumerate_angulations_counts_and_validity():
    by_faces = Counter(m.n_faces
                       for m in oracles.enumerate_angulations(3, 12))
    # Tutte's count of rooted simple triangulations
    assert by_faces == {2: 1, 4: 1, 6: 3, 8: 13, 10: 68, 12: 399}
    maps = list(oracles.enumerate_angulations(4, 5))
    assert Counter(m.n_faces for m in maps) == {2: 1, 3: 2, 4: 6, 5: 22}
    codes = set()
    for m in maps:
        as_angulation(m, 4)
        assert m.girth() == 4
        code = rooted_code(m)
        assert code not in codes
        codes.add(code)


def test_enumerate_pairs_counts():
    # 1, 2, 6, 22, 92: the Baxter numbers, independently of the sampler
    assert [len(oracles.enumerate_pairs(n)) for n in (2, 3, 4, 5, 6)] == \
        [1, 2, 6, 22, 92]
    with pytest.raises(SamplerError) as ei:
        SA.enumerate_pairs(SA.ENUMERATION_CAP + 1)
    assert ei.value.kind == "CapExceeded"


def test_enumerate_pairs_decodes_each_oracle_pair_once(small_pairs):
    """The decoded closing triples are the pairs that the peeling oracle
    finds, each exactly once, for every n <= 8 (2,619 pairs)."""
    for n, pairs in small_pairs.items():
        codes = Counter(pair_code(ang, s) for ang, s in SA.enumerate_pairs(n))
        assert codes == Counter(pair_code(ang, s) for ang, s in pairs), n
        assert set(codes.values()) == {1}, n


@pytest.mark.parametrize("max_attempts", [0, -5])
def test_nonpositive_max_attempts_is_a_bad_parameter(max_attempts):
    with pytest.raises(SamplerError) as ei:
        SA.rejection_sample_fast(4, random.Random(1), max_attempts)
    assert ei.value.kind == "BadParameter"


def test_concentration_experiment_reproducible_and_parallel():
    st1 = SA.concentration_experiment(8, 12, seed=5)
    st2 = SA.concentration_experiment(8, 12, seed=5, jobs=2)
    assert st1 == st2
    assert st1.accepted == 12 and len(st1.part_counts) == 12
    obj = st1.to_json_obj()
    assert obj["summary"]["acceptance_rate"] == 12 / st1.attempts


def _balanced_grid(rd):
    """(width, height) of the drawing of rd after the balanced reduction."""
    gd = DR.orthogonal_drawing(rd)
    red = DR.apply_reduction(
        gd, DR.balanced_reduction_choice(DR.classify_faces(gd)))
    return (max(x for x, _ in red.coords.values()) + 1,
            max(y for _, y in red.coords.values()) + 1)


def _grid_from_counts(n, part, full):
    """Every reducible face removes its own row or column: a fully
    reducible one both, the partly reducible ones alternately a column and
    a row, starting with a column."""
    return n - 1 - full - (part + 1) // 2, n - 1 - full - part // 2


def test_reduced_grid_is_set_by_part_and_full(even_decompositions):
    """After the balanced reduction the drawing of a pair with n faces is
    n - 1 - full - ceil(part/2) wide and n - 1 - full - floor(part/2)
    high, on every pair with n <= 7 faces and on 40 samples each at n = 24
    and n = 40; the drawing is the oracle.  concentration_experiment still
    draws each sample rather than using the identity, because the
    benchmark's sample workload needs its drawing.* spans."""
    pairs = 0
    for n in range(2, 8):
        for ang, s, rd in even_decompositions[n]:
            part, full = SA.part_full_counts((ang, s))
            assert _balanced_grid(rd) == _grid_from_counts(n, part, full)
            pairs += 1
    assert pairs == 545
    for n in (24, 40):
        st = SA.concentration_experiment(n, 40, seed=n, max_attempts=10 ** 8)
        assert [_grid_from_counts(n, part, full)
                for part, full in zip(st.part_counts, st.full_counts)] == \
            list(zip(st.reduced_width, st.reduced_height))


# n -> (E[part], E[full]) over all pairs with n faces
EXACT_MEANS = {
    2: (0, 0), 3: (0, 0), 4: (0, 0), 5: (Fraction(1, 11), 0),
    6: (Fraction(4, 23), Fraction(1, 23)),
    7: (Fraction(52, 211), Fraction(25, 211)),
    8: (Fraction(326, 1037), Fraction(220, 1037)),
    9: (Fraction(2041, 5377), Fraction(1714, 5377)),
}


def test_exact_means_of_part_and_full(small_pairs):
    """The exact means of the part and full counts over every pair with
    n <= 9 faces: the oracle's pairs for n <= 8 (2,074 at n = 8), the
    decoded closing triples at n = 9 (10,754)."""
    by_n = {**small_pairs, 9: SA.enumerate_pairs(9)}
    for n, pairs in by_n.items():
        counts = [SA.part_full_counts(pair) for pair in pairs]
        assert (Fraction(sum(p for p, _ in counts), len(pairs)),
                Fraction(sum(f for _, f in counts), len(pairs))) == \
            EXACT_MEANS[n]
    assert len(by_n[8]) == 2074 and len(by_n[9]) == 10754


def test_sampled_means_lie_near_the_exact_means():
    """The sampler's mean part and full counts over 2,000 samples at n = 9
    lie within 4 standard errors of the exact 2041/5377 and 1714/5377.  The
    mean of 2,000 bounded counts is nearly normal, so a uniform sampler
    fails this at any seed with probability about 1e-4."""
    st = SA.concentration_experiment(9, 2000, seed=1)
    for counts, exact in zip((st.part_counts, st.full_counts), EXACT_MEANS[9]):
        mean = Fraction(sum(counts), len(counts))
        var = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)
        z = (mean - exact) / (var / len(counts)) ** 0.5
        assert abs(z) < 4, (float(mean), float(exact), float(z))


def _counting(monkeypatch, fn, calls):
    """Replace every module-level binding of fn in the package by a wrapper
    that appends its first argument to calls."""
    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "schnyder_kit":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def test_each_sample_is_validated_once_and_bipartitioned_once(monkeypatch):
    """One in-process sample --n 24 --count 3: each of the two validators
    on its path runs once per delivered sample, and the two-coloring search
    once per map and kind (the vertices of the quadrangulation and the
    faces of its dual, one each per sample)."""
    reduced, full, searched = [], [], []
    _counting(monkeypatch, E.validate_reduced_schnyder, reduced)
    _counting(monkeypatch, S.validate_schnyder, full)
    _counting(monkeypatch, PM.two_coloring, searched)
    out = io.StringIO()
    assert cli.main(["sample", "--n", "24", "--count", "3", "--seed", "3",
                     "--max-attempts", str(10 ** 8), "--jobs", "1"],
                    out=out) == 0
    assert json.loads(out.getvalue())["accepted"] == 3
    assert len(reduced) == len(full) == 3
    assert len({id(rs) for rs in reduced}) == len({id(s) for s in full}) == 3
    assert len(searched) == 6
    assert len({id(cell) for cell in searched}) == 6


def test_each_draw_validates_each_structure_once(monkeypatch, tmp_path):
    """One in-process draw --compact --with-root: the orientation, the
    Schnyder decomposition and the regular decomposition on its path are
    each validated once, by the map that takes them as input, and the
    labelling, which psi_inverse makes of a checked orientation, never."""
    ang = as_angulation(I.pseudo_double_wheel(5), 4)
    doc = tmp_path / "dual.json"
    doc.write_text(json.dumps({"map": D.dualize(ang).map.to_json_obj(),
                               "d": 4}))
    calls = {fn: [] for fn in (O.validate_orientation,
                               S.validate_labelling, S.validate_schnyder,
                               D.validate_regular_decomposition)}
    for fn, seen in calls.items():
        _counting(monkeypatch, fn, seen)
    out = io.StringIO()
    assert cli.main(["draw", str(doc), "--compact", "--with-root"],
                    out=out) == 0
    assert json.loads(out.getvalue())["coords"]
    assert [len(seen) for seen in calls.values()] == [1, 0, 1, 1]



def _broken(obj):
    """A payload object of the same shape that fails its check."""
    if "k" in obj:
        return dict(obj, k=obj["k"] + 2)
    key = "corner_colors" if "corner_colors" in obj else "dart_colors"
    return dict(obj, **{key: [obj[key][0]] * len(obj[key])})


@pytest.mark.parametrize("argv, payload", [
    (["convert", "--from", "schnyder", "--to", "orientation"], "schnyder"),
    (["convert", "--from", "orientation", "--to", "schnyder"], "orientation"),
    (["convert", "--from", "labelling", "--to", "orientation"], "labelling"),
    (["convert", "--from", "schnyder", "--to", "labelling"], "schnyder"),
    (["dualize"], "schnyder"),
])
def test_each_conversion_checks_its_payload_once(monkeypatch, tmp_path,
                                                 argv, payload):
    """In-process convert and dualize of the cube: the payload is checked
    once, as it is read, and nothing that the bijections make of it is
    checked again; a payload that fails its check is refused by that one
    call, before any map runs."""
    ang = as_angulation(I.cube(), 4)
    o = O.compute_dd2_orientation(ang)
    l = S.psi_inverse(o)
    good = {"map": ang.map.to_json_obj(), "d": 4,
            "orientation": o.to_json_obj(), "labelling": l.to_json_obj(),
            "schnyder": S.phi(l).to_json_obj()}
    checks = {"orientation": O.validate_orientation,
              "labelling": S.validate_labelling,
              "schnyder": S.validate_schnyder,
              "regular_decomposition": D.validate_regular_decomposition}
    once = {kind: int(kind == payload) for kind in checks}
    bad = dict(good, **{payload: _broken(good[payload])})
    path = tmp_path / "doc.json"
    for doc, status in ((good, 0), (bad, 1)):
        path.write_text(json.dumps(doc))
        calls = {kind: [] for kind in checks}
        with monkeypatch.context() as mp:
            for kind, fn in checks.items():
                _counting(mp, fn, calls[kind])
            rc = cli.main([argv[0], str(path), *argv[1:]], out=io.StringIO())
        assert rc == status
        assert {kind: len(seen) for kind, seen in calls.items()} == once


def test_every_payload_check_returns_violations():
    """Every check in cli.PAYLOADS, on the payloads of the cube and of its
    dual as the CLI reads them: [] for the valid payload, and for the same
    payload broken (_broken) a non-empty list of (axiom, where, message)
    triples, raising nothing; so validate reports each payload's faults
    the same way."""
    ang = as_angulation(I.cube(), 4)
    o = O.compute_dd2_orientation(ang)
    l = S.psi_inverse(o)
    s = S.phi(l)
    payloads = {
        "angulation": (ang, {"orientation": o, "labelling": l,
                             "schnyder": s}),
        "regular": (D.dualize(ang), {"regular_labelling": D.dual_labelling(l),
                                     "regular_decomposition": D.chi(s)}),
    }
    for view, (host, tables) in payloads.items():
        assert list(tables) == list(cli.PAYLOADS[view])
        for kind, t in tables.items():
            obj = t.to_json_obj()
            for payload, valid in ((obj, True), (_broken(obj), False)):
                read, check = cli._read_payload({kind: payload}, host, view,
                                                kind)
                bad = check(read)
                assert (bad == []) is valid, (kind, bad)
                assert all(type(v) is tuple and len(v) == 3 for v in bad)

import hashlib
import random
from bisect import bisect_right
from collections import Counter
from math import comb

import pytest

from schnyder_kit.errors import SamplerError
from schnyder_kit.planar_map import as_angulation
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D
import schnyder_kit.drawing as DR
import schnyder_kit.sampler as SA

import instances as I
from oracles import (
    _fixed_popcount_word, _geometric, bit_filter_sample,
    decode_every_triple_sample, grow_tree, pair_code, rejection_sample,
    rooted_code, sample_geometric_triple, strands_close_on_lists,
    sweep_closes, tree_word_closes,
)


def even_pairs(m):
    ang = as_angulation(m, 4)
    return [(ang, S.phi(S.psi_inverse(o)))
            for o in O.lattice_enumerate(ang) if O.is_even(o)]


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


def test_encode_cube():
    triples = {(t.alpha, t.beta, t.gamma)
               for t in (SA.encode(a, s) for a, s in even_pairs(I.cube()))}
    assert triples == {((3, 2, 1), (1, 1, 2, 2), (2, 2, 1, 1)),
                       ((3, 2, 1), (1, 2, 1, 2), (2, 1, 2, 1))}
    for alpha, beta, gamma in triples:
        assert sum(alpha) == sum(beta) == sum(gamma) == 6


def test_round_trip_exhaustive_small_n():
    for n in range(2, 7):
        seen = set()
        for ang, s in SA.enumerate_pairs(n):
            t = SA.encode(ang, s)
            key = (t.alpha, t.beta, t.gamma)
            assert key not in seen      # encode is injective
            seen.add(key)
            ang2, s2 = SA.decode(t)
            assert pair_code(ang, s) == pair_code(ang2, s2)


def test_round_trip_handmade_instances():
    for m in (I.cube(), I.cube_plus(), I.concentric_quadrangulation(3),
              I.pseudo_double_wheel(4), I.pseudo_double_wheel(5)):
        for ang, s in even_pairs(m):
            ang2, s2 = SA.decode(SA.encode(ang, s))
            assert pair_code(ang, s) == pair_code(ang2, s2)


def test_decode_accepts_exactly_the_encodable_triples():
    n = 5
    image = {(t.alpha, t.beta, t.gamma)
             for t in (SA.encode(a, s) for a, s in SA.enumerate_pairs(n))}
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
    assert t1.r <= 12 and len(t1.beta) == len(t1.gamma) == 12 - t1.r + 1
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


@pytest.mark.parametrize("n, pairs", [(5, 22), (6, 92)])
def test_fast_sampler_matches_bit_filter_oracle(n, pairs):
    k = 1500
    h_filter = accepted_histogram(bit_filter_sample, n, 12, k)
    h_fast = accepted_histogram(SA.rejection_sample_fast, n, 12, k)
    assert set(h_filter) == set(h_fast) and len(h_fast) == pairs
    for key in h_filter:
        assert abs(h_filter[key] - h_fast[key]) / k < 0.05


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
    # the sampler makes exactly the getrandbits calls of the oracle, which
    # draws s by randrange and each word by _fixed_popcount_word, with the
    # same values, and returns its triple and attempts; it decodes at most
    # one triple per attempt, the returned one last
    decoded = []
    decode = SA.decode
    monkeypatch.setattr(SA, "decode", lambda t: decoded.append(t) or decode(t))

    def logged(fn, n, seed, *cap):
        rng = LoggingRandom(seed)
        try:
            _, t, attempts = fn(n, rng, *cap)
        except SamplerError as exc:
            return rng.log, (exc.kind, exc.detail)
        return rng.log, (t, attempts)

    for n in (4, 10, 24):
        for seed in range(40):
            decoded.clear()
            log, result = logged(SA.rejection_sample_fast, n, seed)
            assert (log, result) == \
                logged(decode_every_triple_sample, n, seed), (n, seed)
            if isinstance(result[0], SA.EncodingTriple):
                t, attempts = result
                assert 1 <= len(decoded) <= attempts and decoded[-1] == t
                assert all(sum(seq) == n for seq in (t.alpha, t.beta, t.gamma))
    decoded.clear()
    log, result = logged(SA.rejection_sample_fast, 24, 0, 3)
    assert result[0] == "RejectionLimitExceeded" and len(decoded) <= 3
    assert (log, result) == logged(decode_every_triple_sample, 24, 0, 3)
    decoded.clear()
    monkeypatch.setattr(SA, "default_max_decodes", lambda n: 2)
    log, result = logged(SA.rejection_sample_fast, 24, 0)
    assert result[0] == "RejectionLimitExceeded" and len(decoded) <= 2
    assert (log, result) == logged(decode_every_triple_sample, 24, 0, 2)


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


@pytest.mark.parametrize("n", [4, 6, 10, 24])
@pytest.mark.parametrize("cap", [None, 3])
def test_pretest_keeps_the_draws_and_results(n, cap):
    # the tree-stage pre-test only skips decodes that would fail, so the
    # sampler returns what decoding every drawn triple returns
    def outcome(fn, seed):
        try:
            _, t, attempts = fn(n, random.Random(seed), cap)
        except SamplerError as exc:
            return exc.kind, exc.detail
        return t, attempts

    for seed in range(40):
        assert outcome(SA.rejection_sample_fast, seed) == \
            outcome(decode_every_triple_sample, seed), seed


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
def test_strands_word_walk_agrees_with_the_list_walk(n):
    # triples drawn as the sampler draws them that pass the tree stage, at
    # sizes the exhaustive test cannot reach; few of them close, so the
    # triples of three samples, which all close, are compared too
    def agree(a, b, c):
        closes = SA._strands_close(a, b, c)
        lists = [SA._word_to_runs(w, n) for w in (a, b, c)]
        assert closes == strands_close_on_lists(*lists), (n, a, b, c)
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


def test_part_full_counts_triple_vs_pair_vs_geometry():
    assert SA.part_full_counts(
        SA.EncodingTriple((9,), (1, 1, 1, 1), (2, 1, 1,))) == (0, 0)
    assert SA.part_full_counts(
        SA.EncodingTriple((1,), (2, 3, 2), (2, 2, 3))) == (1, 2)
    for m in (I.pseudo_double_wheel(4), I.pseudo_double_wheel(5)):
        for ang, s in even_pairs(m):
            part, full = SA.part_full_counts((ang, s))
            fc = DR.classify_faces(DR.orthogonal_drawing(D.chi(s)))
            cls = [info.cls for info in fc.faces.values()]
            assert (part, full) == (cls.count("partly_reducible"),
                                    cls.count("fully_reducible"))


def test_enumerate_angulations_counts_and_validity():
    by_faces = Counter(m.n_faces for m in SA.enumerate_angulations(3, 8))
    assert by_faces == {2: 1, 4: 1, 6: 3, 8: 13}
    maps = list(SA.enumerate_angulations(4, 5))
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
    assert [len(SA.enumerate_pairs(n)) for n in (2, 3, 4, 5, 6)] == \
        [1, 2, 6, 22, 92]
    with pytest.raises(SamplerError) as ei:
        SA.enumerate_pairs(SA.ENUMERATION_CAP + 1)
    assert ei.value.kind == "CapExceeded"


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

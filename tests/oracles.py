"""Independent brute-force oracles used to freeze expected values."""

from itertools import product

from schnyder_kit.errors import SamplerError
from schnyder_kit.orientation import FracOrientation
from schnyder_kit.sampler import (
    DEFAULT_MAX_ATTEMPTS, EncodingTriple, _word_to_runs, decode,
)


def brute_force_orientations(ang, j, k):
    """All k-fractional orientations of the internal edges with outdegree j
    at internal vertices and 0 at external ones, by exhaustive assignment."""
    m = ang.map
    internal = ang.internal_edges()
    want = [0] * m.n_vertices
    for v in ang.internal_vertices():
        want[v] = j
    out = []
    for assign in product(range(k + 1), repeat=len(internal)):
        vals = [-1] * m.n_darts
        for e, a in zip(internal, assign):
            vals[e] = a
            vals[m.twin[e]] = k - a
        if all(sum(vals[h] for h in m.vertex_orbit(v) if vals[h] >= 0) == want[v]
               for v in range(m.n_vertices)):
            out.append(FracOrientation(map=m, k=k, values=tuple(vals), host=ang))
    return out


def brute_force_dd2(ang):
    return brute_force_orientations(ang, ang.d, ang.d - 2)


def bit_filter_sample(n, rng, max_attempts=DEFAULT_MAX_ATTEMPTS):
    """The sampler by plain rejection on three n-bit flip words: keep a
    triple only when all three sums are n (top bits 0, popcount(a) = s,
    popcount(b) = popcount(c) = n-1-s), then decode.  Attempts count every
    word triple drawn.  Returns ((Q, F), triple, attempts)."""
    top = 1 << (n - 1)
    for attempt in range(1, max_attempts + 1):
        a = rng.getrandbits(n)
        if a & top:
            continue
        s = a.bit_count()          # zeros of a = r = n - s
        b = rng.getrandbits(n)
        if b & top or b.bit_count() != n - s - 1:
            continue
        c = rng.getrandbits(n)
        if c & top or c.bit_count() != n - s - 1:
            continue
        t = EncodingTriple(alpha=tuple(_word_to_runs(a, n)),
                           beta=tuple(_word_to_runs(b, n)),
                           gamma=tuple(_word_to_runs(c, n)))
        try:
            pair = decode(t)
        except SamplerError as exc:
            if exc.kind != "Invalid":
                raise
            continue
        return pair, t, attempt
    raise SamplerError("RejectionLimitExceeded",
                       f"no valid triple in {max_attempts} attempts at n={n}")

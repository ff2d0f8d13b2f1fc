"""Independent brute-force oracles used to freeze expected values."""

from bisect import bisect_right
from itertools import product

from schnyder_kit.errors import SamplerError
from schnyder_kit.orientation import FracOrientation
from schnyder_kit.sampler import (
    DEFAULT_MAX_ATTEMPTS, EncodingTriple, _fixed_popcount_word,
    _popcount_table, _word_to_runs, decode, default_max_decodes,
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


def _geometric(rng):
    k = 1
    while rng.getrandbits(1):
        k += 1
    return k


def sample_geometric_triple(n, rng):
    """A triple of independent 2-geometric sequences: alpha stops at the
    first partial sum >= n (r terms), beta and gamma have n - r + 1 terms."""
    if n < 1:
        raise SamplerError("BadParameter", f"n = {n} must be positive")
    alpha = []
    total = 0
    while total < n:
        a = _geometric(rng)
        alpha.append(a)
        total += a
    s = n - len(alpha)
    beta = tuple(_geometric(rng) for _ in range(s + 1))
    gamma = tuple(_geometric(rng) for _ in range(s + 1))
    return EncodingTriple(alpha=tuple(alpha), beta=tuple(beta), gamma=gamma)


def rejection_sample(n, rng, max_attempts=DEFAULT_MAX_ATTEMPTS):
    """The reference sampler: independent 2-geometric triples until one
    decodes; the result is uniform over valid pairs.  Returns ((Q, F),
    triple, attempts)."""
    for attempt in range(1, max_attempts + 1):
        t = sample_geometric_triple(n, rng)
        if sum(t.alpha) != n or sum(t.beta) != n or sum(t.gamma) != n:
            continue
        try:
            pair = decode(t)
        except SamplerError as exc:
            if exc.kind != "Invalid":
                raise
            continue
        return pair, t, attempt
    raise SamplerError("RejectionLimitExceeded",
                       f"no valid triple in {max_attempts} attempts at n={n}")


def decode_every_triple_sample(n, rng, max_attempts=None):
    """rejection_sample_fast without its pre-tests: the same
    draws (s, then words a, b, c per attempt), but every drawn triple is
    decoded.  Returns ((Q, F), triple, attempts)."""
    if n < 1:
        raise SamplerError("BadParameter", f"n = {n} must be positive")
    cum = _popcount_table(n)
    if max_attempts is None:
        max_attempts = default_max_decodes(n)
    for attempt in range(1, max_attempts + 1):
        s = bisect_right(cum, rng.randrange(cum[-1]))
        a = _fixed_popcount_word(rng, n - 1, s)
        b = _fixed_popcount_word(rng, n - 1, n - 1 - s)
        c = _fixed_popcount_word(rng, n - 1, n - 1 - s)
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


def tree_word_closes(alpha, beta):
    """Whether the degree word (alpha, beta) is the preorder degree word of
    a plane tree with a black root, by growing the tree recursively: each
    node takes its degree from the next entry of its color's sequence, and
    a non-root node's degree counts its parent edge."""
    seqs = {True: iter(alpha), False: iter(beta)}

    def grow(black, kids):
        for _ in range(kids):
            deg = next(seqs[not black], None)
            if deg is None or not grow(not black, deg - 1):
                return False
        return True

    return grow(True, next(seqs[True])) and \
        next(seqs[True], None) is None and next(seqs[False], None) is None


def sweep_closes(color, children, gamma_of):
    """Whether the T2' strands of a rebuilt tree close, by the full
    matching sweep along the contour: each white vertex, at its last
    corner, pushes its out and gamma-1 slots; each non-root black vertex,
    at its first corner, pops the adjacent outs and must find a slot below
    them.  Closes iff every black vertex finds its slot, no slot is left
    over, and the outs left for u3 run from u2 (bottom) to u4 (top)."""
    stack = []
    todo = [(0, False)]
    while todo:
        v, done = todo.pop()
        if not done:
            if color[v] and v != 0:
                while stack and stack[-1][0] == "out":
                    stack.pop()
                if not stack:
                    return False
                stack.pop()
            todo.append((v, True))
            for c in reversed(children[v]):
                todo.append((c, False))
        elif not color[v]:
            stack.append(("out", v))
            stack.extend([("slot", v)] * (gamma_of[v] - 1))
    if any(kind != "out" for kind, _ in stack):
        return False
    leftover = [v for _, v in stack]
    return bool(leftover) and leftover[0] == children[0][0] and \
        leftover[-1] == children[0][-1]

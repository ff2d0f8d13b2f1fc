"""Degree-triple encoding and uniform sampling of quadrangulation pairs.

A pair (Q, F) -- a rooted girth-4 quadrangulation with n faces together with
an even Schnyder decomposition -- reduces to two spanning trees: T1' is the
reduced forest F1' plus the external edges {u1,u2} and {u1,u4}, T2' is F2'
plus {u3,u2} and {u3,u4}.  T1' spans every vertex except u3 and has n edges.
Walking clockwise around T1' from the external corner of u1 and recording the
T1'-degrees of the black vertices (alpha) and the T1'- and T2'-degrees of the
white vertices (beta, gamma) in discovery order encodes the pair completely.

decode reverses this.  Two tests on the flip words of alpha, beta and
gamma first decide whether the degree word closes the contour of T1'
(_contour_closes, a ballot test: a +-1 path read off alpha and beta never
goes below 0) and whether the T2' strands close around it (_strands_close,
a walk that counts the open slots).  Then one walk along the contour
(_rotations) creates the nodes of T1' in preorder and reattaches T2' by a
planar matching of strands (each white vertex offers its parent strand and
gamma-1 child slots; each black vertex takes the adjacent strands off a
stack), appending each dart to its vertex's clockwise list.
The completed map must be a quadrangulation with outer face u1 u2 u3 u4,
its reduced decomposition must pass validate_reduced_schnyder (in
lambda_inverse), and the lifted decomposition must be even; a valid
reduced decomposition lifts to a valid even Schnyder decomposition, so
acceptance is sound.

Since every valid triple has probability 8^-n under independent 2-geometric
draws, conditioning on validity by rejection yields a uniform pair.
rejection_sample_fast conditions on the three sums being n exactly instead
of by rejection: reading each sequence from n coin flips, that event fixes
the popcounts of the three flip words, so it draws the common popcount from
its exact binomial weights, consuming the generator exactly as
Random.randrange does, and then three uniform fixed-popcount words.  It
rejects a triple whose tree stage (alpha[0] = 1, or _contour_closes) or
closure stage (_strands_close) fails on the three flip words, before it
turns any word into a degree list; it decodes the rest, about one per
sample.  The geometric-draw sampler itself is the test oracle
tests/oracles.rejection_sample.  The module also houses the exhaustive
small-n enumeration used as the oracle for uniformity tests, and the
grid-concentration experiment.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from math import comb

from .errors import EvenError, MapError, SamplerError
from .planar_map import (
    PlaneMap, add_edges, as_angulation, build_map, shortest_cycle,
)
from .orientation import is_even, lattice_enumerate
from .schnyder import phi, psi_inverse
from .even import (
    ReducedSchnyderDecomposition, black_vertices, is_even_schnyder,
    lambda_, lambda_inverse,
)

DEFAULT_MAX_ATTEMPTS = 10 ** 6
ENUMERATION_CAP = 12


# -- the encoding triple ---------------------------------------------------

@dataclass(frozen=True)
class EncodingTriple:
    """Degree sequences (alpha, beta, gamma) of a pair (Q, F).

    alpha lists the T1'-degrees of the black vertices in clockwise contour
    order (r entries, starting with u1); beta and gamma list the T1'- and
    T2'-degrees of the white vertices (s+1 entries, starting with u2).  For
    a valid triple all three sums equal n = r + s, the number of faces.
    """

    alpha: tuple
    beta: tuple
    gamma: tuple

    @property
    def n(self):
        return sum(self.alpha)

    @property
    def r(self):
        return len(self.alpha)

    @property
    def s(self):
        return len(self.beta) - 1


def _tree_edge_sets(ang, rs):
    """Edge ids of the two spanning trees T1', T2' (forests + externals)."""
    m = ang.map
    ext = [m.edge(h) for h in ang.outer_orbit]
    t1 = {m.edge(h) for h in rs.arcs_of_color(1)} | {ext[3], ext[0]}
    t2 = {m.edge(h) for h in rs.arcs_of_color(2)} | {ext[1], ext[2]}
    return t1, t2


def encode(ang, s):
    """The (alpha, beta, gamma) triple of a pair (quadrangulation, even
    Schnyder decomposition)."""
    rs = lambda_(s)
    m = ang.map
    t1, t2 = _tree_edge_sets(ang, rs)
    deg1 = [0] * m.n_vertices
    deg2 = [0] * m.n_vertices
    for e in t1:
        deg1[m.origin[e]] += 1
        deg1[m.target(e)] += 1
    for e in t2:
        deg2[m.origin[e]] += 1
        deg2[m.target(e)] += 1
    # clockwise contour of T1' starting just after the external corner of u1
    start = ang.outer_orbit[0]                 # the dart u1 -> u2
    order = [ang.external[0]]
    seen = {ang.external[0]}
    h = start
    for _ in range(2 * len(t1)):
        w = m.target(h)
        if w not in seen:
            seen.add(w)
            order.append(w)
        g = m.next_cw[m.twin[h]]
        while m.edge(g) not in t1:
            g = m.next_cw[g]
        h = g
    if h != start or len(order) != m.n_vertices - 1:
        raise SamplerError("Invalid", "T1' is not a spanning tree of Q - u3",
                           stage="ValidationFailed")
    black = black_vertices(ang)
    alpha = tuple(deg1[v] for v in order if black[v])
    beta = tuple(deg1[v] for v in order if not black[v])
    gamma = tuple(deg2[v] for v in order if not black[v])
    return EncodingTriple(alpha=alpha, beta=beta, gamma=gamma)


# -- decoding --------------------------------------------------------------

def _invalid(stage, detail):
    return SamplerError("Invalid", detail, stage=stage)


def _contour_closes(a, b, n):
    """Whether the flip words a and b of alpha and beta (_word_to_runs; n
    flips each, flip n-1 zero) close the clockwise contour of T1' exactly:
    whether alpha gives the black nodes (the root u1 first) and beta the
    white ones of a plane tree, in the preorder in which _rotations creates
    T1'.  Requires popcount(a) + popcount(b) = n - 1, that is r + s = n.

    A ballot test.  Over the low n-1 flips, a flip where a and b are both 1
    is a +1 step, one where both are 0 a -1 step, any other a 0 step; the
    tree closes iff no prefix sum is negative, that is iff below the k-th
    (0, 0) flip lie at least k (1, 1) flips.

    Why: once a walk of the tree has made its first i whites and first j
    blacks, in any order, A(j) - i white children and B(i) - j + 1 black
    children are still owed.  A(j) is 1 plus the ones of a before its j-th
    zero (the root owes alpha[0] children, a later black alpha[t] - 1), and
    B(i) the ones of b before its i-th zero.  By the precondition A(r) =
    s + 1 and B(s + 1) = r - 1, so the owed counts never ask for a degree
    past the end of a word, and the walk stops at the least fixed point
    (A(j) = i, B(i) = j - 1) above (0, 1).  A fixed point is a (0, 0) flip
    p = i + j - 2 that is the j-th zero of a and the i-th of b, so one
    after which the sum is -1, and each such flip is one; (i, j) grows
    with p.  So the walk stops at the first flip where the sum reaches -1,
    and closes iff that is flip n-1, the full tree (s + 1, r)."""
    both = a & b
    zeros = ~(a | b) & ((1 << (n - 1)) - 1)
    k = 0
    while zeros:
        k += 1
        low = zeros & -zeros
        if (both & (low - 1)).bit_count() < k:
            return False
        zeros ^= low
    return True


def _strands_close(a, b, c):
    """Whether the T2' strands close along the clockwise contour of T1'.

    The count-only form of the strand matching in _rotations.  Walks T1'
    in preorder on the flip words a and b (_contour_closes must hold),
    keeping the child counts still owed by the current node (top) and its
    ancestors (the stack): a node at even depth is black and takes the next
    degree of a, one at odd depth white and takes the next degree of b, and
    every degree but the root's counts its parent edge.  The next degree of
    a word is its count of trailing one bits plus one, and reading it shifts
    those bits and their closing zero out.  The walk reads each white
    vertex's gamma degree off the flip word c when that white opens.  When
    a white vertex's subtree ends it offers its out and then gamma-1 slots;
    a non-root black vertex takes the outs above the top slot and then
    needs that slot.  So only the number of open slots matters: True iff every
    black vertex finds one and none is left (with all three sums n, the
    whites offer one slot per non-root black).  The outs left for u3 then
    run from u2 to u4, as they must: u2 (white 0) opens first, so a black
    child of it would find no slot, and its out stays at the bottom, since
    a black vertex that takes it finds no slot; u4's subtree ends last, so
    its out is on top once it leaves no slot."""
    top = (a ^ (a + 1)).bit_length()
    a >>= top
    white = True                           # top's children are white
    stack = []
    gammas = []                            # of the open white vertices
    slots = 0
    while True:
        if top:
            if white:
                g = (c ^ (c + 1)).bit_length()
                c >>= g
                gammas.append(g)
                deg = (b ^ (b + 1)).bit_length()
                b >>= deg
            else:
                if not slots:
                    return False
                slots -= 1
                deg = (a ^ (a + 1)).bit_length()
                a >>= deg
            stack.append(top - 1)
            top = deg - 1
            white = not white
        elif stack:
            if not white:                  # a white vertex's subtree ends
                slots += gammas.pop() - 1
            top = stack.pop()
            white = not white
        else:
            return not slots


def _rotations(alpha, beta, gamma):
    """Clockwise dart lists of the completed map, built in one walk.

    Walks T1' in preorder as _strands_close does, on the degree lists, and
    matches the strands that it counts (_contour_closes and _strands_close
    must hold).  Node v is the v-th node of T1' in preorder (node 0 is u1)
    and u3 is node N, with N = r + s + 1 tree nodes and W = s + 1 whites.
    Edge v-1 is the T1' edge of node v, edge N-1+j the T2' edge of white j and
    edge N-2+W+i that of black i >= 1; dart 2e leaves the node whose parent
    edge e is.  A node's list starts with its parent dart and gets each
    child's dart as the child is created.  A non-root black node then pops
    the adjacent outs (its T2' children) and one slot (its T2' parent); a
    white node whose subtree ends appends its out and gamma-1 slots, which
    later black nodes fill.  The outs left over go to u3.  Returns the
    lists, node by node, and the T2' dart leaving each tree node (None at
    u1)."""
    n_nodes = len(alpha) + len(beta)
    white_e = n_nodes - 1
    black_e = n_nodes - 2 + len(beta)
    rot = [[]]
    up = [None]
    strands = []           # outs (dart, None), slots (white, list index)
    stack = [[0, alpha[0], 0]]     # node, children owed, slots to offer
    ia, ib = 1, 0
    while stack:
        top = stack[-1]
        v, owed, slots = top
        if owed:
            top[1] -= 1
            c = len(rot)
            rot[v].append(2 * c - 1)
            rot.append([2 * c - 2])
            if len(stack) % 2:                 # c is white
                up.append(2 * (white_e + ib))
                stack.append([c, beta[ib] - 1, gamma[ib] - 1])
                ib += 1
            else:                              # c is black
                while strands[-1][1] is None:
                    rot[c].append(strands.pop()[0] + 1)
                w, k = strands.pop()
                up.append(2 * (black_e + ia))
                rot[c].append(up[c])
                rot[w][k] = up[c] + 1
                stack.append([c, alpha[ia] - 1, 0])
                ia += 1
        else:
            stack.pop()
            if len(stack) % 2:                 # v is white
                rot[v].append(up[v])
                strands.append((up[v], None))
                for _ in range(slots):
                    strands.append((v, len(rot[v])))
                    rot[v].append(None)
    rot.append([out + 1 for out, _ in reversed(strands)])
    return rot, up


def decode(t):
    """The pair (quadrangulation, even Schnyder decomposition) encoded by a
    triple, or SamplerError(kind="Invalid") with the failing stage: the
    input checks (every degree an int, not a bool), alpha[0] >= 2 and
    _contour_closes on the flip words of alpha and beta, built only once
    the sums and lengths bound n by the input's length
    (TreeReconstructionFailed), _strands_close on those and the flip word
    of gamma, and the map that _rotations builds (ClosureFailed), then the
    quadrangulation and its outer face, the reduced validator and evenness
    (ValidationFailed)."""
    alpha, beta, gamma = t.alpha, t.beta, t.gamma
    if not alpha or not beta or not gamma:
        raise _invalid("TreeReconstructionFailed", "empty degree sequence")
    for seq in (alpha, beta, gamma):
        if not all(type(x) is int for x in seq) or min(seq) < 1:
            raise _invalid("TreeReconstructionFailed",
                           "degrees must be positive integers")
    n = sum(alpha)
    if len(beta) != len(gamma):
        raise _invalid("TreeReconstructionFailed",
                       "beta and gamma have different lengths")
    if sum(beta) != n or sum(gamma) != n:
        raise _invalid("TreeReconstructionFailed",
                       f"sums differ: {n}, {sum(beta)}, {sum(gamma)}")
    if len(alpha) + len(beta) != n + 1:
        raise _invalid("TreeReconstructionFailed",
                       "r + s + 1 does not match the edge count")
    if alpha[0] < 2:
        raise _invalid("TreeReconstructionFailed",
                       "u1 needs distinct neighbors u2 and u4")
    a, b = _runs_to_word(alpha), _runs_to_word(beta)
    if not _contour_closes(a, b, n):
        raise _invalid("TreeReconstructionFailed",
                       "the degree sequences do not close the contour "
                       "exactly")
    if not _strands_close(a, b, _runs_to_word(gamma)):
        raise _invalid("ClosureFailed",
                       "the T2' strands do not close with u2 and u4 "
                       "reaching u3")
    rot, up = _rotations(alpha, beta, gamma)
    u3 = len(up)
    u4 = (rot[0][-1] + 1) // 2     # the last child of u1; u2 is node 1
    try:
        m = build_map(rot, outer_dart=1)
    except MapError as exc:
        raise _invalid("ClosureFailed",
                       f"completion is not a planar map: {exc.detail}") from exc
    try:
        ang = as_angulation(m, 4)
    except MapError as exc:
        raise _invalid("ValidationFailed",
                       f"completion is not a quadrangulation: {exc.detail}") \
            from exc
    if ang.external != (0, 1, u3, u4):
        raise _invalid("ValidationFailed",
                       f"outer face visits {ang.external}")

    masks = [0] * m.n_darts        # 2n edges: n in T1', n in T2'
    for v in range(2, u3):
        if v != u4:
            masks[2 * v - 2] = 1
            masks[up[v]] = 2
    rs = ReducedSchnyderDecomposition(host=ang, masks=tuple(masks))
    try:
        s = lambda_inverse(rs)
    except (EvenError, MapError) as exc:
        raise _invalid("ValidationFailed", exc.detail) from exc
    if not is_even_schnyder(s):
        raise _invalid("ValidationFailed", "reconstruction is not even")
    return ang, s


# -- sampling --------------------------------------------------------------

def _word_to_runs(word, n):
    """Geometric sequence from n coin flips (bit i = flip i; 0 ends a run)."""
    flips = format(word, f"0{n}b")[::-1]
    return [len(ones) + 1 for ones in flips.split("0")[:-1]]


def _runs_to_word(seq):
    """The flip word of a degree sequence: _word_to_runs reversed."""
    return int("".join("1" * (deg - 1) + "0" for deg in seq)[::-1], 2)


def _popcount_table(n):
    """Cumulative weights C(n-1, s)^3 for s = 0..n-1: the number of word
    triples (a, b, c) with top bits 0, popcount(a) = s and popcount(b) =
    popcount(c) = n-1-s."""
    return list(accumulate(comb(n - 1, s) ** 3 for s in range(n)))


def _require_positive(name, value):
    """BadParameter unless value is None or at least 1."""
    if value is not None and value < 1:
        raise SamplerError("BadParameter", f"{name} = {value} must be positive")


def _require_faces(n):
    """BadParameter unless n >= 2: at n = 1 alpha is (1), so no triple
    decodes (u1 needs the two neighbours u2 and u4)."""
    if n < 2:
        raise SamplerError("BadParameter", f"n = {n} must be at least 2")


def default_max_decodes(n):
    """Default cap on the triples rejection_sample_fast draws: the number
    of triples with all sums n among DEFAULT_MAX_ATTEMPTS uniform word
    triples, on average -- the budget the bit filter had (1968 at n = 24)."""
    return max(1, DEFAULT_MAX_ATTEMPTS * _popcount_table(n)[-1] // 8 ** n)


def rejection_sample_fast(n, rng, max_attempts=None):
    """A uniform pair with n >= 2 faces: draw triples whose sums are
    already n, test their tree and closure stages, and decode those that
    pass, until one decodes.

    Each sequence is read from n coin flips (_word_to_runs): it sums to
    exactly n iff flip n-1 ends a run, and its length is the number of zero
    flips.  Conditioned on all three sums being n, the words (a, b, c) are
    uniform over triples with top bits 0, popcount(a) = s and popcount(b) =
    popcount(c) = n-1-s, so s has weight C(n-1, s)^3; under independent
    2-geometric draws every such triple is equally likely, so keeping those
    that decode gives a uniform pair.  Each attempt draws s from these
    integer weights, by the bounded draw of Random.randrange (k-bit draws,
    k = total.bit_length(), until one is below total), then each of the
    words a, b, c, always in this order, by drawing (n-1)-bit words until
    one has the required popcount.  The tests run on the words, before any
    degree list is made: a triple fails its tree stage when bit 0 of a is 0
    (alpha[0] = 1) or the ballot test _contour_closes(a, b, n) is false
    (some prefix of a and b has more (0, 0) flips than (1, 1) flips), and
    its closure stage when _strands_close(a, b, c) is false, exactly when
    decode fails the same stage.  Only the rest are decoded.  attempts (and
    max_attempts, default default_max_decodes(n)) count drawn triples, so
    the result at a given seed is the one that decoding every drawn triple
    gives."""
    _require_faces(n)
    _require_positive("max_attempts", max_attempts)
    cum = _popcount_table(n)
    total, width, getrandbits = cum[-1], n - 1, rng.getrandbits
    bits = total.bit_length()
    if max_attempts is None:
        max_attempts = default_max_decodes(n)
    for attempt in range(1, max_attempts + 1):
        while (r := getrandbits(bits)) >= total:
            pass
        s = bisect_right(cum, r)
        k = width - s
        while (a := getrandbits(width)).bit_count() != s:
            pass
        while (b := getrandbits(width)).bit_count() != k:
            pass
        while (c := getrandbits(width)).bit_count() != k:
            pass
        if not (a & 1 and _contour_closes(a, b, n) and
                _strands_close(a, b, c)):
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


# -- reducibility counts ---------------------------------------------------

def part_full_counts(x):
    """(part, full) counts of reducible faces.

    For a triple: white indices with (beta_i, gamma_i) = (2, 2) are partly
    reducible, both >= 2 but not (2, 2) fully reducible.  For a decoded
    pair the counts cover all internal vertices of Q (black and white), via
    their degrees in the two spanning trees."""
    if isinstance(x, EncodingTriple):
        part = full = 0
        for b, g in zip(x.beta, x.gamma):
            if (b, g) == (2, 2):
                part += 1
            elif b >= 2 and g >= 2:
                full += 1
        return part, full
    ang, s = x
    m = ang.map
    t1, t2 = _tree_edge_sets(ang, lambda_(s))
    deg = [[0, 0] for _ in range(m.n_vertices)]
    for i, tree in enumerate((t1, t2)):
        for e in tree:
            deg[m.origin[e]][i] += 1
            deg[m.target(e)][i] += 1
    part = full = 0
    for v in ang.internal_vertices():
        d1, d2 = deg[v]
        if (d1, d2) == (2, 2):
            part += 1
        elif d1 >= 2 and d2 >= 2:
            full += 1
    return part, full


# -- exhaustive enumeration ------------------------------------------------

def _min_fill(boundary_len, d):
    """Fewest d-gons that can fill a disk with this boundary length, or
    None when the parity rules it out (interior edges count twice, so
    k*d - boundary_len must be even for some k)."""
    if d % 2 == 0 and boundary_len % 2 == 1:
        return None
    k = max(1, -(-boundary_len // d))
    if (k * d - boundary_len) % 2:
        k += 1
    return k


def _assemble_map(edges, faces):
    n_darts = 2 * len(edges)
    face_next = [None] * n_darts
    for f in faces:
        for i, h in enumerate(f):
            face_next[h] = f[(i + 1) % len(f)]
    origin = [None] * n_darts
    for e, (a, b) in enumerate(edges):
        origin[2 * e] = a
        origin[2 * e + 1] = b
    twin = tuple(h ^ 1 for h in range(n_darts))
    next_cw = tuple(face_next[h ^ 1] for h in range(n_darts))
    return PlaneMap(twin, next_cw, tuple(origin), outer_dart=0)


def _face_walks(d, nv, edges, region):
    """All ways to reveal the d-gon adjacent to the first boundary dart.

    The region boundary is a simple cycle of darts with the region on the
    left.  The new face starts with the peeled dart; every later step either
    advances along the boundary, opens a chord to a strictly later boundary
    vertex, or inserts a fresh vertex.  Yields (face_darts, new_edges,
    new_nv, subregions); subregions are the pieces cut off between
    consecutive boundary touches."""
    b0 = region[0]
    path = region[1:]
    pos_v = [edges[h // 2][h % 2] for h in path]       # tails of path darts
    u = edges[b0 // 2][b0 % 2]
    w = edges[b0 // 2][1 - b0 % 2]
    pos_v.append(u)
    last = len(pos_v) - 1                              # position of u
    edge_pairs = {frozenset(e) for e in edges}

    def walk(pos, cur, touch, steps, pending, face, news, subs, new_nv):
        if steps == 0:
            if pos == last:
                yield list(face), list(news), new_nv, [list(r) for r in subs]
            return
        # advance along the boundary
        if pos is not None and pos < last and (pos + 1 < last or steps == 1):
            face.append(path[pos])
            yield from walk(pos + 1, pos_v[pos + 1], pos + 1, steps - 1,
                            pending, face, news, subs, new_nv)
            face.pop()
        # chord to a later boundary vertex
        lo = (pos if pos is not None else touch) + 1
        for q in range(lo, last + 1):
            if (q == last) != (steps == 1):
                continue
            tv = pos_v[q]
            pair = frozenset((cur, tv))
            if pair in edge_pairs:
                continue           # a parallel edge would be a 2-cycle
            eid = len(edges) + len(news)
            news.append((cur, tv))
            edge_pairs.add(pair)
            h = 2 * eid
            face.append(h)
            sub = path[touch:q] + [g ^ 1 for g in reversed(pending + [h])]
            subs.append(sub)
            yield from walk(q, tv, q, steps - 1, [], face, news, subs, new_nv)
            subs.pop()
            face.pop()
            edge_pairs.discard(pair)
            news.pop()
        # fresh vertex
        if steps >= 2:
            eid = len(edges) + len(news)
            news.append((cur, new_nv))
            h = 2 * eid
            face.append(h)
            yield from walk(None, new_nv, touch, steps - 1, pending + [h],
                            face, news, subs, new_nv + 1)
            face.pop()
            news.pop()

    yield from walk(0, w, 0, d - 1, [], [], [], [], nv)


def enumerate_angulations(d, max_faces):
    """All rooted d-angulations of girth d with 2..max_faces faces.

    Rooted means a marked outer dart; each rooted map appears exactly once.
    Peeling search: starting from the bare d-cycle, repeatedly reveal the
    face adjacent to the first boundary dart of the oldest unexplored
    region.  The revealed face determines the peeling history, so distinct
    final maps come from distinct branches; partial maps whose graph girth
    drops below d are pruned (faces only ever add edges, so girth never
    recovers)."""
    if d < 3:
        raise SamplerError("BadParameter", "d must be at least 3")
    edges0 = [(i, (i + 1) % d) for i in range(d)]
    outer = [2 * i for i in range(d)]
    inner = [2 * i + 1 for i in reversed(range(d))]
    adj = [[] for _ in range(d)]     # of the partial map on the current path
    add_edges(adj, edges0)

    def fill(nv, edges, faces, regions):
        if not regions:
            yield _assemble_map(edges, faces)
            return
        budget = max_faces - len(faces)
        need = 0
        for r in regions:
            k = _min_fill(len(r), d)
            if k is None:
                return
            need += k
        if need > budget:
            return
        region = regions[0]
        for face, news, new_nv, subs in _face_walks(d, nv, edges, region):
            adj.extend([] for _ in range(new_nv - nv))
            add_edges(adj, news, len(edges))
            try:
                # the partial map had girth d, so a shorter cycle uses a
                # run of new edges; fresh vertices have degree 2, so the
                # cycle passes through the old vertex where that run starts
                if news and shortest_cycle(
                        adj, d, {u for u, _ in news if u < nv}) < d:
                    continue
                yield from fill(new_nv, edges + news,
                                faces + [[region[0]] + face],
                                regions[1:] + [s for s in subs if s])
            finally:
                for u, w in news:
                    adj[u].pop()
                    adj[w].pop()
                del adj[nv:]

    if max_faces >= 2:
        yield from fill(d, list(edges0), [outer], [inner])


def enumerate_pairs(n):
    """All pairs (rooted girth-4 quadrangulation with n faces, even Schnyder
    decomposition), each exactly once, for n up to ENUMERATION_CAP."""
    if n > ENUMERATION_CAP:
        raise SamplerError("CapExceeded", f"n = {n} exceeds the enumeration "
                                          f"cap {ENUMERATION_CAP}")
    out = []
    for m in enumerate_angulations(4, n):
        if m.n_faces != n:
            continue
        ang = as_angulation(m, 4)
        for o in lattice_enumerate(ang):
            if is_even(o):
                out.append((ang, phi(psi_inverse(o))))
    return out


# -- the concentration experiment ------------------------------------------

@dataclass(frozen=True)
class SampleStats:
    """Per-sample reducibility counts and reduced grid sizes, with summary
    means and normal-approximation confidence half-widths."""

    n: int
    samples: int
    accepted: int
    attempts: int
    seed: int
    part_counts: tuple
    full_counts: tuple
    reduced_width: tuple
    reduced_height: tuple
    summary: dict = field(compare=False)

    def to_json_obj(self):
        return {"n": self.n, "samples": self.samples,
                "accepted": self.accepted, "attempts": self.attempts,
                "seed": self.seed,
                "part_counts": list(self.part_counts),
                "full_counts": list(self.full_counts),
                "reduced_width": list(self.reduced_width),
                "reduced_height": list(self.reduced_height),
                "summary": self.summary}


def _summarize(values, n):
    k = len(values)
    mean = sum(values) / k
    var = sum((x - mean) ** 2 for x in values) / (k - 1) if k > 1 else 0.0
    half = 1.96 * (var / k) ** 0.5
    return {"mean": mean, "std": var ** 0.5, "half_width": half,
            "mean_over_n": mean / n}


def sample_stream_rng(seed, index):
    """The independent random stream of one sample of one experiment."""
    return random.Random(f"schnyder-kit:{seed}:{index}")


def _one_sample(args):
    n, seed, index, max_attempts = args
    rng = sample_stream_rng(seed, index)
    (ang, s), t, attempts = rejection_sample_fast(n, rng, max_attempts)
    part, full = part_full_counts((ang, s))
    from . import duality, drawing
    gd = drawing.orthogonal_drawing(duality.chi(s))
    rc = drawing.balanced_reduction_choice(drawing.classify_faces(gd))
    red = drawing.apply_reduction(gd, rc)
    width = max(x for x, _ in red.coords.values()) + 1
    height = max(y for _, y in red.coords.values()) + 1
    return index, part, full, width, height, attempts


def concentration_experiment(n, sample_count, seed, max_attempts=None,
                             jobs=1):
    """Accepted-sample statistics of part/full counts (all internal
    vertices, both colors) and of the balanced-reduction grid dimensions.
    max_attempts caps the drawn triples of each sample (default
    default_max_decodes(n)).  Per-sample streams derive from (seed, index),
    so results do not depend on evaluation order or parallelism.  At most
    min(jobs, sample_count, CPU count) worker processes run."""
    _require_faces(n)
    _require_positive("sample count", sample_count)
    _require_positive("max_attempts", max_attempts)
    _require_positive("jobs", jobs)
    if max_attempts is None:
        max_attempts = default_max_decodes(n)
    tasks = [(n, seed, i, max_attempts) for i in range(sample_count)]
    jobs = min(jobs, sample_count, os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = sorted(pool.map(_one_sample, tasks, chunksize=8))
    else:
        rows = [_one_sample(t) for t in tasks]
    parts = tuple(r[1] for r in rows)
    fulls = tuple(r[2] for r in rows)
    widths = tuple(r[3] for r in rows)
    heights = tuple(r[4] for r in rows)
    attempts = sum(r[5] for r in rows)
    summary = {"part": _summarize(parts, n),
               "full": _summarize(fulls, n),
               "reduced_width": _summarize(widths, n),
               "reduced_height": _summarize(heights, n),
               "acceptance_rate": sample_count / attempts}
    return SampleStats(n=n, samples=sample_count, accepted=sample_count,
                       attempts=attempts, seed=seed, part_counts=parts,
                       full_counts=fulls, reduced_width=widths,
                       reduced_height=heights, summary=summary)

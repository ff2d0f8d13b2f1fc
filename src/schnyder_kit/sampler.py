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
A triple that passes both tests always closes into a quadrangulation with
outer face u1 u2 u3 u4 and a valid reduced decomposition (decode proves it:
the closure of Fusy, Poulalhon and Schaeffer), which lifts to a valid even
Schnyder decomposition; so the two tests decide validity exactly.

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
tests/oracles.rejection_sample.  enumerate_pairs lists every pair of a
given size by decoding each triple of flip words that passes both tests,
and the module also houses the grid-concentration experiment.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import accumulate, combinations
from math import comb

from . import drawing, duality
from .errors import SamplerError
from .planar_map import as_angulation, build_map
from .even import (
    ReducedSchnyderDecomposition, black_vertices, lambda_, lambda_inverse,
)

DEFAULT_MAX_ATTEMPTS = 10 ** 6
ENUMERATION_CAP = 10


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


def _spanning_trees(ang, t, i, j):
    """(T1', [T1' degree, T2' degree] per vertex), F1' and F2' being the
    color-i and color-j arcs of t (1, 2 when reduced, 2, 4 when full)."""
    m = ang.map
    ext = [m.edge_of[h] for h in ang.outer_orbit]
    trees = ({m.edge_of[h] for h in t.arcs_of_color(i)} | {ext[3], ext[0]},
             {m.edge_of[h] for h in t.arcs_of_color(j)} | {ext[1], ext[2]})
    deg = [[0, 0] for _ in range(m.n_vertices)]
    for k, tree in enumerate(trees):
        for e in tree:
            deg[m.origin[e]][k] += 1
            deg[m.target_of[e]][k] += 1
    return trees[0], deg


def encode(ang, s):
    """The (alpha, beta, gamma) triple of a pair (quadrangulation, even
    Schnyder decomposition)."""
    m = ang.map
    t1, deg = _spanning_trees(ang, lambda_(s), 1, 2)
    # clockwise contour of T1' starting just after the external corner of u1
    start = ang.outer_orbit[0]                 # the dart u1 -> u2
    order = [ang.external[0]]
    seen = {ang.external[0]}
    h = start
    for _ in range(2 * len(t1)):
        w = m.target_of[h]
        if w not in seen:
            seen.add(w)
            order.append(w)
        g = m.next_cw[m.twin[h]]
        while m.edge_of[g] not in t1:
            g = m.next_cw[g]
        h = g
    if h != start or len(order) != m.n_vertices - 1:
        raise SamplerError("Invalid", "T1' is not a spanning tree of Q - u3",
                           stage="ValidationFailed")
    black = black_vertices(ang)
    alpha = tuple(deg[v][0] for v in order if black[v])
    beta = tuple(deg[v][0] for v in order if not black[v])
    gamma = tuple(deg[v][1] for v in order if not black[v])
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
    (TreeReconstructionFailed), and _strands_close on those and the flip
    word of gamma (ClosureFailed).  A triple that passes both decodes."""
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
    # Nothing below can fail: the closure of Fusy, Poulalhon and Schaeffer
    # (2009).  By _strands_close every black finds a slot and none is left,
    # u2 has no T1' child and u4 has gamma 1, so each dart of the 2n edges
    # is placed once and u3 gets the outs of u2 and u4 at least.  Each edge
    # joins a black (even depth, or u3) to a white, so none is a loop, and
    # T1' and u2's out connect the n + 2 vertices.  Each face has degree 4.
    # Darts go in only at the walk's corner or into a slot placed before, so
    # a face closed on the way stays one.  The stack lists the strands in
    # their order along the face still open (last in, first out: no chord
    # crosses), and once u2's out is in, the edges on it lie: 1 (u1 u2)
    # below u2's out, at the bottom; 2 below any other out; none below a
    # slot (it is at the corner of the entry below); 1 from the top to the
    # walk's corner at a black, 2 at a white.  Going down to a white, or up
    # to it from a black child, adds 1; a white whose subtree ends puts its
    # out 2 edges above the top and its slots on it, and going up leaves 1.
    # Going down to a black c makes 3, and c closes a face in each angle up
    # to its slot's chord: 3 edges and the top out's chord, 2 and the chords
    # of two outs, or 2 and those of an out and the slot (3 and the slot's
    # chord if c takes no out); the slot's chord leaves 1 to the new top.
    # At the end only outs are left, 1 edge from u4's to u1, and u3 takes
    # them as a black would: 2 edges and 2 chords between each two, and the
    # outer face u1 u2 u3 u4 (from dart 1, u2's out and u4's follow).  So
    # F = n and V - E + F = 2.
    m = build_map(rot, outer_dart=1)
    ang = as_angulation(m, 4)
    masks = [0] * m.n_darts        # 2n edges: n in T1', n in T2'
    for v in range(2, u3):
        if v != u4:
            masks[2 * v - 2] = 1
            masks[up[v]] = 2
    # Valid too.  Color 1 is the T1' and color 2 the T2' parent arc of each
    # vertex but u1..u4: (i') one color on one dart of each edge but the
    # outer four.  (ii') Color 1 runs up T1' to u1 or stops at u4, missing
    # u2 (no T1' child) and u3; color 2 misses u1 (no T2' edge) and u4 (no
    # slot) and has no cycle: with t(v) the step where a black v takes its
    # slot, or a white v's out is taken (never if u3 takes it), a white's
    # arc keeps t and a black's raises it, since a white's out is taken
    # after all its slots.  (iii') Clockwise, a black has its color-1 arc,
    # the outs it took (incoming 2), its color-2 arc and its T1' children
    # (incoming 1); a white its color-1 arc, children (incoming 1), out
    # (color 2) and slots (incoming 2): validate_reduced_schnyder's windows.
    rs = ReducedSchnyderDecomposition(host=ang, masks=tuple(masks))
    return ang, lambda_inverse(rs)


# -- sampling --------------------------------------------------------------

def _word_to_runs(word, n):
    """Geometric sequence from n coin flips (bit i = flip i; 0 ends a run)."""
    flips = format(word, f"0{n}b")[::-1]
    return [len(ones) + 1 for ones in flips.split("0")[:-1]]


def _triple_from_words(a, b, c, n):
    """The triple whose alpha, beta and gamma are read off the flip words
    a, b and c of n flips each."""
    return EncodingTriple(alpha=tuple(_word_to_runs(a, n)),
                          beta=tuple(_word_to_runs(b, n)),
                          gamma=tuple(_word_to_runs(c, n)))


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
    already n, test their tree and closure stages, and decode the first
    that passes.

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
    decode fails the same stage.  The first that passes is decoded, which
    cannot fail (see decode).  attempts (and max_attempts, default
    default_max_decodes(n)) count drawn triples, so the result at a given
    seed is the one that decoding every drawn triple gives."""
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
        t = _triple_from_words(a, b, c, n)
        return decode(t), t, attempt
    raise SamplerError("RejectionLimitExceeded",
                       f"no valid triple in {max_attempts} attempts at n={n}")


# -- reducibility counts ---------------------------------------------------

def part_full_counts(pair):
    """(part, full) counts of the reducible faces of a decoded pair (Q, F):
    over the internal vertices of Q, black and white, those of degree
    (2, 2) in the two spanning trees T1', T2' are partly reducible, those
    with both degrees >= 2 but not (2, 2) fully reducible.  F1' and F2'
    are the forests F_2 and F_4 of F."""
    ang, s = pair
    _, deg = _spanning_trees(ang, s, 2, 4)
    part = full = 0
    for v in ang.internal_vertices():
        d1, d2 = deg[v]
        if (d1, d2) == (2, 2):
            part += 1
        elif d1 >= 2 and d2 >= 2:
            full += 1
    return part, full


# -- exhaustive enumeration ------------------------------------------------

def _words(width, k):
    """The width-bit words with popcount k, in combinations order."""
    return [sum(1 << i for i in bits) for bits in combinations(range(width), k)]


def enumerate_pairs(n):
    """All pairs (rooted girth-4 quadrangulation with n faces, even Schnyder
    decomposition), each exactly once, for 2 <= n <= ENUMERATION_CAP.

    The pairs are the decoded closing triples, in walk order: for s =
    1..n-1, every flip word a with popcount s and bit 0 set, then every b
    and every c with popcount n-1-s, each in combinations order, such that
    _contour_closes(a, b, n) and _strands_close(a, b, c) hold.  These
    triples number the pairs (Baxter(n-1) of them), and decode accepts
    every one."""
    _require_faces(n)
    if n > ENUMERATION_CAP:
        raise SamplerError("CapExceeded", f"n = {n} exceeds the enumeration "
                                          f"cap {ENUMERATION_CAP}")
    out = []
    for s in range(1, n):
        words = _words(n - 1, n - 1 - s)
        for a in _words(n - 1, s):
            if not a & 1:
                continue
            for b in words:
                if not _contour_closes(a, b, n):
                    continue
                for c in words:
                    if _strands_close(a, b, c):
                        out.append(decode(_triple_from_words(a, b, c, n)))
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
        return asdict(self)


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
    # set here, so rejection_sample_fast gets the cap that the benchmark's
    # tracer reads from its argument
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

"""Independent brute-force oracles used to freeze expected values."""

from bisect import bisect_right
from collections import deque
from itertools import product

from schnyder_kit.duality import (
    RegularDecomposition, _vertex_steps, dualize,
)
from schnyder_kit.errors import (
    DrawingError, DualityError, MapError, SamplerError, SchnyderError,
)
from schnyder_kit.even import _require_even_d, black_faces, black_vertices
from schnyder_kit.orientation import (
    FracOrientation, _find_d_circuits, _simple_cycles_of_length,
    lattice_enumerate,
)
from schnyder_kit.planar_map import (
    PlaneMap, add_edges, as_angulation, shortest_cycle,
)
from schnyder_kit.schnyder import (
    CornerLabelling, _corner_violations, _mod, clockwise_jump, colors_of,
    phi, psi_inverse, validate_schnyder,
)
from schnyder_kit.sampler import (
    DEFAULT_MAX_ATTEMPTS, ENUMERATION_CAP, EncodingTriple, _popcount_table,
    _require_faces, _word_to_runs, decode, default_max_decodes,
)


def edge_by_edge_girth(n_vertices, edges):
    """Girth of a multigraph (None if acyclic): over every edge, one plus
    the length of a shortest path between its ends that avoids it."""
    best = None
    for i, (a, b) in enumerate(edges):
        dist = {a: 0}
        frontier = [a]
        while frontier and b not in dist:
            nxt = []
            for u in frontier:
                for j, e in enumerate(edges):
                    if j != i and u in e:
                        w = e[1] if e[0] == u else e[0]
                        if w not in dist:
                            dist[w] = dist[u] + 1
                            nxt.append(w)
            frontier = nxt
        if b in dist and (best is None or dist[b] + 1 < best):
            best = dist[b] + 1
    return best


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


def _fixed_popcount_word(rng, width, k):
    """A uniform width-bit word with exactly k one bits (retry until the
    popcount matches; a class near the middle holds a large share)."""
    getrandbits = rng.getrandbits
    while (w := getrandbits(width)).bit_count() != k:
        pass
    return w


def decode_every_triple_sample(n, rng, max_attempts=None):
    """rejection_sample_fast without its pre-tests: the same
    draws (s by Random.randrange, then words a, b, c by
    _fixed_popcount_word, per attempt), but every drawn triple is decoded.
    Returns ((Q, F), triple, attempts)."""
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


def grow_tree(alpha, beta, gamma):
    """The plane tree of a degree word that closes (tree_word_closes),
    grown recursively as there: (color, children, gamma_of) per node in
    preorder, node 0 the black root u1 (color True), with gamma_of the
    T2'-degree of each white node and None at black ones."""
    blacks = iter(alpha)
    whites = iter(zip(beta, gamma))
    color, children, gamma_of = [], [], []

    def grow(black, kids, g):
        v = len(color)
        color.append(black)
        children.append([])
        gamma_of.append(g)
        for _ in range(kids):
            deg, g = (next(whites) if black else (next(blacks), None))
            children[v].append(grow(not black, deg - 1, g))
        return v

    grow(True, next(blacks), None)
    return color, children, gamma_of


def sweep_closes(color, children, gamma_of):
    """Whether the T2' strands of a grown tree close, by the full
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


_SLOT = -1                       # an incoming T2' slot on the strand stack


def strands_close_on_lists(alpha, beta, gamma):
    """Whether the T2' strands close, by the preorder walk of
    sampler._strands_close on the degree lists instead of the flip words,
    reading each degree by index (tree_word_closes must hold), but keeping
    the strand stack itself instead of a count of open slots: outs are
    white ids, slots are _SLOT.  A white vertex whose subtree ends
    pushes its out and then gamma-1 slots; a non-root black vertex pops the
    trailing outs and then needs one slot.  True iff every black vertex
    finds its slot and only outs remain, the bottom one from u2 (white 0,
    the first child of u1) and the top one from u4 (the last child)."""
    ia, ib = 1, 0
    top = alpha[0]
    white = True                           # top's children are white
    stack = []
    whites = []                            # the open white vertices
    strands = []
    u4 = 0
    while True:
        if top:
            if white:
                if not stack:
                    u4 = ib
                whites.append(ib)
                deg = beta[ib]
                ib += 1
            else:
                deg = alpha[ia]
                ia += 1
                while strands and strands[-1] != _SLOT:
                    strands.pop()
                if not strands:
                    return False
                strands.pop()
            stack.append(top - 1)
            top = deg - 1
            white = not white
        elif stack:
            if not white:                  # a white vertex's subtree ends
                w = whites.pop()
                strands.append(w)
                strands.extend([_SLOT] * (gamma[w] - 1))
            top = stack.pop()
            white = not white
        else:
            return bool(strands) and strands[0] == 0 and \
                strands[-1] == u4 and _SLOT not in strands


# -- the decomposition validators as coded before the single sweep --------

CYCLE = -1          # path_ends: the path runs into a cycle
_WHITE, _GREY = -2, -3


def path_ends(t, i, root=None):
    """end[v]: where the color-i parent path from vertex v of the dart
    table t stops.

    The parent of v is the target of its color-i arc (the last one in
    dart order when there are several).  The path stops at the first
    vertex without a parent, or at ``root``; end[v] is CYCLE when it runs
    into a cycle instead.  White/grey/black marks settle every vertex once,
    so this is O(V) where a walk per vertex is O(V x depth)."""
    m = t.host.map
    nxt = [None] * m.n_vertices
    for h in t.arcs_of_color(i):
        nxt[m.origin[h]] = m.target(h)
    if root is not None:
        nxt[root] = None
    end = [_WHITE] * m.n_vertices
    for v0 in range(m.n_vertices):
        path, v = [], v0
        while end[v] == _WHITE:
            path.append(v)
            end[v] = _GREY
            if nxt[v] is None:
                end[v] = v
            else:
                v = nxt[v]
        stop = CYCLE if end[v] == _GREY else end[v]
        for u in path:
            end[u] = stop
    return end


def schnyder_violations(s):
    """validate_schnyder with a scan and path_ends per color and a colors_of
    list per dart."""
    return primal_violations(s, lambda v: (1, -1))


def reduced_schnyder_violations(rs):
    """validate_reduced_schnyder, as schnyder_violations."""
    black = black_vertices(rs.host)
    return primal_violations(rs, lambda v: (1, 0) if black[v] else (0, -1))


def primal_violations(t, window_of):
    """schnyder._primal_violations: (i) internal edges lie in (d-2)/step
    forests, once each, external edges in none; (ii) forest i spans the
    internal vertices toward the external roots other than u_j and
    u_{j+1}, with j = step*i; (iii) the vertex rule with window_of(v)."""
    ang = t.host
    m = ang.map
    p = t.n_colors
    step = ang.d // p
    prime = "'" * t.REDUCED
    if len(t.masks) != m.n_darts or any(mk >> p for mk in t.masks):
        return [("malformed", None, "masks must cover all darts with colors "
                                    f"in 1..{p}")]
    out = []
    ext_edges = ang.external_edge_ids
    want = (ang.d - 2) // step
    for h in m.edges():
        a, b = t.masks[h], t.masks[m.twin[h]]
        if h in ext_edges:
            if a or b:
                out.append(("i" + prime, h, "external edge carries colors"))
        elif a & b or bin(a | b).count("1") != want:
            out.append(("i" + prime, h, f"edge must lie in {want} forests, "
                                        "once each"))
    for i in range(1, p + 1):
        j = step * i
        avoid = {ang.external[j - 1], ang.external[j % ang.d]}
        out.extend(forest_violations(t, i, avoid, "ii" + prime))
    for v in ang.internal_vertices():
        out.extend(vertex_violations(t, v, "iii" + prime, window_of(v)))
    return out


def forest_violations(t, i, avoid, axiom):
    """Violations of "the color-i arcs of t form a forest that spans the
    internal vertices, oriented toward external roots outside avoid", each
    reported under the given axiom name."""
    ang = t.host
    m = ang.map
    out = []
    ext = set(ang.external)
    arcs = t.arcs_of_color(i)
    has_parent = set()
    for h in arcs:
        v = m.origin[h]
        if v in has_parent:
            out.append((axiom, v, f"color {i}: two outgoing arcs at {v}"))
        has_parent.add(v)
    touched = has_parent | {m.target(h) for h in arcs}
    for v in avoid & touched:
        out.append((axiom, v, f"color {i} touches the excluded root {v}"))
    for u in ext & has_parent:
        out.append((axiom, u, f"color {i}: outgoing arc at external {u}"))
    ends = path_ends(t, i)
    for v in ang.internal_vertices():
        if v not in has_parent:
            out.append((axiom, v, f"color {i}: no outgoing arc at internal {v}"))
        elif ends[v] == CYCLE:
            out.append((axiom, v, f"color {i}: the path from {v} runs into "
                                  "a cycle"))
        elif ends[v] not in ext or ends[v] in avoid:
            out.append((axiom, v, f"color {i}: path from {v} ends at "
                                  f"{ends[v]}"))
    return out


def vertex_violations(t, v, axiom, window=None):
    """schnyder._vertex_violations on the masks of t: the outgoing arcs
    carry colors 1..p once each, in one clockwise turn; with window =
    (a, b), every incoming color-c arc lies strictly clockwise between the
    outgoing arcs of colors c+a and c+b."""
    m = t.host.map
    p = t.n_colors
    orbit = m.vertex_orbit(v)
    n = len(orbit)
    pos = {}
    for k, h in enumerate(orbit):
        for c in colors_of(t.masks[h], p):
            if c in pos:
                return [(axiom, v, f"color {c}: two outgoing arcs at {v}")]
            pos[c] = k
    if len(pos) != p:
        return [(axiom, v, f"outgoing colors at {v}: {sorted(pos)}")]
    if sum((pos[c % p + 1] - pos[c]) % n for c in pos) != n:
        return [(axiom, v, f"outgoing colors not clockwise at {v}")]
    if window is None:
        return []
    a, b = window
    return [(axiom, v, f"incoming color {c} at {v} outside "
                       f"({_mod(c + a, p)},{_mod(c + b, p)})")
            for k, h in enumerate(orbit)
            for c in colors_of(t.masks[m.twin[h]], p)
            if not _strictly_between_cw(k, pos[_mod(c + a, p)],
                                        pos[_mod(c + b, p)], n)]


def _strictly_between_cw(t, a, b, n):
    """Is position t strictly between positions a and b, walking clockwise
    from a to b (positions index the clockwise dart order at the vertex)?"""
    if a == b:
        return t != a
    return 0 < (t - a) % n < (b - a) % n


def dual_violations(t):
    """duality._dual_violations with vertex_violations and tree_violations
    as its vertex rule and tree check."""
    rv = t.host
    m = rv.map
    p = t.n_colors
    step = rv.d // p
    prime = "'" * t.REDUCED
    if len(t.masks) != m.n_darts:
        return [("malformed", None, "mask table length mismatch")]
    least, many = (0, "at most") if t.REDUCED else (1, "exactly")
    out = []
    for h, mk in enumerate(t.masks):
        if m.origin[h] == rv.root_vertex and not t.REDUCED:
            if mk:
                out.append(("ii", h, "arc leaving the root vertex carries "
                                     "a color"))
        elif mk >> p or not least <= bin(mk).count("1") <= 1:
            out.append(("i" + prime, h, f"arc {h} must carry {many} one "
                                        f"color in 1..{p}"))
    if out:
        return out
    root_edge = {m.edge(h): j for j, h in enumerate(rv.root_darts, start=1)}
    for h in m.edges():
        a, b = t.masks[h], t.masks[m.twin[h]]
        j = root_edge.get(h)
        want = 2 // step if j is None else int(j % step == 0)
        if a & b or bin(a | b).count("1") != want:
            out.append(("partition" if t.REDUCED else "i", h,
                        f"edge {h} must lie in {want} trees, once each"))
    for i in range(1, p + 1):
        x = m.twin[rv.root_darts[step * i - 1]]
        if t.masks[x] != 1 << (i - 1):
            out.append(("ii" + prime, x, f"root edge e_{step * i}* does not "
                                         f"carry color {i} toward the root"))
    if t.REDUCED:
        black = black_faces(rv)
        out.extend(("i'", h, f"arc {h} has a white face on its right")
                   for h, mk in enumerate(t.masks)
                   if mk and not black[m.face_of[m.twin[h]]])
    for v in rv.non_root_vertices():
        out.extend(vertex_violations(t, v, "iii" + prime))
    return out + tree_violations(t)


def tree_violations(rd):
    """Each color class of rd must be a spanning tree oriented toward v*."""
    rv = rd.host
    out = []
    for i in range(1, rd.n_colors + 1):
        ends = path_ends(rd, i, root=rv.root_vertex)
        out.extend(("tree", v, f"color {i} path from {v} misses the root")
                   for v in rv.non_root_vertices() if ends[v] != rv.root_vertex)
    return out


# -- colored-dart paths, one walk per vertex ------------------------------

def walk_path_ends(t, i, root=None):
    """path_ends by walking from every vertex separately with a
    fresh seen set (O(V x depth)): where the color-i parent path from each
    vertex stops, or CYCLE."""
    m = t.host.map
    parent = {m.origin[h]: h for h in t.arcs_of_color(i)}
    parent.pop(root, None)
    end = []
    for v in range(m.n_vertices):
        seen = set()
        w = v
        while w in parent and w not in seen:
            seen.add(w)
            w = m.target(parent[w])
        end.append(CYCLE if w in parent else w)
    return end


# -- the vertex rule as each validator coded it before the shared checker --

def schnyder_vertex_rule(s, v):
    """Axiom (iii) of validate_schnyder at internal v: outgoing colors 1..d
    clockwise; incoming color-i arcs strictly between e_{i+1} and e_{i-1}
    clockwise."""
    m = s.host.map
    d = s.host.d
    orbit = m.vertex_orbit(v)
    seq = []  # outgoing colors in clockwise dart order
    for h in orbit:
        run = _cyclic_interval(s.masks[h], d)
        if run is None:
            return [("iii", v, f"arc {h} colors are not cyclically consecutive")]
        seq.extend(run)
    if sorted(seq) != list(range(1, d + 1)):
        return [("iii", v, f"outgoing colors at {v}: {sorted(seq)}")]
    start = seq.index(1)
    if [seq[(start + t) % d] for t in range(d)] != list(range(1, d + 1)):
        return [("iii", v, f"outgoing colors not clockwise at {v}: {seq}")]
    out = []
    pos_out = {}
    for t, h in enumerate(orbit):
        for c in colors_of(s.masks[h], d):
            pos_out[c] = t
    for t, h in enumerate(orbit):
        for c in colors_of(s.masks[m.twin[h]], d):
            a = pos_out[_mod(c + 1, d)]
            b = pos_out[_mod(c - 1, d)]
            if not _strictly_between_cw(t, a, b, len(orbit)):
                out.append(("iii", v, f"incoming color {c} at {v} outside "
                                      f"({_mod(c + 1, d)},{_mod(c - 1, d)})"))
    return out


def _cyclic_interval(mask, d):
    """The colors of a mask as a cyclically consecutive run i..j-1 (list in
    run order), or None when the mask is not a single cyclic interval."""
    if mask == 0:
        return []
    starts = [c for c in range(1, d + 1)
              if mask >> (c - 1) & 1 and not mask >> (_mod(c - 1, d) - 1) & 1]
    if len(starts) != 1:
        return None
    run = []
    c = starts[0]
    while mask >> (c - 1) & 1:
        run.append(c)
        c = _mod(c + 1, d)
        if len(run) > d:
            return None
    if len(run) != bin(mask).count("1"):
        return None
    return run


def reduced_vertex_rule(rs, v, is_black):
    """Axiom (iii') of validate_reduced_schnyder at internal v: parent edges
    e_1'..e_p' clockwise (zero turns accepted too, and of two outgoing arcs
    of one color the later one counts); incoming color-i edges strictly
    between e_{i+1}' and e_i' at black vertices, between e_i' and e_{i-1}'
    at white ones."""
    p = rs.p
    m = rs.host.map
    orbit = m.vertex_orbit(v)
    n = len(orbit)
    pos = {}
    for t, h in enumerate(orbit):
        for c in rs.dart_colors(h):
            pos[c] = t
    if sorted(pos) != list(range(1, p + 1)):
        return [("iii'", v, f"outgoing colors at {v}: {sorted(pos)}")]
    turns = sum((pos[_mod(i + 1, p)] - pos[i]) % n for i in range(1, p + 1))
    if turns not in (0, n):
        return [("iii'", v, f"parent edges not clockwise at {v}")]
    out = []
    for t, h in enumerate(orbit):
        for c in colors_of(rs.masks[m.twin[h]], p):
            a, b = (pos[_mod(c + 1, p)], pos[c]) if is_black else \
                   (pos[c], pos[_mod(c - 1, p)])
            if t in (a, b) or not _strictly_between_cw(t, a, b, n):
                out.append(("iii'", v, f"incoming color {c} misplaced at {v}"))
    return out


def regular_vertex_rule(rd, v):
    """Axiom (iii) of validate_regular_decomposition at non-root v, once
    every arc not leaving v* carries one color: the outgoing colors read
    1..d clockwise."""
    d = rd.host.d
    seq = [rd.dart_colors(h)[0] for h in rd.host.map.vertex_orbit(v)]
    start = seq.index(1) if 1 in seq else 0
    if [seq[(start + t) % len(seq)] for t in range(len(seq))] != \
            list(range(1, d + 1)):
        return [("iii", v, f"outgoing colors not clockwise at {v}: {seq}")]
    return []


def reduced_regular_vertex_rule(rrd, v):
    """Axiom (iii') of validate_reduced_regular at non-root v, once every
    arc carries at most one color: parent arcs of colors 1..p clockwise."""
    p = rrd.p
    orbit = rrd.host.map.vertex_orbit(v)
    n = len(orbit)
    out = []
    pos = {}
    for t, h in enumerate(orbit):
        for c in rrd.dart_colors(h):
            if c in pos:
                out.append(("iii'", v, f"color {c}: two outgoing arcs at {v}"))
            pos[c] = t
    if sorted(pos) != list(range(1, p + 1)):
        return out + [("iii'", v, f"outgoing colors at {v}: {sorted(pos)}")]
    turns = sum((pos[_mod(i + 1, p)] - pos[i]) % n for i in range(1, p + 1))
    if turns not in (0, n):
        out.append(("iii'", v, f"parent arcs not clockwise at {v}"))
    return out


def forest_path_to_root(s, i, v):
    """Vertices of the color-i directed path from v to its external root."""
    ang = s.host
    m = ang.map
    parent = {}
    for h in s.arcs_of_color(i):
        parent[m.origin[h]] = h
    path = [v]
    seen = {v}
    while path[-1] in parent:
        w = m.target(parent[path[-1]])
        if w in seen:
            raise SchnyderError("InvalidDecomposition",
                                f"color {i} cycle through {w}")
        seen.add(w)
        path.append(w)
    if path[-1] not in set(ang.external):
        raise SchnyderError("InvalidDecomposition",
                            f"color {i} path from {v} ends at internal "
                            f"{path[-1]}")
    return path


def color_dart(rd, v, i):
    """The dart of color i leaving the non-root vertex v."""
    for h in rd.host.map.vertex_orbit(v):
        if rd.masks[h] == 1 << (i - 1):
            return h
    raise DrawingError("InvalidDecomposition",
                       f"vertex {v} has no outgoing arc of color {i}")


def equatorial_line(rd, i):
    """The line L_i from v_{i+1}* to v_{i+3}*, alternating non-root vertices
    and non-root faces, with color-i edges on its right and color-(i+2) edges
    on its left: a walk that searches each face for its exit arc, the oracle
    of the marker chains of place_by_equatorial_lines."""
    rv = rd.host
    m = rv.map
    lo, hi = 1 << (i - 1), 1 << (_mod(i + 2, 4) - 1)
    start = m.target(rv.root_darts[i % 4])        # v_{i+1}*
    stop = m.target(rv.root_darts[(i + 2) % 4])   # v_{i+3}*
    seq = [("v", start)]
    u = start
    while u != stop:
        h = color_dart(rd, u, _mod(i + 3, 4))
        c = rd.masks[m.twin[h]]
        if c == hi:
            f = m.face_of[m.twin[h]]  # face on the right of h
        elif c == lo:
            f = m.face_of[h]          # face on the left of h
        else:
            raise DrawingError("InvalidDecomposition",
                               f"equatorial step stuck at vertex {u}")
        seq.append(("f", f))
        # leave f through its color-(i+1) arc whose twin closes the pattern
        exits = []
        for g in m.faces[f]:
            for cand in (g, m.twin[g]):
                if rd.masks[cand] == 1 << (_mod(i + 1, 4) - 1):
                    tw = rd.masks[m.twin[cand]]
                    if tw == lo and m.face_of[m.twin[cand]] == f:
                        exits.append(cand)
                    elif tw == hi and m.face_of[cand] == f:
                        exits.append(cand)
        if len(set(exits)) != 1:
            raise DrawingError("InvalidDecomposition",
                               f"face {f} has {len(set(exits))} exits on L_{i}")
        u = m.origin[exits[0]]
        seq.append(("v", u))
        if len(seq) > 2 * (m.n_vertices + m.n_faces):
            raise DrawingError("InvalidDecomposition", f"line L_{i} loops")
    want = 2 * m.n_vertices - 3
    if len(seq) != want or \
            {x for k, x in seq if k == "v"} != set(rv.non_root_vertices()) or \
            {x for k, x in seq if k == "f"} != set(rv.non_root_faces()):
        raise DrawingError("InternalInvariantViolation",
                           f"line L_{i} does not visit everything once")
    return seq


def place_by_walking_lines(rd):
    """p(v) as (rank along L_1, rank along L_4) by the walks of
    equatorial_line."""
    xs = [x for k, x in equatorial_line(rd, 1) if k == "v"]
    ys = [x for k, x in equatorial_line(rd, 4) if k == "v"]
    y = {v: t for t, v in enumerate(ys)}
    return {v: (t, y[v]) for t, v in enumerate(xs)}


def path_to_root(rd, v, i):
    """Darts of the color-i path P_i(v) from v to the root vertex."""
    m = rd.host.map
    darts = []
    w = v
    while w != rd.host.root_vertex:
        h = color_dart(rd, w, i)
        darts.append(h)
        w = m.target(h)
        if len(darts) > m.n_vertices:
            raise DrawingError("InvalidDecomposition", f"color {i} cycle at {v}")
    return darts


def region_faces(rd, v, i):
    """Faces of the region R_{i,i+2}(v) bounded by P_i(v) + P_{i+2}(v) and
    containing the root edge e_{i+1}*."""
    rv = rd.host
    m = rv.map
    p1 = path_to_root(rd, v, i)
    p2 = path_to_root(rd, v, _mod(i + 2, 4))
    mid1 = {m.target(h) for h in p1[:-1]}
    mid2 = {m.target(h) for h in p2[:-1]}
    if mid1 & mid2:
        raise DrawingError("InvalidDecomposition",
                           f"paths {i} and {_mod(i + 2, 4)} from {v} meet at "
                           f"{sorted(mid1 & mid2)}")
    cycle = p1 + [m.twin[h] for h in reversed(p2)]
    left = left_faces(m, cycle)
    marker = m.face_of[rv.root_darts[i % 4]]  # a face beside e_{i+1}*
    if marker in left:
        return left
    return set(range(m.n_faces)) - left


def place_by_face_counting(rd):
    """p(v) by counting non-root faces region by region: the definition of
    the placement, and the quadratic oracle of place_by_equatorial_lines."""
    rv = rd.host
    non_root = set(rv.non_root_faces())
    coords = {}
    for v in rv.non_root_vertices():
        x = len(region_faces(rd, v, 1) & non_root)
        y = len(region_faces(rd, v, 4) & non_root)
        coords[v] = (x, y)
    return coords


# -- drawings: anchored segments, the pairwise planarity test, specials ---

def segments(gd):
    """All drawn segments of a GridDrawing, each (p, q, anchor of p, anchor
    of q): ("v", u) at a vertex, ("b", e) at the bend of edge e, ("r", t, k)
    at bend k of root edge t and ("root",) at the root vertex."""
    m = gd.host.map
    out = []
    for e, b in gd.bends.items():
        u, w = m.origin[e], m.target(e)
        out.append((gd.coords[u], b, ("v", u), ("b", e)))
        out.append((b, gd.coords[w], ("b", e), ("v", w)))
    if gd.root_routes is not None:
        for t, pts in enumerate(gd.root_routes):
            v_end = m.target(gd.host.root_darts[t])
            anchors = [("v", v_end)] + \
                [("r", t, k) for k in range(1, len(pts) - 1)] + [("root",)]
            for k in range(len(pts) - 1):
                out.append((pts[k], pts[k + 1], anchors[k], anchors[k + 1]))
    return out


def _orient(o, a, b):
    v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (v > 0) - (v < 0)


def _on_segment(p, a, b):
    return _orient(a, b, p) == 0 and \
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
        min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _pair_conflict(s1, s2):
    """A crossing/overlap description for two anchored segments, or None."""
    p1, q1, a1p, a1q = s1
    p2, q2, a2p, a2q = s2
    d1, d2 = _orient(p1, q1, p2), _orient(p1, q1, q2)
    d3, d4 = _orient(p2, q2, p1), _orient(p2, q2, q1)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return "proper crossing"
    touches = {}
    for p, anch in ((p2, a2p), (q2, a2q)):
        if _on_segment(p, p1, q1):
            touches.setdefault(p, set()).add(anch)
    for p, anch in ((p1, a1p), (q1, a1q)):
        if _on_segment(p, p2, q2):
            touches.setdefault(p, set()).add(anch)
    if not touches:
        return None
    if len(touches) > 1:
        return "overlap"
    (pt, anchors), = touches.items()
    ok = (pt in (p1, q1)) and (pt in (p2, q2)) and \
        any(a in (a1p, a1q) and a in (a2p, a2q) for a in anchors)
    return None if ok else f"contact at {pt}"


def check_planarity(gd_or_segments):
    """(is_planar, crossing list) of a GridDrawing or a list of anchored
    segments, by exact integer tests on every pair.  Segments touching only
    at a shared vertex/bend anchor do not count."""
    segs = gd_or_segments if isinstance(gd_or_segments, list) \
        else segments(gd_or_segments)
    crossings = []
    for a in range(len(segs)):
        for b in range(a + 1, len(segs)):
            why = _pair_conflict(segs[a], segs[b])
            if why is not None:
                crossings.append((segs[a], segs[b], why))
    return not crossings, crossings


def bend_count(gd):
    """Bends of a GridDrawing, root routes included."""
    n = len(gd.bends)
    if gd.root_routes is not None:
        n += sum(len(pts) - 2 for pts in gd.root_routes)
    return n


def special_face_of_edge(fc, e, m):
    """The unique non-root face of a FaceClassification for which edge e is
    special."""
    # identify by dart pair, not vertex pair, to survive parallel edges
    hits = []
    for f, info in fc.faces.items():
        for g in m.face_corners(f):
            if m.edge(g) == m.edge(e):
                a, a2 = info.special_a
                b, b2 = info.special_b
                if (m.origin[g], m.target(g)) in ((a, a2), (b, b2)):
                    hits.append(f)
    if len(hits) != 1:
        raise DrawingError("InternalInvariantViolation",
                           f"edge {e} special for {len(hits)} faces")
    return hits[0]


# -- canonical forms, isomorphism and cuts of maps -------------------------

def dart_bfs(m, root_dart):
    """{dart: rank} in BFS order from root_dart along next_cw, then twin."""
    label = {root_dart: 0}
    order = [root_dart]
    for d in order:             # the growing list is the BFS queue
        for nd in (m.next_cw[d], m.twin[d]):
            if nd not in label:
                label[nd] = len(order)
                order.append(nd)
    return label


def canonical_code(m, root_dart):
    """Canonical relabelling code of m rooted at a dart: the next_cw and
    twin tables relabelled by dart_bfs rank.  Two rooted maps are
    isomorphic iff their codes are equal."""
    label = dart_bfs(m, root_dart)
    order = list(label)
    code_next = tuple(label[m.next_cw[d]] for d in order)
    code_twin = tuple(label[m.twin[d]] for d in order)
    return (code_next, code_twin)


def rooted_code(m):
    """Code of m rooted at its designated outer dart."""
    return canonical_code(m, m.outer_dart)


def isomorphic(m1, m2):
    """Unrooted isomorphism (brute force over roots; small maps only)."""
    if (m1.n_vertices, m1.n_edges, m1.n_faces) != \
            (m2.n_vertices, m2.n_edges, m2.n_faces):
        return False
    mine = canonical_code(m1, 0)
    return any(canonical_code(m2, d) == mine for d in range(m2.n_darts))


def mincut_at_least(m, d):
    """True iff every edge cut of m has size >= d (via girth of the dual)."""
    if d <= 0:
        return True
    if any(m.is_bridge(h) for h in range(m.n_darts)) or m.n_edges == 1:
        return d <= 1
    try:
        g = m.dual().girth()
    except MapError:
        return False
    return g >= d


def pair_code(ang, s):
    """Canonical form of a rooted pair: the rooted map code together with
    the color masks read in the same dart order."""
    m = ang.map
    return rooted_code(m) + (tuple(s.masks[h]
                                   for h in dart_bfs(m, m.outer_dart)),)


# -- the side of a cycle, by flood fill -----------------------------------

def left_faces(m, cycle_darts):
    """Faces in the region left of a dart cycle (flood fill not crossing it)."""
    cyc_edges = {m.edge(h) for h in cycle_darts}
    region = set()
    q = deque()
    for h in cycle_darts:
        f = m.face_of[h]
        if f not in region:
            region.add(f)
            q.append(f)
    while q:
        f = q.popleft()
        for h in m.faces[f]:
            if m.edge(h) in cyc_edges:
                continue
            g = m.face_of[m.twin[h]]
            if g not in region:
                region.add(g)
                q.append(g)
    return region


def ccw_traversal_by_flood_fill(m, cycle_darts):
    """orientation.ccw_traversal with the side found by flood-filling the
    faces left of the cycle: reversed iff the outer face is among them."""
    if m.outer_face in left_faces(m, cycle_darts):
        return tuple(m.twin[h] for h in reversed(cycle_darts))
    return tuple(cycle_darts)


# -- the lattice push seen on labellings -----------------------------------

def labelling_push(l, traversal):
    """Push an admissible ccw cycle: +1 mod d on every corner whose face lies
    strictly inside the cycle."""
    ang = l.host
    m = ang.map
    d = ang.d
    for h in traversal:
        if clockwise_jump(l, h) == 0:
            raise SchnyderError("NotAdmissible",
                                f"corners around arc {h} share a color")
    interior = left_faces(m, traversal)
    if m.outer_face in interior:
        raise SchnyderError("NotAdmissible", "traversal is not counterclockwise")
    colors = list(l.colors)
    for h in range(m.n_darts):
        # corner(h) belongs to the face orbit containing next_cw(h)
        if m.face_of[m.next_cw[h]] in interior:
            colors[h] = _mod(colors[h] + 1, d)
    return CornerLabelling(host=ang, colors=tuple(colors))


# -- lattice circuits, every cycle flood-filled ---------------------------

def find_ccw_d_circuits(o):
    """Every ccw d-circuit of o (the candidate cover pushes downward) in the
    library's scan order: the full list, where the walk to the minimum
    stops its scans at the first one."""
    return _find_d_circuits(o, ccw=True)


def flood_fill_d_circuits(o, ccw):
    """find_ccw_d_circuits (ccw=True) or find_cw_d_circuits by the side
    first: every simple d-cycle of oriented edges is turned counterclockwise
    by a face flood fill, then kept if that traversal (or its reverse, for
    cw) is a circuit.  It shares only the cycle listing with the library."""
    m = o.map
    out = []
    for cyc in _simple_cycles_of_length(m, o.host.d,
                                        [m.edge(h) for h in o.oriented_edges()]):
        trav = ccw_traversal_by_flood_fill(m, cyc)
        if not ccw:
            trav = tuple(m.twin[h] for h in reversed(trav))
        if all(o.values[h] > 0 for h in trav):
            out.append(trav)
    return out


# -- the labelling and dual validators as coded before the shared rules ---

def labelling_axioms(l):
    """validate_labelling as coded before the corner rule: each face read in
    orbit order, step +1 at the outer face and -1 at the others."""
    ang = l.host
    m = ang.map
    d = ang.d
    out = []
    if len(l.colors) != m.n_darts or any(not 1 <= c <= d for c in l.colors):
        return [("malformed", None, "colors must cover all corners with values in [d]")]
    # (i) colors 1..d in clockwise order around each face
    for f, orbit in enumerate(m.faces):
        step = 1 if f == m.outer_face else -1
        for t in range(len(orbit)):
            c0 = l.colors[m.twin[orbit[t]]]
            c1 = l.colors[m.twin[orbit[(t + 1) % len(orbit)]]]
            if c1 != _mod(c0 + step, d):
                out.append(("i", f, f"face {f}: corner colors {c0}->{c1} not a "
                                    "clockwise +1 step"))
    # (ii) corners at u_i colored i
    for i, u in enumerate(ang.external, start=1):
        for h in m.vertex_orbit(u):
            if l.colors[h] != i:
                out.append(("ii", u, f"corner {h} at u_{i} has color {l.colors[h]}"))
    # (iii) exactly one clockwise descent around each internal vertex
    for v in ang.internal_vertices():
        orbit = m.vertex_orbit(v)
        desc = sum(1 for t in range(len(orbit))
                   if l.colors[orbit[t]] > l.colors[orbit[(t + 1) % len(orbit)]])
        if desc != 1:
            out.append(("iii", v, f"vertex {v} has {desc} descents"))
    return out


def regular_labelling_axioms(r):
    """validate_regular_labelling as coded before the corner rule.  Axiom
    (iii) reads the map's outer face in orbit order and every other face
    reversed, so it agrees with the corner rule only while the outer face
    is a root face, as on every dualize output."""
    rv = r.host
    m = rv.map
    d = rv.d
    if len(r.colors) != m.n_darts or any(not 1 <= c <= d for c in r.colors):
        return [("malformed", None, "colors must cover all corners with values in [d]")]
    out = cyclic_step_violations(r, "i")
    # (ii) corners of the root face f_i* colored i
    for i, f in enumerate(rv.root_faces, start=1):
        for h in m.faces[f]:
            if r.colors[m.twin[h]] != i:
                out.append(("ii", f, f"corner {m.twin[h]} of root face {i} has "
                                     f"color {r.colors[m.twin[h]]}"))
    # (iii) exactly one clockwise descent around each non-root face
    for f in rv.non_root_faces():
        orbit = m.faces[f]
        seq = [r.colors[m.twin[h]] for h in orbit]
        if f != m.outer_face:
            seq.reverse()  # clockwise traversal of an inner face
        desc = sum(1 for t in range(len(seq))
                   if seq[t] > seq[(t + 1) % len(seq)])
        if desc != 1:
            out.append(("iii", f, f"face {f} has {desc} descents"))
    return out


def cyclic_step_violations(r, axiom):
    """Corner colors 1..d clockwise around non-root vertices,
    counterclockwise around the root vertex: axiom (i) of
    regular_labelling_axioms, and (i') of sufficiency_violations."""
    rv = r.host
    m = rv.map
    out = []
    for v in range(m.n_vertices):
        step = -1 if v == rv.root_vertex else 1
        orbit = m.vertex_orbit(v)
        for t in range(len(orbit)):
            c0 = r.colors[orbit[t]]
            c1 = r.colors[orbit[(t + 1) % len(orbit)]]
            if c1 != _mod(c0 + step, rv.d):
                out.append((axiom, v, f"vertex {v}: corner colors {c0}->{c1} "
                                      f"not a clockwise {step:+d} step"))
    return out


def sufficiency_violations(r):
    """The four sufficient conditions for a corner coloring to be a regular
    labelling: the certificate of duality.xi_inverse's output, which a valid
    input cannot fail since xi is a bijection."""
    rv = r.host
    m = rv.map
    d = rv.d
    # (i') cyclic colors around every vertex (counterclockwise at the root)
    out = [("i'",) + v[1:]
           for v in _corner_violations(r.colors, d, _vertex_steps(rv), (), ())]
    # (ii') distinct clockwise-preceding corner colors on non-root edges
    root_ids = set(rv.root_edge_ids())
    for h in m.edges():
        if h in root_ids:
            continue
        if r.colors[m.prev_cw[h]] == r.colors[m.prev_cw[m.twin[h]]]:
            out.append(("ii'", h, f"edge {h}: equal preceding corner colors"))
    # (iii') root-edge corner pattern at v* and at the other end
    for i, e in enumerate(rv.root_darts, start=1):
        t = m.twin[e]
        checks = ((m.prev_cw[e], _mod(i + 1, d)), (e, i),
                  (m.prev_cw[t], i), (t, _mod(i + 1, d)))
        for h, want in checks:
            if r.colors[h] != want:
                out.append(("iii'", i, f"root edge {i}: corner {h} has color "
                                       f"{r.colors[h]}, expected {want}"))
    # (iv') no monochromatic non-root face
    for f in rv.non_root_faces():
        cs = {r.colors[m.twin[h]] for h in m.faces[f]}
        if len(cs) == 1:
            out.append(("iv'", f, f"face {f} is monochromatic"))
    return out


def chi_by_complemented_trees(s):
    """Regular decomposition dual to a Schnyder decomposition, by the
    paper's definition of chi: one BFS from v* per color.

    Tree i of the result consists of the dual edges of the primal edges NOT
    in T_i, where T_i is forest i plus every external edge except the one
    joining u_i and u_{i+1}; each tree is oriented toward v*.
    """
    bad = validate_schnyder(s)
    if bad:
        raise DualityError("InvalidDecomposition", str(bad[:3]))
    ang = s.host
    m = ang.map
    d = ang.d
    rv = dualize(ang)
    dm = rv.map
    masks = [0] * dm.n_darts
    for i in range(1, d + 1):
        in_tree = {m.edge(h) for h in s.arcs_of_color(i)}
        in_tree.update(ang.external_edge_ids)
        in_tree.discard(m.edge(ang.outer_orbit[i - 1]))  # the u_i u_{i+1} edge
        darts_at = [[] for _ in range(dm.n_vertices)]
        for h in range(dm.n_darts):
            if dm.edge(h) not in in_tree:
                darts_at[dm.origin[h]].append(h)
        reached = {rv.root_vertex}
        q = deque([rv.root_vertex])
        while q:
            u = q.popleft()
            for h in darts_at[u]:
                w = dm.target(h)
                if w not in reached:
                    reached.add(w)
                    masks[dm.twin[h]] |= 1 << (i - 1)  # w's parent arc
                    q.append(w)
        if len(reached) != dm.n_vertices:
            raise DualityError("InvalidDecomposition",
                               f"complemented dual of tree {i} does not span")
    return RegularDecomposition(host=rv, masks=tuple(masks), primal=ang)


def regular_decomposition_axioms(rd):
    """validate_regular_decomposition as coded before the dual rule."""
    rv = rd.host
    m = rv.map
    d = rv.d
    out = []
    if len(rd.masks) != m.n_darts:
        return [("malformed", None, "mask table length mismatch")]
    for h in range(m.n_darts):
        if m.origin[h] == rv.root_vertex:
            if rd.masks[h]:
                out.append(("ii", h, "arc leaving the root vertex carries a color"))
        elif bin(rd.masks[h]).count("1") != 1 or rd.masks[h] >> d:
            out.append(("i", h, f"arc {h} must carry exactly one color in [d]"))
    if out:
        return out
    # (i)/(ii) per edge: non-root edges lie in two distinct trees with
    # opposite directions; root edge e_i* only in T_i*, toward v*
    root_in = {m.twin[e]: i for i, e in enumerate(rv.root_darts, start=1)}
    for h in m.edges():
        a, b = rd.masks[h], rd.masks[m.twin[h]]
        for x, i in ((h, root_in.get(h)), (m.twin[h], root_in.get(m.twin[h]))):
            if i is not None and rd.masks[x] != 1 << (i - 1):
                out.append(("ii", x, f"root edge {i} does not carry color {i} "
                                     "toward the root"))
        if m.origin[h] != rv.root_vertex and m.target(h) != rv.root_vertex:
            if a == b:
                out.append(("i", h, f"edge {h}: both arcs have the same color"))
    # (iii) outgoing colors 1..d in clockwise order around non-root vertices
    for v in rv.non_root_vertices():
        out.extend(vertex_violations(rd, v, "iii"))
    return out + tree_violations(rd)


def reduced_regular_axioms(rrd):
    """validate_reduced_regular as coded before the dual rule."""
    rv = rrd.host
    p = _require_even_d(rv.d)
    m = rv.map
    out = []
    if len(rrd.masks) != m.n_darts:
        return [("malformed", None, "mask table length mismatch")]
    for h in range(m.n_darts):
        if bin(rrd.masks[h]).count("1") > 1 or rrd.masks[h] >> p:
            out.append(("i'", h, f"arc {h} carries more than one color"))
    if out:
        return out
    # partition of all edges except the odd root-edges
    odd_root = {m.edge(rv.root_darts[2 * i - 2]) for i in range(1, p + 1)}
    even_root_in = {m.twin[rv.root_darts[2 * i - 1]]: i for i in range(1, p + 1)}
    for h in m.edges():
        n_colors = bin(rrd.masks[h]).count("1") + \
            bin(rrd.masks[m.twin[h]]).count("1")
        want = 0 if h in odd_root else 1
        if n_colors != want:
            out.append(("partition", h,
                        f"edge {h} lies in {n_colors} trees, expected {want}"))
    for x, i in even_root_in.items():
        if rrd.masks[x] != 1 << (i - 1):
            out.append(("ii'", x, f"root edge e_{{2i}}* of tree {i} miscolored"))
    # (i') black face on the right of every arc
    face_black = black_faces(rv)
    for h in range(m.n_darts):
        if rrd.masks[h] and not face_black[m.face_of[m.twin[h]]]:
            out.append(("i'", h, f"arc {h} has a white face on its right"))
    # (iii') parent arcs clockwise around non-root vertices
    for v in rv.non_root_vertices():
        out.extend(vertex_violations(rrd, v, "iii'"))
    return out + tree_violations(rrd)


# -- exhaustive enumeration by peeling, pairs through the lattice ---------

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


def is_even(o):
    return all(v % 2 == 0 for v in o.values if v >= 0)


def enumerate_pairs(n):
    """All pairs (rooted girth-4 quadrangulation with n faces, even Schnyder
    decomposition), each exactly once, for 2 <= n <= ENUMERATION_CAP."""
    _require_faces(n)
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

"""Independent brute-force oracles used to freeze expected values."""

from collections import Counter, deque
from itertools import product

from schnyder_kit.duality import (
    RegularDecomposition, _vertex_steps, dualize,
)
from schnyder_kit.errors import (
    DrawingError, DualityError, MapError, SamplerError, SchnyderError,
)
from schnyder_kit.orientation import (
    FracOrientation, _simple_cycles_of_length, lattice_enumerate,
)
from schnyder_kit.planar_map import PlaneMap, as_angulation
from schnyder_kit.schnyder import (
    CornerLabelling, _corner_violations, _mod, clockwise_jump, phi,
    psi_inverse, validate_schnyder,
)
from schnyder_kit.sampler import (
    DEFAULT_MAX_ATTEMPTS, ENUMERATION_CAP, EncodingTriple, _require_faces,
    decode,
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
            out.append(FracOrientation(ang, k, tuple(vals)))
    return out


def brute_force_dd2(ang):
    return brute_force_orientations(ang, ang.d, ang.d - 2)


def edmonds_karp(n, arcs, s, t):
    """(max-flow value, residual capacities) of the network on nodes 0..n-1
    with the given (u, v, capacity) arcs, by textbook Edmonds-Karp: each
    augmenting path found by a breadth-first search run until it reaches
    t, with a fresh parent list per search.  Arc i is residual arc 2i and
    its reverse 2i+1, and each node scans its residual arcs in that order,
    as in _FlowNet."""
    adj = [[] for _ in range(n)]
    to, cap = [], []
    for u, v, c in arcs:
        adj[u].append(len(to)); to.append(v); cap.append(c)
        adj[v].append(len(to)); to.append(u); cap.append(0)
    total = 0
    while True:
        parent = [None] * n
        parent[s] = -1
        q = deque([s])
        while q and parent[t] is None:
            u = q.popleft()
            for a in adj[u]:
                if cap[a] > 0 and parent[to[a]] is None:
                    parent[to[a]] = a
                    q.append(to[a])
        if parent[t] is None:
            return total, cap
        path, v = [], t
        while v != s:
            path.append(parent[v])
            v = to[parent[v] ^ 1]
        aug = min(cap[a] for a in path)
        for a in path:
            cap[a] -= aug
            cap[a ^ 1] += aug
        total += aug


def _geometric(rng):
    k = 1
    while rng.getrandbits(1):
        k += 1
    return k


def sample_geometric_triple(n, rng):
    """A triple of independent 2-geometric sequences: alpha stops at the
    first partial sum >= n (r terms), beta and gamma have n - r + 1 terms.
    Each term is _geometric's draw, written inline."""
    if n < 1:
        raise SamplerError("BadParameter", f"n = {n} must be positive")
    bit = rng.getrandbits
    alpha = []
    total = 0
    while total < n:
        k = 1
        while bit(1):
            k += 1
        alpha.append(k)
        total += k
    s = n - len(alpha)
    rest = []
    for _ in range(2 * s + 2):
        k = 1
        while bit(1):
            k += 1
        rest.append(k)
    return EncodingTriple(alpha=tuple(alpha), beta=tuple(rest[:s + 1]),
                          gamma=tuple(rest[s + 1:]))


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


def path_to_root(rd, v, i):
    """Darts of the color-i path P_i(v) from v to the root vertex."""
    m = rd.host.map
    darts = []
    w = v
    while w != rd.host.root_vertex:
        h = next((h for h in m.vertex_orbit(w) if rd.masks[h] == 1 << (i - 1)),
                 None)
        if h is None or len(darts) == m.n_vertices:
            raise DrawingError("InvalidDecomposition",
                               f"no color-{i} path from {v} to the root")
        darts.append(h)
        w = m.target_of[h]
    return darts


def region_faces(rd, v, i):
    """Faces of the region R_{i,i+2}(v) bounded by P_i(v) + P_{i+2}(v) and
    containing the root edge e_{i+1}*."""
    rv = rd.host
    m = rv.map
    p1 = path_to_root(rd, v, i)
    p2 = path_to_root(rd, v, _mod(i + 2, 4))
    mid1 = {m.target_of[h] for h in p1[:-1]}
    mid2 = {m.target_of[h] for h in p2[:-1]}
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
        u, w = m.origin[e], m.target_of[e]
        out.append((gd.coords[u], b, ("v", u), ("b", e)))
        out.append((b, gd.coords[w], ("b", e), ("v", w)))
    if gd.root_routes is not None:
        for t, pts in enumerate(gd.root_routes):
            v_end = m.target_of[gd.host.root_darts[t]]
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


def special_face_of_edge(gd, e):
    """The unique non-root face of a drawing, by its parsed markers, for
    which edge e is special."""
    # identify by dart pair, not vertex pair, to survive parallel edges
    m = gd.host.map
    hits = []
    for f, ((a, a2, b, b2), _) in gd.markers.items():
        for g in m.face_corners(f):
            if m.edge_of[g] == m.edge_of[e] and \
                    (m.origin[g], m.target_of[g]) in ((a, a2), (b, b2)):
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
    bridge = any(m.face_of[h] == m.face_of[t] for h, t in enumerate(m.twin))
    if bridge or m.n_edges == 1:
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


# -- the side of a cycle and the lattice circuits, by flood fill -----------

def left_faces(m, cycle_darts):
    """Faces in the region left of a dart cycle (flood fill not crossing it)."""
    cut = set(cycle_darts) | {m.twin[h] for h in cycle_darts}
    region = {m.face_of[h] for h in cycle_darts}
    q = deque(region)
    while q:
        f = q.popleft()
        for h in m.faces[f]:
            if h in cut:
                continue
            g = m.face_of[m.twin[h]]
            if g not in region:
                region.add(g)
                q.append(g)
    return region


def ccw_traversal_by_flood_fill(m, cycle_darts):
    """A dart cycle turned counterclockwise, with the side found by
    flood-filling the faces left of the cycle: reversed iff the outer face
    is among them."""
    if m.outer_face in left_faces(m, cycle_darts):
        return tuple(m.twin[h] for h in reversed(cycle_darts))
    return tuple(cycle_darts)


def flood_fill_d_circuits(o):
    """(ccw, cw): the counterclockwise and the clockwise d-circuits of o, in
    the order of the library's scans, by the side first: every simple
    d-cycle of oriented edges is turned counterclockwise by a face flood
    fill, and that traversal is kept in ccw if it is a circuit, its reverse
    in cw if that is one.  It shares only the cycle listing with the
    library."""
    m = o.map
    ccw, cw = [], []
    for cyc in _simple_cycles_of_length(
            m, o.host.d, [h for h in m.edges() if o.values[h] >= 0]):
        trav = ccw_traversal_by_flood_fill(m, cyc)
        back = tuple(m.twin[h] for h in reversed(trav))
        for out, t in ((ccw, trav), (cw, back)):
            if all(o.values[h] > 0 for h in t):
                out.append(t)
    return ccw, cw


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


# -- the labelling axioms, as the validators coded them before the corner rule

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
        cs = [l.colors[m.twin[h]] for h in orbit]
        out += [("i", f, f"face {f}: corner colors {a}->{b} not a clockwise "
                         "+1 step")
                for a, b in zip(cs, cs[1:] + cs[:1]) if b != _mod(a + step, d)]
    # (ii) corners at u_i colored i
    out += [("ii", u, f"corner {h} at u_{i} has color {l.colors[h]}")
            for i, u in enumerate(ang.external, start=1)
            for h in m.vertex_orbit(u) if l.colors[h] != i]
    # (iii) exactly one clockwise descent around each internal vertex
    for v in ang.internal_vertices():
        cs = [l.colors[h] for h in m.vertex_orbit(v)]
        desc = sum(a > b for a, b in zip(cs, cs[1:] + cs[:1]))
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
    out += [("ii", f, f"corner {m.twin[h]} of root face {i} has color "
                      f"{r.colors[m.twin[h]]}")
            for i, f in enumerate(rv.root_faces, start=1)
            for h in m.faces[f] if r.colors[m.twin[h]] != i]
    # (iii) exactly one clockwise descent around each non-root face
    for f in rv.non_root_faces():
        orbit = m.faces[f]
        seq = [r.colors[m.twin[h]] for h in orbit]
        if f != m.outer_face:
            seq.reverse()  # clockwise traversal of an inner face
        desc = sum(a > b for a, b in zip(seq, seq[1:] + seq[:1]))
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
        cs = [r.colors[h] for h in m.vertex_orbit(v)]
        out += [(axiom, v, f"vertex {v}: corner colors {a}->{b} not a "
                           f"clockwise {step:+d} step")
                for a, b in zip(cs, cs[1:] + cs[:1]) if b != _mod(a + step, rv.d)]
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
        in_tree = {m.edge_of[h] for h in s.arcs_of_color(i)}
        in_tree.update(ang.external_edge_ids)
        # the u_i u_{i+1} edge
        in_tree.discard(m.edge_of[ang.outer_orbit[i - 1]])
        darts_at = [[] for _ in range(dm.n_vertices)]
        for h in range(dm.n_darts):
            if dm.edge_of[h] not in in_tree:
                darts_at[dm.origin[h]].append(h)
        reached = {rv.root_vertex}
        q = deque([rv.root_vertex])
        while q:
            u = q.popleft()
            for h in darts_at[u]:
                w = dm.target_of[h]
                if w not in reached:
                    reached.add(w)
                    masks[dm.twin[h]] |= 1 << (i - 1)  # w's parent arc
                    q.append(w)
        if len(reached) != dm.n_vertices:
            raise DualityError("InvalidDecomposition",
                               f"complemented dual of tree {i} does not span")
    return RegularDecomposition(host=rv, masks=tuple(masks))


# -- the decomposition axioms, from the definitions -------------------------

def _black(start, neighbors):
    """The cells at even distance from start: the black side of a
    bipartition, by breadth-first search over neighbors(cell)."""
    dist = {start: 0}
    q = deque([start])
    while q:
        c = q.popleft()
        for x in neighbors(c):
            if x not in dist:
                dist[x] = dist[c] + 1
                q.append(x)
    return {c for c, k in dist.items() if k % 2 == 0}


def _parents(t, i, root=None):
    """v -> the target of v's color-i arc (its last one in dart order when
    it has several); the root vertex has none."""
    m = t.host.map
    return {m.origin[h]: m.target_of[h] for h in range(m.n_darts)
            if t.masks[h] >> (i - 1) & 1 and m.origin[h] != root}


def _path_end(up, v):
    """Where the path v, up[v], up[up[v]], ... stops, or None when it runs
    into a cycle."""
    seen = set()
    while v in up:
        if v in seen:
            return None
        seen.add(v)
        v = up[v]
    return v


def vertex_rule(t, v, axiom, window=None):
    """The vertex rule at v: the outgoing arcs carry colors 1..p once each
    in one clockwise turn, that is the clockwise steps from the arc of
    color c to that of color c+1 add up to one turn around v; with window
    (a, b), each incoming color-c arc lies strictly clockwise between the
    outgoing arcs of colors c+a and c+b.  One violation when the outgoing
    colors break the rule, else one per misplaced incoming color."""
    m = t.host.map
    p = t.n_colors
    orbit = m.vertex_orbit(v)
    n = len(orbit)
    pos = {}
    for k, h in enumerate(orbit):
        for c in range(1, p + 1):
            if t.masks[h] >> (c - 1) & 1:
                if c in pos:
                    return [(axiom, v, f"color {c}: two outgoing arcs")]
                pos[c] = k
    if len(pos) != p or sum((pos[c % p + 1] - pos[c]) % n for c in pos) != n:
        return [(axiom, v, "outgoing colors not one clockwise turn")]
    if window is None:
        return []
    out = []
    for k, h in enumerate(orbit):
        for c in range(1, p + 1):
            if t.masks[m.twin[h]] >> (c - 1) & 1:
                lo, hi = (pos[(c + x - 1) % p + 1] for x in window)
                # k strictly clockwise from lo to hi (all but lo if equal)
                if not 1 <= (k - lo) % n <= (hi - lo - 1) % n:
                    out.append((axiom, v, f"incoming color {c} misplaced"))
    return out


def schnyder_axioms(t):
    """The axioms of a Schnyder decomposition of a d-angulation, or of a
    reduced one (p = d/2 colors, reduced color i standing for color 2i, step
    2, axioms primed): (i) every internal edge lies in (d-2)/step forests,
    once each, and no external edge in any; (ii) forest i, with j =
    step*i, has one outgoing arc at every internal vertex and none at an
    external one, the path from every internal vertex ends at an external
    vertex other than u_j and u_{j+1}, and no arc touches those two; (iii)
    the vertex rule at every internal vertex, with incoming color-c arcs
    between the outgoing arcs c+1 and c-1 (reduced: c+1 and c at black
    vertices, c and c-1 at white ones, u_1 black)."""
    ang = t.host
    m = ang.map
    p = t.n_colors
    step = ang.d // p
    prime = "'" * t.REDUCED
    if len(t.masks) != m.n_darts or any(mk >> p for mk in t.masks):
        return [("malformed", None, f"not one color set in 1..{p} per dart")]
    out = []
    for h in m.edges():
        a, b = t.masks[h], t.masks[m.twin[h]]
        want = 0 if ang.is_external_edge(h) else (ang.d - 2) // step
        if a & b or bin(a | b).count("1") != want:
            out.append(("i" + prime, h, "edge in the wrong forests"))
    ext = set(ang.external)
    for i in range(1, p + 1):
        j = step * i
        avoid = {ang.external[j - 1], ang.external[j % ang.d]}
        arcs = [h for h in range(m.n_darts) if t.masks[h] >> (i - 1) & 1]
        leaving = Counter(m.origin[h] for h in arcs)
        touched = set(leaving) | {m.target_of[h] for h in arcs}
        up = _parents(t, i)
        out += [("ii" + prime, v, f"color {i}: another outgoing arc")
                for v, k in leaving.items() for _ in range(k - 1)]
        out += [("ii" + prime, v, f"color {i} touches excluded {v}")
                for v in avoid & touched]
        out += [("ii" + prime, u, f"color {i} leaves external {u}")
                for u in ext & set(leaving)]
        out += [("ii" + prime, v, f"color {i} path from {v} strays")
                for v in ang.internal_vertices()
                if _path_end(up, v) not in ext - avoid]
    black = _black(ang.external[0], lambda v: map(m.target_of.__getitem__,
                                                   m.vertex_orbit(v)))
    for v in ang.internal_vertices():
        window = (1, 0) if v in black else (0, -1)
        out += vertex_rule(t, v, "iii" + prime, window if t.REDUCED
                           else (1, -1))
    return out


def regular_decomposition_axioms(t):
    """The axioms of a regular decomposition of a rooted d-regular map, or
    of a reduced one (p = d/2 colors, reduced color i standing for color
    2i, step 2, axioms primed): (i) every arc not leaving v* carries one
    color and (ii) no arc leaving v* any, or (i') every arc carries at most
    one color; each non-root edge lies in 2/step trees, one color per arc,
    and root edge e_j* in one when step divides j, else in none ("partition"
    when reduced); (ii) root edge e_{step*i}* carries color i toward v*;
    (i') a colored arc of a reduced table has a black face on its right
    (f_1* black); (iii) the vertex rule at non-root vertices; and every
    color class is a spanning tree oriented toward v*."""
    rv = t.host
    m = rv.map
    p = t.n_colors
    step = rv.d // p
    prime = "'" * t.REDUCED
    out = []
    if len(t.masks) != m.n_darts:
        return [("malformed", None, "mask table length mismatch")]
    for h, mk in enumerate(t.masks):
        if t.REDUCED:
            if bin(mk).count("1") > 1 or mk >> p:
                out.append(("i'", h, f"arc {h} carries more than one color"))
        elif m.origin[h] == rv.root_vertex:
            if mk:
                out.append(("ii", h, "arc leaving the root vertex carries "
                                     "a color"))
        elif bin(mk).count("1") != 1 or mk >> p:
            out.append(("i", h, f"arc {h} must carry exactly one color"))
    if out:
        return out
    root_edge = {m.edge_of[h]: j for j, h in enumerate(rv.root_darts, start=1)}
    for h in m.edges():
        a, b = t.masks[h], t.masks[m.twin[h]]
        j = root_edge.get(h)
        want = 2 // step if j is None else int(j % step == 0)
        trees = bin(a).count("1") + bin(b).count("1")
        if trees != want or a & b:
            out.append(("partition" if t.REDUCED else "i", h,
                        f"edge {h} lies in {trees} trees, expected {want}"))
    for i in range(1, p + 1):
        x = m.twin[rv.root_darts[step * i - 1]]
        if t.masks[x] != 1 << (i - 1):
            out.append(("ii" + prime, x, f"root edge e_{step * i}* does not "
                                         f"carry color {i} toward the root"))
    if t.REDUCED:
        black = _black(rv.root_faces[0], lambda f: (m.face_of[m.twin[h]]
                                                    for h in m.faces[f]))
        out += [("i'", h, f"arc {h} has a white face on its right")
                for h in range(m.n_darts)
                if t.masks[h] and m.face_of[m.twin[h]] not in black]
    for v in rv.non_root_vertices():
        out += vertex_rule(t, v, "iii" + prime)
    for i in range(1, p + 1):
        up = _parents(t, i, rv.root_vertex)
        out += [("tree", v, f"color {i} path from {v} misses the root")
                for v in rv.non_root_vertices()
                if _path_end(up, v) != rv.root_vertex]
    return out


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


def _within(nbrs, a, b, k):
    """Whether b lies at most k edges from a in the simple graph whose
    vertex v has the neighbor set nbrs[v]."""
    seen = layer = {a}
    for _ in range(k):
        layer = {w for x in layer for w in nbrs[x]} - seen
        if b in layer:
            return True
        seen = seen | layer
    return False


def _face_walks(d, nbrs, edges, region):
    """All ways to reveal the d-gon adjacent to the first boundary dart of
    a region, a simple dart cycle with the region on its left.  The face
    starts with that dart; each later step advances along the boundary,
    opens a chord to a later boundary vertex, or inserts a fresh vertex.
    A chord whose ends lie at most d - 2 edges apart would close a cycle
    shorter than d, so it is not opened; nbrs, the neighbor sets of the
    partial map, holds each new edge and vertex while the walk does.
    Yields (face_darts, new_edges, subregions cut off between touches)."""
    b0 = region[0]
    path = region[1:]
    pos_v = [edges[h // 2][h % 2] for h in path]       # tails of path darts
    u = edges[b0 // 2][b0 % 2]
    w = edges[b0 // 2][1 - b0 % 2]
    pos_v.append(u)
    last = len(pos_v) - 1                              # position of u

    def walk(pos, cur, touch, steps, pending, face, news, subs):
        if steps == 0:
            if pos == last:
                yield list(face), list(news), [list(r) for r in subs]
            return
        # advance along the boundary
        if pos is not None and pos < last and (pos + 1 < last or steps == 1):
            face.append(path[pos])
            yield from walk(pos + 1, pos_v[pos + 1], pos + 1, steps - 1,
                            pending, face, news, subs)
            face.pop()
        # chord to a later boundary vertex
        lo = (pos if pos is not None else touch) + 1
        for q in range(max(lo, last), last + 1) if steps == 1 else \
                range(lo, last):
            tv = pos_v[q]
            if _within(nbrs, cur, tv, d - 2):
                continue           # it would close a cycle shorter than d
            h = 2 * (len(edges) + len(news))
            news.append((cur, tv))
            nbrs[cur].add(tv)
            nbrs[tv].add(cur)
            face.append(h)
            sub = path[touch:q] + [g ^ 1 for g in reversed(pending + [h])]
            subs.append(sub)
            yield from walk(q, tv, q, steps - 1, [], face, news, subs)
            subs.pop()
            face.pop()
            nbrs[cur].discard(tv)
            nbrs[tv].discard(cur)
            news.pop()
        # fresh vertex
        if steps >= 2:
            x = len(nbrs)
            h = 2 * (len(edges) + len(news))
            news.append((cur, x))
            nbrs[cur].add(x)
            nbrs.append({cur})
            face.append(h)
            yield from walk(None, x, touch, steps - 1, pending + [h],
                            face, news, subs)
            face.pop()
            nbrs.pop()
            nbrs[cur].discard(x)
            news.pop()

    yield from walk(0, w, 0, d - 1, [], [], [], [])


def enumerate_angulations(d, max_faces):
    """All rooted d-angulations of girth d with 2..max_faces faces.

    Rooted means a marked outer dart; each rooted map appears exactly once.
    Peeling search: from the bare d-cycle, reveal the face beside the first
    boundary dart of the oldest unexplored region, again and again.  The
    revealed faces determine the history, so distinct maps come from
    distinct branches; no face that closes a cycle shorter than d is
    revealed (faces only add edges, so girth never recovers)."""
    if d < 3:
        raise SamplerError("BadParameter", "d must be at least 3")
    edges0 = [(i, (i + 1) % d) for i in range(d)]
    outer = [2 * i for i in range(d)]
    inner = [2 * i + 1 for i in reversed(range(d))]
    nbrs = [{(i - 1) % d, (i + 1) % d} for i in range(d)]

    def fill(edges, faces, regions):
        if not regions:
            yield _assemble_map(edges, faces)
            return
        need = [_min_fill(len(r), d) for r in regions]
        if None in need or sum(need) > max_faces - len(faces):
            return
        region = regions[0]
        for face, news, subs in _face_walks(d, nbrs, edges, region):
            yield from fill(edges + news, faces + [[region[0]] + face],
                            regions[1:] + [s for s in subs if s])

    if max_faces >= 2:
        yield from fill(list(edges0), [outer], [inner])


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

"""k-fractional orientations with prescribed outdegrees.

An orientation stores one integer value in [0, k] per oriented dart (the two
darts of an edge sum to k); darts of non-oriented edges carry -1.  Feasible
orientations are computed by integer max-flow: Edmonds-Karp's shortest
augmenting paths, each breadth-first search stopped at the first node it
reaches with a residual arc into the sink, since that node and arc already
fix the path a search run to the sink would find (_FlowNet).  A search
costs the arcs of the nodes it expands and nothing per node it does not
reach: it starts past the source's saturated arcs, which stay saturated
since no augmenting path enters the source.  An infeasible instance yields
a violated connected vertex subset extracted from the min cut.

The set of all d/(d-2)-orientations of a d-angulation of girth d forms a
distributive lattice under cycle pushing: pushing a counterclockwise circuit
decrements its counterclockwise arcs and increments its clockwise arcs, and
the covers are exactly the pushes of ccw circuits of length d.  Circuits
are found orientation first, side second: the simple d-cycles of oriented
edges are listed one at a time, each is tried in both directions, and a
direction whose darts are all positive gets the side test that tells
whether it runs counterclockwise: a parity count on the map's dual spanning
tree, O(d) per cycle (PlaneMap.outer_face_left_of).
The walk to the lattice minimum pushes only the first ccw circuit of each
scan, so it stops each scan there; only its last scan, which finds no
circuit, lists every d-cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .errors import OrientationError


@dataclass(frozen=True)
class FracOrientation:
    host: object  # an AngulationView
    k: int
    values: tuple  # one value per dart, -1 on non-oriented darts

    ERROR = OrientationError
    KIND = "InvalidOrientation"

    @property
    def map(self):
        return self.host.map

    def to_json_obj(self):
        return {"k": self.k, "values": list(self.values)}

    @classmethod
    def from_json_obj(cls, obj, host):
        """The orientation of a JSON object {"k", "values"} on host, after
        checking its shape: k a non-negative integer and values one integer
        in [-1, k] per dart.  Anything else raises InvalidOrientation."""
        m = host.map
        k = obj.get("k") if isinstance(obj, dict) else None
        if type(k) is not int or k < 0:
            raise OrientationError("InvalidOrientation", "an orientation is "
                                   "an object with an integer 'k' >= 0")
        values = obj.get("values")
        if not isinstance(values, list) or len(values) != m.n_darts or \
                any(type(x) is not int or not -1 <= x <= k for x in values):
            raise OrientationError("InvalidOrientation", "'values' must hold "
                                   f"one integer in [-1, {k}] per dart "
                                   f"({m.n_darts} darts)")
        return cls(host, k, tuple(values))


# -- max flow -------------------------------------------------------------

class _FlowNet:
    """Tiny max-flow solver on an adjacency list: Edmonds-Karp, each
    augmenting path a shortest one found by breadth-first search.

    A search stops at the first node it reaches that has a residual arc
    into the sink, and takes that node's first such arc.  Nodes leave the
    queue in the order they are reached, and every node reached before it
    has no residual arc into the sink, so a search run to the sink would
    reach the sink from this node by this arc: the path, and with it every
    flow value and the final residual graph, is the full search's.

    A search pays only for the nodes it reaches and the arcs it scans.  The
    reached marks and parent arcs live in two arrays per call, a search
    counter telling this search's marks from older ones; only nodes with
    arcs into the sink have a list of them to look at.  The scan of the
    source's arcs starts at the first one with residual capacity: each
    search marks the source reached before it scans, so no augmenting path
    enters the source, no arc out of it regains capacity once saturated,
    and every arc skipped would have been skipped by the full scan too.
    The same nodes are reached in the same order, on any network.

    max_flow keeps its last search's marks in reached and search; that
    search finds no sink arc and so empties its queue: reached[v] == search
    marks the source side of a minimum cut."""

    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]  # per node: list of arc indices
        self.to = []
        self.cap = []

    def add(self, u, v, c):
        self.adj[u].append(len(self.to)); self.to.append(v); self.cap.append(c)
        self.adj[v].append(len(self.to)); self.to.append(u); self.cap.append(0)
        return len(self.to) - 2

    def max_flow(self, s, t):
        adj, to, cap = self.adj, self.to, self.cap
        into_t = [None] * self.n     # per node: its arcs into t, or None
        for a, v in enumerate(to):
            if v == t:
                u = to[a ^ 1]
                if into_t[u] is None:
                    into_t[u] = []
                into_t[u].append(a)
        reached = [0] * self.n       # reached[v] == search: v reached by it
        parent_arc = [0] * self.n
        out_s, first = adj[s], 0
        total = search = 0
        while True:
            # no path enters s, so a saturated arc out of s stays saturated
            while first < len(out_s) and not cap[out_s[first]]:
                first += 1
            search += 1
            reached[s] = search
            last = next((b for b in into_t[s] or () if cap[b]), -1)
            arcs = map(out_s.__getitem__, range(first, len(out_s)))
            queue, head = [], 0
            while last < 0:
                for a in arcs:
                    v = to[a]
                    if cap[a] and reached[v] != search:
                        reached[v] = search
                        parent_arc[v] = a
                        if into_t[v] is not None:
                            for b in into_t[v]:
                                if cap[b]:
                                    last = b
                                    break
                            if last >= 0:
                                break
                        queue.append(v)
                if head == len(queue):
                    break
                arcs = adj[queue[head]]
                head += 1
            if last < 0:
                self.reached, self.search = reached, search
                return total
            # trace back, find bottleneck
            parent_arc[t] = last
            path = []
            v = t
            while v != s:
                a = parent_arc[v]
                path.append(a)
                v = to[a ^ 1]
            aug = min(cap[a] for a in path)
            for a in path:
                cap[a] -= aug
                cap[a ^ 1] += aug
            total += aug


def compute_alpha_k_orientation(m, edge_ids, alpha, k):
    """The dart values (-1 off the given edges) of an orientation of the
    given edges with outdegree alpha(v) at every vertex, or NoSolution
    carrying a violated connected subset as certificate.

    Network: source -> vertex (cap alpha(v)); vertex -> incident edge
    (cap k per dart); edge -> sink (cap k).  A flow of value k*|E| with
    sum(alpha) = k*|E| saturates every source and sink arc, so for a
    non-negative alpha the outdegrees are alpha and the two darts of each
    edge sum to k: the result needs no further check.
    """
    edge_ids = list(edge_ids)
    nv, ne = m.n_vertices, len(edge_ids)
    S, T = 0, 1
    net = _FlowNet(2 + nv + ne)
    for v in range(nv):
        net.add(S, 2 + v, alpha[v])
    darts, dart_arcs = [], []
    for node, e in enumerate(edge_ids, start=2 + nv):
        for h in (e, m.twin[e]):
            darts.append(h)
            dart_arcs.append(net.add(2 + m.origin[h], node, k))
        net.add(node, T, k)
    flow = net.max_flow(S, T)
    if flow != k * ne or sum(alpha) != k * ne:
        raise _no_solution(m, edge_ids, alpha, k, net, nv)
    values = [-1] * m.n_darts
    for h, a in zip(darts, dart_arcs):
        values[h] = net.cap[a ^ 1]
    return tuple(values)


def _no_solution(m, edge_ids, alpha, k, net, nv):
    """Build the NoSolution error with a violated connected subset.

    When sum(alpha) = k|E|, a component of the vertices U that the last
    search of net.max_flow does not reach is violated.  The min cut costs
    alpha(U) for the source arcs into U, and at least k for each edge with
    an endpoint outside U (its sink arc, or the arc from that endpoint), so
    a flow below k|E| gives alpha(U) < k|E(U)|.  The edges of E(U) lie
    within the components of (U, E(U)), so with alpha >= 0 one component C
    has alpha(C) < k|E(C)|, and the loop below always returns."""
    if sum(alpha) != k * len(edge_ids):
        err = OrientationError(
            "NoSolution",
            f"sum(alpha)={sum(alpha)} but k*|E|={k * len(edge_ids)}")
        err.certificate = None
        return err
    reached, search = net.reached, net.search
    unreached = [v for v in range(nv) if reached[2 + v] != search]
    edge_set = set(edge_ids)
    # a violated connected component exists among the unreachable vertices
    comp_of = {}
    for v0 in unreached:
        if v0 in comp_of:
            continue
        comp = [v0]
        comp_of[v0] = v0
        q = deque([v0])
        while q:
            v = q.popleft()
            for h in m.vertex_orbit(v):
                if m.edge_of[h] in edge_set:
                    w = m.target_of[h]
                    if reached[2 + w] != search and w not in comp_of:
                        comp_of[w] = v0
                        comp.append(w)
                        q.append(w)
        cs = set(comp)
        inner = sum(1 for e in edge_ids
                    if m.origin[e] in cs and m.target_of[e] in cs)
        if sum(alpha[v] for v in comp) < k * inner:
            err = OrientationError(
                "NoSolution",
                f"connected subset of {len(comp)} vertices has alpha sum "
                f"{sum(alpha[v] for v in comp)} < k*|E_S| = {k * inner}")
            err.certificate = sorted(comp)
            return err


def compute_dd2_orientation(ang):
    """The flow-produced d/(d-2)-orientation of a d-angulation of girth d."""
    return _angulation_orientation(ang, ang.d, ang.d - 2)


def compute_p_p1_orientation(ang):
    """A p/(p-1)-orientation of a 2p-angulation of girth 2p; doubling all
    values yields an even d/(d-2)-orientation."""
    if ang.d % 2 != 0:
        raise OrientationError("OddD", f"d={ang.d} is odd")
    return _angulation_orientation(ang, ang.d // 2, ang.d // 2 - 1)


def _angulation_orientation(ang, out, k):
    """The k-fractional orientation of the internal edges of a girth-d
    d-angulation with outdegree out at every internal vertex."""
    _require_girth(ang, ang.d)
    return FracOrientation(ang, k, compute_alpha_k_orientation(
        ang.map, ang.internal_edges(), _outdegrees(ang, out), k))


def _outdegrees(ang, out):
    """out at each internal vertex of ang, 0 at u_1..u_d."""
    return [0 if v in ang.external else out
            for v in range(ang.map.n_vertices)]


def validate_orientation(o):
    """All violations of o as a d/(d-2)-orientation of o.host (empty =
    valid): one value per dart and k = d - 2 (each reported alone), each
    oriented edge's values summing to k, outdegree d at the internal
    vertices and 0 at u_1..u_d.  Then exactly the internal edges are oriented: an outer edge
    joins two vertices of outdegree 0, and by Euler's formula the
    outdegrees sum to d(V - d) = k(E - d), k per oriented edge, E - d the
    number of internal edges."""
    ang, m, values = o.host, o.map, o.values
    if len(values) != m.n_darts:
        return [("malformed", None, f"values must cover all {m.n_darts} darts")]
    k = ang.d - 2
    if o.k != k:
        return [("k", None, f"k={o.k}, expected d-2={k}")]
    out, got = [], [0] * m.n_vertices
    for h, (a, v, t) in enumerate(zip(values, m.origin, m.twin)):
        got[v] += max(a, 0)
        if h > t:
            continue
        b = values[t]
        if (a < 0) != (b < 0):
            out.append(("edge", h, f"half-oriented edge at dart {h}"))
        elif a >= 0 and a + b != k:
            out.append(("edge", h, f"edge values {a}+{b} != k={k} at dart {h}"))
    out.extend(("outdegree", v, f"vertex {v} outdegree {g}, expected {w}")
               for v, (g, w) in enumerate(zip(got, _outdegrees(ang, ang.d)))
               if g != w)
    return out


def _require_girth(ang, d):
    """GirthTooSmall unless the girth is d.  The outer face of a view from
    as_angulation visits d distinct vertices, so its darts close a d-cycle:
    girth() never raises Acyclic here and never exceeds d (a bare d-cycle
    has girth d)."""
    g = ang.map.girth()
    if g != d:
        raise OrientationError("GirthTooSmall", f"girth {g} != {d}")


def double(o):
    """Scale an orientation by 2 (a p/(p-1)-orientation becomes an even
    2p/(2p-2)-orientation)."""
    vals = tuple(v * 2 if v >= 0 else -1 for v in o.values)
    return replace(o, k=2 * o.k, values=vals)


# -- cycles and pushing ---------------------------------------------------

def _simple_cycles_of_length(m, length, edge_ids):
    """Yield every simple cycle of the given length using only the given
    edges, as a dart tuple (one traversal direction each, deduplicated).
    adj[v] holds (dart, target) for v's allowed darts in clockwise order
    from vertex_darts[v], the order that fixes which cycle comes first."""
    allowed = set(edge_ids)
    seen = set()
    next_cw, target_of, edge_of = m.next_cw, m.target_of, m.edge_of
    adj = []
    for h0 in m.vertex_darts:
        out, h = [], h0
        while True:
            if edge_of[h] in allowed:
                out.append((h, target_of[h]))
            h = next_cw[h]
            if h == h0:
                break
        adj.append(out)

    def dfs(start, v, path_darts, visited):
        if len(path_darts) == length:
            return
        for h, w in adj[v]:
            if w == start and len(path_darts) == length - 1:
                cyc = path_darts + [h]
                key = frozenset(map(edge_of.__getitem__, cyc))
                if len(key) == length and key not in seen:
                    seen.add(key)
                    yield tuple(cyc)
            elif w > start and w not in visited:
                visited.add(w)
                yield from dfs(start, w, path_darts + [h], visited)
                visited.remove(w)

    for start in range(m.n_vertices):
        yield from dfs(start, start, [], {start})


def _is_circuit(o, traversal):
    """Every traversal dart oriented with positive value."""
    values = o.values
    return all(values[h] > 0 for h in traversal)


def _find_d_circuits(o, ccw, limit=None):
    """The first `limit` d-circuits of o (all of them if limit is None) in
    cycle-listing order: counterclockwise ones if ccw, else clockwise ones.
    Each d-cycle is tried as listed, then reversed; a direction is kept
    when all its darts are positive and the outer face lies on its right
    (ccw) or on its left (cw).  The d-cycles are listed lazily, so the scan
    stops at its limit."""
    m = o.map
    values = o.values
    edges = [h for h, e in enumerate(m.edge_of) if h == e and values[h] >= 0]
    circuits = []
    for cyc in _simple_cycles_of_length(m, o.host.d, edges):
        for trav in (cyc, tuple(map(m.twin.__getitem__, reversed(cyc)))):
            if _is_circuit(o, trav) and m.outer_face_left_of(trav) != ccw:
                circuits.append(trav)
                if len(circuits) == limit:
                    return circuits
    return circuits


def push_cycle(o, traversal):
    """Push the circuit given by its dart traversal: each traversal dart
    loses 1 and its twin gains 1, so outdegrees are preserved.  Pushing a
    ccw circuit moves down the lattice, pushing a cw one moves up."""
    m = o.map
    for i, h in enumerate(traversal):
        if m.target_of[h] != m.origin[traversal[(i + 1) % len(traversal)]]:
            raise OrientationError("NotACircuit", "darts do not chain into a cycle")
    if len({m.edge_of[h] for h in traversal}) != len(traversal):
        raise OrientationError("NotACircuit", "cycle repeats an edge")
    if not _is_circuit(o, traversal):
        raise OrientationError("NotACircuit", "an arc of the circuit has value 0")
    vals = list(o.values)
    for h in traversal:
        vals[h] -= 1
        vals[o.map.twin[h]] += 1
    return replace(o, values=tuple(vals))


def minimal_orientation(o):
    """The lattice minimum, from o: push the first ccw d-circuit until none
    remain.  Each scan stops at its first circuit, so only the last scan,
    which finds none, lists every d-cycle."""
    while circuits := _find_d_circuits(o, True, limit=1):
        o = push_cycle(o, circuits[0])
    return o


LATTICE_CAP = 10**6     # lattice elements before lattice_enumerate refuses


def lattice_enumerate(ang):
    """All d/(d-2)-orientations, by BFS from the minimum along inverse
    covers (pushing clockwise circuits of length d)."""
    o0 = minimal_orientation(compute_dd2_orientation(ang))
    seen = {o0.values: o0}
    q = deque([o0])
    while q:
        o = q.popleft()
        for trav in _find_d_circuits(o, ccw=False):
            o2 = push_cycle(o, trav)
            if o2.values not in seen:
                if len(seen) >= LATTICE_CAP:
                    raise OrientationError("ExplosionGuard", "more than "
                                           f"{LATTICE_CAP} lattice elements")
                seen[o2.values] = o2
                q.append(o2)
    return list(seen.values())

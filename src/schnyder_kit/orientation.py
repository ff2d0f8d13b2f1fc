"""k-fractional orientations with prescribed outdegrees.

An orientation stores one integer value in [0, k] per oriented dart (the two
darts of an edge sum to k); darts of non-oriented edges carry -1.  Feasible
orientations are computed by integer max-flow (plain BFS augmenting paths);
an infeasible instance yields a violated connected vertex subset extracted
from the min cut.

The set of all d/(d-2)-orientations of a d-angulation of girth d forms a
distributive lattice under cycle pushing: pushing a counterclockwise circuit
decrements its counterclockwise arcs and increments its clockwise arcs, and
the covers are exactly the pushes of ccw circuits of length d.  Circuits
are found orientation first, side second: each simple d-cycle of oriented
edges is first tested against the dart values in both directions, and only a
cycle that is a circuit in one of them gets the face flood fill that tells
its counterclockwise direction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from .errors import OrientationError
from .planar_map import AngulationView, PlaneMap


@dataclass(frozen=True)
class FracOrientation:
    map: PlaneMap
    k: int
    values: tuple  # one value per dart, -1 on non-oriented darts
    host: AngulationView | None = field(default=None, compare=False)

    def oriented_edges(self):
        return [h for h in self.map.edges() if self.values[h] >= 0]

    def outdegree(self, v):
        return sum(self.values[h] for h in self.map.vertex_orbit(v)
                   if self.values[h] >= 0)

    def validate(self, alpha=None):
        m = self.map
        for h in m.edges():
            a, b = self.values[h], self.values[m.twin[h]]
            if (a < 0) != (b < 0):
                raise OrientationError("InvalidOrientation",
                                       f"half-oriented edge at dart {h}")
            if a >= 0 and (a + b != self.k or a > self.k or b > self.k):
                raise OrientationError("InvalidOrientation",
                                       f"edge values {a}+{b} != k={self.k} at dart {h}")
        if alpha is not None:
            for v, want in enumerate(alpha):
                got = self.outdegree(v)
                if got != want:
                    raise OrientationError(
                        "InvalidOrientation",
                        f"vertex {v} outdegree {got}, expected {want}")
        return self

    def to_json_obj(self):
        return {"k": self.k, "values": list(self.values)}

    @classmethod
    def from_json_obj(cls, obj, m, host=None):
        """The orientation of a JSON object {"k", "values"} on m, after
        checking its shape: k a non-negative integer and values one integer
        in [-1, k] per dart.  Anything else raises InvalidOrientation."""
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
        return cls(map=m, k=k, values=tuple(values), host=host)


# -- max flow -------------------------------------------------------------

class _FlowNet:
    """Tiny max-flow solver (BFS augmenting paths) on an adjacency list."""

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
        total = 0
        while True:
            parent_arc = [-1] * self.n
            parent_arc[s] = -2
            q = deque([s])
            while q and parent_arc[t] == -1:
                u = q.popleft()
                for a in self.adj[u]:
                    v = self.to[a]
                    if self.cap[a] > 0 and parent_arc[v] == -1:
                        parent_arc[v] = a
                        q.append(v)
            if parent_arc[t] == -1:
                return total
            # trace back, find bottleneck
            path = []
            v = t
            while v != s:
                a = parent_arc[v]
                path.append(a)
                v = self.to[a ^ 1]
            aug = min(self.cap[a] for a in path)
            for a in path:
                self.cap[a] -= aug
                self.cap[a ^ 1] += aug
            total += aug

    def reachable(self, s):
        seen = [False] * self.n
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return seen

    def flow_on(self, arc):
        return self.cap[arc ^ 1]


def compute_alpha_k_orientation(m, edge_ids, alpha, k):
    """An orientation of the given edges with outdegree alpha(v) at every
    vertex, or NoSolution carrying a violated connected subset as certificate.

    Network: source -> vertex (cap alpha(v)); vertex -> incident edge
    (cap k per dart); edge -> sink (cap k).  A flow of value k*|E| with
    sum(alpha) = k*|E| saturates every source and sink arc, so for a
    non-negative alpha the outdegrees are alpha and the two darts of each
    edge sum to k: the result needs no further check.
    """
    edge_ids = list(edge_ids)
    edge_index = {e: i for i, e in enumerate(edge_ids)}
    nv, ne = m.n_vertices, len(edge_ids)
    S, T = 0, 1
    net = _FlowNet(2 + nv + ne)
    for v in range(nv):
        net.add(S, 2 + v, alpha[v])
    dart_arc = {}
    for e in edge_ids:
        for h in (e, m.twin[e]):
            dart_arc[h] = net.add(2 + m.origin[h], 2 + nv + edge_index[e], k)
        net.add(2 + nv + edge_index[e], T, k)
    flow = net.max_flow(S, T)
    if flow != k * ne or sum(alpha) != k * ne:
        raise _no_solution(m, edge_ids, alpha, k, net, nv)
    values = [-1] * m.n_darts
    for h, a in dart_arc.items():
        values[h] = net.flow_on(a)
    return FracOrientation(map=m, k=k, values=tuple(values))


def _no_solution(m, edge_ids, alpha, k, net, nv):
    """Build the NoSolution error with a violated connected subset."""
    if sum(alpha) != k * len(edge_ids):
        err = OrientationError(
            "NoSolution",
            f"sum(alpha)={sum(alpha)} but k*|E|={k * len(edge_ids)}")
        err.certificate = None
        return err
    reach = net.reachable(0)
    unreached = [v for v in range(nv) if not reach[2 + v]]
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
                if m.edge(h) in edge_set:
                    w = m.target(h)
                    if not reach[2 + w] and w not in comp_of:
                        comp_of[w] = v0
                        comp.append(w)
                        q.append(w)
        cs = set(comp)
        inner = sum(1 for e in edge_ids
                    if m.origin[e] in cs and m.target(e) in cs)
        if sum(alpha[v] for v in comp) < k * inner:
            err = OrientationError(
                "NoSolution",
                f"connected subset of {len(comp)} vertices has alpha sum "
                f"{sum(alpha[v] for v in comp)} < k*|E_S| = {k * inner}")
            err.certificate = sorted(comp)
            return err
    err = OrientationError("NoSolution", "max flow below k*|E|")
    err.certificate = sorted(unreached)
    return err


def compute_dd2_orientation(ang):
    """The flow-produced d/(d-2)-orientation of a d-angulation of girth d."""
    d = ang.d
    m = ang.map
    _require_girth(ang, d)
    alpha = [0] * m.n_vertices
    for v in ang.internal_vertices():
        alpha[v] = d
    o = compute_alpha_k_orientation(m, ang.internal_edges(), alpha, d - 2)
    return replace(o, host=ang)


def compute_p_p1_orientation(ang):
    """A p/(p-1)-orientation of a 2p-angulation of girth 2p; doubling all
    values yields an even d/(d-2)-orientation."""
    if ang.d % 2 != 0:
        raise OrientationError("OddD", f"d={ang.d} is odd")
    p = ang.d // 2
    _require_girth(ang, ang.d)
    m = ang.map
    alpha = [0] * m.n_vertices
    for v in ang.internal_vertices():
        alpha[v] = p
    o = compute_alpha_k_orientation(m, ang.internal_edges(), alpha, p - 1)
    return replace(o, host=ang)


def _require_girth(ang, d):
    m = ang.map
    if m.n_edges == d:  # bare d-cycle: no internal edge, trivially fine
        return
    from .errors import MapError
    try:
        g = m.girth()
    except MapError:
        raise OrientationError("GirthTooSmall", "acyclic map has no girth")
    if g != d:
        raise OrientationError("GirthTooSmall", f"girth {g} != {d}")


def double(o):
    """Scale an orientation by 2 (a p/(p-1)-orientation becomes an even
    2p/(2p-2)-orientation)."""
    vals = tuple(v * 2 if v >= 0 else -1 for v in o.values)
    return replace(o, k=2 * o.k, values=vals)


def is_even(o):
    return all(v % 2 == 0 for v in o.values if v >= 0)


# -- cycles and pushing ---------------------------------------------------

def _simple_cycles_of_length(m, length, edge_ids):
    """All simple cycles of the given length using only the given edges,
    as dart tuples (one traversal direction each, deduplicated)."""
    allowed = set(edge_ids)
    out = []
    seen = set()
    adj = [[] for _ in range(m.n_vertices)]
    for v in range(m.n_vertices):
        for h in m.vertex_orbit(v):
            if m.edge(h) in allowed:
                adj[v].append(h)

    def dfs(start, v, path_darts, visited):
        if len(path_darts) == length:
            return
        for h in adj[v]:
            w = m.target(h)
            if w == start and len(path_darts) == length - 1:
                cyc = path_darts + [h]
                key = frozenset(m.edge(x) for x in cyc)
                if len(key) == length and key not in seen:
                    seen.add(key)
                    out.append(tuple(cyc))
            elif w > start and w not in visited:
                visited.add(w)
                dfs(start, w, path_darts + [h], visited)
                visited.remove(w)

    for start in range(m.n_vertices):
        dfs(start, start, [], {start})
    return out


def _left_faces(m, cycle_darts):
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


def ccw_traversal(m, cycle_darts):
    """Reorient a dart cycle so that its bounded side lies on the left
    (counterclockwise traversal); requires an outer face on the map."""
    if m.outer_face in _left_faces(m, cycle_darts):
        return tuple(m.twin[h] for h in reversed(cycle_darts))
    return tuple(cycle_darts)


def _is_circuit(o, traversal):
    """Every traversal dart oriented with positive value."""
    return all(o.values[h] > 0 for h in traversal)


def find_ccw_d_circuits(o):
    """All ccw circuits of length d (candidate cover pushes downward)."""
    return _find_d_circuits(o, ccw=True)


def find_cw_d_circuits(o):
    """All cw circuits of length d (candidate cover pushes upward)."""
    return _find_d_circuits(o, ccw=False)


def _find_d_circuits(o, ccw):
    ang = o.host
    if ang is None:
        raise OrientationError("InvalidOrientation", "orientation has no angulation host")
    m = o.map
    d = ang.d
    values, twin = o.values, m.twin
    out = []
    for cyc in _simple_cycles_of_length(m, d, [m.edge(h) for h in o.oriented_edges()]):
        if not (all(values[h] > 0 for h in cyc) or
                all(values[twin[h]] > 0 for h in cyc)):
            continue                       # a circuit in neither direction
        trav = ccw_traversal(m, cyc)
        if not ccw:
            trav = tuple(twin[h] for h in reversed(trav))
        if _is_circuit(o, trav):
            out.append(trav)
    return out


def push_cycle(o, traversal):
    """Push a counterclockwise circuit given by its ccw dart traversal:
    ccw arcs lose 1, cw arcs gain 1; outdegrees are preserved."""
    m = o.map
    for i, h in enumerate(traversal):
        if m.target(h) != m.origin[traversal[(i + 1) % len(traversal)]]:
            raise OrientationError("NotACircuit", "darts do not chain into a cycle")
    if len({m.edge(h) for h in traversal}) != len(traversal):
        raise OrientationError("NotACircuit", "cycle repeats an edge")
    if not _is_circuit(o, traversal):
        raise OrientationError("NotACircuit", "an arc of the circuit has value 0")
    vals = list(o.values)
    for h in traversal:
        vals[h] -= 1
        vals[o.map.twin[h]] += 1
    return replace(o, values=tuple(vals))


def minimal_orientation(ang_or_o):
    """The lattice minimum: push ccw d-circuits until none remain."""
    o = ang_or_o
    if isinstance(o, AngulationView):
        o = compute_dd2_orientation(o)
    while True:
        circuits = find_ccw_d_circuits(o)
        if not circuits:
            return o
        o = push_cycle(o, circuits[0])


def lattice_enumerate(ang, cap=10**6):
    """All d/(d-2)-orientations, by BFS from the minimum along inverse
    covers (pushing clockwise circuits of length d)."""
    o0 = minimal_orientation(ang)
    seen = {o0.values: o0}
    q = deque([o0])
    while q:
        o = q.popleft()
        for trav in find_cw_d_circuits(o):
            o2 = push_cycle(o, trav)
            if o2.values not in seen:
                if len(seen) >= cap:
                    raise OrientationError("ExplosionGuard",
                                           f"more than {cap} lattice elements")
                seen[o2.values] = o2
                q.append(o2)
    return list(seen.values())

"""Dart-based plane maps.

A plane map is stored as three parallel dart tables: ``twin`` (the opposite
half of the same edge), ``next_cw`` (next dart clockwise around the origin
vertex) and ``origin``.  Face orbits follow the fixed convention

    next dart along a face  =  next_cw[twin[d]]

which keeps the face on the *left* of each dart.  With clockwise rotation
systems this means internal face orbits run counterclockwise as drawn, while
the orbit of the outer face lists the external vertices in clockwise order.
The outer face is identified by one designated dart.

Corners are in bijection with darts: ``corner(d)`` is the angular sector swept
clockwise from d to next_cw[d] at origin[d].  That corner lies in the face on
the right of d, i.e. the face orbit containing next_cw[d].

Maps are immutable after validation; loops are rejected, multi-edges allowed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import MapError


class PlaneMap:
    __slots__ = (
        "twin", "next_cw", "origin", "outer_dart", "root_vertex",
        "prev_cw", "n_vertices", "n_edges", "n_faces",
        "face_of", "faces", "vertex_darts", "outer_face",
        "_girth", "_frozen",
    )

    def __init__(self, twin, next_cw, origin, outer_dart, root_vertex=None):
        self.twin = tuple(twin)
        self.next_cw = tuple(next_cw)
        self.origin = tuple(origin)
        self.outer_dart = outer_dart
        self.root_vertex = root_vertex
        self._validate_permutations()
        self._build_derived()
        self._validate_topology()
        self._girth = None             # computed on the first girth() call
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError("PlaneMap is immutable")
        object.__setattr__(self, name, value)

    # -- validation -------------------------------------------------------

    def _validate_permutations(self):
        n = len(self.twin)
        if n == 0 or n % 2 != 0:
            raise MapError("MalformedRotation", "dart count must be positive and even")
        if len(self.next_cw) != n or len(self.origin) != n:
            raise MapError("MalformedRotation", "dart tables have unequal lengths")
        seen = [False] * n
        for d in range(n):
            t = self.twin[d]
            if not (0 <= t < n) or self.twin[t] != d or t == d:
                raise MapError("MalformedRotation",
                               f"twin is not a fixed-point-free involution at dart {d}")
            if not (0 <= self.origin[d] < n):
                raise MapError("MalformedRotation",
                               f"origin out of range at dart {d}")
            if self.origin[t] == self.origin[d]:
                raise MapError("MalformedRotation", f"loop edge at dart {d}")
            nc = self.next_cw[d]
            if not (0 <= nc < n) or seen[nc]:
                raise MapError("MalformedRotation", "next_cw is not a permutation")
            seen[nc] = True
            if self.origin[nc] != self.origin[d]:
                raise MapError("MalformedRotation",
                               f"next_cw leaves the vertex at dart {d}")
        if not (0 <= self.outer_dart < n):
            raise MapError("MalformedRotation", "outer dart out of range")

    def _build_derived(self):
        n = len(self.twin)
        prev = [0] * n
        for d in range(n):
            prev[self.next_cw[d]] = d
        self.prev_cw = tuple(prev)

        # vertex orbits must match the origin table
        n_vertices = max(self.origin) + 1
        vertex_darts = [None] * n_vertices
        dart_seen = [False] * n
        for d in range(n):
            v = self.origin[d]
            if vertex_darts[v] is None:
                vertex_darts[v] = d
        for v, d0 in enumerate(vertex_darts):
            if d0 is None:
                raise MapError("MalformedRotation", f"vertex {v} has no dart")
            d = d0
            while True:
                if dart_seen[d]:
                    raise MapError("MalformedRotation",
                                   f"rotation orbits disagree with origins at vertex {v}")
                dart_seen[d] = True
                d = self.next_cw[d]
                if d == d0:
                    break
        if not all(dart_seen):
            raise MapError("MalformedRotation", "rotation orbit missing darts")
        self.vertex_darts = tuple(vertex_darts)
        self.n_vertices = n_vertices
        self.n_edges = n // 2

        # face orbits under next_cw . twin
        face_of = [-1] * n
        faces = []
        for d0 in range(n):
            if face_of[d0] >= 0:
                continue
            orbit = []
            d = d0
            while face_of[d] < 0:
                face_of[d] = len(faces)
                orbit.append(d)
                d = self.next_cw[self.twin[d]]
            faces.append(tuple(orbit))
        self.face_of = tuple(face_of)
        self.faces = tuple(faces)
        self.n_faces = len(faces)
        self.outer_face = face_of[self.outer_dart]

    def _validate_topology(self):
        # connectivity over vertices
        seen = [False] * self.n_vertices
        stack = [self.origin[0]]
        seen[stack[0]] = True
        count = 1
        while stack:
            v = stack.pop()
            d0 = self.vertex_darts[v]
            d = d0
            while True:
                w = self.origin[self.twin[d]]
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
                d = self.next_cw[d]
                if d == d0:
                    break
        if count != self.n_vertices:
            raise MapError("Disconnected", f"{count} of {self.n_vertices} vertices reachable")
        if self.n_vertices - self.n_edges + self.n_faces != 2:
            raise MapError(
                "EulerViolation",
                f"v-e+f = {self.n_vertices}-{self.n_edges}+{self.n_faces} != 2")
        if self.root_vertex is not None and not (0 <= self.root_vertex < self.n_vertices):
            raise MapError("MalformedRotation", "root vertex out of range")

    # -- elementary accessors --------------------------------------------

    @property
    def n_darts(self):
        return len(self.twin)

    def target(self, d):
        return self.origin[self.twin[d]]

    def edge(self, d):
        """Canonical edge id of a dart (the smaller of the two dart ids)."""
        t = self.twin[d]
        return d if d < t else t

    def next_in_face(self, d):
        return self.next_cw[self.twin[d]]

    def degree(self, v):
        deg = 0
        d0 = self.vertex_darts[v]
        d = d0
        while True:
            deg += 1
            d = self.next_cw[d]
            if d == d0:
                break
        return deg

    def vertex_orbit(self, v):
        """Darts at v in clockwise order, starting at the stored representative."""
        d0 = self.vertex_darts[v]
        out = []
        d = d0
        while True:
            out.append(d)
            d = self.next_cw[d]
            if d == d0:
                break
        return out

    def face_corners(self, f):
        """Corners of face f in clockwise order: the darts with f on their
        right, i.e. the twins of its orbit, reversed."""
        return [self.twin[h] for h in reversed(self.faces[f])]

    def face_degree(self, f):
        return len(self.faces[f])

    def edges(self):
        return [d for d in range(self.n_darts) if d < self.twin[d]]

    def is_bridge(self, d):
        return self.face_of[d] == self.face_of[self.twin[d]]

    # -- duality ----------------------------------------------------------

    def dual(self, outer_dart=None):
        """The dual map, rooted at the vertex dual to the outer face.

        Dart ids are preserved: dual dart d runs from the face left of the
        primal dart d to the face on its right, and its dual-face is the
        primal vertex target(d).  By default the dual outer face is the one
        dual to the primal vertex origin(outer_dart); passing ``outer_dart``
        overrides which dual dart marks the outer face instead.
        """
        for d in range(self.n_darts):
            if self.is_bridge(d):
                raise MapError("MalformedRotation",
                               "dual would contain a loop (bridge in primal)")
        twin = self.twin
        next_cw = [twin[self.prev_cw[d]] for d in range(self.n_darts)]
        origin = [self.face_of[d] for d in range(self.n_darts)]
        return PlaneMap(twin, next_cw, origin,
                        outer_dart=(twin[self.outer_dart]
                                    if outer_dart is None else outer_dart),
                        root_vertex=self.outer_face)

    # -- metrics ----------------------------------------------------------

    def girth(self):
        """Length of a shortest cycle; raises Acyclic on trees.  The BFS
        runs once per map, which is immutable."""
        g = self._girth
        if g is None:
            adj = [[] for _ in range(self.n_vertices)]
            add_edges(adj, [(self.origin[h], self.target(h))
                            for h in self.edges()])
            g = shortest_cycle(adj, self.n_vertices + 1,
                               range(self.n_vertices))
            object.__setattr__(self, "_girth", g)
        if g > self.n_vertices:
            raise MapError("Acyclic", "map is a tree; girth undefined")
        return g

    def bipartition_from(self, v0):
        """2-coloring with v0 black (True); raises if an odd cycle exists."""
        color = [None] * self.n_vertices
        color[v0] = True
        q = deque([v0])
        while q:
            v = q.popleft()
            for d in self.vertex_orbit(v):
                w = self.target(d)
                if color[w] is None:
                    color[w] = not color[v]
                    q.append(w)
                elif color[w] == color[v]:
                    raise MapError("NotBipartite", "odd cycle present")
        return tuple(color)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self):
        return {
            "darts": [
                {"twin": self.twin[d], "next_cw": self.next_cw[d],
                 "origin": self.origin[d]}
                for d in range(self.n_darts)
            ],
            "outer_dart": self.outer_dart,
            "root_vertex": self.root_vertex,
        }

    @classmethod
    def from_json_obj(cls, obj):
        """The map of a JSON object {"darts": [{"twin", "next_cw",
        "origin"}, ...], "outer_dart", "root_vertex"}, after checking its
        shape: every dart field and outer_dart is an integer (a bool is
        not), root_vertex an integer or null.  Anything else raises
        MapError("MalformedMap")."""
        if not isinstance(obj, dict):
            raise MapError("MalformedMap", "a plane map is a JSON object, "
                                           f"not {type(obj).__name__}")
        darts = obj.get("darts")
        if not isinstance(darts, list):
            raise MapError("MalformedMap",
                           "'darts' must be a list of dart records")
        for d, r in enumerate(darts):
            if not isinstance(r, dict):
                raise MapError("MalformedMap", f"dart {d} is not a record")
        tables = []
        for key in ("twin", "next_cw", "origin"):
            col = [r.get(key) for r in darts]
            if set(map(type, col)) - {int}:
                d = next(d for d, x in enumerate(col) if type(x) is not int)
                raise MapError("MalformedMap",
                               f"dart {d} needs an integer '{key}'")
            tables.append(col)
        outer = obj.get("outer_dart")
        if type(outer) is not int:
            raise MapError("MalformedMap", "the map needs an integer "
                                           "'outer_dart'")
        root = obj.get("root_vertex")
        if root is not None and type(root) is not int:
            raise MapError("MalformedMap",
                           "'root_vertex' must be an integer or null")
        return cls(*tables, outer_dart=outer, root_vertex=root)

    def __repr__(self):
        return (f"PlaneMap(v={self.n_vertices}, e={self.n_edges}, "
                f"f={self.n_faces})")


def add_edges(adj, edges, first=0):
    """Add the vertex pairs edges, numbered from first, to the adjacency
    lists adj of shortest_cycle."""
    for e, (u, w) in enumerate(edges, start=first):
        adj[u].append((w, e))
        adj[w].append((u, e))


def shortest_cycle(adj, bound, sources):
    """bound, or the length of the shortest cycle below bound that a
    breadth-first search from one of sources closes, in the multigraph
    whose vertex v has the (neighbor, edge id) pairs adj[v].

    A search closes a cycle at each edge that leaves its tree; the closed
    walk it reports contains a cycle at most that long, and a search from a
    vertex on a cycle of length L reports one of length at most L.  So the
    result is min(bound, girth) whenever a shortest cycle passes through a
    source: always with every vertex a source, and with the endpoints of
    new edges when the graph without them has girth >= bound."""
    best = bound
    for s in sources:
        dist = {s: 0}
        via = {s: -1}
        q = deque([s])
        while q:
            u = q.popleft()
            du = dist[u]
            if 2 * du + 1 >= best:     # nor does any later vertex of q
                break
            for w, e in adj[u]:
                if e == via[u]:
                    continue
                dw = dist.get(w)
                if dw is None:
                    dist[w] = du + 1
                    via[w] = e
                    q.append(w)
                elif du + dw + 1 < best:
                    best = du + dw + 1
    return best


def build_map(rotations, outer_dart, root_vertex=None):
    """Build a PlaneMap from per-vertex clockwise dart lists.

    ``rotations[v]`` lists the darts leaving v in clockwise order; darts
    pair up as (2i, 2i+1).
    """
    n = sum(len(r) for r in rotations)
    origin = [None] * n
    next_cw = [None] * n
    for v, rot in enumerate(rotations):
        if not rot:
            raise MapError("MalformedRotation", f"vertex {v} has empty rotation")
        for i, d in enumerate(rot):
            if not (0 <= d < n) or origin[d] is not None:
                raise MapError("MalformedRotation",
                               f"dart {d} repeated or out of range")
            origin[d] = v
            next_cw[d] = rot[(i + 1) % len(rot)]
    if any(o is None for o in origin):
        raise MapError("MalformedRotation", "rotation lists do not cover all darts")
    return PlaneMap([d ^ 1 for d in range(n)], next_cw, origin, outer_dart,
                    root_vertex=root_vertex)


# -- views ----------------------------------------------------------------

@dataclass(frozen=True)
class AngulationView:
    """A plane map all of whose faces have degree d, with the external
    vertices u_1..u_d listed clockwise around the outer face starting at
    origin(outer_dart)."""

    map: PlaneMap
    d: int
    external: tuple  # u_1 .. u_d
    outer_orbit: tuple = field(repr=False)  # outer face darts, orbit order

    @property
    def external_edge_ids(self):
        return frozenset(self.map.edge(h) for h in self.outer_orbit)

    def is_external_edge(self, dart):
        return self.map.edge(dart) in self.external_edge_ids

    def internal_darts(self):
        ext = self.external_edge_ids
        return [h for h in range(self.map.n_darts) if self.map.edge(h) not in ext]

    def internal_edges(self):
        ext = self.external_edge_ids
        return [h for h in self.map.edges() if h not in ext]

    def internal_vertices(self):
        ext = set(self.external)
        return [v for v in range(self.map.n_vertices) if v not in ext]


@dataclass(frozen=True)
class RegularView:
    """A d-regular plane map rooted at v*, with root edges e_1*..e_d* in
    counterclockwise order around v* and root faces f_1*..f_d* such that
    e_i* lies between f_i* and f_{i+1}*."""

    map: PlaneMap
    d: int
    root_vertex: int
    root_darts: tuple  # e_1* .. e_d*, darts at v*, ccw order
    root_faces: tuple  # f_1* .. f_d*

    def non_root_vertices(self):
        return [v for v in range(self.map.n_vertices) if v != self.root_vertex]

    def non_root_faces(self):
        rf = set(self.root_faces)
        return [f for f in range(self.map.n_faces) if f not in rf]

    def root_edge_ids(self):
        return [self.map.edge(h) for h in self.root_darts]


def as_angulation(m, d):
    """Check every face has degree d and extract the external vertices."""
    if d < 3:
        raise MapError("NotDAngulation", "d must be at least 3")
    for f in range(m.n_faces):
        if m.face_degree(f) != d:
            raise MapError("NotDAngulation",
                           f"face {f} has degree {m.face_degree(f)}, expected {d}")
    orbit = []
    h = m.outer_dart
    for _ in range(d):
        orbit.append(h)
        h = m.next_in_face(h)
    external = tuple(m.origin[h] for h in orbit)
    if len(set(external)) != d:
        raise MapError("ExternalVerticesNotDistinct",
                       f"outer face visits {external}")
    return AngulationView(map=m, d=d, external=external, outer_orbit=tuple(orbit))


def as_regular(m, d, root=None, first_root_dart=None):
    """Check d-regularity and extract root edges/faces around the root vertex.

    Root edges run counterclockwise starting at first_root_dart (default: the
    stored representative dart of the root).  f_{i+1}* is the face on the left
    of e_i*.
    """
    if root is None:
        root = m.root_vertex
    if root is None:
        raise MapError("NotDRegular", "no root vertex given")
    if type(root) is not int or not 0 <= root < m.n_vertices:
        raise MapError("NotDRegular", f"root {root!r} is not a vertex")
    for v in range(m.n_vertices):
        if m.degree(v) != d:
            raise MapError("NotDRegular",
                           f"vertex {v} has degree {m.degree(v)}, expected {d}")
    h = first_root_dart if first_root_dart is not None else m.vertex_darts[root]
    if type(h) is not int or not 0 <= h < m.n_darts or m.origin[h] != root:
        raise MapError("NotDRegular", "first root dart not at root vertex")
    darts = []
    for _ in range(d):
        darts.append(h)
        h = m.prev_cw[h]  # counterclockwise
    # e_i* lies between f_i* and f_{i+1}*; the face ccw-after e_i* (= left
    # of e_i*) is f_{i+1}*, so f_i* is the face left of e_{i-1}*.
    faces = tuple(m.face_of[darts[(i - 1) % d]] for i in range(d))
    return RegularView(map=m, d=d, root_vertex=root,
                       root_darts=tuple(darts), root_faces=faces)

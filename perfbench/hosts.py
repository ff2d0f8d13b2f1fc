"""Seeded host generators for the benchmark, independent of schnyder_kit.

A host is a quadrangulation kept as clockwise neighbour rotations.  Faces
follow the library's document convention: the dart u->v is followed in its
face by v->w, where w is the clockwise successor of u around v, so every
face lies on the left of its darts; inner faces run counterclockwise and the
outer face lists its four vertices clockwise.

Two families:

* ``face_split_quadrangulation``: start from a 4-cycle and repeatedly join a
  new vertex to two opposite corners of a random inner face.  Every step
  keeps the map simple and bipartite with all faces of degree 4, so the
  girth stays 4 and the dual is 4-regular with mincut 4.
* ``ringed_quadrangulation``: concentric 4-cycles joined by spokes, then a
  few seeded face splits.  These are the hosts whose orientation lattice is
  tall, so ``lattice min`` makes many pushes.

``primal_document`` and ``dual_document`` write the JSON documents the CLI
reads; ``check_host`` verifies the structural claims above with this
module's own code.
"""

from __future__ import annotations

import math


class Quadrangulation:
    """Clockwise rotations plus the inner faces as 4-tuples (a, b, c, d),
    meaning the face orbit a->b->c->d; ``outer`` is the outer face orbit."""

    def __init__(self, rotations, faces, outer):
        self.rotations = rotations
        self.faces = faces
        self.outer = outer

    @property
    def n_vertices(self):
        return len(self.rotations)

    def split(self, face_index, turn):
        """Put a new vertex x in a face and join it to two opposite corners.

        ``turn`` (0..3) rotates the face tuple, choosing the diagonal.  The
        face (a, b, c, d) becomes (a, b, c, x) and (a, x, c, d)."""
        f = self.faces[face_index]
        a, b, c, d = f[turn:] + f[:turn]
        x = self.n_vertices
        # around c, x comes right after b; around a, right after d
        rc = self.rotations[c]
        rc.insert(rc.index(b) + 1, x)
        ra = self.rotations[a]
        ra.insert(ra.index(d) + 1, x)
        self.rotations.append([c, a])
        self.faces[face_index] = (a, b, c, x)
        self.faces.append((a, x, c, d))

    def darts(self):
        """Dart tables: dart 2e runs u->v along edge e = (u, v), 2e+1 back."""
        dart_of = {}
        origin = []
        for u, rot in enumerate(self.rotations):
            for v in rot:
                if u < v:
                    dart_of[(u, v)] = len(origin)
                    dart_of[(v, u)] = len(origin) + 1
                    origin += [u, v]
        next_cw = [0] * len(origin)
        for u, rot in enumerate(self.rotations):
            for i, v in enumerate(rot):
                next_cw[dart_of[(u, v)]] = dart_of[(u, rot[(i + 1) % len(rot)])]
        twin = [h ^ 1 for h in range(len(origin))]
        return dart_of, twin, next_cw, origin


def _four_cycle():
    # outer orbit 0->1->2->3, inner face 0->3->2->1
    rotations = [[1, 3], [2, 0], [3, 1], [0, 2]]
    return Quadrangulation(rotations, [(0, 3, 2, 1)], (0, 1, 2, 3))


def face_split_quadrangulation(n_faces, rng):
    """A random quadrangulation with ``n_faces`` faces (outer one included),
    so its dual has ``n_faces`` vertices."""
    if n_faces < 2:
        raise ValueError("a quadrangulation has at least two faces")
    q = _four_cycle()
    for _ in range(n_faces - 2):
        q.split(rng.randrange(len(q.faces)), rng.randrange(4))
    return q


def ringed_quadrangulation(rings, splits, rng):
    """``rings`` concentric 4-cycles joined by spokes, then ``splits``
    random face splits.  Ring 0 is the outer face."""
    coords = []
    for k in range(rings):
        radius = rings - k
        for i in range(4):
            t = math.pi / 4 + i * math.pi / 2
            coords.append((radius * math.cos(t), radius * math.sin(t)))
    nbrs = [[] for _ in coords]

    def join(u, v):
        nbrs[u].append(v)
        nbrs[v].append(u)

    for k in range(rings):
        for i in range(4):
            join(4 * k + i, 4 * k + (i + 1) % 4)
            if k + 1 < rings:
                join(4 * k + i, 4 * (k + 1) + i)

    def angle(u, v):
        return math.atan2(coords[v][1] - coords[u][1],
                          coords[v][0] - coords[u][0])

    rotations = [sorted(ns, key=lambda v: angle(u, v), reverse=True)
                 for u, ns in enumerate(nbrs)]
    faces = _trace_faces(rotations)
    outer = next(f for f in faces if all(v < 4 for v in f))
    faces.remove(outer)
    q = Quadrangulation(rotations, faces, outer)
    for _ in range(splits):
        q.split(rng.randrange(len(q.faces)), rng.randrange(4))
    return q


def _trace_faces(rotations):
    """Face orbits of a rotation system as vertex tuples."""
    seen = set()
    faces = []
    for u, rot in enumerate(rotations):
        for v in rot:
            if (u, v) in seen:
                continue
            orbit = []
            a, b = u, v
            while (a, b) not in seen:
                seen.add((a, b))
                orbit.append(a)
                rb = rotations[b]
                a, b = b, rb[(rb.index(a) + 1) % len(rb)]
            faces.append(tuple(orbit))
    return faces


# -- documents ---------------------------------------------------------------

def _map_obj(twin, next_cw, origin, outer_dart, root_vertex):
    return {"darts": [{"twin": t, "next_cw": n, "origin": o}
                      for t, n, o in zip(twin, next_cw, origin)],
            "outer_dart": outer_dart, "root_vertex": root_vertex}


def primal_document(q):
    """{"map", "d"} document of the quadrangulation itself."""
    dart_of, twin, next_cw, origin = q.darts()
    outer_dart = dart_of[(q.outer[0], q.outer[1])]
    return {"map": _map_obj(twin, next_cw, origin, outer_dart, None), "d": 4}


def dual_document(q):
    """Rooted 4-regular dual document, as ``schnyder-kit dualize`` lays it
    out: dual dart h runs from the face left of primal dart h to the face on
    its right, the root vertex is the outer face, and the first root dart is
    the primal outer dart."""
    dart_of, twin, next_cw, origin = q.darts()
    face_of = [None] * len(origin)
    for f, orbit in enumerate([q.outer] + list(q.faces)):
        for i, u in enumerate(orbit):
            face_of[dart_of[(u, orbit[(i + 1) % 4])]] = f
    prev_cw = [0] * len(origin)
    for h, nh in enumerate(next_cw):
        prev_cw[nh] = h
    dual_next = [twin[prev_cw[h]] for h in range(len(origin))]
    outer_dart = dart_of[(q.outer[0], q.outer[1])]
    return {"map": _map_obj(twin, dual_next, face_of, twin[outer_dart], 0),
            "d": 4, "root_vertex": 0, "first_root_dart": outer_dart}


# -- structural check ----------------------------------------------------------

def _orbits(perm):
    seen = [False] * len(perm)
    out = []
    for h in range(len(perm)):
        if not seen[h]:
            orbit = []
            while not seen[h]:
                seen[h] = True
                orbit.append(h)
                h = perm[h]
            out.append(orbit)
    return out


def girth(rotations):
    """Length of a shortest cycle of a simple graph (None when acyclic), by
    breadth-first search from every vertex."""
    best = None
    for s in range(len(rotations)):
        dist, via = {s: 0}, {s: None}
        frontier = [s]
        while frontier and (best is None or 2 * dist[frontier[0]] + 1 < best):
            nxt = []
            for u in frontier:
                for w in rotations[u]:
                    if w == via[u]:
                        continue
                    if w in dist:
                        cycle = dist[u] + dist[w] + 1
                        best = cycle if best is None else min(best, cycle)
                    else:
                        dist[w], via[w] = dist[u] + 1, u
                        nxt.append(w)
            frontier = nxt
    return best


def check_host(q):
    """Problems with a generated host (empty when it is what the workloads
    need): simple, bipartite, every face of degree 4, girth 4, Euler's
    formula, and a 4-regular dual whose tables match the primal faces."""
    out = []
    n = q.n_vertices
    edges = set()
    for u, rot in enumerate(q.rotations):
        if len(set(rot)) != len(rot) or u in rot:
            out.append(f"vertex {u}: loop or multiple edge")
        for v in rot:
            if u not in q.rotations[v]:
                out.append(f"edge {u}-{v} is one-sided")
            edges.add((min(u, v), max(u, v)))
    color = [None] * n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in q.rotations[u]:
            if color[v] is None:
                color[v] = 1 - color[u]
                stack.append(v)
            elif color[v] == color[u]:
                out.append(f"edge {u}-{v}: odd cycle")
    if None in color:
        out.append("disconnected")
    _dart_of, twin, next_cw, origin = q.darts()
    faces = _orbits([next_cw[twin[h]] for h in range(len(origin))])
    if any(len(f) != 4 for f in faces):
        out.append("a face is not a quadrangle")
    if n - len(edges) + len(faces) != 2:
        out.append("Euler's formula fails")
    traced = sorted(tuple(sorted(origin[h] for h in f)) for f in faces)
    listed = sorted(tuple(sorted(f)) for f in [q.outer] + list(q.faces))
    if traced != listed:
        out.append("face list disagrees with the rotations")
    if girth(q.rotations) != 4:
        out.append("girth is not 4")
    dm = dual_document(q)["map"]
    dual_next = [r["next_cw"] for r in dm["darts"]]
    dual_origin = [r["origin"] for r in dm["darts"]]
    for orbit in _orbits(dual_next):
        if len(orbit) != 4 or len({dual_origin[h] for h in orbit}) != 1:
            out.append("dual is not 4-regular")
            break
    if len(set(dual_origin)) != len(faces):
        out.append("dual vertex count differs from the face count")
    return out

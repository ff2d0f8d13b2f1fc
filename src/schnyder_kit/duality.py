"""Regular labellings and regular decompositions on the duals of d-angulations.

The dual map shares dart ids with the primal, so structures transfer by pure
index arithmetic: the dual corner facing the primal corner(h) is the dual
corner at dart next_cw[h].  Root edges e_1*..e_d* around the root vertex v*
are the primal outer-face orbit (counterclockwise in the dual), which makes
the root face f_i* coincide with the dual face of the external vertex u_i.

Colors are in [d]; on decompositions each dart not leaving v* carries exactly
one color, encoded as a one-bit mask.
"""

from __future__ import annotations

from collections import deque

from .errors import DualityError
from .planar_map import as_regular
from .schnyder import (
    CornerLabelling, DartTable, _corner_violations, _vertex_violations,
    phi, validate_labelling, validate_schnyder,
)


def dualize(ang):
    """RegularView of the dual of a d-angulation, rooted compatibly.

    Root edges are chosen so that root face f_i* is the dual face of the
    external vertex u_i; this is asserted before returning.
    """
    dm = ang.map.dual()
    rv = as_regular(dm, ang.d, root=dm.root_vertex,
                    first_root_dart=ang.map.outer_dart)
    for i, u in enumerate(ang.external):
        if rv.root_faces[i] != dual_face_of_vertex(ang, rv, u):
            raise DualityError("CorrespondenceBroken",
                               f"root face {i + 1} is not the dual of u_{i + 1}")
    return rv


def dual_face_of_vertex(ang, rv, v):
    """The dual face that the primal vertex v sits in."""
    h = ang.map.twin[ang.map.vertex_darts[v]]  # a dart pointing at v
    return rv.map.face_of[h]


class RegularLabelling(DartTable):
    """colors[h] = color of corner(h) in the dual map, in 1..d."""
    HOST = "dual"
    KEY = "corner_colors"
    ERROR = DualityError
    KIND = "InvalidLabelling"


class RegularDecomposition(DartTable):
    """masks[h] = one-bit color mask (0 on darts leaving v*)."""
    HOST = "dual"
    ERROR = DualityError


# -- labelling transfer ---------------------------------------------------

def dual_labelling(l):
    """Regular labelling of the dual: facing corners keep their color."""
    bad = validate_labelling(l)
    if bad:
        raise DualityError("InvalidLabelling", str(bad[:3]))
    ang = l.host
    rv = dualize(ang)
    prev = ang.map.prev_cw
    colors = tuple(l.colors[prev[h]] for h in range(ang.map.n_darts))
    return RegularLabelling(host=rv, colors=colors, primal=ang)


def primal_labelling(r):
    """Inverse transfer: the clockwise labelling whose dual is r."""
    if r.primal is None:
        raise DualityError("NoPrimalHost",
                           "regular labelling lacks a primal angulation host")
    bad = validate_regular_labelling(r)
    if bad:
        raise DualityError("InvalidLabelling", str(bad[:3]))
    nxt = r.primal.map.next_cw
    colors = tuple(r.colors[nxt[h]] for h in range(r.primal.map.n_darts))
    return CornerLabelling(host=r.primal, colors=colors)


# -- regular labelling validation ----------------------------------------

def validate_regular_labelling(r):
    """All violations of the regular-labelling axioms (empty = valid): the
    corner rule of the primal labelling with faces and vertices swapped.
    (i) colors step +1 clockwise around the non-root vertices, -1 around
    v*; (ii) the corners of root face f_i* have color i; (iii) exactly one
    clockwise descent around each non-root face."""
    rv = r.host
    m = rv.map
    return _corner_violations(
        r.colors, rv.d, _vertex_steps(rv),
        [(f, m.face_corners(f)) for f in rv.root_faces],
        [(f, m.face_corners(f)) for f in rv.non_root_faces()])


def _vertex_steps(rv):
    """The dual vertices as step cells of the corner rule."""
    m = rv.map
    return [(v, m.vertex_orbit(v), -1 if v == rv.root_vertex else 1)
            for v in range(m.n_vertices)]


# -- xi -------------------------------------------------------------------

def xi(r):
    """Regular decomposition of a regular labelling: each arc leaving a
    non-root vertex takes the color of its clockwise-preceding corner."""
    bad = validate_regular_labelling(r)
    if bad:
        raise DualityError("InvalidLabelling", str(bad[:3]))
    rv = r.host
    m = rv.map
    masks = [0] * m.n_darts
    for h in range(m.n_darts):
        if m.origin[h] != rv.root_vertex:
            masks[h] = 1 << (r.colors[m.prev_cw[h]] - 1)
    return RegularDecomposition(host=rv, masks=tuple(masks), primal=r.primal)


def xi_inverse(rd):
    """The regular labelling l with xi(l) = rd.

    Colors the corner clockwise-preceding each outgoing arc with the arc's
    color and puts color i on the root corner in f_i*.  xi is a bijection,
    so a valid input needs no certificate of its output; the sufficient
    conditions for a regular labelling are the test oracle
    tests/oracles.sufficiency_violations.
    """
    bad = validate_regular_decomposition(rd)
    if bad:
        raise DualityError("InvalidDecomposition", str(bad[:3]))
    rv = rd.host
    m = rv.map
    colors = [None] * m.n_darts
    for h in range(m.n_darts):
        if m.origin[h] != rv.root_vertex:
            colors[m.prev_cw[h]] = rd.dart_colors(h)[0]
    for i, h in enumerate(rv.root_darts, start=1):
        colors[h] = i
    return RegularLabelling(host=rv, colors=tuple(colors), primal=rd.primal)


# -- regular decomposition validation -------------------------------------

def validate_regular_decomposition(rd):
    """All violations of the regular-decomposition axioms (empty = valid)."""
    return _dual_violations(rd)


def _dual_violations(t):
    """All violations of the dual decomposition axioms of t, full (d trees,
    step 1) or reduced (p = d/2 trees, step 2: reduced color i is full
    color 2i), under axiom names primed when reduced.  (i) Every arc
    carries one color in 1..p (at most one when reduced), except that on a
    full table no arc leaving v* carries any (ii); then every non-root edge
    lies in 2/step trees, once each, and root edge e_j* in one tree when
    step divides j, in none otherwise ("partition" when reduced).  (ii)
    Root edge e_{step*i}* carries color i toward v*.  (i') On a reduced
    table every colored arc has a black face on its right.  (iii) The
    vertex rule holds at every non-root vertex, and ("tree") every color
    class is a spanning tree oriented toward v*."""
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
        from .even import black_faces     # even imports this module
        black = black_faces(rv)
        out.extend(("i'", h, f"arc {h} has a white face on its right")
                   for h, mk in enumerate(t.masks)
                   if mk and not black[m.face_of[m.twin[h]]])
    for v in rv.non_root_vertices():
        out.extend(_vertex_violations(t, v, "iii" + prime))
    return out + _tree_violations(t)


def _tree_violations(rd):
    """Each color class of rd must be a spanning tree oriented toward v*."""
    rv = rd.host
    out = []
    for i in range(1, rd.n_colors + 1):
        ends = rd.path_ends(i, root=rv.root_vertex)
        out.extend(("tree", v, f"color {i} path from {v} misses the root")
                   for v in rv.non_root_vertices() if ends[v] != rv.root_vertex)
    return out


# -- chi ------------------------------------------------------------------

def chi(s):
    """Regular decomposition dual to a Schnyder decomposition.

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


def chi_inverse(rd):
    """The Schnyder decomposition s with chi(s) = rd."""
    return phi(primal_labelling(xi_inverse(rd)))

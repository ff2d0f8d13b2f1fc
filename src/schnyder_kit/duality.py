"""Regular labellings and regular decompositions on the duals of d-angulations.

The dual map shares dart ids with the primal, so structures transfer by pure
index arithmetic: the dual corner facing the primal corner(h) is the dual
corner at dart next_cw[h].  Root edges e_1*..e_d* around the root vertex v*
are the primal outer-face orbit (counterclockwise in the dual), which makes
the root face f_i* coincide with the dual face of the external vertex u_i.

Colors are in [d]; on decompositions each dart not leaving v* carries exactly
one color, encoded as a one-bit mask, which chi reads off the primal corner
colors of a Schnyder decomposition.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import DualityError
from .planar_map import as_regular
from .schnyder import (
    CornerLabelling, DartTable, _corner_violations, _phi_inverse, _sweep,
    _vertex_violations, phi, require_valid, validate_labelling,
    validate_schnyder,
)


def dualize(ang):
    """RegularView of the dual of a d-angulation, rooted compatibly: root
    face f_i* is the dual face of the external vertex u_i.

    The dual's prev_cw is the primal next_cw . twin, so the root darts,
    counterclockwise from the outer dart, are ang.outer_orbit, and f_i* is
    the dual face of the dart u_{i-1} -> u_i.  The dual face of a dart is
    the primal vertex it points at (PlaneMap.dual): u_i.  The view's
    primal is ang.
    """
    dm = ang.map.dual()
    return replace(as_regular(dm, ang.d, root=dm.root_vertex,
                              first_root_dart=ang.map.outer_dart), primal=ang)


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
    ang = require_valid(l, validate_labelling).host
    prev = ang.map.prev_cw
    colors = tuple(l.colors[prev[h]] for h in range(ang.map.n_darts))
    return RegularLabelling(host=dualize(ang), colors=colors)


def primal_labelling(r):
    """Inverse transfer: the clockwise labelling whose dual is r.  Only a
    host made by dualize knows its primal."""
    ang = r.host.primal
    if ang is None:
        raise DualityError("NoPrimalHost",
                           "regular labelling lacks a primal angulation host")
    require_valid(r, validate_regular_labelling)
    nxt = ang.map.next_cw
    colors = tuple(r.colors[nxt[h]] for h in range(ang.map.n_darts))
    return CornerLabelling(host=ang, colors=colors)


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
    require_valid(r, validate_regular_labelling)
    rv = r.host
    m = rv.map
    masks = [0] * m.n_darts
    for h in range(m.n_darts):
        if m.origin[h] != rv.root_vertex:
            masks[h] = 1 << (r.colors[m.prev_cw[h]] - 1)
    return RegularDecomposition(host=rv, masks=tuple(masks))


def xi_inverse(rd):
    """The regular labelling l with xi(l) = rd.

    Colors the corner clockwise-preceding each outgoing arc with the arc's
    color and puts color i on the root corner in f_i*.  xi is a bijection,
    so a valid input needs no certificate of its output; the sufficient
    conditions for a regular labelling are the test oracle
    tests/oracles.sufficiency_violations.
    """
    require_valid(rd, validate_regular_decomposition)
    rv = rd.host
    m = rv.map
    colors = [None] * m.n_darts
    for h in range(m.n_darts):
        if m.origin[h] != rv.root_vertex:
            colors[m.prev_cw[h]] = rd.dart_colors(h)[0]
    for i, h in enumerate(rv.root_darts, start=1):
        colors[h] = i
    return RegularLabelling(host=rv, colors=tuple(colors))


# -- regular decomposition validation -------------------------------------

def validate_regular_decomposition(t):
    """All violations of the dual decomposition axioms of t (empty =
    valid), full (a regular decomposition: d trees, step 1) or reduced
    (p = d/2 trees, step 2: reduced color i is full color 2i), under axiom
    names primed when reduced.  (i) Every arc carries one color in 1..p
    (at most one when reduced), except that on a full table no arc leaving
    v* carries any (ii); then every non-root edge lies in 2/step trees,
    once each, and root edge e_j* in one tree when step divides j, in none
    otherwise ("partition" when reduced).  (ii) Root edge e_{step*i}*
    carries color i toward v*.  (i') On a reduced table every colored arc
    has a black face on its right.  (iii) The vertex rule holds at every
    non-root vertex, and ("tree") every color class is a spanning tree
    oriented toward v*."""
    rv = t.host
    m = rv.map
    p = t.n_colors
    step = rv.d // p
    prime = "'" * t.REDUCED
    masks = t.masks
    if len(masks) != m.n_darts:
        return [("malformed", None, "mask table length mismatch")]
    least, many = (0, "at most") if t.REDUCED else (1, "exactly")
    out = []
    for h, mk in enumerate(masks):
        if m.origin[h] == rv.root_vertex and not t.REDUCED:
            if mk:
                out.append(("ii", h, "arc leaving the root vertex carries "
                                     "a color"))
        elif mk >> p or not least <= bin(mk).count("1") <= 1:
            out.append(("i" + prime, h, f"arc {h} must carry {many} one "
                                        f"color in 1..{p}"))
    if out:
        return out
    root_edge = {m.edge_of[h]: j for j, h in enumerate(rv.root_darts, start=1)}
    for h in m.edges():
        a, b = masks[h], masks[m.twin[h]]
        j = root_edge.get(h)
        want = 2 // step if j is None else int(j % step == 0)
        if a & b or bin(a | b).count("1") != want:
            out.append(("partition" if t.REDUCED else "i", h,
                        f"edge {h} must lie in {want} trees, once each"))
    for i in range(1, p + 1):
        x = m.twin[rv.root_darts[step * i - 1]]
        if masks[x] != 1 << (i - 1):
            out.append(("ii" + prime, x, f"root edge e_{step * i}* does not "
                                         f"carry color {i} toward the root"))
    if t.REDUCED:
        black = m.face_bipartition_from(rv.root_faces[0])
        out.extend(("i'", h, f"arc {h} has a white face on its right")
                   for h, mk in enumerate(masks)
                   if mk and not black[m.face_of[m.twin[h]]])
    cols, _, ends, _ = _sweep(m, masks, p, root=rv.root_vertex)
    others = rv.non_root_vertices()
    out += _vertex_violations(m, cols, p, others, "iii" + prime)
    nv = m.n_vertices
    return out + [("tree", v, f"color {i} path from {v} misses the root")
                  for i in range(1, p + 1) for v in others
                  if ends[(i - 1) * nv + v] != (i - 1) * nv + rv.root_vertex]


# -- chi ------------------------------------------------------------------

def chi(s):
    """Regular decomposition dual to a Schnyder decomposition: xi of the
    dual labelling of phi_inverse(s), read off the corner colors of s.
    Each arc h not leaving v* takes the color of the primal corner(twin(h)),
    so tree i holds the duals of the primal edges NOT in T_i (forest i and
    every external edge but u_i u_{i+1}): the paper's definition, which is
    the test oracle tests/oracles.chi_by_complemented_trees."""
    require_valid(s, validate_schnyder)
    return _chi(s, dualize(s.host))


def _chi(s, rv):
    dm = rv.map
    colors = _phi_inverse(s).colors
    masks = tuple(0 if dm.origin[h] == rv.root_vertex
                  else 1 << (colors[dm.twin[h]] - 1)
                  for h in range(dm.n_darts))
    return RegularDecomposition(host=rv, masks=masks)


def chi_inverse(rd):
    """The Schnyder decomposition s with chi(s) = rd."""
    return phi(primal_labelling(xi_inverse(rd)))

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
    CornerLabelling, DartTable, _mod, _vertex_violations, phi,
    validate_labelling, validate_schnyder,
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
    """All violations of the regular-labelling axioms (empty = valid)."""
    rv = r.host
    m = rv.map
    d = rv.d
    if len(r.colors) != m.n_darts or any(not 1 <= c <= d for c in r.colors):
        return [("malformed", None, "colors must cover all corners with values in [d]")]
    out = _cyclic_step_violations(r, "i")
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


def _cyclic_step_violations(r, axiom):
    """Corner colors 1..d clockwise around non-root vertices,
    counterclockwise around the root vertex."""
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
    color, puts color i on the root corner in f_i*, and then certifies the
    result through the sufficient conditions (colors cyclic at vertices,
    distinct preceding corners per edge, root-edge corner pattern, no
    monochromatic non-root face).
    """
    bad = validate_regular_decomposition(rd)
    if bad:
        raise DualityError("InvalidDecomposition", str(bad[:3]))
    rv = rd.host
    m = rv.map
    d = rv.d
    colors = [None] * m.n_darts
    for h in range(m.n_darts):
        if m.origin[h] != rv.root_vertex:
            colors[m.prev_cw[h]] = rd.dart_colors(h)[0]
    for i, h in enumerate(rv.root_darts, start=1):
        colors[h] = i
    r = RegularLabelling(host=rv, colors=tuple(colors), primal=rd.primal)
    bad = _sufficiency_violations(r)
    if bad:
        raise DualityError("InvalidDecomposition",
                           f"recovered coloring fails: {bad[:3]}")
    return r


def _sufficiency_violations(r):
    """The four sufficient conditions for a corner coloring to be a regular
    labelling (used to certify xi_inverse output)."""
    rv = r.host
    m = rv.map
    d = rv.d
    # (i') cyclic colors around every vertex (counterclockwise at the root)
    out = _cyclic_step_violations(r, "i'")
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


# -- regular decomposition validation -------------------------------------

def validate_regular_decomposition(rd):
    """All violations of the regular-decomposition axioms (empty = valid)."""
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
        out.extend(_vertex_violations(rd, v, "iii"))
    return out + _tree_violations(rd)


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

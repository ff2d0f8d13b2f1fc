"""Even structures for d = 2p and the reductions to p colors.

A d/(d-2)-orientation with all arc values even carries no information in its
odd colors: on the primal side the color-(2i-1) parent edge of a black vertex
coincides with its color-2i parent edge (color 2i+1 at white vertices), and on
the dual side color 2i-1 sits on the arc clockwise-preceding the outgoing
color-2i arc.  Dropping the odd colors halves the structure; this module
provides the parity tests, the reductions in both directions, and the p = 2
construction pipeline used by the drawing code.

The vertex bipartition is anchored at u_1 (black), so u_i is black exactly
when i is odd; dual faces inherit the color of the primal vertex they contain,
anchored at the root face f_1* (black).
"""

from __future__ import annotations

from collections import deque

from .errors import EvenError, MapError, OrientationError
from .planar_map import as_angulation
from .duality import (
    RegularDecomposition, _dual_violations, validate_regular_decomposition,
)
from .orientation import compute_p_p1_orientation, double
from .schnyder import (
    DartTable, SchnyderDecomposition, _mod, _primal_violations, colors_of,
    phi, psi_inverse,
)
from . import duality as _duality


def _require_even_d(d):
    if d % 2 != 0:
        raise EvenError("OddD", f"d = {d} is odd; even structures need d = 2p")
    return d // 2


def black_vertices(ang):
    """Per-vertex blackness of a 2p-angulation, anchored black at u_1."""
    _require_even_d(ang.d)
    try:
        return ang.map.bipartition_from(ang.external[0])
    except MapError as exc:
        raise EvenError("NotBipartite", str(exc)) from exc


def black_faces(rv):
    """Per-face blackness of the dual host: faces adjacent across an edge get
    opposite colors, anchored black at the root face f_1*."""
    _require_even_d(rv.d)
    m = rv.map
    color = [None] * m.n_faces
    color[rv.root_faces[0]] = True
    q = deque([rv.root_faces[0]])
    while q:
        f = q.popleft()
        for h in m.faces[f]:
            g = m.face_of[m.twin[h]]
            if color[g] is None:
                color[g] = not color[f]
                q.append(g)
            elif color[g] == color[f]:
                raise EvenError("NotBipartite",
                                "face adjacencies admit no black/white split")
    return tuple(color)


# -- parity characterizations ---------------------------------------------

def is_even_labelling(l):
    """Corners at black vertices carry odd colors, at white vertices even."""
    black = black_vertices(l.host)
    return all((l.colors[h] % 2 == 1) == black[l.host.map.origin[h]]
               for h in range(l.host.map.n_darts))


def is_even_schnyder(s):
    """The two missing colors of every internal edge differ in parity."""
    d = s.host.d
    _require_even_d(d)
    m = s.host.map
    full = (1 << d) - 1
    for h in s.host.internal_edges():
        missing = colors_of(full & ~(s.masks[h] | s.masks[m.twin[h]]), d)
        if len(missing) == 2 and missing[0] % 2 == missing[1] % 2:
            return False
    return True


def is_even_regular(rd):
    """The two colors of every non-root edge differ in parity."""
    rv = rd.host
    _require_even_d(rv.d)
    m = rv.map
    root_ids = set(rv.root_edge_ids())
    for h in m.edges():
        if h in root_ids:
            continue
        ca = colors_of(rd.masks[h], rv.d)
        cb = colors_of(rd.masks[m.twin[h]], rv.d)
        if len(ca) == 1 and len(cb) == 1 and ca[0] % 2 == cb[0] % 2:
            return False
    return True


# -- reduced types ---------------------------------------------------------

class ReducedSchnyderDecomposition(DartTable):
    """Covering of the internal edges by p oriented forests F_1'..F_p';
    masks hold p-bit color sets per dart."""
    REDUCED = True
    ERROR = EvenError
    KIND = "NotEven"
    p = DartTable.n_colors


class ReducedRegularDecomposition(DartTable):
    """Partition of the dual edges except e_1*, e_3*, ... into p spanning
    trees toward v*; one color per dart.  The black/white face split is
    black_faces(host)."""
    HOST = "dual"
    REDUCED = True
    ERROR = EvenError
    KIND = "NotEven"
    p = DartTable.n_colors


def _spread_even(mask, p):
    """Reduced color i (bit i-1) becomes full color 2i (bit 2i-1)."""
    return sum(1 << (2 * i - 1) for i in range(1, p + 1) if mask >> (i - 1) & 1)


def _keep_even(mask, p):
    """Full color 2i (bit 2i-1) becomes reduced color i (bit i-1)."""
    return sum(1 << (i - 1) for i in range(1, p + 1) if mask >> (2 * i - 1) & 1)


# -- Lambda: primal reduction ---------------------------------------------

def lambda_(s):
    """Keep the even-color forests: F_i' = F_{2i}."""
    p = _require_even_d(s.host.d)
    if not is_even_schnyder(s):
        raise EvenError("NotEven", "decomposition has an edge with same-parity "
                                   "missing colors")
    masks = tuple(_keep_even(mk, p) for mk in s.masks)
    return ReducedSchnyderDecomposition(host=s.host, masks=masks)


def lambda_inverse(rs):
    """Reinstate the odd forests: a black vertex shares its color-(2i-1)
    parent edge with its color-2i parent, a white vertex its color-(2i+1)
    parent.  Only the input is validated: Lambda is a bijection between
    even Schnyder decompositions and reduced ones, so a valid reduced input
    gives a valid output."""
    ang = rs.host
    p = _require_even_d(ang.d)
    bad = validate_reduced_schnyder(rs)
    if bad:
        raise EvenError("NotEven", str(bad[:3]))
    black = black_vertices(ang)
    m = ang.map
    full = [_spread_even(mk, p) for mk in rs.masks]
    for v in ang.internal_vertices():
        for h in m.vertex_orbit(v):
            for i in rs.dart_colors(h):
                odd = 2 * i - 1 if black[v] else _mod(2 * i + 1, ang.d)
                full[h] |= 1 << (odd - 1)
    return SchnyderDecomposition(host=ang, masks=tuple(full))


def validate_reduced_schnyder(rs):
    """All violations of the reduced-decomposition axioms (empty = valid).
    Incoming color-i edges lie strictly between e_{i+1}' and e_i' at black
    vertices, between e_i' and e_{i-1}' at white ones."""
    black = black_vertices(rs.host)
    return _primal_violations(rs, lambda v: (1, 0) if black[v] else (0, -1))


# -- Lambda*: dual reduction ----------------------------------------------

def lambda_star(rd):
    """Keep the even-color trees: T_i'* = T_{2i}*."""
    rv = rd.host
    p = _require_even_d(rv.d)
    if not is_even_regular(rd):
        raise EvenError("NotEven", "decomposition has a non-root edge with "
                                   "same-parity colors")
    masks = tuple(_keep_even(mk, p) for mk in rd.masks)
    return ReducedRegularDecomposition(host=rv, masks=masks, primal=rd.primal)


def lambda_star_inverse(rrd):
    """Reinstate the odd trees: color 2i-1 goes on the arc clockwise-preceding
    the outgoing color-2i arc at each non-root vertex.  Only the input is
    validated: Lambda* is a bijection onto the even regular decompositions,
    so a valid reduced input gives an even output."""
    rv = rrd.host
    p = _require_even_d(rv.d)
    bad = validate_reduced_regular(rrd)
    if bad:
        raise EvenError("NotEven", str(bad[:3]))
    m = rv.map
    full = [_spread_even(mk, p) for mk in rrd.masks]
    for h in range(m.n_darts):
        for i in rrd.dart_colors(h):
            full[m.prev_cw[h]] |= 1 << (2 * i - 2)
    return RegularDecomposition(host=rv, masks=tuple(full), primal=rrd.primal)


def validate_reduced_regular(rrd):
    """All violations of the reduced dual-decomposition axioms (empty =
    valid): duality._dual_violations on p = d/2 colors."""
    _require_even_d(rrd.host.d)
    return _dual_violations(rrd)


# -- the p = 2 construction pipeline --------------------------------------

def primal_quadrangulation(rv):
    """The quadrangulation whose dual is rv, with outer face at the face dual
    to v* so that external vertex u_i is the root face f_i*."""
    if rv.d != 4:
        raise EvenError("OddD", "pipeline requires a 4-regular host")
    m = rv.map
    qm = m.dual(outer_dart=m.twin[rv.root_darts[0]])
    return as_angulation(qm, 4)


def compute_even_regular_decomposition(rv):
    """An even regular decomposition (T_1*..T_4*) of a rooted 4-regular map.

    Pipeline: dual quadrangulation, 2-orientation by flow, doubling to an
    even 4/2-orientation, color propagation, and transfer back through the
    duality.  Raises MincutTooSmall when no 2-orientation exists.
    """
    q = primal_quadrangulation(rv)
    try:
        o2 = compute_p_p1_orientation(q)
    except OrientationError as exc:
        if exc.kind in ("GirthTooSmall", "NoSolution"):
            raise EvenError("MincutTooSmall",
                            f"host has a cut of size < 4 ({exc.detail})") from exc
        raise
    s = phi(psi_inverse(double(o2)))
    dd_rd = _duality.chi(s)
    # the double dual is the original map with darts renamed by twin
    m = rv.map
    masks = tuple(dd_rd.masks[m.twin[h]] for h in range(m.n_darts))
    rd = RegularDecomposition(host=rv, masks=masks, primal=None)
    bad = validate_regular_decomposition(rd)
    if bad:
        raise EvenError("MincutTooSmall", f"transfer failed: {bad[:3]}")
    if not is_even_regular(rd):
        raise EvenError("NotEven", "pipeline produced an uneven decomposition")
    return rd

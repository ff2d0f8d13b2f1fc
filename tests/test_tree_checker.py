"""The one-pass forest/tree checker against a walk from every vertex."""

from schnyder_kit.planar_map import as_angulation
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D
import schnyder_kit.even as E

import instances as I
from oracles import walk_path_ends

def decompositions():
    """(validator, valid table) for each of the four validators."""
    out = []
    for ang in (as_angulation(I.tetrahedron(), 3),
                as_angulation(I.dodecahedron(), 5)):
        s = S.phi(S.psi_inverse(O.compute_dd2_orientation(ang)))
        out += [(S.validate_schnyder, s),
                (D.validate_regular_decomposition, D.chi(s))]
    for ang in (as_angulation(I.cube(), 4), as_angulation(I.cube_plus(), 4),
                as_angulation(I.concentric_quadrangulation(3), 4),
                as_angulation(I.pseudo_double_wheel(4), 4)):
        s = S.phi(S.psi_inverse(O.double(O.compute_p_p1_orientation(ang))))
        rd = D.chi(s)
        out += [(S.validate_schnyder, s),
                (D.validate_regular_decomposition, rd),
                (E.validate_reduced_schnyder, E.lambda_(s)),
                (E.validate_reduced_regular, E.lambda_star(rd))]
    return out


def _swapped(masks, a, b):
    masks = list(masks)
    masks[a], masks[b] = masks[b], masks[a]
    return masks


def _non_root_vertices(t):
    h = t.host
    skip = set(h.external) if hasattr(h, "external") else {h.root_vertex}
    return [v for v in range(h.map.n_vertices) if v not in skip]


def mutations(t):
    """Tables near t: two swapped arcs, a one-color contour, a removed
    parent arc and a forced two-cycle.  Swaps keep one color per arc where
    t has one, so the tree checks run instead of stopping at the arc
    check."""
    m = t.host.map
    root = getattr(t.host, "root_vertex", None)
    out = []
    for v in _non_root_vertices(t):
        orbit = m.vertex_orbit(v)
        if t.masks[orbit[0]] != t.masks[orbit[1]]:
            out.append(_swapped(t.masks, orbit[0], orbit[1]))
            break
    # a contour all of color 1: move each vertex's color-1 arc onto it
    f = next(f for f in range(m.n_faces) if f != m.outer_face and
             all(m.origin[h] != root for h in m.faces[f]))
    masks = list(t.masks)
    for h in m.faces[f]:
        g = next((g for g in m.vertex_orbit(m.origin[h])
                  if g != h and masks[g] & 1), None)
        if g is None:
            masks[h] |= 1
        else:
            masks = _swapped(masks, g, h)
    out.append(masks)
    for v in _non_root_vertices(t):
        h = next((h for h in m.vertex_orbit(v) if t.masks[h] & 1), None)
        if h is not None:
            masks = list(t.masks)
            masks[h] &= ~1
            out.append(masks)
            break
    # v -> w in color 1, then w's color-1 arc turned back onto w -> v
    for h in t.arcs_of_color(1):
        w = m.target(h)
        g = next((g for g in m.vertex_orbit(w) if t.masks[g] & 1), None)
        if w != root and g is not None and g != m.twin[h]:
            out.append(_swapped(t.masks, g, m.twin[h]))
            break
    return [type(t)(host=t.host, masks=tuple(mk), primal=t.primal)
            for mk in out]


def _pairs(violations):
    return {(axiom, where) for axiom, where, _ in violations}


def test_path_ends_matches_the_walk_from_every_vertex(monkeypatch):
    cycles = set()
    for validator, t in decompositions():
        roots = {None, getattr(t.host, "root_vertex", None)}
        for x in [t] + mutations(t):
            for i in range(1, x.n_colors + 1):
                for root in roots:
                    ends = x.path_ends(i, root)
                    assert ends == walk_path_ends(x, i, root)
                    if S.CYCLE in ends:
                        cycles.add(validator.__name__)
            fast = _pairs(validator(x))
            assert (fast == set()) == (x is t)
            with monkeypatch.context() as mp:
                mp.setattr(S.DartTable, "path_ends", walk_path_ends)
                assert _pairs(validator(x)) == fast, validator.__name__
    assert cycles == {"validate_schnyder", "validate_regular_decomposition",
                      "validate_reduced_schnyder", "validate_reduced_regular"}

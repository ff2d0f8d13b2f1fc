import json
import pathlib
from collections import Counter
from dataclasses import replace

import pytest

from schnyder_kit.errors import DrawingError
from schnyder_kit.planar_map import as_angulation, as_regular
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D
import schnyder_kit.even as E
import schnyder_kit.drawing as DR

import instances as I
from oracles import (
    bend_count, check_planarity, place_by_face_counting, special_face_of_edge,
)
from sweep import check_orthogonal_planarity

GOLDEN = pathlib.Path(__file__).parent / "golden"


def host_corpus():
    return [D.dualize(as_angulation(I.cube(), 4)),
            D.dualize(as_angulation(I.cube_plus(), 4)),
            D.dualize(as_angulation(I.concentric_quadrangulation(3), 4)),
            D.dualize(as_angulation(I.pseudo_double_wheel(4), 4)),
            as_regular(I.octahedron(), 4, root=0)]


def even_decompositions(ang):
    """Every even regular decomposition of the dual of ang."""
    out = []
    for o in O.lattice_enumerate(ang):
        if O.is_even(o):
            out.append(D.chi(S.phi(S.psi_inverse(o))))
    return out


def test_face_counting_matches_equatorial_lines():
    for rv in host_corpus():
        rd = E.compute_even_regular_decomposition(rv)
        assert place_by_face_counting(rd) == DR.place_by_equatorial_lines(rd)
    for m in (4, 5):
        for rd in even_decompositions(as_angulation(I.pseudo_double_wheel(m), 4)):
            assert place_by_face_counting(rd) == \
                DR.place_by_equatorial_lines(rd)


def test_known_cube_coordinates():
    # frozen output of the deterministic pipeline on the cube dual
    rv = D.dualize(as_angulation(I.cube(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    assert DR.place_by_equatorial_lines(rd) == {
        0: (1, 0), 2: (4, 1), 3: (3, 4), 4: (0, 3), 5: (2, 2)}


def test_grid_permutation_and_boundaries():
    for rv in host_corpus():
        rd = E.compute_even_regular_decomposition(rv)
        gd = DR.orthogonal_drawing(rd)
        n = rv.map.n_vertices
        assert sorted(x for x, _ in gd.coords.values()) == list(range(n - 1))
        assert sorted(y for _, y in gd.coords.values()) == list(range(n - 1))
        ends = [rv.map.target(e) for e in rv.root_darts]
        assert gd.coords[ends[0]][1] == 0          # v_1* on the down side
        assert gd.coords[ends[1]][0] == 0          # v_2* on the left side
        assert gd.coords[ends[2]][1] == n - 2      # v_3* on the up side
        assert gd.coords[ends[3]][0] == n - 2      # v_4* on the right side


def test_orthogonal_drawing_planar_with_directed_bends():
    for rv in host_corpus():
        rd = E.compute_even_regular_decomposition(rv)
        gd = DR.orthogonal_drawing(rd)
        m = rv.map
        assert len(gd.bends) == 2 * m.n_vertices - 4
        ok, crossings = check_planarity(gd)
        assert ok, crossings
        # each arc leaves its origin along the ray of its color
        for e, b in gd.bends.items():
            for h in (e, m.twin[e]):
                (px, py) = gd.coords[m.origin[h]]
                dx, dy = DR.DIRECTIONS[DR._color(rd, h)]
                assert (b[0] - px) * dx + (b[1] - py) * dy > 0
                assert (b[0] - px) * dy == (b[1] - py) * dx


def test_root_completion():
    for rv in host_corpus():
        rd = E.compute_even_regular_decomposition(rv)
        gd = DR.add_root(DR.orthogonal_drawing(rd))
        n = rv.map.n_vertices
        assert gd.root_pos == (-1, -1)
        assert bend_count(gd) == 2 * n + 4
        ok, crossings = check_planarity(gd)
        assert ok, crossings
        pts = [p for pts in gd.root_routes for p in pts] + list(gd.coords.values())
        assert min(p[0] for p in pts) == -2 and max(p[0] for p in pts) == n - 1
        assert min(p[1] for p in pts) == -2 and max(p[1] for p in pts) == n - 1


def _dual_degree_classification(ang, rd):
    """Independent classification oracle: a face is partly reducible iff its
    dual vertex has degree (2,2) in the two reduced spanning trees, fully
    reducible iff both degrees are >= 2 but not (2,2)."""
    m = ang.map
    rv = rd.host
    prim = S.phi(D.primal_labelling(
        D.xi_inverse(D.RegularDecomposition(host=rv, masks=rd.masks,
                                            primal=ang))))
    rs = E.lambda_(prim)
    deg = {v: [0, 0] for v in range(m.n_vertices)}
    for i in (1, 2):
        for h in rs.arcs_of_color(i):
            deg[m.origin[h]][i - 1] += 1
            deg[m.target(h)][i - 1] += 1
    u = ang.external
    tree_ext = {1: [(u[0], u[1]), (u[0], u[3])], 2: [(u[2], u[1]), (u[2], u[3])]}
    for i, pairs in tree_ext.items():
        for a, b in pairs:
            deg[a][i - 1] += 1
            deg[b][i - 1] += 1
    out = {}
    for v in ang.internal_vertices():
        d1, d2 = deg[v]
        if (d1, d2) == (2, 2):
            cls = "partly_reducible"
        elif d1 >= 2 and d2 >= 2:
            cls = "fully_reducible"
        else:
            cls = "non_reducible"
        out[D.dual_face_of_vertex(ang, rv, v)] = cls
    return out


def test_face_classification_matches_dual_degrees():
    seen = set()
    for m in (4, 5, 6):
        ang = as_angulation(I.pseudo_double_wheel(m), 4)
        for rd in even_decompositions(ang):
            gd = DR.orthogonal_drawing(rd)
            fc = DR.classify_faces(gd)
            oracle = _dual_degree_classification(ang, rd)
            assert {f: info.cls for f, info in fc.faces.items()} == oracle
            seen.update(info.cls for info in fc.faces.values())
    assert seen == {"non_reducible", "partly_reducible", "fully_reducible"}


def test_equatorial_line_passes_face_markers_consecutively():
    rv = D.dualize(as_angulation(I.pseudo_double_wheel(5), 4))
    rd = E.compute_even_regular_decomposition(rv)
    gd = DR.orthogonal_drawing(rd)
    fc = DR.classify_faces(gd)
    for i, (pre, post) in ((1, ("fx_minus", "fx_plus")),
                           (4, ("fy_minus", "fy_plus"))):
        seq = DR.equatorial_line(rd, i)
        for t in range(1, len(seq), 2):
            kind, f = seq[t]
            assert kind == "f"
            assert seq[t - 1] == ("v", getattr(fc.faces[f], pre))
            assert seq[t + 1] == ("v", getattr(fc.faces[f], post))


def exhaustive_reductions():
    """(m, gd, rc, reduced drawing) for every even decomposition of the
    duals of pseudo_double_wheel(m), m = 4, 5, 6, and every reduction
    choice: the balanced one and each split of the partly reducible
    faces."""
    for m in (4, 5, 6):
        for rd in even_decompositions(as_angulation(I.pseudo_double_wheel(m), 4)):
            gd = DR.orthogonal_drawing(rd)
            fc = DR.classify_faces(gd)
            partly = [f for f, info in fc.faces.items()
                      if info.cls == "partly_reducible"]
            choices = [DR.balanced_reduction_choice(fc)]
            for bits in range(1 << len(partly)):
                chosen = {f for k, f in enumerate(partly) if bits >> k & 1}
                choices.append(DR.reduction_choice(fc, chosen))
            for rc in choices:
                yield m, gd, rc, DR.apply_reduction(gd, rc)


def test_reductions_stay_planar():
    for m, gd, rc, gred in exhaustive_reductions():
        for g in (gred, DR.add_root(gred)):
            ok, crossings = check_orthogonal_planarity(g)
            assert ok, (m, rc, crossings)
        w = max(x for x, _ in gred.coords.values())
        assert w == rv_width(gd) - len(rc.X)


def rv_width(gd):
    return max(x for x, _ in gd.coords.values())


def test_straight_line_drawing_and_empty_rectangles():
    for rv in host_corpus():
        rd = E.compute_even_regular_decomposition(rv)
        m = rv.map
        coords, segs = DR.straight_line_drawing(rd)
        ok, crossings = check_planarity(segs)
        assert ok, crossings
        gd = DR.orthogonal_drawing(rd, coords)
        fc = DR.classify_faces(gd)
        for e in DR.collapsed_edges(rv):
            f = special_face_of_edge(fc, e, m)
            (x1, y1), (x2, y2) = coords[m.origin[e]], coords[m.target(e)]
            lo_x, hi_x = sorted((x1, x2))
            lo_y, hi_y = sorted((y1, y2))
            inside = [v for v, (x, y) in coords.items()
                      if lo_x <= x <= hi_x and lo_y <= y <= hi_y]
            assert sorted(inside) == sorted((m.origin[e], m.target(e)))


def test_degenerate_two_vertex_host():
    rv = D.dualize(as_angulation(I.square_cycle(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    gd = DR.orthogonal_drawing(rd)
    assert gd.bends == {}
    assert list(gd.coords.values()) == [(0, 0)]
    full = DR.add_root(gd)
    ok, crossings = check_planarity(full)
    assert ok, crossings


def test_error_cases():
    rv = D.dualize(as_angulation(I.cube(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    bad = {v: (i, i) for i, v in enumerate(rv.non_root_vertices())}
    with pytest.raises(DrawingError) as ei:
        DR.orthogonal_drawing(rd, bad)
    assert ei.value.kind == "InternalInvariantViolation"
    gd = DR.add_root(DR.orthogonal_drawing(rd))
    with pytest.raises(DrawingError):
        DR.add_root(gd)
    with pytest.raises(DrawingError):
        DR.apply_reduction(gd, DR.ReductionChoice(X=frozenset(), Y=frozenset()))


def test_planarity_oracle_detects_crossings():
    # proper crossing
    segs = [((0, 0), (2, 2), ("v", 0), ("v", 1)),
            ((0, 2), (2, 0), ("v", 2), ("v", 3))]
    ok, crossings = check_planarity(segs)
    assert not ok and crossings[0][2] == "proper crossing"
    for segs, planar in HANDMADE_ORTHOGONAL:
        assert check_planarity(segs)[0] == planar


# axis-parallel cases, each with the oracle's verdict
HANDMADE_ORTHOGONAL = [
    # proper crossing
    ([((0, 1), (2, 1), ("v", 0), ("v", 1)),
      ((1, 0), (1, 2), ("v", 2), ("v", 3))], False),
    # overlap along a shared line, by three units or by one
    ([((0, 0), (3, 0), ("v", 0), ("v", 1)),
      ((1, 0), (4, 0), ("v", 2), ("v", 3))], False),
    ([((0, 0), (0, 2), ("v", 0), ("v", 1)),
      ((0, 1), (0, 3), ("v", 2), ("v", 3))], False),
    ([((0, 0), (2, 0), ("v", 0), ("v", 1)),
      ((2, 0), (5, 0), ("v", 1), ("v", 2)),
      ((3, 0), (4, 0), ("v", 3), ("v", 4))], False),
    # T-contact on an interior point, or of an end on the other's interior
    ([((0, 0), (4, 0), ("v", 0), ("v", 1)),
      ((2, -1), (2, 0), ("v", 2), ("v", 3))], False),
    ([((0, 0), (4, 0), ("v", 0), ("v", 1)),
      ((0, -1), (0, 1), ("v", 2), ("v", 3))], False),
    ([((0, 0), (4, 0), ("v", 0), ("v", 1)),
      ((4, -1), (4, 1), ("v", 2), ("v", 3))], False),
    # distinct anchors meeting at one point is a conflict ...
    ([((0, 0), (2, 0), ("v", 0), ("v", 1)),
      ((2, 0), (4, 0), ("v", 2), ("v", 3))], False),
    ([((0, 0), (2, 0), ("v", 0), ("v", 1)),
      ((2, 0), (2, 3), ("v", 2), ("v", 3))], False),
    # ... but a shared anchor is fine
    ([((0, 0), (2, 0), ("v", 0), ("v", 1)),
      ((2, 0), (4, 0), ("v", 1), ("v", 3))], True),
    ([((0, 0), (2, 0), ("v", 0), ("b", 1)),
      ((2, 0), (2, 3), ("b", 1), ("v", 3))], True),
    ([((0, 0), (0, 2), ("v", 0), ("v", 1)),
      ((0, 2), (0, 4), ("v", 1), ("v", 3))], True),
]


def _bend_flipped(gd, e):
    """gd with the bend of edge e moved to the other corner of the box
    spanned by its ends, or None when that corner is an end."""
    m = gd.host.map
    (xu, yu), (xw, yw) = gd.coords[m.origin[e]], gd.coords[m.target(e)]
    b = (xw, yu) if gd.bends[e] == (xu, yw) else (xu, yw)
    if b in ((xu, yu), (xw, yw)):
        return None
    return replace(gd, bends={**gd.bends, e: b})


def test_sweep_matches_the_pairwise_oracle():
    """Equal verdicts of the sweep and check_planarity on the hand-made
    cases, on every drawing of the exhaustive reduction loop, with and
    without the root, and on those drawings with one bend moved."""
    for segs, planar in HANDMADE_ORTHOGONAL:
        assert check_orthogonal_planarity(segs)[0] == planar
        assert check_orthogonal_planarity(segs[::-1])[0] == planar
    verdicts = Counter()
    grids = [g for _, _, _, g in exhaustive_reductions()]
    for gd in grids + [DR.orthogonal_drawing(
            E.compute_even_regular_decomposition(rv)) for rv in host_corpus()]:
        moved = [_bend_flipped(gd, e) for e in sorted(gd.bends)]
        for g in [gd, DR.add_root(gd)] + [g for g in moved if g is not None]:
            ok = check_planarity(g)[0]
            assert check_orthogonal_planarity(g)[0] == ok
            verdicts[ok] += 1
    assert verdicts[True] >= 60 and verdicts[False] > 400, verdicts


def _cube_drawing():
    rv = D.dualize(as_angulation(I.cube(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    return rd, DR.add_root(DR.orthogonal_drawing(rd))


def test_json_round_trip_and_golden():
    rd, gd = _cube_drawing()
    obj = DR.emit_drawing_json(gd)
    assert obj == json.loads((GOLDEN / "cube_drawing.json").read_text())


def test_svg_golden():
    _, gd = _cube_drawing()
    assert DR.emit_svg(gd) == (GOLDEN / "cube_drawing.svg").read_text()
    # emission is deterministic
    assert DR.emit_svg(gd) == DR.emit_svg(gd)

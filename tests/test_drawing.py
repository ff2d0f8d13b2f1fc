import json
import pathlib
import random
from collections import Counter
from dataclasses import replace
from math import comb

import pytest

from schnyder_kit.errors import DrawingError
from schnyder_kit.planar_map import as_angulation, as_regular
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D
import schnyder_kit.even as E
import schnyder_kit.drawing as DR
import schnyder_kit.sampler as SA

import instances as I
from oracles import (
    bend_count, check_planarity, is_even, place_by_face_counting,
    special_face_of_edge,
)
from sampled_hosts import SAMPLED_HOSTS, triple
from sweep import check_orthogonal_planarity

GOLDEN = pathlib.Path(__file__).parent / "golden"


def host_corpus():
    return [D.dualize(as_angulation(I.cube(), 4)),
            D.dualize(as_angulation(I.cube_plus(), 4)),
            D.dualize(as_angulation(I.concentric_quadrangulation(3), 4)),
            D.dualize(as_angulation(I.pseudo_double_wheel(4), 4)),
            as_regular(I.octahedron(), 4, root=0)]


def wheel_duals(even_decompositions, m):
    """Every even regular decomposition of the dual of
    pseudo_double_wheel(m), with its angulation."""
    return [(ang, rd) for ang, _, rd in even_decompositions[f"wheel{m}"]]


def test_face_counting_matches_equatorial_lines(even_decompositions):
    """The marker chains place every vertex where face counting does, on
    the host corpus, the wheel duals and face-split duals with V* = 20 and
    100."""
    for rv in host_corpus() + [D.dualize(as_angulation(
            I.face_split_quadrangulation(n, random.Random(n)), 4))
            for n in (20, 100)]:
        rd = E.compute_even_regular_decomposition(rv)
        assert place_by_face_counting(rd) == \
            DR.place_by_equatorial_lines(rd, DR.marker_table(rd))
    for m in (4, 5):
        for _, rd in wheel_duals(even_decompositions, m):
            assert place_by_face_counting(rd) == \
                DR.place_by_equatorial_lines(rd, DR.marker_table(rd))


def test_known_cube_coordinates():
    # frozen output of the deterministic pipeline on the cube dual
    rv = D.dualize(as_angulation(I.cube(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    assert DR.place_by_equatorial_lines(rd, DR.marker_table(rd)) == {
        0: (1, 0), 2: (4, 1), 3: (3, 4), 4: (0, 3), 5: (2, 2)}


def test_grid_permutation_and_boundaries():
    for rv in host_corpus():
        rd = E.compute_even_regular_decomposition(rv)
        gd = DR.orthogonal_drawing(rd)
        n = rv.map.n_vertices
        assert sorted(x for x, _ in gd.coords.values()) == list(range(n - 1))
        assert sorted(y for _, y in gd.coords.values()) == list(range(n - 1))
        ends = [rv.map.target_of[e] for e in rv.root_darts]
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
    assert rv.primal is ang
    prim = S.phi(D.primal_labelling(D.xi_inverse(rd)))
    rs = E.lambda_(prim)
    deg = {v: [0, 0] for v in range(m.n_vertices)}
    for i in (1, 2):
        for h in rs.arcs_of_color(i):
            deg[m.origin[h]][i - 1] += 1
            deg[m.target_of[h]][i - 1] += 1
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
        out[I.dual_face_of_vertex(ang, rv, v)] = cls
    return out


def test_face_classification_matches_dual_degrees(even_decompositions):
    seen = set()
    for m in (4, 5, 6):
        for ang, rd in wheel_duals(even_decompositions, m):
            gd = DR.orthogonal_drawing(rd)
            fc = DR.classify_faces(gd)
            oracle = _dual_degree_classification(ang, rd)
            assert {f: info.cls for f, info in fc.items()} == oracle
            seen.update(info.cls for info in fc.values())
    assert seen == {"non_reducible", "partly_reducible", "fully_reducible"}


def test_unique_special_edges_fix_the_bend_pattern(study_corpus):
    """face_markers checks only that a face has one special edge of each
    kind: on every regular decomposition of the duals of the d = 4 corpus,
    even or not, a face that has them has the whole pattern, (4, 3), a
    run of (2, 3), (2, 1), a run of (4, 1), one color lower when white."""
    checked = Counter()
    for ang in study_corpus[4]:
        for o in O.lattice_enumerate(ang):
            rd = D.chi(S.phi(S.psi_inverse(o)))
            m, fb = rd.host.map, E.black_faces(rd.host)
            for f in rd.host.non_root_faces():
                pats = [(rd.masks[g].bit_length(),
                         rd.masks[m.twin[g]].bit_length())
                        for g in m.face_corners(f)]
                a, run1, b, run2 = ((S._mod(i - (not fb[f]), 4),
                                     S._mod(j - (not fb[f]), 4))
                                    for i, j in ((4, 3), (2, 3), (2, 1),
                                                 (4, 1)))
                if pats.count(a) != 1 or pats.count(b) != 1:
                    continue
                k = pats.index(a)
                pats = pats[k:] + pats[:k]
                k = pats.index(b)
                assert pats == [a] + [run1] * (k - 1) + [b] + \
                    [run2] * (len(pats) - k - 1)
                checked[is_even(o)] += 1
    assert checked[True] > 1000 and checked[False] > 10


def test_a_drawing_parses_each_face_once(monkeypatch):
    """Placement and classification of one drawing share one marker
    table, which reduction and root completion carry along: face_markers
    runs once per non-root face."""
    q = I.face_split_quadrangulation(40, random.Random(40))
    rv = D.dualize(as_angulation(q, 4))
    rd = E.compute_even_regular_decomposition(rv)
    parsed = []
    markers = DR.face_markers
    monkeypatch.setattr(DR, "face_markers", lambda rd, f, is_black: (
        parsed.append(f) or markers(rd, f, is_black)))
    gd = DR.orthogonal_drawing(rd)
    red = DR.apply_reduction(
        gd, DR.balanced_reduction_choice(DR.classify_faces(gd)))
    assert DR.add_root(red).markers is gd.markers
    assert sorted(parsed) == sorted(rv.non_root_faces())


def test_classification_refuses_a_reduced_drawing():
    """The faces of a reduced drawing, with or without its root, are not
    classified again: the refusal names the misuse instead of a broken
    marker."""
    q = I.face_split_quadrangulation(40, random.Random(40))
    gd = DR.orthogonal_drawing(E.compute_even_regular_decomposition(
        D.dualize(as_angulation(q, 4))))
    red = DR.apply_reduction(
        gd, DR.balanced_reduction_choice(DR.classify_faces(gd)))
    for drawn in (red, DR.add_root(red)):
        with pytest.raises(DrawingError, match="before reducing") as ei:
            DR.classify_faces(drawn)
        assert ei.value.kind == "InternalInvariantViolation"


def test_placement_rejects_a_broken_marker_chain(monkeypatch):
    """A marker that two faces share, or a line that stops short or runs
    into a loop, is an error: never a silent overwrite or an endless walk."""
    rv = D.dualize(as_angulation(I.cube(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    faces, black = rv.non_root_faces(), E.black_faces(rv)
    assert sum(black[f] for f in faces) >= 2
    markers = DR.face_markers
    # every black face reports the special edges of the first black one
    f0 = next(f for f in faces if black[f])
    monkeypatch.setattr(DR, "face_markers", lambda rd, f, is_black: markers(
        rd, f0 if is_black else f, is_black))
    with pytest.raises(DrawingError) as ei:
        DR.place_by_equatorial_lines(rd, DR.marker_table(rd))
    assert ei.value.kind == "InternalInvariantViolation"
    assert "repeats a marker" in ei.value.detail
    for succ, count in (({1: 2}, 3), ({1: 2, 2: 1}, 3), ({1: 2, 2: 1}, 2)):
        with pytest.raises(DrawingError) as ei:
            DR._chain(succ, 1, count, "L_1")
        assert ei.value.kind == "InternalInvariantViolation"
    assert DR._chain({1: 2, 2: 3}, 1, 3, "L_1") == [1, 2, 3]


def exhaustive_reductions(even_decompositions):
    """(m, gd, rc, reduced drawing) for every even decomposition of the
    duals of pseudo_double_wheel(m), m = 4, 5, 6, and every reduction
    choice: the balanced one and each split of the partly reducible
    faces."""
    for m in (4, 5, 6):
        for _, rd in wheel_duals(even_decompositions, m):
            gd = DR.orthogonal_drawing(rd)
            fc = DR.classify_faces(gd)
            partly = [f for f, info in fc.items()
                      if info.cls == "partly_reducible"]
            choices = [DR.balanced_reduction_choice(fc)]
            for bits in range(1 << len(partly)):
                chosen = {f for k, f in enumerate(partly) if bits >> k & 1}
                choices.append(DR.reduction_choice(fc, chosen))
            for rc in choices:
                yield m, gd, rc, DR.apply_reduction(gd, rc)


def test_reductions_stay_planar(even_decompositions):
    for m, gd, rc, gred in exhaustive_reductions(even_decompositions):
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
        coords, segs = DR.straight_line_drawing(
            rd, DR.place_by_equatorial_lines(rd, DR.marker_table(rd)))
        ok, crossings = check_planarity(segs)
        assert ok, crossings
        gd = DR.orthogonal_drawing(rd)
        for e in DR.collapsed_edges(rv):
            special_face_of_edge(gd, e)
            (x1, y1), (x2, y2) = coords[m.origin[e]], coords[m.target_of[e]]
            lo_x, hi_x = sorted((x1, x2))
            lo_y, hi_y = sorted((y1, y2))
            inside = [v for v, (x, y) in coords.items()
                      if lo_x <= x <= hi_x and lo_y <= y <= hi_y]
            assert sorted(inside) == sorted((m.origin[e], m.target_of[e]))


def test_degenerate_two_vertex_host():
    rv = D.dualize(as_angulation(I.square_cycle(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    gd = DR.orthogonal_drawing(rd)
    assert gd.bends == {}
    assert list(gd.coords.values()) == [(0, 0)]
    full = DR.add_root(gd)
    ok, crossings = check_planarity(full)
    assert ok, crossings


def test_error_cases(monkeypatch):
    rv = D.dualize(as_angulation(I.cube(), 4))
    rd = E.compute_even_regular_decomposition(rv)
    bad = {v: (i, i) for i, v in enumerate(rv.non_root_vertices())}
    with monkeypatch.context() as mp:
        mp.setattr(DR, "place_by_equatorial_lines", lambda rd, markers: bad)
        with pytest.raises(DrawingError) as ei:
            DR.orthogonal_drawing(rd)
    assert ei.value.kind == "InternalInvariantViolation"
    assert "misses the bend" in ei.value.detail
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
    (xu, yu), (xw, yw) = gd.coords[m.origin[e]], gd.coords[m.target_of[e]]
    b = (xw, yu) if gd.bends[e] == (xu, yw) else (xu, yw)
    if b in ((xu, yu), (xw, yw)):
        return None
    return replace(gd, bends={**gd.bends, e: b})


def test_sweep_matches_the_pairwise_oracle(even_decompositions):
    """Equal verdicts of the sweep and check_planarity on the hand-made
    cases, on every drawing of the exhaustive reduction loop, with and
    without the root, and on those drawings with one bend moved."""
    for segs, planar in HANDMADE_ORTHOGONAL:
        assert check_orthogonal_planarity(segs)[0] == planar
        assert check_orthogonal_planarity(segs[::-1])[0] == planar
    verdicts = Counter()
    grids = [g for _, _, _, g in exhaustive_reductions(even_decompositions)]
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


def drawn_permutation(rd):
    """The placement of rd read as a permutation: the y ranks of the
    non-root vertices in x order."""
    coords = DR.place_by_equatorial_lines(rd, DR.marker_table(rd))
    return tuple(y for _, y in sorted(coords.values()))


def is_baxter(p):
    """p avoids the patterns 2-41-3 and 3-14-2: no i < j < j + 1 < k with
    p[j+1] < p[i] < p[k] < p[j], nor with p[j] < p[k] < p[i] < p[j+1].  For
    each adjacent pair it suffices to look for the smallest value that can
    play the 2 (or the 3) and then for the other one; O(n^2) in all."""
    n = len(p)
    for j in range(n - 1):
        lo, hi = sorted(p[j:j + 2])
        if p[j] > p[j + 1]:     # 2-41-3: smallest p[i] in range, then p[k]
            mid = min((x for x in p[:j] if lo < x < hi), default=None)
            rest = p[j + 2:]
        else:                   # 3-14-2: smallest p[k] in range, then p[i]
            mid = min((x for x in p[j + 2:] if lo < x < hi), default=None)
            rest = p[:j]
        if mid is not None and any(mid < x < hi for x in rest):
            return False
    return True


def baxter_number(n):
    """The number of Baxter permutations of size n (Chung, Graham,
    Hoggatt and Kleiman, 1978)."""
    return sum(comb(n + 1, k - 1) * comb(n + 1, k) * comb(n + 1, k + 1)
               for k in range(1, n + 1)) // (comb(n + 1, 1) * comb(n + 1, 2))


def test_is_baxter_refuses_both_patterns():
    assert is_baxter((1, 0, 3, 2)) and is_baxter((0, 1, 2))
    assert not is_baxter((1, 3, 0, 2))          # 2-41-3
    assert not is_baxter((2, 0, 3, 1))          # 3-14-2
    assert is_baxter((1, 4, 2, 0, 3))           # 4 and 1 of 2413 apart
    assert [baxter_number(n) for n in range(1, 8)] == \
        [1, 2, 6, 22, 92, 422, 2074]


def test_each_drawing_is_its_own_baxter_permutation():
    """For every pair (quadrangulation with n <= 8 faces, even Schnyder
    decomposition s), the placement of chi(s) is a Baxter permutation of
    size n - 1 with one descent fewer than the black vertices of the
    pair's code (len(alpha)), and no two pairs of one size share it: the
    drawing is a bijection onto the Baxter permutations.  The same holds
    on the sampled hosts of tests/sampled_hosts.py (n = 60, 120 and 200)."""
    pairs = {n: SA.enumerate_pairs(n) for n in range(2, 9)}
    pairs["sampled"] = [SA.decode(triple(e)) for e in SAMPLED_HOSTS]
    for key, group in pairs.items():
        perms = set()
        for ang, s in group:
            p = drawn_permutation(D.chi(s))
            assert len(p) == ang.map.n_faces - 1 and is_baxter(p), key
            descents = sum(a > b for a, b in zip(p, p[1:]))
            assert descents + 1 == len(SA.encode(ang, s).alpha), key
            perms.add(p)
        assert len(perms) == len(group), key
        if key != "sampled":
            assert len(perms) == baxter_number(key - 1)

import pytest

from schnyder_kit.errors import EvenError
from schnyder_kit.planar_map import as_angulation, as_regular
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D
import schnyder_kit.even as E

import instances as I


def quad_corpus():
    return [as_angulation(I.cube(), 4), as_angulation(I.cube_plus(), 4)]


def even_schnyder_of(ang):
    o = O.double(O.compute_p_p1_orientation(ang))
    return S.phi(S.psi_inverse(o))


def test_parity_characterizations_agree():
    for ang in quad_corpus():
        s = even_schnyder_of(ang)
        l = S.phi_inverse(s)
        rd = D.chi(s)
        assert E.is_even_labelling(l)
        assert E.is_even_schnyder(s)
        assert E.is_even_regular(rd)


def test_uneven_instances_detected():
    ang = as_angulation(I.cube(), 4)
    uneven = [o for o in O.lattice_enumerate(ang) if not O.is_even(o)]
    assert uneven  # the cube lattice holds 3 elements, only 2 are even
    for o in uneven:
        l = S.psi_inverse(o)
        s = S.phi(l)
        assert not E.is_even_labelling(l)
        assert not E.is_even_schnyder(s)
        assert not E.is_even_regular(D.chi(s))
        with pytest.raises(EvenError) as ei:
            E.lambda_(s)
        assert ei.value.kind == "NotEven"


def test_odd_d_rejected():
    ang = as_angulation(I.tetrahedron(), 3)
    l = S.psi_inverse(O.compute_dd2_orientation(ang))
    with pytest.raises(EvenError) as ei:
        E.is_even_labelling(l)
    assert ei.value.kind == "OddD"


def test_lambda_round_trip():
    for ang in quad_corpus():
        s = even_schnyder_of(ang)
        rs = E.lambda_(s)
        assert E.validate_reduced_schnyder(rs) == []
        assert E.lambda_inverse(rs).masks == s.masks


def test_reduced_forest_shape():
    for ang in quad_corpus():
        rs = E.lambda_(even_schnyder_of(ang))
        p = rs.p
        m = ang.map
        for h in ang.internal_edges():
            total = bin(rs.masks[h] | rs.masks[m.twin[h]]).count("1")
            assert total == p - 1
        for i in range(1, p + 1):
            roots = {ang.external[2 * i - 1], ang.external[(2 * i) % ang.d]}
            touched = set()
            for h in rs.arcs_of_color(i):
                touched.update((m.origin[h], m.target(h)))
            assert touched.isdisjoint(roots)


def test_p2_non_crossing_spanning_trees():
    # reduced forests plus the designated external edges form two
    # edge-disjoint spanning trees covering every edge
    for ang in quad_corpus():
        m = ang.map
        rs = E.lambda_(even_schnyder_of(ang))
        u = ang.external
        ext_edge = {}  # edge id of each external edge {u_i, u_{i+1}}
        for t, h in enumerate(ang.outer_orbit):
            ext_edge[t] = m.edge(h)
        t1 = {m.edge(h) for h in rs.arcs_of_color(1)} | {ext_edge[3], ext_edge[0]}
        t2 = {m.edge(h) for h in rs.arcs_of_color(2)} | {ext_edge[1], ext_edge[2]}
        assert t1.isdisjoint(t2)
        assert t1 | t2 == set(m.edges())
        # each tree spans every vertex except one opposite external corner
        for tree, missing in ((t1, u[2]), (t2, u[0])):
            assert len(tree) == m.n_vertices - 2
            seen = {m.origin[next(iter(tree))]}
            frontier = True
            while frontier:
                frontier = False
                for e in tree:
                    a, b = m.origin[e], m.target(e)
                    if (a in seen) != (b in seen):
                        seen.update((a, b))
                        frontier = True
            assert seen == set(range(m.n_vertices)) - {missing}


def test_lambda_star_round_trip():
    for ang in quad_corpus():
        rd = D.chi(even_schnyder_of(ang))
        rrd = E.lambda_star(rd)
        assert E.validate_reduced_regular(rrd) == []
        rd2 = E.lambda_star_inverse(rrd)
        assert D.validate_regular_decomposition(rd2) == []
        assert rd2.masks == rd.masks


def test_reduced_regular_partition():
    for ang in quad_corpus():
        rd = D.chi(even_schnyder_of(ang))
        rv = rd.host
        m = rv.map
        rrd = E.lambda_star(rd)
        odd_roots = {m.edge(rv.root_darts[0]), m.edge(rv.root_darts[2])}
        covered = []
        for i in (1, 2):
            covered += [m.edge(h) for h in rrd.arcs_of_color(i)]
        assert sorted(covered) == sorted(set(m.edges()) - odd_roots)


def test_black_face_on_the_right():
    for ang in quad_corpus():
        rd = D.chi(even_schnyder_of(ang))
        rv = rd.host
        m = rv.map
        fb = E.black_faces(rv)
        for h in range(m.n_darts):
            for c in rd.dart_colors(h):
                right = m.face_of[m.twin[h]]
                assert fb[right] == (c % 2 == 0)


def test_face_colors_match_primal_vertices():
    ang = as_angulation(I.cube(), 4)
    rv = D.dualize(ang)
    fb = E.black_faces(rv)
    bv = E.black_vertices(ang)
    for v in range(ang.map.n_vertices):
        assert fb[D.dual_face_of_vertex(ang, rv, v)] == bv[v]
    assert bv[ang.external[0]] and not bv[ang.external[1]]


def test_compute_even_regular_decomposition():
    hosts = [D.dualize(as_angulation(I.cube(), 4)),
             D.dualize(as_angulation(I.cube_plus(), 4)),
             as_regular(I.octahedron(), 4, root=0)]
    for rv in hosts:
        rd = E.compute_even_regular_decomposition(rv)
        assert rd.host is rv
        assert D.validate_regular_decomposition(rd) == []
        assert E.is_even_regular(rd)
        for i, e in enumerate(rv.root_darts, start=1):
            assert rd.dart_colors(rv.map.twin[e]) == [i]
        # the even trees pair into a partition of the non-odd-root edges
        rrd = E.lambda_star(rd)
        assert E.validate_reduced_regular(rrd) == []


def test_mincut_too_small():
    rv = as_regular(I.lens_4_regular(), 4, root=0)
    with pytest.raises(EvenError) as ei:
        E.compute_even_regular_decomposition(rv)
    assert ei.value.kind == "MincutTooSmall"


def test_json_round_trips():
    ang = as_angulation(I.cube(), 4)
    s = even_schnyder_of(ang)
    rs = E.lambda_(s)
    rs2 = E.ReducedSchnyderDecomposition.from_json_obj(rs.to_json_obj(), ang)
    assert rs2.masks == rs.masks
    rrd = E.lambda_star(D.chi(s))
    rrd2 = E.ReducedRegularDecomposition.from_json_obj(
        rrd.to_json_obj(), rrd.host, primal=ang)
    assert rrd2.masks == rrd.masks
    with pytest.raises(EvenError):
        E.ReducedSchnyderDecomposition.from_json_obj(s.to_json_obj(), ang)

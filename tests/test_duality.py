import pytest

from schnyder_kit.errors import DualityError
from schnyder_kit.planar_map import as_angulation
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D

import instances as I
from oracles import (
    chi_by_complemented_trees, enumerate_angulations, isomorphic,
    sufficiency_violations,
)


def corpus():
    return [as_angulation(I.tetrahedron(), 3),
            as_angulation(I.octahedron(), 3),
            as_angulation(I.cube(), 4),
            as_angulation(I.dodecahedron(), 5)]


def labelling_of(ang):
    return S.psi_inverse(O.compute_dd2_orientation(ang))


def test_dualize_root_face_correspondence():
    for ang in corpus():
        rv = D.dualize(ang)
        assert len(rv.root_darts) == ang.d
        for i, u in enumerate(ang.external):
            assert rv.root_faces[i] == D.dual_face_of_vertex(ang, rv, u)


def test_dual_labelling_round_trip():
    for ang in corpus():
        l = labelling_of(ang)
        r = D.dual_labelling(l)
        assert D.validate_regular_labelling(r) == []
        assert S.validate_labelling(D.primal_labelling(r)) == []
        assert D.primal_labelling(r).colors == l.colors


def test_dual_labelling_over_lattice():
    ang = as_angulation(I.cube(), 4)
    for o in O.lattice_enumerate(ang):
        l = S.psi_inverse(o)
        r = D.dual_labelling(l)
        assert D.validate_regular_labelling(r) == []
        assert D.primal_labelling(r).colors == l.colors


def test_xi_round_trip():
    for ang in corpus():
        r = D.dual_labelling(labelling_of(ang))
        rd = D.xi(r)
        assert D.validate_regular_decomposition(rd) == []
        back = D.xi_inverse(rd)
        assert back.colors == r.colors
        assert sufficiency_violations(back) == []


def test_chi_equals_corner_route():
    # commuting square: complemented-dual chi against the corner-transfer route
    for ang in corpus():
        s = S.phi(labelling_of(ang))
        via_corners = D.xi(D.dual_labelling(S.phi_inverse(s)))
        assert D.chi(s).masks == via_corners.masks


def _assert_chi_and_phi_inverse_match_their_oracles(s):
    assert D.chi(s).masks == chi_by_complemented_trees(s).masks
    assert S.phi_inverse(s).colors == S.psi_inverse(S.gamma(s)).colors


@pytest.mark.parametrize("d, max_faces", [(3, 7), (4, 6), (5, 5), (6, 5)])
def test_read_off_matches_the_oracles_on_every_lattice(d, max_faces):
    """chi and phi_inverse read the corner colors off the masks; the
    complemented-tree BFS and the Gamma/Psi^-1 route must agree on every
    lattice element of every girth-d d-angulation, the bare d-cycle too."""
    angs = [as_angulation(m, d) for m in enumerate_angulations(d, max_faces)]
    assert any(ang.map.n_faces == 2 for ang in angs)
    for ang in angs:
        for o in O.lattice_enumerate(ang):
            _assert_chi_and_phi_inverse_match_their_oracles(
                S.phi(S.psi_inverse(o)))


def test_read_off_matches_the_oracles_on_small_pairs(small_pairs):
    for pairs in small_pairs.values():
        for _, s in pairs:
            _assert_chi_and_phi_inverse_match_their_oracles(s)


def test_table_equality_compares_the_host_map_by_identity():
    """Tables from separate dualize calls agree on their masks but are not
    equal, since each call builds its own PlaneMap; on one host, equal
    entries make equal tables whatever their primal view."""
    ang = as_angulation(I.cube(), 4)
    s = S.phi(labelling_of(ang))
    rd1, rd2 = D.chi(s), D.chi(s)
    assert rd1.masks == rd2.masks
    assert rd1.host.map is not rd2.host.map
    assert rd1 != rd2
    assert rd1 == D.RegularDecomposition(host=rd1.host, masks=rd1.masks)
    assert s == S.SchnyderDecomposition(host=ang, masks=s.masks, primal=ang)


def test_chi_round_trip():
    for ang in corpus():
        s = S.phi(labelling_of(ang))
        rd = D.chi(s)
        assert D.validate_regular_decomposition(rd) == []
        assert S.validate_schnyder(D.chi_inverse(rd)) == []
        assert D.chi_inverse(rd).masks == s.masks


def test_complemented_dual_edge_sets():
    # edges of tree i in the dual = duals of primal edges not in T_i
    for ang in corpus():
        m = ang.map
        s = S.phi(labelling_of(ang))
        rd = D.chi(s)
        for i in range(1, ang.d + 1):
            t_i = {m.edge(h) for h in s.arcs_of_color(i)}
            t_i.update(ang.external_edge_ids)
            t_i.discard(m.edge(ang.outer_orbit[i - 1]))
            dual_tree = {m.edge(h) for h in rd.arcs_of_color(i)}
            assert dual_tree == set(m.edges()) - t_i
            assert len(dual_tree) == rd.host.map.n_vertices - 1


def test_dual_edge_colors_are_missing_colors():
    for ang in corpus():
        m = ang.map
        d = ang.d
        full = (1 << d) - 1
        s = S.phi(labelling_of(ang))
        rd = D.chi(s)
        for h in ang.internal_edges():
            missing = full & ~(s.masks[h] | s.masks[m.twin[h]])
            assert rd.masks[h] | rd.masks[m.twin[h]] == missing
        for i in range(1, d + 1):
            e = ang.outer_orbit[i - 1]
            assert rd.masks[e] | rd.masks[m.twin[e]] == 1 << (i - 1)


def test_tetrahedron_three_dual_trees():
    ang = as_angulation(I.tetrahedron(), 3)
    rd = D.chi(S.phi(labelling_of(ang)))
    dm = rd.host.map
    assert isomorphic(ang.map, dm)  # self-dual
    for i in (1, 2, 3):
        arcs = rd.arcs_of_color(i)
        assert len(arcs) == dm.n_vertices - 1
        assert {dm.origin[h] for h in arcs} == set(rd.host.non_root_vertices())


def test_root_edges_colored_toward_root():
    for ang in corpus():
        rd = D.chi(S.phi(labelling_of(ang)))
        rv = rd.host
        for i, e in enumerate(rv.root_darts, start=1):
            assert rd.masks[e] == 0
            assert rd.dart_colors(rv.map.twin[e]) == [i]


def test_xi_inverse_rejects_cyclic_color_class():
    ang = as_angulation(I.cube(), 4)
    rd = D.chi(S.phi(labelling_of(ang)))
    rv = rd.host
    f = next(f for f in rv.non_root_faces()
             if all(rv.map.origin[h] != rv.root_vertex for h in rv.map.faces[f]))
    masks = list(rd.masks)
    for h in rv.map.faces[f]:  # a directed contour all of one color
        masks[h] = 1
    bad = D.RegularDecomposition(host=rv, masks=tuple(masks), primal=ang)
    assert D.validate_regular_decomposition(bad) != []
    with pytest.raises(DualityError):
        D.xi_inverse(bad)


def test_validator_catches_swapped_arcs():
    ang = as_angulation(I.dodecahedron(), 5)
    rd = D.chi(S.phi(labelling_of(ang)))
    rv = rd.host
    v = rv.non_root_vertices()[0]
    orbit = rv.map.vertex_orbit(v)
    masks = list(rd.masks)
    masks[orbit[0]], masks[orbit[1]] = masks[orbit[1]], masks[orbit[0]]
    bad = D.RegularDecomposition(host=rv, masks=tuple(masks), primal=ang)
    assert any(k == "iii" for k, _, _ in D.validate_regular_decomposition(bad))


def test_degenerate_cycle_dual():
    ang = as_angulation(I.square_cycle(), 4)
    s = S.phi(labelling_of(ang))
    rd = D.chi(s)
    assert D.validate_regular_decomposition(rd) == []
    for i in range(1, 5):
        assert len(rd.arcs_of_color(i)) == 1  # two dual vertices: one-edge trees
    assert D.chi_inverse(rd).masks == s.masks


def test_json_round_trips():
    ang = as_angulation(I.cube(), 4)
    r = D.dual_labelling(labelling_of(ang))
    r2 = D.RegularLabelling.from_json_obj(r.to_json_obj(), r.host, primal=ang)
    assert r2.colors == r.colors
    rd = D.xi(r)
    rd2 = D.RegularDecomposition.from_json_obj(rd.to_json_obj(), rd.host, primal=ang)
    assert rd2.masks == rd.masks
    with pytest.raises(DualityError):
        D.RegularLabelling.from_json_obj({"corner_colors": []}, r.host)

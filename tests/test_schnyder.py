import random

import pytest

from schnyder_kit.errors import SchnyderError
from schnyder_kit.planar_map import as_angulation
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S

import instances as I
from oracles import (
    _parents, _path_end, brute_force_dd2, flood_fill_d_circuits,
    labelling_push, left_faces,
)


def angulations():
    return [as_angulation(I.tetrahedron(), 3),
            as_angulation(I.cube(), 4),
            as_angulation(I.dodecahedron(), 5)]


def small_angulations():
    return [as_angulation(I.tetrahedron(), 3), as_angulation(I.cube(), 4)]


def test_validators_pass_on_constructed_instances():
    for ang in angulations():
        o = O.compute_dd2_orientation(ang)
        l = S.psi_inverse(o)
        assert S.validate_labelling(l) == []
        assert S.validate_schnyder(S.phi(l)) == []


def test_validator_catches_corruption():
    ang = as_angulation(I.cube(), 4)
    l = S.psi_inverse(O.compute_dd2_orientation(ang))
    # wrong color at a corner of u_1
    u1 = ang.external[0]
    bad = list(l.colors)
    bad[ang.map.vertex_darts[u1]] = 2
    viol = S.validate_labelling(S.CornerLabelling(host=ang, colors=tuple(bad)))
    assert any(v[0] == "ii" for v in viol)
    assert len(viol) > 1  # reports all violations, not just the first
    short = S.SchnyderDecomposition(host=ang, masks=(1,))
    assert [v[:2] for v in S.validate_schnyder(short)] == [("malformed", None)]


def test_validator_messages_name_the_broken_path():
    """A color-1 arc v -> w turned into a 2-cycle by giving w the arc back
    to v, and a removed color-1 arc, are reported at the internal vertices
    whose paths they break, each with its break named."""
    ang = as_angulation(I.cube(), 4)
    s = S.phi(S.psi_inverse(O.compute_dd2_orientation(ang)))
    m = ang.map
    internal = ang.internal_vertices()
    h = next(h for h in s.arcs_of_color(1) if m.target_of[h] in internal)
    v, w = m.origin[h], m.target_of[h]
    g = next(g for g in m.vertex_orbit(w) if s.masks[g] & 1)
    masks = list(s.masks)
    masks[g], masks[m.twin[h]] = masks[m.twin[h]], masks[g]
    got = S.validate_schnyder(S.SchnyderDecomposition(host=ang,
                                                      masks=tuple(masks)))
    for x in (v, w):
        assert ("ii", x, f"color 1: the path from {x} runs into a cycle") \
            in got
    masks = list(s.masks)
    masks[h] &= ~1
    got = S.validate_schnyder(S.SchnyderDecomposition(host=ang,
                                                      masks=tuple(masks)))
    assert ("ii", v, f"color 1: no outgoing arc at internal {v}") in got


def test_psi_round_trip_full_lattice():
    for ang in small_angulations():
        for o in O.lattice_enumerate(ang):
            l = S.psi_inverse(o)
            assert S.psi(l).values == o.values
            assert S.psi_inverse(S.psi(l)).colors == l.colors


def test_jump_sums():
    for ang in angulations():
        d = ang.d
        m = ang.map
        l = S.psi_inverse(O.compute_dd2_orientation(ang))
        for e in ang.internal_edges():
            assert (S.clockwise_jump(l, e) + S.clockwise_jump(l, m.twin[e])) == d - 2
        for v in ang.internal_vertices():
            assert sum(S.clockwise_jump(l, h) for h in m.vertex_orbit(v)) == d
        for v in ang.external:
            assert sum(S.clockwise_jump(l, h) % d for h in m.vertex_orbit(v)
                       if not ang.is_external_edge(h)) == 0


def test_phi_gamma_commute_with_psi():
    for ang in angulations():
        o0 = O.compute_dd2_orientation(ang)
        for o in (o0, O.minimal_orientation(o0)):
            l = S.psi_inverse(o)
            s = S.phi(l)
            assert S.gamma(s).values == S.psi(l).values
            assert S.phi_inverse(s).colors == l.colors


def test_dart_color_count_equals_jump():
    ang = as_angulation(I.dodecahedron(), 5)
    l = S.psi_inverse(O.compute_dd2_orientation(ang))
    s = S.phi(l)
    for h in ang.internal_darts():
        assert len(s.dart_colors(h)) == S.clockwise_jump(l, h)


def test_span_mask_is_the_cyclic_range():
    for d in range(3, 9):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                span = [(i - 1 + t) % d + 1 for t in range((j - i) % d)]
                assert S._span_mask(i, j, d) == S.mask_of(span, d), (i, j, d)


def test_phi_returns_on_colors_outside_1_to_d():
    """Phi checks nothing, like gamma, but returns d-bit masks on any
    corner colors: the cube's labelling with an internal corner of color
    0, and cube_plus's with two corners recolored in 0..d+1, 60 times."""
    def labelling(host):
        ang = as_angulation(host, 4)
        return ang, list(S.psi_inverse(O.compute_dd2_orientation(ang)).colors)

    ang, colors = labelling(I.cube())
    internal = set(ang.internal_vertices())
    colors[next(h for h, v in enumerate(ang.map.origin) if v in internal)] = 0
    cases = [(ang, colors)]
    rng = random.Random(33)
    ang, plus = labelling(I.cube_plus())
    for _ in range(60):
        colors = list(plus)
        for h in rng.sample(range(len(colors)), 2):
            colors[h] = rng.randint(0, 5)
        cases.append((ang, colors))
    for ang, colors in cases:
        s = S.phi(S.CornerLabelling(host=ang, colors=tuple(colors)))
        assert all(0 <= mk < 1 << 4 for mk in s.masks)


def test_triple_bijection_counts():
    # |L| = |S| = |O|, with |O| independently brute forced
    for ang in small_angulations():
        lat = O.lattice_enumerate(ang)
        brute = brute_force_dd2(ang)
        labellings = {S.psi_inverse(o).colors for o in lat}
        decomps = {S.phi(S.psi_inverse(o)).masks for o in lat}
        assert len(lat) == len(brute) == len(labellings) == len(decomps)


def test_phi_inverse_rejects_invalid():
    ang = as_angulation(I.cube(), 4)
    s = S.phi(S.psi_inverse(O.compute_dd2_orientation(ang)))
    masks = list(s.masks)
    h = ang.internal_edges()[0]
    masks[h] = 0
    masks[ang.map.twin[h]] = 0  # edge now has 0 colors, not d-2
    with pytest.raises(SchnyderError):
        S.phi_inverse(S.SchnyderDecomposition(host=ang, masks=tuple(masks)))


def test_labelling_push_commutes():
    ang = as_angulation(I.cube(), 4)
    for o in O.lattice_enumerate(ang):
        l = S.psi_inverse(o)
        for trav in flood_fill_d_circuits(o)[0]:
            assert S.psi(labelling_push(l, trav)).values == \
                O.push_cycle(o, trav).values


def test_push_d_times_is_identity():
    # the raw mod-d interior increment applied d times is the identity
    ang = as_angulation(I.cube(), 4)
    for o in O.lattice_enumerate(ang):
        l = S.psi_inverse(o)
        for trav in flood_fill_d_circuits(o)[0]:
            interior = left_faces(ang.map, trav)
            colors = list(l.colors)
            for _ in range(ang.d):
                colors = [S._mod(c + 1, ang.d)
                          if ang.map.face_of[ang.map.next_cw[h]] in interior else c
                          for h, c in enumerate(colors)]
            assert tuple(colors) == l.colors


def test_push_rejects_non_admissible():
    ang = as_angulation(I.cube(), 4)
    o = O.minimal_orientation(O.compute_dd2_orientation(ang))
    l = S.psi_inverse(o)
    # at the minimum there is no ccw circuit: take an internal face orbit,
    # which is a ccw traversal but must have a zero jump somewhere
    m = ang.map
    f = next(f for f in range(m.n_faces) if f != m.outer_face and
             all(not ang.is_external_edge(h) for h in m.faces[f]))
    with pytest.raises(SchnyderError):
        labelling_push(l, m.faces[f])


def test_forest_paths():
    """The color-i path from every internal vertex of a valid decomposition
    ends at an external vertex other than u_i and u_{i+1}."""
    for ang in angulations():
        s = S.phi(S.psi_inverse(O.compute_dd2_orientation(ang)))
        for i in range(1, ang.d + 1):
            up = _parents(s, i)
            for v in ang.internal_vertices():
                end = _path_end(up, v)
                assert end in ang.external
                assert ang.external.index(end) + 1 not in (i, i % ang.d + 1)


def test_degenerate_cycle_angulation():
    # the bare 4-cycle: every structure is empty
    ang = as_angulation(I.square_cycle(), 4)
    o = O.compute_dd2_orientation(ang)
    l = S.psi_inverse(o)
    assert S.validate_labelling(l) == []
    s = S.phi(l)
    assert all(mk == 0 for mk in s.masks)
    assert S.phi_inverse(s).colors == l.colors


def test_json_round_trips():
    ang = as_angulation(I.cube(), 4)
    l = S.psi_inverse(O.compute_dd2_orientation(ang))
    assert S.CornerLabelling.from_json_obj(l.to_json_obj(), ang).colors == l.colors
    s = S.phi(l)
    assert S.SchnyderDecomposition.from_json_obj(s.to_json_obj(), ang).masks == s.masks

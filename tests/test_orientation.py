import random

import pytest

from schnyder_kit.errors import OrientationError
from schnyder_kit.planar_map import as_angulation
import schnyder_kit.orientation as O

import instances as I
from oracles import (
    brute_force_dd2, brute_force_orientations, flood_fill_d_circuits,
)


def tetra():
    return as_angulation(I.tetrahedron(), 3)


def cube():
    return as_angulation(I.cube(), 4)


def test_tetrahedron_forced_orientation():
    o = O.compute_dd2_orientation(tetra())
    assert o.k == 1
    inner = tetra().internal_vertices()[0]
    assert o.outdegree(inner) == 3
    for v in tetra().external:
        assert o.outdegree(v) == 0
    o.validate()


def test_alpha_k_infeasible_certificate():
    # cube with alpha demanding too little at the internal vertices
    c = cube()
    m = c.map
    alpha = [0] * m.n_vertices
    ivs = c.internal_vertices()
    # sum(alpha) == k|E| but one vertex starved: internal quad needs 1 per
    # vertex at k=1 on its 4 inner-square edges... use k=1, all 8 internal
    # edges, alpha = 3,3,1,1 on internal vertices (sum 8 = k|E|), but the
    # inner 4-cycle S has |E_S| = 4 and alpha-sum possibly < 4.
    alpha[ivs[0]] = 3
    alpha[ivs[1]] = 3
    alpha[ivs[2]] = 1
    alpha[ivs[3]] = 1
    with pytest.raises(OrientationError) as ei:
        O.compute_alpha_k_orientation(m, c.internal_edges(), alpha, 1)
    assert ei.value.kind == "NoSolution"
    cert = ei.value.certificate
    if cert is not None:
        cs = set(cert)
        inner = sum(1 for e in c.internal_edges()
                    if m.origin[e] in cs and m.target(e) in cs)
        assert sum(alpha[v] for v in cert) < 1 * inner


def test_alpha_sum_mismatch():
    c = cube()
    alpha = [1] * c.map.n_vertices  # sum 8 != k|E| = 16
    with pytest.raises(OrientationError) as ei:
        O.compute_alpha_k_orientation(c.map, c.internal_edges(), alpha, 2)
    assert ei.value.kind == "NoSolution"


def test_girth_too_small():
    g2 = as_angulation(I.girth2_quadrangulation(), 4)
    with pytest.raises(OrientationError) as ei:
        O.compute_dd2_orientation(g2)
    assert ei.value.kind == "GirthTooSmall"
    with pytest.raises(OrientationError):
        O.compute_p_p1_orientation(g2)


def test_odd_d_rejected():
    with pytest.raises(OrientationError) as ei:
        O.compute_p_p1_orientation(tetra())
    assert ei.value.kind == "OddD"


def test_p_p1_and_doubling():
    c = cube()
    o = O.compute_p_p1_orientation(c)
    o.validate()
    assert o.k == 1
    d = O.double(o)
    d.validate()
    assert d.k == 2
    assert O.is_even(d)
    assert not O.is_even(O.compute_dd2_orientation(tetra()))


def test_dodecahedron_5_3_orientation():
    dod = as_angulation(I.dodecahedron(), 5)
    o = O.compute_dd2_orientation(dod)
    o.validate()
    assert o.k == 3
    for v in dod.internal_vertices():
        assert o.outdegree(v) == 5


def test_flow_meets_alpha_without_a_certificate(study_corpus):
    """compute_alpha_k_orientation does not check its own result: on every
    study-corpus map, the outdegrees of the d/(d-2)- and (for d = 4)
    2/1-orientations, and of a random k-orientation of the internal edges
    for k = 1, 2, 3, are met exactly, with each edge summing to k."""
    rng = random.Random(5)
    for ang in [a for angs in study_corpus.values() for a in angs]:
        m = ang.map
        edges = ang.internal_edges()
        for k in (1, 2, 3):
            vals = [-1] * m.n_darts
            for e in edges:
                vals[e] = rng.randint(0, k)
                vals[m.twin[e]] = k - vals[e]
            o = O.FracOrientation(map=m, k=k, values=tuple(vals))
            alpha = [o.outdegree(v) for v in range(m.n_vertices)]
            O.compute_alpha_k_orientation(m, edges, alpha, k).validate(alpha)
        internal = set(ang.internal_vertices())
        O.compute_dd2_orientation(ang).validate(
            [ang.d * (v in internal) for v in range(m.n_vertices)])
        if ang.d == 4:
            O.compute_p_p1_orientation(ang).validate(
                [2 * (v in internal) for v in range(m.n_vertices)])


def test_push_preserves_outdegrees():
    c = cube()
    for o in O.lattice_enumerate(c):
        for trav in O.find_ccw_d_circuits(o):
            o2 = O.push_cycle(o, trav)
            o2.validate()
            for v in range(c.map.n_vertices):
                assert o2.outdegree(v) == o.outdegree(v)
            # pushing back up restores the original
            back = tuple(c.map.twin[h] for h in reversed(trav))
            assert O.push_cycle(o2, back).values == o.values


def _checked_ccw_circuits(o):
    """find_ccw_d_circuits(o), once both scans match the oracle's lists."""
    circuits = O.find_ccw_d_circuits(o)
    assert circuits == flood_fill_d_circuits(o, ccw=True)
    assert O.find_cw_d_circuits(o) == flood_fill_d_circuits(o, ccw=False)
    return circuits


def test_circuit_scan_matches_flood_fill_oracle(study_corpus):
    """The scan that tests dart values before the side lists the same
    circuits in the same order as flood-filling every d-cycle: on every
    lattice element of the study corpus, and at every step of the walk
    down to the minimum on concentric quadrangulations, whose nested
    4-cycles separate."""
    elements = circuits = 0
    for angs in study_corpus.values():
        for ang in angs:
            for o in O.lattice_enumerate(ang):
                circuits += len(_checked_ccw_circuits(o))
                elements += 1
    assert elements == 1154 and circuits == 1130
    for k in (4, 6):
        ang = as_angulation(I.concentric_quadrangulation(k), 4)
        o = O.compute_dd2_orientation(ang)
        pushes = 0
        while circuits := _checked_ccw_circuits(o):
            o = O.push_cycle(o, circuits[0])
            pushes += 1
        assert pushes > 0
        assert o.values == O.minimal_orientation(ang).values


def test_push_rejects_non_circuit():
    o = O.minimal_orientation(cube())
    with pytest.raises(OrientationError):
        O.push_cycle(o, (0, 5))


def test_minimal_orientation_start_independent():
    c = cube()
    lat = O.lattice_enumerate(c)
    mins = {O.minimal_orientation(o).values for o in lat}
    assert len(mins) == 1
    m0 = O.minimal_orientation(c)
    assert O.find_ccw_d_circuits(m0) == []
    assert O.minimal_orientation(m0).values == m0.values  # idempotent


def test_lattice_counts_match_brute_force():
    for ang in (tetra(), cube()):
        assert len(O.lattice_enumerate(ang)) == len(brute_force_dd2(ang))
    # lattice output is closed under ccw pushes and contains the minimum
    c = cube()
    lat = {o.values for o in O.lattice_enumerate(c)}
    assert O.minimal_orientation(c).values in lat
    for o in O.lattice_enumerate(c):
        for trav in O.find_ccw_d_circuits(o):
            assert O.push_cycle(o, trav).values in lat


def test_two_orientation_lattice_cube():
    c = cube()
    n2 = len(brute_force_orientations(c, 2, 1))
    assert n2 == 2  # frozen from the exhaustive oracle
    o = O.compute_p_p1_orientation(c)
    # push saturation inside the 2-orientation lattice also works
    o_min = O.minimal_orientation(o)
    assert O.find_ccw_d_circuits(o_min) == []


def test_explosion_guard():
    with pytest.raises(OrientationError) as ei:
        O.lattice_enumerate(cube(), cap=1)
    assert ei.value.kind == "ExplosionGuard"


def test_json_round_trip():
    c = cube()
    o = O.compute_dd2_orientation(c)
    o2 = O.FracOrientation.from_json_obj(o.to_json_obj(), c.map, host=c)
    assert o2.values == o.values and o2.k == o.k

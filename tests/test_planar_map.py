import json
import random

import pytest

from schnyder_kit.errors import MapError
import schnyder_kit.planar_map as P
from schnyder_kit.planar_map import (
    PlaneMap, add_edges, as_angulation, as_regular, build_map, shortest_cycle,
)

import instances as I
from oracles import (
    edge_by_edge_girth, isomorphic, mincut_at_least, rooted_code,
)


ALL_MAPS = [I.tetrahedron, I.cube, I.octahedron, I.dodecahedron,
            I.square_cycle, I.girth2_quadrangulation, I.path_map]


@pytest.mark.parametrize("make", ALL_MAPS)
def test_basic_invariants(make):
    m = make()
    n = m.n_darts
    for d in range(n):
        assert m.twin[m.twin[d]] == d
        assert m.twin[d] != d
    assert sum(m.face_degree(f) for f in range(m.n_faces)) == 2 * m.n_edges
    assert sum(len(m.vertex_orbit(v))
               for v in range(m.n_vertices)) == 2 * m.n_edges
    assert m.n_vertices - m.n_edges + m.n_faces == 2
    # face orbits partition darts
    assert sorted(d for orbit in m.faces for d in orbit) == list(range(n))


def test_build_map_counts():
    t = I.tetrahedron()
    assert (t.n_vertices, t.n_edges, t.n_faces) == (4, 6, 4)
    c = I.square_cycle()
    assert c.n_faces == 2


def test_euler_violation():
    # torus-like gluing: one vertex, two edges... loops are rejected first,
    # so use a 2-vertex, 4-edge gadget whose rotations force genus 1.
    # K2 with 4 parallel edges: rotations (a: 0,2,4,6), (b: 1,3,5,7)
    # planar would need f = 4; interleave rotations to kill faces.
    rot_a = [0, 2, 4, 6]
    rot_b = [1, 3, 5, 7]
    with pytest.raises(MapError) as ei:
        build_map([rot_a, rot_b], outer_dart=0)
    assert ei.value.kind in ("EulerViolation",)


def test_disconnected_rejected():
    # two disjoint digons
    rot = [[0, 2], [1, 3], [4, 6], [5, 7]]
    with pytest.raises(MapError) as ei:
        build_map(rot, outer_dart=0)
    assert ei.value.kind == "Disconnected"


def test_loop_rejected():
    with pytest.raises(MapError):
        PlaneMap([1, 0], [1, 0], [0, 0], outer_dart=0)


def test_dual_involution_and_degrees():
    c = I.cube()
    oc = c.dual()
    assert (oc.n_vertices, oc.n_edges, oc.n_faces) == (6, 12, 8)
    assert all(len(oc.vertex_orbit(v)) == 4 for v in range(oc.n_vertices))
    assert isomorphic(oc.dual(), c)
    t = I.tetrahedron()
    assert isomorphic(t.dual(), t)
    d = I.dodecahedron()
    ico = d.dual()
    assert all(len(ico.vertex_orbit(v)) == 5 for v in range(ico.n_vertices))
    assert isomorphic(ico.dual(), d)


def test_dual_root_vertex_is_outer_face():
    c = I.cube()
    oc = c.dual()
    assert oc.root_vertex == c.outer_face


def test_girth():
    assert I.tetrahedron().girth() == 3
    assert I.cube().girth() == 4
    assert I.dodecahedron().girth() == 5
    assert I.girth2_quadrangulation().girth() == 2
    with pytest.raises(MapError) as ei:
        I.path_map().girth()
    assert ei.value.kind == "Acyclic"


def test_girth_runs_its_bfs_once_per_map(monkeypatch):
    calls = []
    bfs = P.shortest_cycle
    monkeypatch.setattr(P, "shortest_cycle",
                        lambda *args: calls.append(1) or bfs(*args))
    cube, path = I.cube(), I.path_map()
    assert [cube.girth() for _ in range(3)] == [4, 4, 4]
    for _ in range(2):
        with pytest.raises(MapError):
            path.girth()
    assert len(calls) == 2


def test_shortest_cycle_matches_edge_by_edge_girth():
    # random multigraphs with loops and parallel edges: the search from
    # every vertex gives the girth, or one more than the vertex count
    rng = random.Random(5)
    for _ in range(400):
        nv = rng.randint(1, 9)
        edges = []
        while rng.random() < 0.85:
            edges.append((rng.randrange(nv), rng.randrange(nv)))
        adj = [[] for _ in range(nv)]
        add_edges(adj, edges)
        assert shortest_cycle(adj) == \
            (edge_by_edge_girth(nv, edges) or nv + 1)


def test_mincut_at_least():
    o = I.octahedron()
    assert mincut_at_least(o, 4)
    assert not mincut_at_least(o, 5)
    assert mincut_at_least(I.square_cycle(), 2)
    assert not mincut_at_least(I.square_cycle(), 3)
    assert not mincut_at_least(I.path_map(), 2)


def test_as_angulation():
    av = as_angulation(I.tetrahedron(), 3)
    assert len(av.external) == 3
    av4 = as_angulation(I.cube(), 4)
    assert len(av4.external) == 4
    assert len(av4.internal_edges()) == 8
    assert len(av4.internal_vertices()) == 4
    with pytest.raises(MapError) as ei:
        as_angulation(I.cube(), 3)
    assert ei.value.kind == "NotDAngulation"


def test_as_angulation_external_clockwise():
    # the outer orbit must walk the outer face with it on the left, i.e. the
    # external vertices in clockwise order as drawn; for the explicit cube
    # coords (vertex i at angle 45+90i) that means descending angles.
    av = as_angulation(I.cube(), 4)
    u = list(av.external)
    i = u.index(0)
    assert [u[(i + k) % 4] for k in range(4)] == [0, 3, 2, 1]


def test_as_regular():
    o = I.octahedron()
    rv = as_regular(o, 4, root=0)
    assert len(rv.root_darts) == 4
    assert all(o.origin[h] == 0 for h in rv.root_darts)
    # e_i* between f_i* and f_{i+1}*: face left of e_i* is f_{i+1}*
    for i in range(4):
        assert o.face_of[rv.root_darts[i]] == rv.root_faces[(i + 1) % 4]
    with pytest.raises(MapError) as ei:
        as_regular(I.cube(), 4, root=0)
    assert ei.value.kind == "NotDRegular"


def test_angulation_edge_face_relation():
    for make, d in [(I.tetrahedron, 3), (I.cube, 4), (I.dodecahedron, 5)]:
        m = make()
        assert d * m.n_faces == 2 * m.n_edges
        v, e = m.n_vertices, m.n_edges
        # (e - d) * (d - 2) = d * (v - d)   <=>   (e-d)/(v-d) = d/(d-2)
        assert (e - d) * (d - 2) == d * (v - d)


def test_json_round_trip():
    for make in ALL_MAPS:
        m = make()
        m2 = PlaneMap.from_json_obj(json.loads(json.dumps(m.to_json_obj())))
        assert m2.twin == m.twin
        assert m2.next_cw == m.next_cw
        assert m2.origin == m.origin
        assert m2.outer_dart == m.outer_dart


def test_rooted_canonical_code():
    c1 = I.cube()
    c2 = I.cube()
    assert rooted_code(c1) == rooted_code(c2)
    assert not isomorphic(I.cube(), I.octahedron())


def test_bipartition():
    c = I.cube()
    av = as_angulation(c, 4)
    col = c.bipartition_from(av.external[0])
    assert col[av.external[0]] is True
    for h in c.edges():
        assert col[c.origin[h]] != col[c.target(h)]
    with pytest.raises(MapError):
        I.tetrahedron().bipartition_from(0)

"""Hand-built test maps.

Instances are constructed from explicit planar straight-line coordinates:
clockwise rotations come from sorting darts by decreasing angle, and the
outer face is detected as the unique face orbit with negative signed area.
"""

import functools
import importlib.util
import math
import pathlib

from schnyder_kit.planar_map import PlaneMap, build_map


def map_from_coords(coords, edge_list, outer_dart=None, root_vertex=None):
    """Build a PlaneMap from vertex coordinates and an edge list.

    Darts 2i and 2i+1 are the two halves of edge_list[i] (2i leaves the first
    endpoint).  If outer_dart is None the outer face is found geometrically.
    """
    nv = len(coords)
    darts_at = [[] for _ in range(nv)]
    origin = []
    for i, (u, v) in enumerate(edge_list):
        origin += [u, v]
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)

    def angle(d):
        u = origin[d]
        w = origin[d ^ 1]
        return math.atan2(coords[w][1] - coords[u][1], coords[w][0] - coords[u][0])

    rotations = []
    for v in range(nv):
        rotations.append(sorted(darts_at[v], key=angle, reverse=True))

    m = build_map(rotations, outer_dart=0, root_vertex=root_vertex)
    if outer_dart is None:
        outer_dart = _find_outer_dart(m, coords)
    if outer_dart != 0:
        m = PlaneMap(m.twin, m.next_cw, m.origin, outer_dart,
                     root_vertex=root_vertex)
    return m


def _find_outer_dart(m, coords):
    best = None
    for f, orbit in enumerate(m.faces):
        pts = [coords[m.origin[h]] for h in orbit]
        area = 0.0
        for i in range(len(pts)):
            x1, y1 = pts[i]
            x2, y2 = pts[(i + 1) % len(pts)]
            area += x1 * y2 - x2 * y1
        if best is None or area < best[0]:
            best = (area, orbit[0])
    return best[1]


def dual_face_of_vertex(ang, rv, v):
    """The face of the dual rv of ang that the primal vertex v sits in."""
    h = ang.map.twin[ang.map.vertex_darts[v]]  # a dart pointing at v
    return rv.map.face_of[h]


def _ring(n, radius, phase_deg):
    return [(radius * math.cos(math.radians(phase_deg + 360.0 * i / n)),
             radius * math.sin(math.radians(phase_deg + 360.0 * i / n)))
            for i in range(n)]


def tetrahedron():
    coords = _ring(3, 4.0, 90) + [(0.0, 0.0)]
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    return map_from_coords(coords, edges)


def cube():
    coords = _ring(4, 4.0, 45) + _ring(4, 1.5, 45)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    return map_from_coords(coords, edges)


def octahedron():
    # antipodal pairs (0,5), (1,4), (2,3)
    coords = _ring(3, 4.0, 90) + [(1.5 * math.cos(math.radians(a)),
                                   1.5 * math.sin(math.radians(a)))
                                  for a in (150, 30, 270)]
    edges = [(0, 1), (1, 2), (2, 0),
             (3, 4), (4, 5), (5, 3),
             (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]
    return map_from_coords(coords, edges)


def dodecahedron():
    # outer pentagon A, middle decagon M, inner pentagon D
    coords = (_ring(5, 6.0, 90)            # A_i -> 0..4
              + _ring(10, 3.0, 90)         # M_j -> 5..14
              + _ring(5, 1.2, 126))        # D_i -> 15..19
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
    for j in range(10):
        edges.append((5 + j, 5 + (j + 1) % 10))
    for i in range(5):
        edges.append((15 + i, 15 + (i + 1) % 5))
    for i in range(5):
        edges.append((i, 5 + 2 * i))
    for i in range(5):
        edges.append((15 + i, 5 + 2 * i + 1))
    return map_from_coords(coords, edges)


def cube_plus():
    """The cube quadrangulation with its inner face split by a degree-2
    vertex (vertex 8 joined to the opposite corners 4 and 6)."""
    coords = _ring(4, 4.0, 45) + _ring(4, 1.5, 45) + [(0.0, 0.0)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7),
             (8, 4), (8, 6)]
    return map_from_coords(coords, edges)


def lens_4_regular():
    """A 4-regular map with a 2-edge cut: vertices a=0, b=1 joined by three
    parallel edges, c=2, d=3 likewise, the two lenses joined by a-c and
    b-d."""
    rotations = [
        [12, 4, 2, 0],    # a: a-c then the three a-b arcs right to left
        [1, 3, 5, 14],    # b
        [13, 6, 8, 10],   # c
        [11, 9, 7, 15],   # d
    ]
    return build_map(rotations, outer_dart=1)


def concentric_quadrangulation(k):
    """k concentric 4-cycles joined by radial edges: a quadrangulation with
    4k vertices whose dual vertices all have degree 3 or 4."""
    coords = []
    for r in range(k):
        coords += _ring(4, 4.0 - 3.0 * r / k, 45)
    edges = []
    for r in range(k):
        for i in range(4):
            edges.append((4 * r + i, 4 * r + (i + 1) % 4))
    for r in range(k - 1):
        for i in range(4):
            edges.append((4 * r + i, 4 * (r + 1) + i))
    return map_from_coords(coords, edges)


def pseudo_double_wheel(m):
    """Cycle 0..2m-1 with an inner hub a=2m joined to the even vertices and
    an outer hub b=2m+1 joined to the odd ones: a quadrangulation with two
    degree-m vertices (2m+2 vertices, 4m edges, 2m faces)."""
    n_cycle = 2 * m
    rot = []
    for v in range(n_cycle):
        cyc_out = 2 * v
        cyc_in = 2 * ((v - 1) % n_cycle) + 1
        if v % 2 == 0:
            spoke = 2 * (n_cycle + v // 2) + 1
            rot.append([cyc_out, spoke, cyc_in])
        else:
            spoke = 2 * (n_cycle + m + v // 2) + 1
            rot.append([cyc_out, cyc_in, spoke])
    rot.append([2 * (n_cycle + i) for i in range(m)])
    rot.append([2 * (n_cycle + m + i) for i in reversed(range(m))])
    return build_map(rot, outer_dart=2 * (n_cycle + m))


def square_cycle():
    coords = _ring(4, 2.0, 45)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return map_from_coords(coords, edges)


def hexagon_cycle():
    coords = _ring(6, 2.0, 0)
    return map_from_coords(coords, [(i, (i + 1) % 6) for i in range(6)])


def girth2_quadrangulation():
    """A 4-angulation of girth 2.

    Vertices u=0, v=1 joined by two parallel edges (a left arc e and a right
    arc e'); the bigon region between them is subdivided by a path u-x-y-v,
    the outer region by a path u-a-b-v.  All four faces have degree 4, and
    the parallel pair is a 2-cycle.
    """
    # edges: e0=e(u,v) e1=e'(u,v) e2=(u,x) e3=(x,y) e4=(y,v)
    #        e5=(u,a) e6=(a,b) e7=(b,v); darts 2i / 2i+1
    rotations = [
        [10, 0, 4, 2],   # u: a, e, x, e'
        [15, 3, 9, 1],   # v: b, e', y, e
        [5, 6],          # x
        [7, 8],          # y
        [11, 12],        # a
        [13, 14],        # b
    ]
    return build_map(rotations, outer_dart=10)


def girth2_dangulation(d):
    """A d-angulation of girth 2, generalizing girth2_quadrangulation.

    Vertices u=0, v=1 joined by two parallel edges; the bigon between them
    is subdivided by a path through d-2 fresh vertices, and the outer region
    by another such path.  All four faces have degree d.
    """
    # edges 0,1: the parallel pair; edges 2..d: inner path u-x_1-..-x_{d-2}-v;
    # edges d+1..2d-1: outer path u-a_1-..-a_{d-2}-v
    rotations = [
        [2 * (d + 1), 0, 4, 2],                 # u
        [2 * (2 * d - 1) + 1, 3, 2 * d + 1, 1],  # v
    ]
    for i in range(1, d - 1):                   # inner path vertices
        rotations.append([2 * (i + 1) + 1, 2 * (i + 2)])
    for i in range(1, d - 1):                   # outer path vertices
        rotations.append([2 * (d + i) + 1, 2 * (d + i + 1)])
    return build_map(rotations, outer_dart=2 * (d + 1))


def path_map():
    """A path a-u-b as a map: one face of degree 4 (a degenerate
    '4-angulation' that is a tree)."""
    rotations = [[0, 2], [1], [3]]
    return build_map(rotations, outer_dart=0)


@functools.cache
def benchmark_hosts():
    """perfbench/hosts.py, loaded by path: the benchmark's own seeded host
    generators, so the tests build the maps that it times."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_hosts", pathlib.Path(__file__).parents[1] / "perfbench" /
        "hosts.py")
    hosts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hosts)
    return hosts


def _host_map(q):
    doc = benchmark_hosts().primal_document(q)
    return PlaneMap.from_json_obj(doc["map"])


def face_split_quadrangulation(n_faces, rng):
    """A random quadrangulation with n_faces faces, the outer one included:
    from a 4-cycle, n_faces - 2 times join a new vertex to two opposite
    corners of a random inner face.  It stays simple and bipartite, so its
    girth is 4 and its dual is 4-regular with mincut 4."""
    return _host_map(benchmark_hosts().face_split_quadrangulation(n_faces,
                                                                  rng))


def ringed_quadrangulation(rings, splits, rng):
    """rings concentric 4-cycles joined by spokes, the outer one the outer
    face, then splits random face splits as in face_split_quadrangulation:
    the hosts of the benchmark's orient-min workload, whose orientation
    lattice is tall."""
    return _host_map(benchmark_hosts().ringed_quadrangulation(rings, splits,
                                                              rng))

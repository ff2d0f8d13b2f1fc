"""Grid drawings of rooted 4-regular plane maps of mincut 4.

Given an even regular decomposition (T_1*..T_4*), every non-root vertex v is
placed at p(v) = (x(v), y(v)) where x(v) counts the non-root faces in the
region of P_1(v) + P_3(v) containing e_2*, and y(v) those in the region of
P_4(v) + P_2(v) containing e_1*.  Edges bend once at the intersection of the
rays from their endpoints; color 1 rays point down (-y), color 2 left (-x),
color 3 up (+y), color 4 right (+x).

Equivalently x and y are ranks along the two equatorial lines L_1 (from
v_2* to v_4*) and L_4 (from v_1* to v_3*), and on each line the vertices
before and after a non-root face are that face's x-markers (on L_1) or
y-markers (on L_4): the ends of its two special edges, which face_markers
parses from the face's arc-color pattern.  This module reads both lines off
the markers in linear time; the tests keep face counting as its oracle.
Compaction classifies faces by the same markers, parsed once per drawing and
carried on the GridDrawing.
Grid reduction, root completion and the SVG/JSON emitters round out the
pipeline; the planarity checks of a drawing live with the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace

from .errors import DrawingError
from .duality import RegularDecomposition
from .even import black_faces
from .schnyder import _mod


DIRECTIONS = {1: (0, -1), 2: (-1, 0), 3: (0, 1), 4: (1, 0)}


def _color(rd, h):
    mk = rd.masks[h]
    return mk.bit_length() if mk else None


# -- placement -------------------------------------------------------------

def marker_table(rd):
    """Non-root face f -> ((a, a', b, b'), (fx-, fx+, fy-, fy+)): each face's
    pattern parsed once by face_markers, for the placement and for the face
    classification."""
    rv = rd.host
    fb = black_faces(rv)
    table = {}
    for f in rv.non_root_faces():
        special = face_markers(rd, f, fb[f])
        table[f] = special, _xy_markers(*special, fb[f])
    return table


def place_by_equatorial_lines(rd, markers=None):
    """p(v) as (rank along L_1, rank along L_4); linear time.  Each non-root
    face links its fx- to its fx+ on L_1 and its fy- to its fy+ on L_4, so
    the two lines are the chains of these links from v_2* and from v_1*.
    markers is rd's marker_table, parsed here when not given."""
    rv = rd.host
    m = rv.map
    if markers is None:
        markers = marker_table(rd)
    next_x, next_y = {}, {}
    for f, (_, (fxm, fxp, fym, fyp)) in markers.items():
        if fxm in next_x or fym in next_y:
            raise DrawingError("InternalInvariantViolation",
                               f"face {f} repeats a marker of another face")
        next_x[fxm] = fxp
        next_y[fym] = fyp
    count = m.n_vertices - 1
    xs = _chain(next_x, m.target(rv.root_darts[1]), count, "L_1")
    ys = _chain(next_y, m.target(rv.root_darts[0]), count, "L_4")
    y = {v: t for t, v in enumerate(ys)}
    return {v: (t, y[v]) for t, v in enumerate(xs)}


def _chain(succ, start, count, name):
    """start, succ[start], ... up to a vertex without a successor: the line
    name, which must visit count distinct vertices."""
    seq = [start]
    while seq[-1] in succ and len(seq) <= count:
        seq.append(succ[seq[-1]])
    if len(seq) != count or len(set(seq)) != count:
        raise DrawingError("InternalInvariantViolation",
                           f"line {name} does not visit every non-root "
                           "vertex once")
    return seq


# -- the orthogonal drawing ------------------------------------------------

@dataclass(frozen=True)
class GridDrawing:
    decomposition: RegularDecomposition = field(compare=False)
    coords: dict
    bends: dict        # edge id -> bend point
    root_pos: tuple = None
    root_routes: tuple = None   # polyline per root edge e_1*..e_4*
    reduction: "ReductionChoice" = None
    markers: dict = field(default=None, compare=False)   # marker_table(rd)

    @property
    def host(self):
        return self.decomposition.host


def _bend_point(rd, coords, e):
    m = rd.host.map
    u, w = m.origin[e], m.target_of[e]
    i, j = _color(rd, e), _color(rd, m.twin[e])
    (xu, yu), (xw, yw) = coords[u], coords[w]
    if i in (1, 3):
        b = (xu, yw)
    else:
        b = (xw, yu)
    for (px, py), c in ((coords[u], i), (coords[w], j)):
        dx, dy = DIRECTIONS[c]
        if (b[0] - px) * dx + (b[1] - py) * dy <= 0 or \
                (b[0] - px) * dy != (b[1] - py) * dx:
            raise DrawingError("InternalInvariantViolation",
                               f"ray of color {c} misses the bend of edge {e}")
    return b


def orthogonal_drawing(rd, coords=None):
    """One-bend orthogonal drawing of G minus the root vertex."""
    rv = rd.host
    m = rv.map
    markers = marker_table(rd)
    if coords is None:
        coords = place_by_equatorial_lines(rd, markers)
    n = m.n_vertices
    if sorted(x for x, _ in coords.values()) != list(range(n - 1)) or \
            sorted(y for _, y in coords.values()) != list(range(n - 1)):
        raise DrawingError("InternalInvariantViolation",
                           "coordinates are not a grid permutation")
    root_ids = set(rv.root_edge_ids())
    bends = {}
    for e in m.edges():
        if e in root_ids:
            continue
        bends[e] = _bend_point(rd, coords, e)
    return GridDrawing(decomposition=rd, coords=dict(coords), bends=bends,
                       markers=markers)


# -- straight-line drawing -------------------------------------------------

def collapsed_edges(rv):
    """One representative edge per parallel class of non-root edges (faces of
    degree 2 emptied)."""
    m = rv.map
    root_ids = set(rv.root_edge_ids())
    seen = {}
    for e in m.edges():
        if e in root_ids:
            continue
        key = (min(m.origin[e], m.target(e)), max(m.origin[e], m.target(e)))
        seen.setdefault(key, e)
    return sorted(seen.values())


def straight_line_drawing(rd, coords=None):
    """Vertex placement plus the segment list of the collapsed simple graph,
    each edge drawn as the segment between its endpoints."""
    if coords is None:
        coords = place_by_equatorial_lines(rd)
    rv = rd.host
    m = rv.map
    segs = []
    for e in collapsed_edges(rv):
        u, w = m.origin[e], m.target(e)
        segs.append((coords[u], coords[w], ("v", u), ("v", w)))
    return dict(coords), segs


# -- face classification and grid reduction --------------------------------

@dataclass(frozen=True)
class FaceInfo:
    cls: str                      # non_reducible | partly_reducible | fully_reducible
    x: int                        # x(fx-): the column the face can remove
    y: int                        # y(fy-): the row it can remove


def face_markers(rd, f, is_black):
    """(a, a', b, b') of the two special edges of a non-root face, found from
    the clockwise arc-color pattern around it: the special edge (a, a') of
    colors (4, 3), a run of (2, 3) edges, the special edge (b, b') of colors
    (2, 1) and a run of (4, 1) edges, every color one less on white faces."""
    m = rd.host.map
    twin, masks = m.twin, rd.masks
    cw = m.face_corners(f)
    shift = 0 if is_black else -1
    # no dart of a non-root face touches v*, so every mask is one color
    pats = [(masks[g].bit_length(), masks[twin[g]].bit_length()) for g in cw]
    spec_a, run1, spec_b, run2 = ((_mod(i + shift, 4), _mod(j + shift, 4))
                                  for i, j in ((4, 3), (2, 3), (2, 1), (4, 1)))
    if pats.count(spec_a) != 1 or pats.count(spec_b) != 1:
        raise DrawingError("InternalInvariantViolation",
                           f"face {f} lacks unique special edges")
    ia, ib = pats.index(spec_a), pats.index(spec_b)
    k = (ib - ia) % len(cw)
    want = [spec_a] + [run1] * (k - 1) + [spec_b] + [run2] * (len(cw) - k - 1)
    if pats[ia:] + pats[:ia] != want:
        raise DrawingError("InternalInvariantViolation",
                           f"face {f} breaks the bend pattern")
    ga, gb = cw[ia], cw[ib]
    return m.origin[ga], m.target_of[ga], m.origin[gb], m.target_of[gb]


def _xy_markers(a, a2, b, b2, is_black):
    """(fx-, fx+, fy-, fy+) of a face with special edges (a, a') and (b, b'):
    the vertices before and after it on L_1 and on L_4."""
    return (a, b, a2, b2) if is_black else (b2, a2, a, b)


def classify_faces(gd):
    """Non-root face -> FaceInfo, from the face's markers: non reducible
    when two of them coincide, partly reducible when they are all its
    vertices, fully reducible otherwise."""
    if gd.reduction is not None:
        raise DrawingError("InternalInvariantViolation",
                           "classify the faces before reducing the drawing")
    faces = {}
    for f, (_, (fxm, fxp, fym, fyp)) in gd.markers.items():
        if gd.coords[fxm][0] + 1 != gd.coords[fxp][0] or \
                gd.coords[fym][1] + 1 != gd.coords[fyp][1]:
            raise DrawingError("InternalInvariantViolation",
                               f"marker coordinates of face {f} not adjacent")
        markers = {fxm, fxp, fym, fyp}
        if len(markers) < 4:
            cls = "non_reducible"
        elif {gd.host.map.origin[h] for h in gd.host.map.faces[f]} == markers:
            cls = "partly_reducible"
        else:
            cls = "fully_reducible"
        faces[f] = FaceInfo(cls=cls, x=gd.coords[fxm][0],
                            y=gd.coords[fym][1])
    return faces


@dataclass(frozen=True)
class ReductionChoice:
    X: frozenset
    Y: frozenset


def balanced_reduction_choice(fc):
    """Fully reducible faces contribute to both X and Y; partly reducible
    ones are ordered by x(f) and alternate, even positions into X.  fc is
    the classification of classify_faces."""
    partly = sorted((info.x, info.y, f) for f, info in fc.items()
                    if info.cls == "partly_reducible")
    return reduction_choice(fc, {f for _, _, f in partly[::2]})


def reduction_choice(fc, partly_to_x):
    """The reduction choice sending the given subset of partly reducible
    faces (by face id) to X and the complement to Y."""
    X = {info.x for info in fc.values() if info.cls == "fully_reducible"}
    Y = {info.y for info in fc.values() if info.cls == "fully_reducible"}
    for f, info in fc.items():
        if info.cls == "partly_reducible":
            if f in partly_to_x:
                X.add(info.x)
            else:
                Y.add(info.y)
    return ReductionChoice(X=frozenset(X), Y=frozenset(Y))


def apply_reduction(gd, rc):
    """Delete the columns in X and rows in Y: x'(v) = x(v) - |X below x(v)|."""
    if gd.root_pos is not None:
        raise DrawingError("InternalInvariantViolation",
                           "reduce before adding the root")
    rd = gd.decomposition
    xs, ys = sorted(rc.X), sorted(rc.Y)
    coords = {v: (x - bisect_left(xs, x), y - bisect_left(ys, y))
              for v, (x, y) in gd.coords.items()}
    bends = {e: _bend_point(rd, coords, e) for e in gd.bends}
    return GridDrawing(decomposition=rd, coords=coords, bends=bends,
                       reduction=rc, markers=gd.markers)


# -- root completion -------------------------------------------------------

def add_root(gd):
    """Route the root vertex at (-1,-1) and its four edges around the grid:
    e_1* and e_2* take one bend, e_3* and e_4* three bends each."""
    if gd.root_pos is not None:
        raise DrawingError("InternalInvariantViolation", "root already added")
    rv = gd.host
    m = rv.map
    w = max(x for x, _ in gd.coords.values())
    h = max(y for _, y in gd.coords.values())
    ends = [m.target(e) for e in rv.root_darts]
    p1, p2, p3, p4 = (gd.coords[v] for v in ends)
    root = (-1, -1)
    routes = (
        (p1, (p1[0], -1), root),
        (p2, (-1, p2[1]), root),
        (p3, (p3[0], h + 1), (-2, h + 1), (-2, -1), root),
        (p4, (w + 1, p4[1]), (w + 1, -2), (-1, -2), root),
    )
    return replace(gd, root_pos=root, root_routes=routes)


# -- emitters --------------------------------------------------------------

TREE_COLORS = {1: "#c0392b", 2: "#2471a3", 3: "#1e8449", 4: "#b7950b"}


def emit_drawing_json(gd):
    return {
        "n": gd.host.map.n_vertices,
        "coords": {str(v): list(xy) for v, xy in sorted(gd.coords.items())},
        "bends": {str(e): list(b) for e, b in sorted(gd.bends.items())},
        "root": None if gd.root_pos is None else {
            "pos": list(gd.root_pos),
            "routes": [[list(p) for p in pts] for pts in gd.root_routes],
        },
        "reduction": None if gd.reduction is None else {
            "X": sorted(gd.reduction.X), "Y": sorted(gd.reduction.Y),
        },
    }


def emit_svg(gd):
    """Deterministic SVG: one path per edge (bent when bends exist), one
    circle per vertex, elements ordered by id."""
    scale, margin = 24, 30          # pixels per grid unit, border pixels
    rd = gd.decomposition
    m = gd.host.map
    xs = [p[0] for p in gd.coords.values()]
    ys = [p[1] for p in gd.coords.values()]
    if gd.root_routes:
        for pts in gd.root_routes:
            xs += [p[0] for p in pts]
            ys += [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)

    def pt(p):
        return (margin + scale * (p[0] - x0), margin + scale * (y1 - p[1]))

    width = 2 * margin + scale * (x1 - x0)
    height = 2 * margin + scale * (y1 - y0)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    for e in sorted(gd.bends):
        u, w = m.origin[e], m.target(e)
        pts = [gd.coords[u], gd.bends[e], gd.coords[w]]
        d = "M " + " L ".join(f"{pt(p)[0]} {pt(p)[1]}" for p in pts)
        color = TREE_COLORS[_color(rd, e)]
        lines.append(f'<path id="edge-{e}" d="{d}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    if gd.root_routes:
        for t, pts in enumerate(gd.root_routes):
            d = "M " + " L ".join(f"{pt(p)[0]} {pt(p)[1]}" for p in pts)
            color = TREE_COLORS[t + 1]
            lines.append(f'<path id="root-edge-{t + 1}" d="{d}" fill="none" '
                         f'stroke="{color}" stroke-width="2" '
                         f'stroke-dasharray="4 2"/>')
    for v in sorted(gd.coords):
        cx, cy = pt(gd.coords[v])
        lines.append(f'<circle id="vertex-{v}" cx="{cx}" cy="{cy}" r="4" '
                     f'fill="#222222"/>')
    if gd.root_pos is not None:
        cx, cy = pt(gd.root_pos)
        lines.append(f'<circle id="vertex-root" cx="{cx}" cy="{cy}" r="5" '
                     f'fill="#ffffff" stroke="#222222" stroke-width="2"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

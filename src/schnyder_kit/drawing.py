"""Grid drawings of rooted 4-regular plane maps of mincut 4.

Given an even regular decomposition (T_1*..T_4*), every non-root vertex v is
placed at p(v) = (x(v), y(v)) where x(v) counts the non-root faces in the
region of P_1(v) + P_3(v) containing e_2*, and y(v) those in the region of
P_4(v) + P_2(v) containing e_1*.  Edges bend once at the intersection of the
rays from their endpoints; color 1 rays point down (-y), color 2 left (-x),
color 3 up (+y), color 4 right (+x).

The same placement falls out of the two equatorial lines (x = rank along L_1,
y = rank along L_4), which is the linear-time path this module takes; the
tests keep face counting as its oracle.  Face classification, grid
reduction, root completion and the SVG/JSON emitters round out the
pipeline; the planarity checks of a drawing live with the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace

from .errors import DrawingError
from .duality import RegularDecomposition
from .even import black_faces


def _mod4(c):
    return (c - 1) % 4 + 1


DIRECTIONS = {1: (0, -1), 2: (-1, 0), 3: (0, 1), 4: (1, 0)}


def _color(rd, h):
    mk = rd.masks[h]
    return mk.bit_length() if mk else None


def _color_dart(rd, v, i):
    """The dart of color i leaving the non-root vertex v."""
    for h in rd.host.map.vertex_orbit(v):
        if rd.masks[h] == 1 << (i - 1):
            return h
    raise DrawingError("InvalidDecomposition",
                       f"vertex {v} has no outgoing arc of color {i}")


# -- equatorial lines ------------------------------------------------------

def equatorial_line(rd, i):
    """The line L_i from v_{i+1}* to v_{i+3}*, alternating non-root vertices
    and non-root faces, with color-i edges on its right and color-(i+2) edges
    on its left."""
    rv = rd.host
    m = rv.map
    lo, hi = 1 << (i - 1), 1 << (_mod4(i + 2) - 1)
    start = m.target(rv.root_darts[i % 4])        # v_{i+1}*
    stop = m.target(rv.root_darts[(i + 2) % 4])   # v_{i+3}*
    seq = [("v", start)]
    u = start
    while u != stop:
        h = _color_dart(rd, u, _mod4(i + 3))
        c = rd.masks[m.twin[h]]
        if c == hi:
            f = m.face_of[m.twin[h]]  # face on the right of h
        elif c == lo:
            f = m.face_of[h]          # face on the left of h
        else:
            raise DrawingError("InvalidDecomposition",
                               f"equatorial step stuck at vertex {u}")
        seq.append(("f", f))
        # leave f through its color-(i+1) arc whose twin closes the pattern
        exits = []
        for g in m.faces[f]:
            for cand in (g, m.twin[g]):
                if rd.masks[cand] == 1 << (_mod4(i + 1) - 1):
                    tw = rd.masks[m.twin[cand]]
                    if tw == lo and m.face_of[m.twin[cand]] == f:
                        exits.append(cand)
                    elif tw == hi and m.face_of[cand] == f:
                        exits.append(cand)
        if len(set(exits)) != 1:
            raise DrawingError("InvalidDecomposition",
                               f"face {f} has {len(set(exits))} exits on L_{i}")
        u = m.origin[exits[0]]
        seq.append(("v", u))
        if len(seq) > 2 * (m.n_vertices + m.n_faces):
            raise DrawingError("InvalidDecomposition", f"line L_{i} loops")
    want = 2 * m.n_vertices - 3
    if len(seq) != want or \
            {x for k, x in seq if k == "v"} != set(rv.non_root_vertices()) or \
            {x for k, x in seq if k == "f"} != set(rv.non_root_faces()):
        raise DrawingError("InternalInvariantViolation",
                           f"line L_{i} does not visit everything once")
    return seq


def place_by_equatorial_lines(rd):
    """p(v) as (rank along L_1, rank along L_4); linear time."""
    xs = [x for k, x in equatorial_line(rd, 1) if k == "v"]
    ys = [x for k, x in equatorial_line(rd, 4) if k == "v"]
    coords = {v: [t, None] for t, v in enumerate(xs)}
    for t, v in enumerate(ys):
        coords[v][1] = t
    return {v: tuple(xy) for v, xy in coords.items()}


# -- the orthogonal drawing ------------------------------------------------

@dataclass(frozen=True)
class GridDrawing:
    decomposition: RegularDecomposition = field(compare=False)
    coords: dict
    bends: dict        # edge id -> bend point
    root_pos: tuple = None
    root_routes: tuple = None   # polyline per root edge e_1*..e_4*
    reduction: "ReductionChoice" = None

    @property
    def host(self):
        return self.decomposition.host


def _bend_point(rd, coords, e):
    m = rd.host.map
    u, w = m.origin[e], m.target(e)
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
    if coords is None:
        coords = place_by_equatorial_lines(rd)
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
    return GridDrawing(decomposition=rd, coords=dict(coords), bends=bends)


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
    special_a: tuple              # (a, a') of the first special edge
    special_b: tuple              # (b, b') of the second
    fx_minus: int
    fx_plus: int
    fy_minus: int
    fy_plus: int
    x: int
    y: int


@dataclass(frozen=True)
class FaceClassification:
    faces: dict                   # non-root face id -> FaceInfo


def face_markers(rd, f, is_black):
    """(a, a', b, b') of the two special edges of a non-root face, found from
    the clockwise arc-color pattern around it."""
    m = rd.host.map
    cw = m.face_corners(f)
    shift = 0 if is_black else -1
    pat = lambda g: (_color(rd, g), _color(rd, m.twin[g]))
    want_a = (_mod4(4 + shift), _mod4(3 + shift))
    want_b = (_mod4(2 + shift), _mod4(1 + shift))
    ga = [g for g in cw if pat(g) == want_a]
    gb = [g for g in cw if pat(g) == want_b]
    if len(ga) != 1 or len(gb) != 1:
        raise DrawingError("InternalInvariantViolation",
                           f"face {f} lacks unique special edges")
    # between the specials the pattern must be the two uniform runs
    ia, ib = cw.index(ga[0]), cw.index(gb[0])
    run1 = (_mod4(2 + shift), _mod4(3 + shift))
    run2 = (_mod4(4 + shift), _mod4(1 + shift))
    k = (ia + 1) % len(cw)
    while k != ib:
        if pat(cw[k]) != run1:
            raise DrawingError("InternalInvariantViolation",
                               f"face {f} breaks the bend pattern")
        k = (k + 1) % len(cw)
    k = (ib + 1) % len(cw)
    while k != ia:
        if pat(cw[k]) != run2:
            raise DrawingError("InternalInvariantViolation",
                               f"face {f} breaks the bend pattern")
        k = (k + 1) % len(cw)
    a, a2 = m.origin[ga[0]], m.target(ga[0])
    b, b2 = m.origin[gb[0]], m.target(gb[0])
    return a, a2, b, b2


def classify_faces(gd):
    rd = gd.decomposition
    rv = rd.host
    fb = black_faces(rv)
    faces = {}
    for f in rv.non_root_faces():
        a, a2, b, b2 = face_markers(rd, f, fb[f])
        if fb[f]:
            fxm, fxp, fym, fyp = a, b, a2, b2
        else:
            fxm, fxp, fym, fyp = b2, a2, a, b
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
        faces[f] = FaceInfo(cls=cls, special_a=(a, a2),
                            special_b=(b, b2), fx_minus=fxm, fx_plus=fxp,
                            fy_minus=fym, fy_plus=fyp,
                            x=gd.coords[fxm][0], y=gd.coords[fym][1])
    return FaceClassification(faces=faces)


@dataclass(frozen=True)
class ReductionChoice:
    X: frozenset
    Y: frozenset


def balanced_reduction_choice(fc):
    """Fully reducible faces contribute to both X and Y; partly reducible
    ones are ordered by x(f) and alternate, even positions into X."""
    partly = sorted((info.x, info.y, f) for f, info in fc.faces.items()
                    if info.cls == "partly_reducible")
    return reduction_choice(fc, {f for _, _, f in partly[::2]})


def reduction_choice(fc, partly_to_x):
    """The reduction choice sending the given subset of partly reducible
    faces (by face id) to X and the complement to Y."""
    X = {info.x for info in fc.faces.values() if info.cls == "fully_reducible"}
    Y = {info.y for info in fc.faces.values() if info.cls == "fully_reducible"}
    for f, info in fc.faces.items():
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
                       reduction=rc)


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

"""Clockwise labellings and Schnyder decompositions of d-angulations.

Corners are identified with darts: corner(h) is the sector swept clockwise
from h to next_cw(h) at origin(h).  Around a vertex the clockwise corner
order is corner(h), corner(next_cw(h)), ...  Around a face, clockwise means
walking with the face on the right, i.e. the reverse of the stored face
orbit (PlaneMap.face_corners).  Read that way, the colors of a labelling
step +1 around every inner face and -1 around the outer face, whose orbit
lists u_1..u_d clockwise as drawn.

Colors live in [d] = {1..d} with cyclic arithmetic.  Color sets on darts are
d-bit masks (bit i-1 for color i).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import SchnyderError
from .orientation import FracOrientation
from .planar_map import AngulationView


def _mod(x, d):
    return (x - 1) % d + 1


def mask_of(colors, d):
    m = 0
    for i in colors:
        m |= 1 << ((i - 1) % d)
    return m


def colors_of(mask, d):
    return [i for i in range(1, d + 1) if mask >> (i - 1) & 1]


def _span_mask(i, j, d):
    """Colors i, i+1, ..., j-1 (cyclically; empty when i == j)."""
    m = 0
    c = i
    while c != j:
        m |= 1 << ((c - 1) % d)
        c = _mod(c + 1, d)
    return m


CYCLE = -1          # path_ends: the path runs into a cycle
_WHITE, _GREY = -2, -3


@dataclass(frozen=True, init=False)
class DartTable:
    """One entry per dart of a primal or dual host: a color set on each dart
    (a bit mask in ``masks``) or one color on each corner (``colors``; the
    corner of dart h is corner(h)).  ``masks`` and ``colors`` both name the
    one per-dart tuple.

    The public subclasses declare only class-level facts: HOST ("primal" or
    "dual"), REDUCED (colors 1..d/2 instead of 1..d), KEY (the JSON key of
    the table: "dart_colors" for color sets, "corner_colors" for corner
    colors) and the ERROR class and KIND that a payload of the wrong shape
    raises."""

    host: object
    table: tuple
    primal: AngulationView = field(default=None, compare=False)

    HOST = "primal"
    REDUCED = False
    KEY = "dart_colors"
    ERROR = SchnyderError
    KIND = "InvalidDecomposition"

    def __init__(self, host, masks=None, colors=None, primal=None):
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "table", masks if colors is None else colors)
        object.__setattr__(self, "primal", primal)

    @property
    def masks(self):
        return self.table

    colors = masks

    @property
    def n_colors(self):
        return self.host.d // 2 if self.REDUCED else self.host.d

    def dart_colors(self, dart):
        """The colors on a dart (for corner colors, the one of its corner)."""
        if self.KEY == "corner_colors":
            return [self.table[dart]]
        return colors_of(self.table[dart], self.n_colors)

    def arcs_of_color(self, i):
        """All darts carrying color i."""
        if self.KEY == "corner_colors":
            return [h for h, c in enumerate(self.table) if c == i]
        bit = 1 << (i - 1)
        return [h for h, mk in enumerate(self.table) if mk & bit]

    def path_ends(self, i, root=None):
        """end[v]: where the color-i parent path from vertex v stops.

        The parent of v is the target of its color-i arc (the last one in
        dart order when there are several).  The path stops at the first
        vertex without a parent, or at ``root``; end[v] is CYCLE when it
        runs into a cycle instead.  White/grey/black marks settle every
        vertex once, so this is O(V) where a walk per vertex is O(V x
        depth)."""
        m = self.host.map
        nxt = [None] * m.n_vertices
        for h in self.arcs_of_color(i):
            nxt[m.origin[h]] = m.target(h)
        if root is not None:
            nxt[root] = None
        end = [_WHITE] * m.n_vertices
        for v0 in range(m.n_vertices):
            path, v = [], v0
            while end[v] == _WHITE:
                path.append(v)
                end[v] = _GREY
                if nxt[v] is None:
                    end[v] = v
                else:
                    v = nxt[v]
            stop = CYCLE if end[v] == _GREY else end[v]
            for u in path:
                end[u] = stop
        return end

    def to_json_obj(self):
        obj = {"host": self.HOST}
        if self.REDUCED:
            obj["reduced"] = True
        if self.KEY == "corner_colors":
            obj["corner_colors"] = list(self.table)
        else:
            obj["d"] = self.n_colors
            obj["dart_colors"] = [self.dart_colors(h)
                                  for h in range(len(self.table))]
        return obj

    @classmethod
    def from_json_obj(cls, obj, host, primal=None):
        """The table of a JSON payload on ``host``, after checking its
        shape: an object with the right "host" (default "primal") and
        "reduced" tags, an integer "d" equal to the color count (color sets
        only), and under KEY a list with one entry per dart, a color or a
        list of colors in 1..n_colors.  Anything else raises ERROR(KIND)."""
        def malformed(why):
            return cls.ERROR(cls.KIND, why)

        if not isinstance(obj, dict) or obj.get("host", "primal") != cls.HOST \
                or bool(obj.get("reduced")) != cls.REDUCED:
            raise malformed(f"expected a {'reduced ' * cls.REDUCED}"
                            f"{cls.HOST}-host payload object")
        n = host.d // 2 if cls.REDUCED else host.d
        corners = cls.KEY == "corner_colors"
        if not corners and (type(obj.get("d")) is not int or obj["d"] != n):
            raise malformed(f"'d' must be the integer {n} on this host")

        def fits(row):
            if corners:
                return type(row) is int and 1 <= row <= n
            return isinstance(row, list) and \
                all(type(c) is int and 1 <= c <= n for c in row)

        rows = obj.get(cls.KEY)
        if not isinstance(rows, list) or len(rows) != host.map.n_darts or \
                not all(map(fits, rows)):
            raise malformed(f"'{cls.KEY}' must hold one "
                            f"{'color' if corners else 'list of colors'} in "
                            f"1..{n} per dart ({host.map.n_darts} darts)")
        if corners:
            return cls(host=host, colors=tuple(rows), primal=primal)
        return cls(host=host, masks=tuple(mask_of(r, n) for r in rows),
                   primal=primal)


class CornerLabelling(DartTable):
    """A clockwise labelling: colors[h] = color of corner(h), in 1..d."""
    KEY = "corner_colors"
    KIND = "InvalidLabelling"


class SchnyderDecomposition(DartTable):
    """masks[h] = color bit mask of dart h (0 on external darts)."""


# -- labelling validation -------------------------------------------------

def validate_labelling(l):
    """All violations of the three clockwise-labelling axioms (empty =
    valid): (i) colors step +1 clockwise around the inner faces, -1 around
    the outer one; (ii) the corners at u_i have color i; (iii) exactly one
    clockwise descent around each internal vertex."""
    ang = l.host
    m = ang.map
    return _corner_violations(
        l.colors, ang.d,
        [(f, m.face_corners(f), -1 if f == m.outer_face else 1)
         for f in range(m.n_faces)],
        [(u, m.vertex_orbit(u)) for u in ang.external],
        [(v, m.vertex_orbit(v)) for v in ang.internal_vertices()])


def _corner_violations(colors, d, step_cells, root_cells, descent_cells):
    """The corner rule of a labelling, on cells given with their corners in
    clockwise order: (i) around each step cell (where, corners, step) each
    corner color is the one before plus step, mod d; (ii) every corner of
    the i-th root cell (where, corners) has color i; (iii) each descent cell
    (where, corners) has exactly one clockwise descent, a corner whose color
    exceeds the next one.  The step cells must cover every corner once."""
    n = sum(len(corners) for _, corners, _ in step_cells)
    if len(colors) != n or not all(1 <= c <= d for c in colors):
        return [("malformed", None, f"colors must cover all {n} corners "
                                    f"with values in 1..{d}")]
    out = []
    for where, corners, step in step_cells:
        cs = [colors[h] for h in corners]
        for a, b in zip(cs, cs[1:] + cs[:1]):
            if b != _mod(a + step, d):
                out.append(("i", where, f"corner colors {a}->{b} around cell "
                                        f"{where} not a clockwise {step:+d} "
                                        "step"))
    for i, (where, corners) in enumerate(root_cells, start=1):
        out.extend(("ii", where, f"corner {h} of root cell {i} has color "
                                 f"{colors[h]}")
                   for h in corners if colors[h] != i)
    for where, corners in descent_cells:
        cs = [colors[h] for h in corners]
        desc = sum(a > b for a, b in zip(cs, cs[1:] + cs[:1]))
        if desc != 1:
            out.append(("iii", where, f"{desc} clockwise descents around "
                                      f"cell {where}"))
    return out


def clockwise_jump(l, h):
    """Jump across the arc h: color after minus color before crossing h in
    clockwise order around its origin, mod d."""
    d = l.host.d
    before = l.colors[l.host.map.prev_cw[h]]
    after = l.colors[h]
    return (after - before) % d


# -- Psi ------------------------------------------------------------------

def psi(l):
    """Clockwise-jump orientation of a valid labelling (a d/(d-2)-orientation)."""
    ang = l.host
    bad = validate_labelling(l)
    if bad:
        raise SchnyderError("InvalidLabelling", "; ".join(
            v[2] for v in bad[:3]))
    m = ang.map
    vals = [-1] * m.n_darts
    for h in ang.internal_darts():
        vals[h] = clockwise_jump(l, h)
    o = FracOrientation(map=m, k=ang.d - 2, values=tuple(vals), host=ang)
    return o.validate()


def psi_inverse(o):
    """The unique labelling with Psi(l) = o, by color propagation.

    Seeds color 1 at a corner of u_1 and propagates with the two rules:
    +1 along clockwise face steps, +Omega(v,e) along clockwise vertex steps
    (external edges count 0).  Every relation is re-verified on completion.
    """
    ang = o.host
    if ang is None:
        raise SchnyderError("InvalidOrientation", "orientation lacks an angulation host")
    m = ang.map
    d = ang.d

    def jump(h):
        return o.values[h] if o.values[h] >= 0 else 0

    # relation list: (corner a, corner b, delta) meaning color(b) = color(a)+delta
    relations = [[] for _ in range(m.n_darts)]

    def add(a, b, delta):
        relations[a].append((b, delta))
        relations[b].append((a, -delta))

    for h in range(m.n_darts):
        add(h, m.next_cw[h], jump(m.next_cw[h]))
    for f, orbit in enumerate(m.faces):
        step = 1 if f == m.outer_face else -1
        for t in range(len(orbit)):
            add(m.twin[orbit[t]], m.twin[orbit[(t + 1) % len(orbit)]], step)

    colors = [None] * m.n_darts
    seed = m.vertex_darts[ang.external[0]]
    colors[seed] = 1
    q = deque([seed])
    while q:
        a = q.popleft()
        for b, delta in relations[a]:
            c = _mod(colors[a] + delta, d)
            if colors[b] is None:
                colors[b] = c
                q.append(b)
            elif colors[b] != c:
                raise SchnyderError("PropagationConflict",
                                    f"corner {b}: {colors[b]} vs {c}")
    if any(c is None for c in colors):
        raise SchnyderError("PropagationConflict", "unreached corners")
    l = CornerLabelling(host=ang, colors=tuple(colors))
    bad = validate_labelling(l)
    if bad:
        raise SchnyderError("PropagationConflict",
                            f"propagated labelling invalid: {bad[:3]}")
    return l


# -- Phi and Gamma --------------------------------------------------------

def phi(l):
    """Schnyder decomposition of a labelling: the arc before/after corner
    colors i, j give the arc the colors i..j-1."""
    ang = l.host
    m = ang.map
    d = ang.d
    masks = [0] * m.n_darts
    for h in ang.internal_darts():
        i = l.colors[m.prev_cw[h]]
        j = l.colors[h]
        masks[h] = _span_mask(i, j, d)
    return SchnyderDecomposition(host=ang, masks=tuple(masks))


def gamma(s):
    """Color-deletion: arc value = number of colors on the arc."""
    ang = s.host
    vals = tuple(
        bin(mask).count("1") if not ang.is_external_edge(h) else -1
        for h, mask in enumerate(s.masks))
    return FracOrientation(map=ang.map, k=ang.d - 2, values=vals, host=ang)


def phi_inverse(s):
    """The labelling l with phi(l) = s (via psi_inverse of gamma).  Only
    the input is validated: Phi is a bijection between labellings and
    Schnyder decompositions, so a valid s is phi of the result."""
    bad = validate_schnyder(s)
    if bad:
        raise SchnyderError("InvalidDecomposition", str(bad[:3]))
    return psi_inverse(gamma(s).validate())


# -- decomposition validation --------------------------------------------

def validate_schnyder(s):
    """All violations of the Schnyder decomposition axioms (empty = valid)."""
    return _primal_violations(s, lambda v: (1, -1))


def _primal_violations(t, window_of):
    """All violations of the primal decomposition axioms of t, full (d
    forests, step 1) or reduced (p = d/2 forests, step 2: reduced color i
    is full color 2i), under axiom names primed when reduced: (i) internal
    edges lie in (d-2)/step forests, once each, external edges in none;
    (ii) forest i spans the internal vertices toward the external roots
    other than u_j and u_{j+1}, with j = step*i; (iii) the vertex rule with
    window_of(v)."""
    ang = t.host
    m = ang.map
    p = t.n_colors
    step = ang.d // p
    prime = "'" * t.REDUCED
    if len(t.masks) != m.n_darts or any(mk >> p for mk in t.masks):
        return [("malformed", None, "masks must cover all darts with colors "
                                    f"in 1..{p}")]
    out = []
    ext_edges = ang.external_edge_ids
    want = (ang.d - 2) // step
    for h in m.edges():
        a, b = t.masks[h], t.masks[m.twin[h]]
        if h in ext_edges:
            if a or b:
                out.append(("i" + prime, h, "external edge carries colors"))
        elif a & b or bin(a | b).count("1") != want:
            out.append(("i" + prime, h, f"edge must lie in {want} forests, "
                                        "once each"))
    for i in range(1, p + 1):
        j = step * i
        avoid = {ang.external[j - 1], ang.external[j % ang.d]}
        out.extend(_forest_violations(t, i, avoid, "ii" + prime))
    for v in ang.internal_vertices():
        out.extend(_vertex_violations(t, v, "iii" + prime, window_of(v)))
    return out


def _forest_violations(t, i, avoid, axiom):
    """Violations of "the color-i arcs of t form a forest that spans the
    internal vertices, oriented toward external roots outside avoid", each
    reported under the given axiom name."""
    ang = t.host
    m = ang.map
    out = []
    ext = set(ang.external)
    arcs = t.arcs_of_color(i)
    has_parent = set()
    for h in arcs:
        v = m.origin[h]
        if v in has_parent:
            out.append((axiom, v, f"color {i}: two outgoing arcs at {v}"))
        has_parent.add(v)
    touched = has_parent | {m.target(h) for h in arcs}
    for v in avoid & touched:
        out.append((axiom, v, f"color {i} touches the excluded root {v}"))
    for u in ext & has_parent:
        out.append((axiom, u, f"color {i}: outgoing arc at external {u}"))
    ends = t.path_ends(i)
    for v in ang.internal_vertices():
        if v not in has_parent:
            out.append((axiom, v, f"color {i}: no outgoing arc at internal {v}"))
        elif ends[v] == CYCLE:
            out.append((axiom, v, f"color {i}: the path from {v} runs into "
                                  "a cycle"))
        elif ends[v] not in ext or ends[v] in avoid:
            out.append((axiom, v, f"color {i}: path from {v} ends at "
                                  f"{ends[v]}"))
    return out


def _vertex_violations(t, v, axiom, window=None):
    """The vertex rule at v: the outgoing arcs carry colors 1..p once each,
    in clockwise order, that is one clockwise turn from color 1 back to 1
    (so the colors of each arc are cyclically consecutive).  With window =
    (a, b), every incoming color-c arc lies strictly clockwise between the
    outgoing arcs of colors c+a and c+b."""
    m = t.host.map
    p = t.n_colors
    orbit = m.vertex_orbit(v)
    n = len(orbit)
    pos = {}
    for k, h in enumerate(orbit):
        for c in colors_of(t.masks[h], p):
            if c in pos:
                return [(axiom, v, f"color {c}: two outgoing arcs at {v}")]
            pos[c] = k
    if len(pos) != p:
        return [(axiom, v, f"outgoing colors at {v}: {sorted(pos)}")]
    if sum((pos[c % p + 1] - pos[c]) % n for c in pos) != n:
        return [(axiom, v, f"outgoing colors not clockwise at {v}")]
    if window is None:
        return []
    a, b = window
    return [(axiom, v, f"incoming color {c} at {v} outside "
                       f"({_mod(c + a, p)},{_mod(c + b, p)})")
            for k, h in enumerate(orbit)
            for c in colors_of(t.masks[m.twin[h]], p)
            if not _strictly_between_cw(k, pos[_mod(c + a, p)],
                                        pos[_mod(c + b, p)], n)]


def _strictly_between_cw(t, a, b, n):
    """Is position t strictly between positions a and b, walking clockwise
    from a to b (positions index the clockwise dart order at the vertex)?"""
    if a == b:
        return t != a
    return 0 < (t - a) % n < (b - a) % n

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

from dataclasses import dataclass
from operator import lt

from .errors import SchnyderError
from .orientation import FracOrientation, validate_orientation


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
    """Colors i, i+1, ..., j-1 (cyclically; empty when i == j).  With a and
    b the bits of i and j, (1 << b) - (1 << a) sets bits a..b-1; when it is
    negative, adding all d bits wraps it.  Colors count mod d, so any
    integers i and j give a mask."""
    m = (1 << (j - 1) % d) - (1 << (i - 1) % d)
    return m if m >= 0 else m + (1 << d) - 1


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
    raises.

    Equality compares the class, the host view and the tuple.  A host view
    compares its PlaneMap by identity, so tables on separately built maps
    (two dualize calls, say) are never equal, even when their entries
    agree: compare their ``masks`` instead."""

    host: object
    table: tuple

    HOST = "primal"
    REDUCED = False
    KEY = "dart_colors"
    ERROR = SchnyderError
    KIND = "InvalidDecomposition"

    def __init__(self, host, masks=None, colors=None):
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "table", masks if colors is None else colors)

    @property
    def masks(self):
        return self.table

    colors = masks

    @property
    def n_colors(self):
        return self.host.d // 2 if self.REDUCED else self.host.d

    def dart_colors(self, dart):
        """The colors on a dart of a color-set table."""
        return colors_of(self.table[dart], self.n_colors)

    def arcs_of_color(self, i):
        """All darts carrying color i, in a color-set table."""
        bit = 1 << (i - 1)
        return [h for h, mk in enumerate(self.table) if mk & bit]

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
    def from_json_obj(cls, obj, host):
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
            return cls(host=host, colors=tuple(rows))
        return cls(host=host, masks=tuple(mask_of(r, n) for r in rows))


def require_valid(t, check):
    """t, unless check(t) finds violations: then the ERROR(KIND) of t's
    class names the first three."""
    bad = check(t)
    if bad:
        raise t.ERROR(t.KIND, "; ".join(v[2] for v in bad[:3]))
    return t


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
    """Clockwise-jump orientation of a valid labelling (a d/(d-2)-orientation;
    only l is validated: its axioms make the jumps on each edge sum to d-2)."""
    return _psi(require_valid(l, validate_labelling))


def _psi(l):
    ang = l.host
    m = ang.map
    vals = [-1] * m.n_darts
    for h in ang.internal_darts():
        vals[h] = clockwise_jump(l, h)
    return FracOrientation(ang, ang.d - 2, tuple(vals))


def psi_inverse(o):
    """The unique labelling with Psi(l) = o, by color propagation.

    Seeds color 1 at a corner of u_1 and propagates along the two forward
    rules: from corner a to corner next_cw(a) at the same vertex, the color
    steps by the value of next_cw(a) (external edges count 0); to the next
    corner clockwise around their face, twin(next_cw(a)), it steps by +1 on
    the outer face and -1 on the others.  These steps close the vertex and
    face cycles, so on a connected map they reach every corner.  Only o
    is checked (validate_orientation, whose violations raise
    orientation/InvalidOrientation): Psi is a bijection from the
    labellings onto the d/(d-2)-orientations, so o = Psi(l) for one l.
    Each step follows a relation of l, from the color 1 of l at the seed,
    so the propagation meets no conflict and returns l.
    """
    return _psi_inverse(require_valid(o, validate_orientation))


def _psi_inverse(o):
    ang = o.host
    m = ang.map
    d = ang.d
    values, next_cw, twin, face_of = o.values, m.next_cw, m.twin, m.face_of
    colors = [None] * m.n_darts
    seed = m.vertex_darts[ang.external[0]]
    colors[seed] = 1
    stack = [seed]
    while stack:
        a = stack.pop()
        h = next_cw[a]
        face_step = 1 if face_of[h] == m.outer_face else -1
        for b, delta in ((h, max(values[h], 0)), (twin[h], face_step)):
            if colors[b] is None:
                colors[b] = _mod(colors[a] + delta, d)
                stack.append(b)
    return CornerLabelling(host=ang, colors=tuple(colors))


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
    return FracOrientation(ang, ang.d - 2, vals)


def phi_inverse(s):
    """The labelling l with phi(l) = s, read off s by _phi_inverse.  Only
    the input is validated: Phi is a bijection between labellings and
    Schnyder decompositions, so a valid s is phi of the result."""
    return _phi_inverse(require_valid(s, validate_schnyder))


def _phi_inverse(s):
    """The l with phi(l) = s, for a valid s, by vertex: the corners at u_i
    have color i; around an internal vertex the corner after a colored
    dart is one past the last color of its cyclic span, and the corner
    after an uncolored dart repeats the corner before it."""
    ang = s.host
    m = ang.map
    d = ang.d
    masks = s.masks
    after = {mk: next(c for c in range(1, d + 1)
                      if mk >> ((c - 2) % d) & 1 and not mk >> (c - 1) & 1)
             for mk in set(masks) if mk}
    colors = [0] * m.n_darts
    for i, u in enumerate(ang.external, start=1):
        for h in m.vertex_orbit(u):
            colors[h] = i
    for v in ang.internal_vertices():
        orbit = m.vertex_orbit(v)
        k = next(k for k, h in enumerate(orbit) if masks[h])
        c = None
        for h in orbit[k:] + orbit[:k]:
            c = after.get(masks[h], c)
            colors[h] = c
    return CornerLabelling(host=ang, colors=tuple(colors))


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
    window_of(v).  Each dart's colors are decoded once for all checks."""
    ang = t.host
    m = ang.map
    p = t.n_colors
    step = ang.d // p
    prime = "'" * t.REDUCED
    masks = t.masks
    if len(masks) != m.n_darts or any(mk >> p for mk in masks):
        return [("malformed", None, "masks must cover all darts with colors "
                                    f"in 1..{p}")]
    out = []
    ext_edges = ang.external_edge_ids
    want = (ang.d - 2) // step
    for h in m.edges():
        a, b = masks[h], masks[m.twin[h]]
        if h in ext_edges:
            if a or b:
                out.append(("i" + prime, h, "external edge carries colors"))
        elif a & b or (a | b).bit_count() != want:
            out.append(("i" + prime, h, f"edge must lie in {want} forests, "
                                        "once each"))
    cols, nxt, ends, twice = _sweep(m, masks, p)
    internal = ang.internal_vertices()
    return out + _forest_violations(t, internal, "ii" + prime, nxt, ends,
                                    twice) + \
        _vertex_violations(m, cols, p, internal, "iii" + prime, window_of)


def _sweep(m, masks, p, root=None):
    """(cols, nxt, ends, twice) of the dart masks of m, p colors, from one
    sweep over the darts.  cols[h] lists the colors of dart h (each mask
    decoded once).  Color c owns the entries (c-1)*V + v, V the vertex
    count: nxt maps v's entry to that of the target of its color-c arc (the
    last in dart order), or to itself when v has none or is root; twice
    lists (c, v) for each further color-c arc of v, in dart order.  ends[x]
    is where the path x, nxt[x], ... stops, by pointer jumping: a root e
    (nxt[e] == e) or an entry e on the cycle it runs into (nxt[e] != e)."""
    colors = {mk: tuple(colors_of(mk, p)) for mk in set(masks)}
    cols = list(map(colors.__getitem__, masks))
    nv = m.n_vertices
    origin, twin = m.origin, m.twin
    nxt = list(range(p * nv))
    twice = []
    for h, cs in enumerate(cols):
        if cs and origin[h] != root:
            v, w = origin[h], origin[twin[h]]
            for c in cs:
                x = (c - 1) * nv + v
                if nxt[x] != x:
                    twice.append((c, v))
                nxt[x] = x - v + w
    ends = nxt
    for _ in range((nv - 1).bit_length()):   # paths of < V steps
        ahead = [ends[x] for x in ends]
        if ahead == ends:
            break
        ends = ahead
    return cols, nxt, ends, twice


def _forest_violations(t, internal, axiom, nxt, ends, twice):
    """Violations of "the color-i arcs of t form a forest that spans the
    internal vertices, oriented toward the external roots other than u_j
    and u_{j+1}, j = step*i", for each color i, under the given axiom name:
    read off the parent table nxt, path ends and repeats of _sweep."""
    ang = t.host
    m = ang.map
    nv = m.n_vertices
    ext = set(ang.external)
    out = []
    for i in range(1, t.n_colors + 1):
        j = ang.d // t.n_colors * i
        avoid = {ang.external[j - 1], ang.external[j % ang.d]}
        base = (i - 1) * nv
        doubled = [(axiom, v, f"color {i}: two outgoing arcs at {v}")
                   for c, v in twice if c == i]
        out += doubled
        roots = {base + u for u in ext - avoid if nxt[base + u] == base + u}
        stray = [v for v in internal if ends[base + v] not in roots]
        # a color-i arc that touches an avoided root leaves a vertex with
        # two such arcs or an external vertex, or it ends a stray path
        if doubled or stray or any(nxt[base + u] != base + u for u in ext):
            arcs = t.arcs_of_color(i)
            has_parent = {m.origin[h] for h in arcs}
            touched = has_parent | {m.target_of[h] for h in arcs}
            out += [(axiom, v, f"color {i} touches the excluded root {v}")
                    for v in avoid & touched]
            out += [(axiom, u, f"color {i}: outgoing arc at external {u}")
                    for u in ext & has_parent]
        for v in stray:
            end = ends[base + v]
            out.append((axiom, v, f"color {i}: " + (
                f"no outgoing arc at internal {v}" if nxt[base + v] == base + v
                else f"the path from {v} runs into a cycle" if nxt[end] != end
                else f"path from {v} ends at {end - base}")))
    return out


def _vertex_violations(m, cols, p, vertices, axiom, window_of=None):
    """The vertex rule at each of vertices of m, cols[h] the colors of dart
    h, by one orbit walk per vertex: the outgoing arcs carry colors 1..p
    once each in one clockwise turn (their positions descend once from
    color 1 to p and back to 1).  With window_of(v) = (a, b), every
    incoming color-c arc lies strictly clockwise between the outgoing arcs
    of colors c+a and c+b.  A vertex reports the first rule it breaks."""
    twin = m.twin
    out = []
    for v in vertices:
        orbit = m.vertex_orbit(v)
        pos = [None] * (p + 1)
        twice = None
        for k, h in enumerate(orbit):
            for c in cols[h]:
                if pos[c] is not None and twice is None:
                    twice = c
                pos[c] = k
        turn = pos[1:]
        if twice is not None:
            out.append((axiom, v, f"color {twice}: two outgoing arcs at {v}"))
        elif None in turn:
            seen = [c for c in range(1, p + 1) if pos[c] is not None]
            out.append((axiom, v, f"outgoing colors at {v}: {seen}"))
        elif sum(map(lt, turn[1:] + turn[:1], turn)) != 1:
            out.append((axiom, v, f"outgoing colors not clockwise at {v}"))
        elif window_of is not None:
            n = len(orbit)
            a, b = window_of(v)
            for k, h in enumerate(orbit):
                for c in cols[twin[h]]:
                    lo, hi = pos[(c + a - 1) % p + 1], pos[(c + b - 1) % p + 1]
                    # strictly clockwise between positions lo and hi
                    if k == lo if lo == hi else \
                            not 0 < (k - lo) % n < (hi - lo) % n:
                        out.append((axiom, v, f"incoming color {c} at {v} "
                                    f"outside ({_mod(c + a, p)},"
                                    f"{_mod(c + b, p)})"))
    return out

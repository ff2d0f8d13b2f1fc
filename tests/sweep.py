"""A sweep-line planarity check for orthogonal drawings.

It takes the anchored segments of oracles.segments and applies the rules of
oracles.check_planarity: two segments may meet only at a point that is an
endpoint of both and carries a shared anchor; a proper crossing, an
overlap, a T-contact, or distinct anchors at one point is a conflict.
Every segment must be horizontal or vertical and of positive length.

Collinear segments are compared line by line after sorting by their lower
end; each vertical segment is matched against the horizontal segments
active at its x, kept sorted by y.  That is O(m log m) for m segments, plus
the conflicts found.  The check reports at least one conflict exactly when
the pairwise oracle reports one; unlike the oracle it need not list every
conflicting pair.
"""

from bisect import bisect_left, bisect_right, insort

from oracles import segments

_INSERT, _QUERY, _REMOVE = 0, 1, 2


def _meet_ok(s1, s2, pt):
    """Do s1 and s2 meet at pt as the oracle allows: pt ends both, and the
    anchor of one of them there is an anchor of the other?"""
    p1, q1, a1p, a1q = s1
    p2, q2, a2p, a2q = s2
    if pt not in (p1, q1) or pt not in (p2, q2):
        return False
    a1 = a1p if pt == p1 else a1q
    a2 = a2p if pt == p2 else a2q
    return a1 in (a2p, a2q) or a2 in (a1p, a1q)


def _collinear(lines, segs, horizontal, out):
    """Conflicts among segments on one line: line -> [(lo, hi, index)]."""
    for c, runs in lines.items():
        runs.sort()
        reach, far = None, None      # the largest upper end so far, and its owner
        for lo, hi, i in runs:
            if reach is not None and lo <= reach:
                pt = (lo, c) if horizontal else (c, lo)
                if lo < reach:
                    out.append((segs[far], segs[i], "overlap"))
                elif not _meet_ok(segs[far], segs[i], pt):
                    out.append((segs[far], segs[i], f"contact at {pt}"))
            if reach is None or hi > reach:
                reach, far = hi, i


def orthogonal_conflicts(segs):
    """Conflicts (s1, s2, why) among axis-parallel anchored segments."""
    rows, cols, events = {}, {}, []
    for i, (p, q, _, _) in enumerate(segs):
        if p == q or (p[0] != q[0] and p[1] != q[1]):
            raise ValueError(f"segment {p}-{q} is not axis-parallel")
        if p[1] == q[1]:
            lo, hi = sorted((p[0], q[0]))
            rows.setdefault(p[1], []).append((lo, hi, i))
            events += [(lo, _INSERT, p[1], i), (hi, _REMOVE, p[1], i)]
        else:
            lo, hi = sorted((p[1], q[1]))
            cols.setdefault(p[0], []).append((lo, hi, i))
            events.append((p[0], _QUERY, (lo, hi), i))
    out = []
    _collinear(rows, segs, True, out)
    _collinear(cols, segs, False, out)
    events.sort(key=lambda e: e[:2])
    active = []                      # (y, index) of the horizontals at x
    for x, kind, y, i in events:
        if kind == _INSERT:
            insort(active, (y, i))
        elif kind == _REMOVE:
            del active[bisect_left(active, (y, i))]
        else:
            lo, hi = y
            a = bisect_left(active, (lo, -1))
            b = bisect_right(active, (hi, len(segs)))
            for yh, j in active[a:b]:
                pt = (x, yh)
                if not _meet_ok(segs[j], segs[i], pt):
                    inner = pt not in segs[j][:2] and pt not in segs[i][:2]
                    out.append((segs[j], segs[i], "proper crossing" if inner
                                else f"contact at {pt}"))
    return out


def check_orthogonal_planarity(gd_or_segments):
    """(is_planar, conflicts) of a GridDrawing or a list of anchored
    axis-parallel segments, by the sweep."""
    segs = gd_or_segments if isinstance(gd_or_segments, list) \
        else segments(gd_or_segments)
    conflicts = orthogonal_conflicts(segs)
    return not conflicts, conflicts

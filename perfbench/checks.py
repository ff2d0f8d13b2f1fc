"""Output checks, written independently of the library's own validators.

Each check returns a list of problems; an empty list means the output is
correct.  They run after the timed loop.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right, insort


# -- draw ----------------------------------------------------------------------

def check_drawing(doc, text):
    """A ``draw --compact --with-root`` result for the dual document ``doc``:
    every non-root edge bends exactly once, every segment is axis-parallel,
    the root routes start at the root's neighbours and end at the root, and
    no two segments meet except at a shared endpoint."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    darts = doc["map"]["darts"]
    origin = [r["origin"] for r in darts]
    twin = [r["twin"] for r in darts]
    root = doc["root_vertex"]
    n = max(origin) + 1
    problems = []
    if out.get("n") != n:
        problems.append(f"n = {out.get('n')}, expected {n}")
    coords = {int(v): tuple(p) for v, p in out["coords"].items()}
    if set(coords) != set(range(n)) - {root}:
        return problems + ["coords do not cover the non-root vertices"]
    edges = {h: (origin[h], origin[twin[h]]) for h in range(len(darts))
             if h < twin[h] and root not in (origin[h], origin[twin[h]])}
    bends = {int(e): tuple(b) for e, b in out["bends"].items()}
    if set(bends) != set(edges):
        return problems + ["bends do not match the non-root edges one to one"]
    segments = []
    for e, (u, w) in edges.items():
        a, b, c = coords[u], bends[e], coords[w]
        if (a[0] == b[0]) == (b[0] == c[0]):
            problems.append(f"edge {e} does not turn at its bend")
        segments += [(a, b), (b, c)]
    if out.get("root") is None or out.get("reduction") is None:
        return problems + ["root routes or reduction missing"]
    root_pos = tuple(out["root"]["pos"])
    routes = [[tuple(p) for p in pts] for pts in out["root"]["routes"]]
    starts = sorted(pts[0] for pts in routes)
    nbrs = sorted(coords[origin[twin[h]]] for h in range(len(darts))
                  if origin[h] == root)
    if len(routes) != 4 or starts != nbrs or \
            any(pts[-1] != root_pos for pts in routes):
        problems.append("root routes do not join the root to its neighbours")
    for pts in routes:
        segments += list(zip(pts, pts[1:]))
    points = list(coords.values()) + list(bends.values()) + [root_pos] + \
        [p for pts in routes for p in pts[1:-1]]
    if len(set(points)) != len(points):
        problems.append("two vertices, bends or route corners coincide")
    return problems + crossings(segments)


def crossings(segments):
    """Problems among axis-parallel segments: a diagonal or empty segment,
    overlapping collinear segments, or a horizontal and a vertical segment
    that meet anywhere but at an endpoint of both.  A sweep over x keeps
    the active horizontal segments sorted by y."""
    problems = []
    horizontal, vertical = [], []
    for a, b in segments:
        if a == b or (a[0] != b[0] and a[1] != b[1]):
            problems.append(f"segment {a}-{b} is empty or not axis-parallel")
        elif a[1] == b[1]:
            horizontal.append((min(a[0], b[0]), max(a[0], b[0]), a[1]))
        else:
            vertical.append((a[0], min(a[1], b[1]), max(a[1], b[1])))
    for name, segs, line, lo, hi in (("horizontal", horizontal, 2, 0, 1),
                                     ("vertical", vertical, 0, 1, 2)):
        last_end = {}
        for s in sorted(segs, key=lambda s: (s[line], s[lo])):
            if s[lo] < last_end.get(s[line], s[lo]):
                problems.append(f"{name} segments overlap on line {s[line]}")
            last_end[s[line]] = max(s[hi], last_end.get(s[line], s[hi]))
    # events at equal x: insert (0) before query (1) before remove (2)
    events = [(h[0], 0, h) for h in horizontal] + \
        [(h[1], 2, h) for h in horizontal] + [(v[0], 1, v) for v in vertical]
    active = []      # sorted (y, x0, x1)
    for x, kind, s in sorted(events):
        if kind == 0:
            insort(active, (s[2], s[0], s[1]))
        elif kind == 2:
            del active[bisect_left(active, (s[2], s[0], s[1]))]
        else:
            _x, y0, y1 = s
            lo = bisect_left(active, (y0,))
            hi = bisect_right(active, (y1, float("inf")))
            for y, hx0, hx1 in active[lo:hi]:
                if not (y in (y0, y1) and x in (hx0, hx1)):
                    problems.append(f"segments cross at ({x}, {y})")
    return problems


# -- lattice min ------------------------------------------------------------------

def orientation_digest(values):
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def check_min_orientation(doc, text, digest):
    """A ``lattice --d 4 min`` result: the input map echoed, each internal
    edge's two values summing to 2, outdegree 4 at internal vertices and 0
    at the outer four, and the values' digest equal to the one recorded."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if out.get("map") != doc["map"] or out.get("d") != 4:
        return ["the output map differs from the input"]
    o = out["orientation"]
    darts = doc["map"]["darts"]
    values = o["values"]
    if o["k"] != 2 or len(values) != len(darts):
        return [f"k = {o['k']} or {len(values)} values for {len(darts)} darts"]
    twin = [r["twin"] for r in darts]
    next_cw = [r["next_cw"] for r in darts]
    origin = [r["origin"] for r in darts]
    outer, h = set(), doc["map"]["outer_dart"]
    for _ in range(4):
        outer |= {h, twin[h]}
        h = next_cw[twin[h]]
    externals = {origin[h] for h in outer}
    problems = []
    outdeg = [0] * (max(origin) + 1)
    for h, v in enumerate(values):
        if h in outer:
            if v != -1:
                problems.append(f"outer dart {h} carries {v}")
        elif not 0 <= v <= 2 or v + values[twin[h]] != 2:
            problems.append(f"edge of dart {h}: {v} + {values[twin[h]]} != 2")
        else:
            outdeg[origin[h]] += v
    for u, deg in enumerate(outdeg):
        if deg != (0 if u in externals else 4):
            problems.append(f"vertex {u} has outdegree {deg}")
    if not problems and orientation_digest(values) != digest:
        problems.append("orientation differs from the recorded lattice minimum")
    return problems


# -- sample -----------------------------------------------------------------------

def check_sample(n, rc, text, max_attempts):
    """Classify a ``sample --n N --count 1`` result as "ok" or "failed" (the
    attempt cap was hit), with the problems that make it incorrect."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return "ok", [f"output is not JSON: {exc}"]
    if rc == 1 and out.get("error", {}).get("kind") == "RejectionLimitExceeded":
        return "failed", []
    if rc != 0 or "summary" not in out:
        return "ok", [f"exit {rc} with {text[:200]!r}"]
    problems = []
    if out["n"] != n or out["accepted"] != 1 or \
            not 1 <= out["attempts"] <= max_attempts:
        problems.append(f"header n={out['n']} accepted={out['accepted']} "
                        f"attempts={out['attempts']}")
    s = out["summary"]
    part, full = s["part"]["mean"], s["full"]["mean"]
    # n faces: n + 2 vertices, n - 2 of them internal
    if not (0 <= part and 0 <= full and part + full <= n - 2):
        problems.append(f"part {part} + full {full} out of range")
    for key in ("reduced_width", "reduced_height"):
        if not 1 <= s[key]["mean"] <= n:
            problems.append(f"{key} {s[key]['mean']} out of range")
    return "ok", problems

"""In-memory span tracing of schnyder_kit, applied from outside the package.

Each layer's public functions are wrapped while a traced operation runs and
restored afterwards; nothing under ``src/`` changes.  Several modules import
functions by name (``even``, ``duality`` and ``sampler`` do), so a wrapper
replaces every module-level binding of the original function object, not
just the one in its defining module.  Lazy ``from . import duality`` imports
then pick up the wrapped attributes as well.

A span records (name, start, end, parent).  A layer's self time is its span
minus the spans of its direct children, so the self times of one operation
add up to the time of its outermost span.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "schnyder_kit"

# span name -> (module, attribute) for functions, (module, class, attribute)
# for methods.  Several targets may share one span name.
SPAN_TARGETS = {
    "cli": [("cli", "main")],
    "planar_map.build": [("planar_map", "PlaneMap", "__init__"),
                         ("planar_map", "PlaneMap", "dual")],
    "planar_map.girth": [("planar_map", "PlaneMap", "girth")],
    "orientation.flow": [("orientation", "compute_alpha_k_orientation")],
    "orientation.circuit_scan": [("orientation", "_find_d_circuits")],
    "orientation.push": [("orientation", "push_cycle")],
    "schnyder.psi_inverse": [("schnyder", "psi_inverse")],
    "schnyder.phi": [("schnyder", "phi")],
    "schnyder.validate": [("schnyder", "validate_labelling"),
                          ("schnyder", "validate_schnyder")],
    "duality.chi": [("duality", "chi")],
    "duality.validate": [("duality", "validate_regular_decomposition"),
                         ("duality", "validate_regular_labelling")],
    "even.pipeline": [("even", "compute_even_regular_decomposition")],
    "even.lambda_inverse": [("even", "lambda_inverse")],
    "even.validate": [("even", "validate_reduced_schnyder"),
                      ("even", "validate_reduced_regular")],
    "drawing.place": [("drawing", "place_by_equatorial_lines")],
    "drawing.orthogonal": [("drawing", "orthogonal_drawing")],
    "drawing.classify": [("drawing", "classify_faces")],
    "drawing.reduce": [("drawing", "balanced_reduction_choice"),
                       ("drawing", "apply_reduction")],
    "drawing.emit": [("drawing", "emit_drawing_json"),
                     ("drawing", "emit_svg")],
    "sampler.filter": [("sampler", "rejection_sample_fast")],
    "sampler.decode": [("sampler", "decode")],
    "sampler.part_full": [("sampler", "part_full_counts")],
}


class OpTrace:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()

    def self_times(self):
        """name -> (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0])
        for (name, t0, t1, _parent), c in zip(self.spans, child):
            out[name][0] += t1 - t0 - c
            out[name][1] += 1
        return {k: tuple(v) for k, v in out.items()}


class Tracer:
    """Installs span wrappers around the package's layer functions.

    ``install`` patches, ``uninstall`` restores the original objects; the
    current operation's spans go to ``self.op``."""

    def __init__(self):
        self.op = None
        self.bindings = []   # (owner, attribute, original, wrapper)
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".")[0] == PACKAGE]
        for span, targets in SPAN_TARGETS.items():
            for target in targets:
                self._bind(span, target, modules)

    def _bind(self, span, target, modules):
        owner = sys.modules.get(f"{PACKAGE}.{target[0]}")
        for attr in target[1:-1]:
            owner = getattr(owner, attr, None)
        original = getattr(owner, target[-1], None)
        if original is None:
            self.missing.append(".".join(target))
            return
        wrapper = self._wrap(span, original)
        if isinstance(owner, type):
            self.bindings.append((owner, target[-1], original, wrapper))
            return
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self.bindings.append((m, name, original, wrapper))

    def _wrap(self, span, fn):
        tracer = self
        hook = SPAN_HOOKS.get(span)

        def traced(*args, **kwargs):
            op = tracer.op
            rec = [span, 0.0, 0.0, op.stack[-1] if op.stack else -1]
            op.stack.append(len(op.spans))
            op.spans.append(rec)
            result = error = None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                rec[2] = perf_counter()
                op.stack.pop()
                if hook:
                    hook(op.counts, args, kwargs, result, error)

        return traced

    def install(self):
        self.op = OpTrace()
        for owner, name, _original, wrapper in self.bindings:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _wrapper in self.bindings:
            setattr(owner, name, original)
        op, self.op = self.op, None
        return op


# -- sampler counters, read where the work happens ------------------------------

def _count_filter(counts, args, kwargs, result, exc):
    if exc is None:
        counts["sampler.attempts"] += result[2]
        counts["sampler.accepts"] += 1
    elif getattr(exc, "kind", None) == "RejectionLimitExceeded":
        # rejection_sample_fast(n, rng, max_attempts) gave up after all of them
        cap = args[2] if len(args) > 2 else kwargs["max_attempts"]
        counts["sampler.attempts"] += cap
        counts["sampler.limit_exceeded"] += 1


def _count_decode(counts, args, kwargs, result, exc):
    if exc is not None and getattr(exc, "kind", None) == "Invalid":
        counts["sampler.reject." + exc.stage] += 1


SPAN_HOOKS = {"sampler.filter": _count_filter, "sampler.decode": _count_decode}

"""Command-line entry point.

Documents are JSON objects of the form

    {"map": <plane map>, "d": N, ...optional payloads...}

where the payload keys are "orientation", "labelling", "schnyder" on a
primal host and "regular_labelling", "regular_decomposition" on a dual
host (dual documents also carry "root_vertex" and "first_root_dart" so the
rooted view can be rebuilt).  A bare plane-map object is accepted wherever
a document is.  Each payload's check returns its violations, which validate
reports and convert and dualize refuse before use.  All outputs are
deterministic: identical invocations write byte-identical files, and every
run's randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import KitError, MapError
from .planar_map import PlaneMap, as_angulation, as_regular
from . import orientation as orientation_mod
from . import schnyder as schnyder_mod
from . import duality as duality_mod
from . import even as even_mod
from . import drawing as drawing_mod
from . import sampler as sampler_mod

DEFAULT_SEED = 108


def _dump(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _load_doc(path):
    with open(path) as f:
        try:
            obj = json.load(f)
        except (ValueError, RecursionError) as exc:
            # malformed JSON, not UTF-8, or nested past the decoder's depth
            raise KitError("BadDocument", f"not a JSON document: {exc}",
                           stage="cli") from exc
    if not isinstance(obj, dict):
        raise KitError("BadDocument",
                       f"a document is a JSON object, not {type(obj).__name__}",
                       stage="cli")
    if "map" not in obj:
        obj = {"map": obj}
    return obj


def _plane_map(doc):
    return PlaneMap.from_json_obj(doc["map"])


def _doc_d(doc, args):
    d = getattr(args, "d", None)
    if d is None:
        d = doc.get("d")
    if d is None:
        raise MapError("NotDAngulation", "no face degree given (use --d)")
    if type(d) is not int:
        raise KitError("BadDocument", "the face degree 'd' must be an "
                                      "integer", stage="cli")
    return d


def _angulation(doc, args):
    return as_angulation(_plane_map(doc), _doc_d(doc, args))


def _regular_view(doc, args, root=None):
    m = _plane_map(doc)
    if root is None:
        return as_regular(m, _doc_d(doc, args),
                          root=doc.get("root_vertex", m.root_vertex),
                          first_root_dart=doc.get("first_root_dart"))
    return as_regular(m, _doc_d(doc, args), root=root)


# view -> payload key -> (module, table, check), primal keys in the order of
# Psi^-1 and Phi.  validate, convert and dualize read every payload this way
# and look the names up as they read, so that a wrapper on the module runs.
# Every check returns its payload's (axiom, where, message) violations:
# validate reports them, and require_valid raises the table's error.
PAYLOADS = {
    "angulation": {
        "orientation": (orientation_mod, "FracOrientation",
                        "validate_orientation"),
        "labelling": (schnyder_mod, "CornerLabelling", "validate_labelling"),
        "schnyder": (schnyder_mod, "SchnyderDecomposition",
                     "validate_schnyder"),
    },
    "regular": {
        "regular_labelling": (duality_mod, "RegularLabelling",
                              "validate_regular_labelling"),
        "regular_decomposition": (duality_mod, "RegularDecomposition",
                                  "validate_regular_decomposition"),
    },
}


def _read_payload(doc, host, view, kind):
    """doc's `kind` payload on host, and its check."""
    module, table, check = PAYLOADS[view][kind]
    return (getattr(module, table).from_json_obj(doc[kind], host),
            getattr(module, check))


def _valid_payload(doc, ang, kind):
    """doc's `kind` payload on ang; a missing or invalid one raises."""
    if kind not in doc:
        raise MapError("MissingPayload", f"document has no '{kind}' payload")
    t, check = _read_payload(doc, ang, "angulation", kind)
    return schnyder_mod.require_valid(t, check)


def _convert_primal(value, src, dst):
    """A valid value mapped from src to dst by the unchecked cores: Psi^-1
    and Phi up the primal keys of PAYLOADS, Phi^-1 and Psi down."""
    chain = list(PAYLOADS["angulation"])
    i, j = chain.index(src), chain.index(dst)
    for step in (schnyder_mod._psi_inverse, schnyder_mod.phi)[i:j]:
        value = step(value)
    for step in (schnyder_mod._phi_inverse, schnyder_mod._psi)[2 - i:2 - j]:
        value = step(value)
    return value


# -- subcommands -----------------------------------------------------------

def _cmd_validate(args, out):
    doc = _load_doc(args.input)
    view = _regular_view if args.view == "regular" else _angulation
    host = view(doc, args)
    report = {"ok": True, "checked": [args.view]}
    for kind in PAYLOADS[args.view]:
        if kind in doc:
            t, check = _read_payload(doc, host, args.view, kind)
            bad = check(t)
            report["checked"].append(kind)
            if bad:
                report["ok"] = False
                report.setdefault("violations", {})[kind] = \
                    [list(b) for b in bad]
    out.write(_dump(report))
    return 0 if report["ok"] else 1


def _cmd_orient(args, out):
    doc = _load_doc(args.input)
    ang = _angulation(doc, args)
    if args.even:
        o = orientation_mod.double(
            orientation_mod.compute_p_p1_orientation(ang))
    else:
        o = orientation_mod.compute_dd2_orientation(ang)
    out.write(_dump({"map": ang.map.to_json_obj(), "d": ang.d,
                     "orientation": o.to_json_obj()}))
    return 0


def _cmd_convert(args, out):
    doc = _load_doc(args.input)
    ang = _angulation(doc, args)
    value = _valid_payload(doc, ang, args.src)
    result = _convert_primal(value, args.src, args.dst)
    out.write(_dump({"map": ang.map.to_json_obj(), "d": ang.d,
                     args.dst: result.to_json_obj()}))
    return 0


def _cmd_dualize(args, out):
    doc = _load_doc(args.input)
    ang = _angulation(doc, args)
    rv = duality_mod.dualize(ang)
    result = {"map": rv.map.to_json_obj(), "d": rv.d,
              "root_vertex": rv.root_vertex,
              "first_root_dart": rv.root_darts[0]}
    if "schnyder" in doc:
        s = _valid_payload(doc, ang, "schnyder")
        result["regular_decomposition"] = duality_mod._chi(s, rv).to_json_obj()
    out.write(_dump(result))
    return 0


def _cmd_lattice(args, out):
    doc = _load_doc(args.input)
    ang = _angulation(doc, args)
    if args.action == "count":
        out.write(_dump({"count": len(orientation_mod.lattice_enumerate(ang))}))
    elif args.action == "enumerate":
        elems = orientation_mod.lattice_enumerate(ang)
        out.write(_dump({"count": len(elems),
                         "elements": [o.to_json_obj() for o in elems]}))
    else:
        o = orientation_mod.minimal_orientation(
            orientation_mod.compute_dd2_orientation(ang))
        out.write(_dump({"map": ang.map.to_json_obj(), "d": ang.d,
                         "orientation": o.to_json_obj()}))
    return 0


def _cmd_draw(args, out):
    doc = _load_doc(args.input)
    doc.setdefault("d", 4)
    rv = _regular_view(doc, args, root=args.root)
    rd = even_mod.compute_even_regular_decomposition(rv)
    gd = drawing_mod.orthogonal_drawing(rd)
    if args.compact:
        fc = drawing_mod.classify_faces(gd)
        gd = drawing_mod.apply_reduction(
            gd, drawing_mod.balanced_reduction_choice(fc))
    if args.with_root:
        gd = drawing_mod.add_root(gd)
    text = _dump(drawing_mod.emit_drawing_json(gd))
    if args.svg:                 # before stdout, so a bad path prints no JSON
        with open(args.svg, "w") as f:
            f.write(drawing_mod.emit_svg(gd))
    out.write(text)
    return 0


def _cmd_sample(args, out):
    stats = sampler_mod.concentration_experiment(
        args.n, args.count, seed=args.seed,
        max_attempts=args.max_attempts, jobs=args.jobs)
    if args.report:
        with open(args.report, "w") as f:
            f.write(_dump(stats.to_json_obj()))
    out.write(_dump({"n": stats.n, "accepted": stats.accepted,
                     "attempts": stats.attempts, "seed": stats.seed,
                     "summary": stats.summary}))
    return 0


def _cmd_enumerate(args, out):
    pairs = sampler_mod.enumerate_pairs(args.n)
    out.write(_dump({"n": args.n, "count": len(pairs),
                     "pairs": [{"map": ang.map.to_json_obj(), "d": 4,
                                "schnyder": s.to_json_obj()}
                               for ang, s in pairs]}))
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="schnyder-kit",
        description="Schnyder decompositions of d-angulations, duals, "
                    "orthogonal drawings, and samplers.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="validate a map and its payloads")
    q.add_argument("input")
    q.add_argument("--d", type=int)
    q.add_argument("--as", dest="view", choices=("angulation", "regular"),
                   default="angulation")
    q.set_defaults(fn=_cmd_validate)

    q = sub.add_parser("orient", help="compute a d/(d-2)-orientation")
    q.add_argument("input")
    q.add_argument("--d", type=int)
    q.add_argument("--even", action="store_true",
                   help="double a p/(p-1)-orientation (even d only)")
    q.set_defaults(fn=_cmd_orient)

    q = sub.add_parser("convert",
                       help="convert between orientation, labelling and "
                            "Schnyder decomposition")
    q.add_argument("input")
    q.add_argument("--d", type=int)
    kinds = PAYLOADS["angulation"]
    q.add_argument("--from", dest="src", choices=kinds, required=True)
    q.add_argument("--to", dest="dst", choices=kinds, required=True)
    q.set_defaults(fn=_cmd_convert)

    q = sub.add_parser("dualize",
                       help="dual map, transporting a Schnyder payload")
    q.add_argument("input")
    q.add_argument("--d", type=int)
    q.set_defaults(fn=_cmd_dualize)

    q = sub.add_parser("lattice", help="the lattice of orientations")
    q.add_argument("input")
    q.add_argument("--d", type=int)
    q.add_argument("action", choices=("count", "enumerate", "min"))
    q.set_defaults(fn=_cmd_lattice)

    q = sub.add_parser("draw", help="orthogonal drawing of a rooted "
                                    "4-regular map")
    q.add_argument("input")
    q.add_argument("--root", type=int,
                   help="root vertex (default: the document's root)")
    q.add_argument("--compact", action="store_true",
                   help="apply the balanced reduction")
    q.add_argument("--with-root", action="store_true", dest="with_root")
    q.add_argument("--svg", help="also write the drawing as SVG")
    q.set_defaults(fn=_cmd_draw)

    q = sub.add_parser("sample", help="rejection-sample pairs and report "
                                      "concentration statistics")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--count", type=int, required=True)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument("--max-attempts", type=int,
                   help="cap on drawn triples per sample, at least 1 "
                        "(default: as many as 10^6 random word triples hold "
                        "on average, 1968 at n=24); the reported attempts "
                        "and acceptance_rate count drawn triples")
    q.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at least 1; at most --count and "
                        "the CPU count run (default: 1)")
    q.add_argument("--report")
    q.set_defaults(fn=_cmd_sample)

    q = sub.add_parser("enumerate", help="exhaustive pair corpus at small n")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(fn=_cmd_enumerate)
    return p


_parser = None


def main(argv=None, out=None):
    global _parser
    out = out or sys.stdout
    if _parser is None:            # built once per process and reused
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args, out)
    except KitError as exc:
        out.write(_dump({"error": exc.as_object()}))
        return 1
    except OSError as exc:         # a file argument that cannot be opened
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) \
            else "BadFile"
        out.write(_dump({"error": {"stage": "cli", "kind": kind,
                                   "detail": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

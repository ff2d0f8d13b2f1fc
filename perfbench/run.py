"""The schnyder-kit benchmark.

    python3 perfbench/run.py --workload draw|sample|orient-min \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one in-process call of
``schnyder_kit.cli.main`` on documents generated from ``--seed`` (a
``sample`` operation may call again, see Sample); one client runs the
operations back to back (a closed loop, no ``--jobs``) for ``--seconds``
seconds.  Every output is checked after the timed loop.

Times are scaled to a reference machine speed (see MachineSpeed).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced runs of the same inputs and
reports the per-layer metrics (medians per traced operation) and the tracing
overhead.  The last line of stdout is one JSON object; the exit code is 1
when an output check fails and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter, deque
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hosts  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 7
REFERENCE_PROBE_S = 0.004  # probe() on the reference machine
TAIL_BEYOND = 10          # the tail leaves this many inputs beyond it

END_TO_END = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# span -> (end-to-end metric it should move, workloads where it must fire)
LAYER_MAP = {
    "cli": ("latency_p50_s", ("sample",)),
    "planar_map.build": ("latency_p50_s", ("sample", "draw")),
    "planar_map.girth": ("latency_p50_s", ("draw",)),
    "orientation.flow": ("latency_p50_s", ("draw",)),
    "orientation.circuit_scan": ("latency_p50_s", ("orient-min",)),
    "orientation.push": ("latency_p50_s", ("orient-min",)),
    "schnyder.psi_inverse": ("latency_p50_s", ("draw",)),
    "schnyder.phi": ("latency_p50_s", ("draw",)),
    "schnyder.validate": ("latency_p50_s", ("draw", "sample")),
    "duality.chi": ("latency_p50_s", ("draw", "sample")),
    "duality.validate": ("latency_p50_s", ("draw",)),
    "even.pipeline": ("latency_p50_s", ("draw",)),
    "even.lambda_inverse": ("latency_p50_s", ("sample",)),
    "even.validate": ("latency_p50_s", ("sample",)),
    "drawing.place": ("latency_p50_s", ("draw", "sample")),
    "drawing.orthogonal": ("latency_p50_s", ("draw", "sample")),
    "drawing.classify": ("latency_p50_s", ("draw", "sample")),
    "drawing.reduce": ("latency_p50_s", ("draw", "sample")),
    "drawing.emit": ("latency_p50_s", ("draw",)),
    "sampler.filter": ("ops_per_s", ("sample",)),
    "sampler.decode": ("ops_per_s", ("sample",)),
    "sampler.part_full": ("ops_per_s", ("sample",)),
}
COUNTED_SPANS = ("planar_map.build", "orientation.circuit_scan",
                 "orientation.push", "schnyder.validate", "duality.validate")
SAMPLER_RATIOS = ("attempts_per_accept", "accept_ratio",
                  "filter_reject_per_accept", "reject_tree_per_accept",
                  "reject_closure_per_accept", "reject_validation_per_accept")
REJECT_STAGES = {"reject_tree_per_accept": "TreeReconstructionFailed",
                 "reject_closure_per_accept": "ClosureFailed",
                 "reject_validation_per_accept": "ValidationFailed"}
SERIES_SIZES = (200, 400, 800, 1600)
SERIES_REPEATS = 3
SERIES_SPANS = ("orientation.flow", "schnyder.validate", "duality.validate",
                "even.pipeline", "drawing.place", "drawing.orthogonal",
                "drawing.classify", "drawing.reduce")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {("cli.self_s" if s == "cli" else f"{s}_s"): "s" for s in LAYER_MAP}
    units["cli.calls_per_op"] = "count"
    units.update({f"{s}.calls": "count" for s in COUNTED_SPANS})
    units.update({f"sampler.{r}": ("ratio" if r == "accept_ratio" else "count")
                  for r in SAMPLER_RATIOS})
    units["sampler.limit_exceeded"] = "count"
    units.update({f"{s}.slope": "1" for s in SERIES_SPANS + ("op",)})
    units["trace.overhead_frac"] = "ratio"
    return units


# -- workloads -------------------------------------------------------------------

class HostWorkload:
    """Cycles over a fixed set of host documents, ``self.docs``: key ->
    (path, document), one CLI call per operation.  The CLI is deterministic,
    so the first output of each host is checked in full and every later one
    must repeat it."""

    def inputs(self):
        return itertools.cycle(list(self.docs))

    def calls(self, key):
        return [self.argv(key)]

    @staticmethod
    def retry(rc, text):
        return False

    def check(self, key, results):
        (rc, text), = results
        if rc != 0:
            return "ok", [f"exit {rc}: {text[:200]!r}"]
        if key in self.first_output:
            return "ok", [] if text == self.first_output[key] else [
                "output differs from the first run of the same host"]
        self.first_output[key] = text
        return "ok", self.check_output(key, self.docs[key][1], text)


class Draw(HostWorkload):
    """``draw --compact --with-root`` on duals of random face-split
    quadrangulations with V* = 800, one of 48 hosts per operation."""

    HOSTS = 48
    FACES = 800

    def __init__(self, seed, workdir):
        rng = random.Random(f"draw:{seed}")
        self.docs = {}
        for i in range(self.HOSTS):
            q = hosts.face_split_quadrangulation(self.FACES, rng)
            self.docs[i] = write_doc(workdir / f"draw-{i}.json",
                                     hosts.dual_document(q))
        self.first_output = {}

    def argv(self, key):
        return ["draw", self.docs[key][0], "--compact", "--with-root"]

    def check_output(self, key, doc, text):
        return checks.check_drawing(doc, text)


class Sample:
    """``sample --n 24 --count 1 --seed s`` with the default attempt cap.

    An operation delivers one sample.  About one call in seven exceeds the
    cap (RejectionLimitExceeded, a known defect recorded in baseline.json);
    the client then calls again with the entry's next seed, up to CALLS
    calls, and only an operation whose calls all hit the cap fails.  The
    time of the capped calls stays in the operation, and the traced run
    counts them in ``cli.calls_per_op``.  Entries come from a fixed catalogue
    of CATALOGUE, each a seed sequence derived from its index alone (no
    entry is picked or dropped for its cost); ``--seed`` orders them, a
    fresh shuffle per pass.  A run of 35 s makes about 190 ops, so it times
    the whole catalogue."""

    N = 24
    CATALOGUE = 128
    CALLS = 8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.max_attempts = sys.modules[
            "schnyder_kit.sampler"].DEFAULT_MAX_ATTEMPTS

    def inputs(self):
        return shuffled_passes(range(self.CATALOGUE), f"sample:{self.seed}")

    def calls(self, key):
        rng = random.Random(f"sample-entry:{key}")
        return [["sample", "--n", str(self.N), "--count", "1",
                 "--seed", str(rng.randrange(2 ** 31))]
                for _ in range(self.CALLS)]

    @staticmethod
    def retry(rc, text):
        return rc == 1 and "RejectionLimitExceeded" in text

    def check(self, key, results):
        verdicts = [checks.check_sample(self.N, rc, text, self.max_attempts)
                    for rc, text in results]
        problems = [p for _status, bad in verdicts for p in bad]
        if any(status != "failed" for status, _ in verdicts[:-1]):
            problems.append("called again after a call that did not hit "
                            "the attempt cap")
        if verdicts[-1][0] == "failed" and len(results) < self.CALLS:
            problems.append("stopped after a call that hit the attempt cap")
        return verdicts[-1][0], problems


class OrientMin(HostWorkload):
    """``lattice --d 4 min`` on ringed quadrangulations (25 concentric
    4-cycles plus 20 face splits, V = 120): the catalogue of 64 whose
    lattice minima were recorded in digests.json, in an order drawn from the
    seed, a fresh shuffle per pass.  A run of 35 s times about half of
    them, each once."""

    CATALOGUE = 64

    def __init__(self, seed, workdir):
        self.seed = seed
        with open(HERE / "digests.json") as f:
            self.digests = json.load(f)
        self.docs = {i: write_doc(workdir / f"ringed-{i}.json",
                                  hosts.primal_document(catalogue_host(i)))
                     for i in range(self.CATALOGUE)}
        self.first_output = {}

    def inputs(self):
        return shuffled_passes(self.docs, f"orient-min:{self.seed}")

    def argv(self, key):
        return ["lattice", self.docs[key][0], "--d", "4", "min"]

    def check_output(self, key, doc, text):
        return checks.check_min_orientation(doc, text, self.digests[str(key)])


def shuffled_passes(keys, seed):
    """The keys over and over, shuffled afresh for each pass."""
    rng = random.Random(seed)
    keys = list(keys)
    while True:
        rng.shuffle(keys)
        yield from keys


def catalogue_host(i):
    return hosts.ringed_quadrangulation(25, 20, random.Random(f"ringed:{i}"))


WORKLOADS = {"draw": Draw, "sample": Sample, "orient-min": OrientMin}


def write_doc(path, doc):
    with open(path, "w") as f:
        f.write(json.dumps(doc))
    return str(path), doc


# -- running ---------------------------------------------------------------------

def probe():
    """Seconds taken by a fixed pure-Python task that shares no code with
    schnyder_kit: 16 graph searches with dict, list and tuple churn, each
    followed by a sort, over a 250-node graph.  The graph is small, so the
    probe slows with the machine as the workloads' ops do: over 120 s of
    alternating fixed ``sample`` and ``lattice min`` ops, the ratio of op time
    to the neighbouring probes varied by 2-4% between 10-op blocks, and by
    6-7% with one search over a 4000-node graph."""
    t0 = perf_counter()
    n = 250
    for _ in range(16):
        adj = [((i * 7 + 1) % n, (i * 13 + 5) % n, (i + 1) % n)
               for i in range(n)]
        parent = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        sorted(parent.items(), key=lambda kv: (kv[1], kv[0]))
    return perf_counter() - t0


class MachineSpeed:
    """Scales measured seconds to the reference machine speed.

    On a shared machine the speed of interpreter-bound code swings between
    levels about 1.7x apart, in episodes from a fraction of a second to
    minutes, which spreads raw run medians by 15-40%.  So probe() runs
    before the first timed section and after every one (each set-up, each
    op), and a section of d seconds is multiplied by REFERENCE_PROBE_S over
    the mean of the probes that overlap the section widened by d/2 on
    either side: at least its two neighbours.  Over five 40 s runs each of
    sample and orient-min (with the 4000-node probe of an earlier version),
    latency_p50_s spread by 2-4% scaled this way, by 5-14% unscaled, and by
    6-21% with one factor per run (the mean or the median of its probes).
    A change to schnyder_kit cannot move the probe, so it moves scaled and
    raw times by the same factor."""

    def __init__(self):
        self.probes = []        # (start, end) of each probe

    def tick(self):
        t0 = perf_counter()
        self.probes.append((t0, t0 + probe()))

    def factor(self, start, end):
        half = (end - start) / 2
        near = [t1 - t0 for t0, t1 in self.probes
                if t1 >= start - half and t0 <= end + half]
        return REFERENCE_PROBE_S / statistics.fmean(near)

    def note(self):
        probes = [t1 - t0 for t0, t1 in self.probes]
        return (f"probe median {statistics.median(probes) * 1e3:.2f} ms "
                f"over {len(self.probes)} probes (reference "
                f"{REFERENCE_PROBE_S * 1e3:.2f} ms); times below are scaled")


def import_kit():
    """A fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n.split(".")[0] == "schnyder_kit"]:
        del sys.modules[name]
    cli = importlib.import_module("schnyder_kit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"schnyder_kit imported from {cli.__file__}")
    return cli


def run_op(cli, calls, retry):
    """(seconds, [(exit code, stdout) per call]) of one operation: in-process
    CLI calls with the argument lists ``calls``, up to the first whose
    result ``retry`` rejects."""
    results = []
    t0 = perf_counter()
    for argv in calls:
        out = io.StringIO()
        try:
            rc = cli.main(argv, out=out)
        except Exception:
            results.append((None, traceback.format_exc()))
            break
        results.append((rc, out.getvalue()))
        if not retry(rc, results[-1][1]):
            break
    return perf_counter() - t0, results


def check_records(workload, records):
    """(failed op count, problems) over (key, seconds, results) records."""
    failed, problems = 0, []
    for key, _dt, results in records:
        try:
            status, bad = workload.check(key, results)
        except (KeyError, TypeError, ValueError) as exc:
            status, bad = "ok", [f"malformed output: {exc!r}"]
        failed += status == "failed"
        problems += [f"input {key}: {p}" for p in bad]
    return failed, problems


def timed_run(cli, workload, seconds, speed):
    """End-to-end metrics.  The latencies are taken over the run's inputs,
    each timed as the median of its ops: a run repeats a fixed set of
    inputs a varying number of times, and over single ops the median and
    tail would jump between inputs as those counts change."""
    records, starts = [], []
    inputs = workload.inputs()
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        key = next(inputs)
        starts.append(perf_counter())
        dt, results = run_op(cli, workload.calls(key), workload.retry)
        speed.tick()
        records.append((key, dt, results))
    wall = perf_counter() - start
    failed, problems = check_records(workload, records)
    per_input, total = {}, 0.0
    for (key, dt, _results), t0 in zip(records, starts):
        scaled = dt * speed.factor(t0, t0 + dt)
        per_input.setdefault(key, []).append(scaled)
        total += scaled
    lat = sorted(statistics.median(ts) for ts in per_input.values())
    n, m = len(records), len(lat)
    tail_at = m - TAIL_BEYOND - 1 if m > TAIL_BEYOND else m - 1
    metrics = {
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": lat[tail_at],
        "ops_per_s": (n - failed) / total,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_median = statistics.median(r[1] for r in records)
    notes = [f"{n} ops ({failed} failed) on {m} inputs in {wall:.2f} s, "
             f"unscaled median op {raw_median:.4f} s",
             speed.note(),
             f"latency_tail_s is p{math.floor(100 * (tail_at + 1) / m)} over "
             f"inputs: {m - tail_at - 1} of {m} inputs took longer"]
    return records, failed, problems, metrics, notes


def traced_op(cli, tracer, calls, retry):
    tracer.install()
    try:
        dt, results = run_op(cli, calls, retry)
    finally:
        op = tracer.uninstall()
    return dt, results, op


def traced_run(cli, workload, seconds, speed, name, seed, workdir):
    tracer = Tracer()
    problems = [f"no such function to trace: {t}" for t in tracer.missing]
    records, timed, ratios = [], [], []
    counts = Counter()
    inputs = workload.inputs()
    start = perf_counter()
    while not timed or perf_counter() - start < seconds:
        key = next(inputs)
        calls = workload.calls(key)
        t0 = perf_counter()
        if len(timed) % 2:
            traced = traced_op(cli, tracer, calls, workload.retry)
            plain = run_op(cli, calls, workload.retry)
        else:
            plain = run_op(cli, calls, workload.retry)
            traced = traced_op(cli, tracer, calls, workload.retry)
        timed.append((t0, perf_counter(), traced[2].self_times()))
        speed.tick()
        if traced[1] != plain[1]:
            problems.append(f"input {key}: tracing changed the output")
        records += [(key, *plain), (key, *traced[:2])]
        ratios.append(traced[0] / plain[0])
        counts.update(traced[2].counts)
    per_op = [{span: (t * speed.factor(t0, t1), n)
               for span, (t, n) in op.items()} for t0, t1, op in timed]
    failed, bad = check_records(workload, records)
    problems += bad
    for span, (_metric, where) in LAYER_MAP.items():
        if name in where and not any(span in op for op in per_op):
            problems.append(f"span {span} never fired on {name}")

    metrics = {}
    for span in LAYER_MAP:
        key = "cli.self_s" if span == "cli" else f"{span}_s"
        metrics[key] = statistics.median(op.get(span, (0.0, 0))[0]
                                         for op in per_op)
    metrics["cli.calls_per_op"] = statistics.mean(
        len(results) for _key, _dt, results in records)
    for span in COUNTED_SPANS:
        metrics[f"{span}.calls"] = statistics.median(
            op.get(span, (0.0, 0))[1] for op in per_op)
    metrics.update(sampler_metrics(counts, per_op))
    notes = [f"{len(per_op)} traced and {len(per_op)} untraced ops "
             f"({failed} failed)", speed.note()]
    if name == "draw":
        slopes, series_notes, bad = size_series(cli, tracer, seed, workdir)
        metrics.update(slopes)
        notes += series_notes
        problems += bad
    else:
        metrics.update({f"{s}.slope": 0.0 for s in SERIES_SPANS + ("op",)})
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    return records, failed, problems, metrics, notes


def sampler_metrics(counts, per_op):
    """Sampler ratios over all traced ops, per accepted sample."""
    attempts = counts.get("sampler.attempts", 0)
    accepts = counts.get("sampler.accepts", 0)
    decodes = sum(op.get("sampler.decode", (0.0, 0))[1] for op in per_op)
    out = {f"sampler.{r}": 0.0 for r in SAMPLER_RATIOS}
    if accepts:
        out["sampler.attempts_per_accept"] = attempts / accepts
        out["sampler.accept_ratio"] = accepts / attempts
        out["sampler.filter_reject_per_accept"] = (attempts - decodes) / accepts
        for r, stage in REJECT_STAGES.items():
            out[f"sampler.{r}"] = counts.get(
                "sampler.reject." + stage, 0) / accepts
    out["sampler.limit_exceeded"] = counts.get("sampler.limit_exceeded", 0)
    return out


def size_series(cli, tracer, seed, workdir):
    """Traced draw at each size in SERIES_SIZES; a least-squares slope of
    log(median self time) against log(V*) per layer and for the whole op.
    A slope does not change when all times are scaled alike, so these times
    are unscaled."""
    medians = {s: [] for s in SERIES_SPANS + ("op",)}
    problems = []
    for faces in SERIES_SIZES:
        q = hosts.face_split_quadrangulation(
            faces, random.Random(f"series:{seed}:{faces}"))
        path, doc = write_doc(workdir / f"series-{faces}.json",
                              hosts.dual_document(q))
        runs = []
        for _ in range(SERIES_REPEATS):
            dt, ((rc, text),), op = traced_op(
                cli, tracer, [["draw", path, "--compact", "--with-root"]],
                Draw.retry)
            runs.append((dt, op.self_times()))
        problems += [f"series V*={faces}: {p}" for p in
                     (checks.check_drawing(doc, text) if rc == 0
                      else [f"exit {rc}"])]
        medians["op"].append(statistics.median(dt for dt, _ in runs))
        for s in SERIES_SPANS:
            medians[s].append(statistics.median(
                st.get(s, (0.0, 0))[0] for _, st in runs))
    xs = [math.log(v) for v in SERIES_SIZES]
    slopes = {}
    for s, ys in medians.items():
        if min(ys) <= 0:
            problems.append(f"series: span {s} did not fire at every size")
            slopes[f"{s}.slope"] = 0.0
            continue
        slopes[f"{s}.slope"] = statistics.linear_regression(
            xs, [math.log(y) for y in ys]).slope
    notes = [f"series V*={v}: op {t:.4f} s unscaled" for v, t in
             zip(SERIES_SIZES, medians["op"])]
    return slopes, notes, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ.pop("SCHNYDER_KIT_JOBS", None)   # one client, no worker pool
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        speed = MachineSpeed()
        setup = []
        speed.tick()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            try:
                cli = import_kit()
            except ImportError as exc:
                print(f"cannot import schnyder_kit from {ROOT / 'src'}: {exc}",
                      file=sys.stderr)
                return 2
            workload = WORKLOADS[args.workload](args.seed, Path(tmp))
            setup.append((t0, perf_counter() - t0))
            speed.tick()
        setup_s = statistics.median(dt * speed.factor(t0, t0 + dt)
                                    for t0, dt in setup)
        if args.trace:
            result = traced_run(cli, workload, args.seconds, speed,
                                args.workload, args.seed, Path(tmp))
            units = per_layer_units()
        else:
            result = timed_run(cli, workload, args.seconds, speed)
            result[3]["setup_s"] = setup_s
            units = END_TO_END
    records, failed, problems, metrics, notes = result
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + problems[:20]:
        print("  " + line)
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

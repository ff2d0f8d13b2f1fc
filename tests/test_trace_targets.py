"""Every layer function that the benchmark traces still exists by name, and
every span that the benchmark expects on a workload fires on a small run of
that workload's CLI command."""

import ast
import importlib.util
import io
import json
import pathlib

import pytest

import schnyder_kit.cli as cli  # imports every layer module
import schnyder_kit.duality as D
import schnyder_kit.sampler as SA
from schnyder_kit.planar_map import as_angulation

import instances as I

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def layer_map():
    """LAYER_MAP of perfbench/run.py (span -> (metric, workloads)), read
    from its source without running the module."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["LAYER_MAP"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no LAYER_MAP")


def test_every_traced_layer_function_exists():
    tracer = load_tracing().Tracer()   # binds wrappers; installs nothing
    assert tracer.missing == []
    assert tracer.bindings


def _document(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _draw_argv(tmp_path):
    rv = D.dualize(as_angulation(I.cube(), 4))
    path = _document(tmp_path, "cube-dual", {
        "map": rv.map.to_json_obj(), "d": 4, "root_vertex": rv.root_vertex,
        "first_root_dart": rv.root_darts[0]})
    return ["draw", path, "--compact", "--with-root"]


def _orient_min_argv(tmp_path):
    # its lattice minimum takes at least one push
    path = _document(tmp_path, "rings", {
        "map": I.concentric_quadrangulation(4).to_json_obj(), "d": 4})
    return ["lattice", path, "--d", "4", "min"]


# a small CLI call per benchmark workload, the same command as its ops
WORKLOAD_CALLS = {
    "draw": _draw_argv,
    "sample": lambda tmp_path: ["sample", "--n", "6", "--count", "1"],
    "orient-min": _orient_min_argv,
}


def test_every_workload_of_the_layer_map_has_a_call():
    workloads = {w for _metric, where in layer_map().values() for w in where}
    assert workloads == set(WORKLOAD_CALLS)


def traced_call(argv):
    """(exit status, stdout, OpTrace) of one CLI call under the tracer."""
    tracer = load_tracing().Tracer()
    out = io.StringIO()
    tracer.install()
    try:
        rc = cli.main(argv, out=out)
    finally:
        op = tracer.uninstall()
    return rc, out.getvalue(), op


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CALLS))
def test_every_mapped_span_fires(tmp_path, workload):
    """A layer call that a refactor drops, or a wrapper that changes what
    a call prints, would otherwise fail only the traced benchmark run,
    which fails a run whose traced output differs from the untraced one."""
    argv = WORKLOAD_CALLS[workload](tmp_path)
    plain = io.StringIO()
    assert cli.main(argv, out=plain) == 0
    rc, text, op = traced_call(argv)
    assert rc == 0 and text == plain.getvalue()
    fired = {name for name, *_ in op.spans}
    want = {span for span, (_metric, where) in layer_map().items()
            if workload in where}
    assert want - fired == set()


def test_the_sampler_hooks_count_a_call_over_the_cap():
    """At seed 3 one sample at n = 24 draws the default cap of triples
    without an accepted one: the traced call answers as the untraced one,
    with RejectionLimitExceeded, and the hook of the filter span counts
    the whole cap and one call over it."""
    argv = ["sample", "--n", "24", "--count", "1", "--seed", "3"]
    plain = io.StringIO()
    assert cli.main(argv, out=plain) == 1
    rc, text, op = traced_call(argv)
    assert rc == 1 and text == plain.getvalue()
    assert json.loads(text)["error"]["kind"] == "RejectionLimitExceeded"
    assert op.counts == {"sampler.limit_exceeded": 1,
                         "sampler.attempts": SA.default_max_decodes(24)}
    assert SA.default_max_decodes(24) == 1968

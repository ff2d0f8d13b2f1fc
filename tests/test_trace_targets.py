"""Every layer function that the benchmark traces still exists by name."""

import importlib.util
import pathlib

import schnyder_kit.cli  # noqa: F401  (imports every layer module)

TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()      # binds wrappers; installs nothing
    assert tracer.missing == []
    assert tracer.bindings

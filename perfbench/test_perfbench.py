"""Tests of the benchmark's own code: host generators, output checks, and
the agreement of BENCHMARK.json with what run.py reports."""

import json
import random
from pathlib import Path

import checks
import hosts
import run
import tracing


def test_generated_hosts_are_girth_four_quadrangulations():
    for faces in (2, 3, 50, 800):
        for seed in range(3):
            q = hosts.face_split_quadrangulation(faces, random.Random(seed))
            assert hosts.check_host(q) == [], (faces, seed)
            assert len(q.faces) + 1 == faces
    for i in range(3):
        q = run.catalogue_host(i)
        assert hosts.check_host(q) == [], i
        assert q.n_vertices == 120


def test_host_check_sees_a_chord():
    q = hosts.face_split_quadrangulation(20, random.Random(0))
    a, b, c, d = q.faces[0]
    # a diagonal a-c splits the face into two triangles
    q.rotations[a].insert(q.rotations[a].index(d) + 1, c)
    q.rotations[c].insert(q.rotations[c].index(b) + 1, a)
    problems = hosts.check_host(q)
    assert "girth is not 4" in problems
    assert "a face is not a quadrangle" in problems


def test_crossings():
    assert checks.crossings([((0, 0), (2, 0)), ((2, 0), (2, 3))]) == []
    assert checks.crossings([((0, 1), (2, 1)), ((1, 0), (1, 3))])
    assert checks.crossings([((0, 1), (2, 1)), ((1, 1), (1, 3))])   # T
    assert checks.crossings([((0, 0), (2, 0)), ((1, 0), (3, 0))])   # overlap
    assert checks.crossings([((0, 0), (1, 1))])                     # diagonal


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert set(run.LAYER_MAP) == set(tracing.SPAN_TARGETS)


def test_sample_calls_again_only_after_the_cap():
    import schnyder_kit.cli as cli
    workload = run.Sample(0, None)
    for key in range(workload.CATALOGUE):
        _dt, results = run.run_op(cli, workload.calls(key), workload.retry)
        if len(results) > 1:
            break
    assert len(results) > 1, "no catalogue entry hit the attempt cap"
    assert workload.check(key, results) == ("ok", [])
    capped, done = results[0], results[-1]
    assert workload.check(key, [capped]) == (
        "failed", ["stopped after a call that hit the attempt cap"])
    status, problems = workload.check(key, [done, done])
    assert problems == ["called again after a call that did not hit "
                        "the attempt cap"]

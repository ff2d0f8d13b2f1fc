import concurrent.futures
import copy
import hashlib
import io
import json
import os
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import schnyder_kit.cli as cli
import schnyder_kit.duality as D
import schnyder_kit.orientation as O
import schnyder_kit.sampler as SA
import schnyder_kit.schnyder as S
from schnyder_kit.cli import main, _default_jobs
from schnyder_kit.planar_map import as_angulation

import instances as I

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


@pytest.fixture
def cube_doc(tmp_path):
    p = tmp_path / "cube.json"
    p.write_text(json.dumps({"map": I.cube().to_json_obj(), "d": 4}))
    return str(p)


def test_validate_plain_map(cube_doc):
    rc, text = run(["validate", cube_doc])
    assert rc == 0
    assert json.loads(text) == {"ok": True, "checked": ["angulation"]}


def test_orient_convert_validate_chain(cube_doc, tmp_path):
    rc, text = run(["orient", cube_doc, "--d", "4", "--even", "--minimal"])
    assert rc == 0
    orient_path = tmp_path / "orient.json"
    orient_path.write_text(text)

    rc, text = run(["convert", str(orient_path),
                    "--from", "orientation", "--to", "schnyder"])
    assert rc == 0
    schnyder_path = tmp_path / "schnyder.json"
    schnyder_path.write_text(text)

    rc, text = run(["validate", str(schnyder_path)])
    assert rc == 0
    assert json.loads(text)["checked"] == ["angulation", "schnyder"]

    # converting back recovers the original orientation payload
    rc, text = run(["convert", str(schnyder_path),
                    "--from", "schnyder", "--to", "orientation"])
    assert rc == 0
    assert json.loads(text)["orientation"] == \
        json.loads(orient_path.read_text())["orientation"]


def test_validate_rejects_corrupted_schnyder(cube_doc, tmp_path):
    run_chain = lambda p: run(["convert", p, "--from", "orientation",
                               "--to", "schnyder"])[1]
    _, orient_text = run(["orient", cube_doc, "--d", "4", "--even"])
    op = tmp_path / "o.json"
    op.write_text(orient_text)
    doc = json.loads(run_chain(str(op)))
    colors = [list(c) for c in doc["schnyder"]["dart_colors"]]
    swap_at = next(k for k in range(1, len(colors))
                   if colors[k] != colors[0])
    colors[0], colors[swap_at] = colors[swap_at], colors[0]
    doc["schnyder"]["dart_colors"] = colors
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, text = run(["validate", str(bad)])
    report = json.loads(text)
    assert rc == 1 and report["ok"] is False and report["violations"]


def test_dualize_and_draw_golden(cube_doc, tmp_path):
    _, orient_text = run(["orient", cube_doc, "--d", "4", "--even",
                          "--minimal"])
    op = tmp_path / "o.json"
    op.write_text(orient_text)
    _, schn_text = run(["convert", str(op), "--from", "orientation",
                        "--to", "schnyder"])
    sp = tmp_path / "s.json"
    sp.write_text(schn_text)

    rc, text = run(["dualize", str(sp)])
    assert rc == 0
    dual = json.loads(text)
    assert "regular_decomposition" in dual
    dp = tmp_path / "dual.json"
    dp.write_text(text)

    rc, _ = run(["validate", str(dp), "--as", "regular"])
    assert rc == 0

    svg = tmp_path / "c.svg"
    js = tmp_path / "c.json"
    rc, text = run(["draw", str(dp), "--with-root",
                    "--svg", str(svg), "--json", str(js)])
    assert rc == 0 and text == ""
    assert json.loads(js.read_text()) == \
        json.loads((GOLDEN / "cube_drawing.json").read_text())
    assert svg.read_text() == (GOLDEN / "cube_drawing.svg").read_text()


def test_draw_straightline_coordinates(cube_doc, tmp_path):
    _, orient_text = run(["orient", cube_doc, "--d", "4", "--even"])
    (tmp_path / "o.json").write_text(orient_text)
    _, dual_text = run(["dualize", str(tmp_path / "o.json")])
    dp = tmp_path / "dual.json"
    dp.write_text(dual_text)
    rc, text = run(["draw", str(dp), "--mode", "straightline"])
    assert rc == 0
    out = json.loads(text)
    assert out["mode"] == "straightline" and out["n"] == 6
    assert out["coords"] == {"0": [1, 0], "2": [4, 1], "3": [3, 4],
                             "4": [0, 3], "5": [2, 2]}


def test_draw_rejects_svg_with_straightline_before_writing(cube_doc,
                                                          tmp_path):
    _, orient_text = run(["orient", cube_doc, "--d", "4", "--even"])
    (tmp_path / "o.json").write_text(orient_text)
    _, dual_text = run(["dualize", str(tmp_path / "o.json")])
    dp = tmp_path / "dual.json"
    dp.write_text(dual_text)
    js, svg = tmp_path / "d.json", tmp_path / "d.svg"
    rc, text = run(["draw", str(dp), "--mode", "straightline",
                    "--json", str(js), "--svg", str(svg)])
    assert rc == 1
    err = json.loads(text)["error"]
    assert (err["stage"], err["kind"]) == ("cli", "BadMode")
    assert not js.exists() and not svg.exists()


def test_lattice_counts(cube_doc, tmp_path):
    rc, text = run(["lattice", cube_doc, "--d", "4", "count"])
    assert rc == 0 and json.loads(text) == {"count": 3}
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps(I.tetrahedron().to_json_obj()))
    rc, text = run(["lattice", str(k4), "--d", "3", "count"])
    assert rc == 0 and json.loads(text) == {"count": 1}
    rc, text = run(["lattice", cube_doc, "--d", "4", "enumerate"])
    assert len(json.loads(text)["elements"]) == 3
    rc, text = run(["lattice", cube_doc, "--d", "4", "min"])
    assert rc == 0 and "orientation" in json.loads(text)


def test_sample_deterministic_with_report(tmp_path):
    rep = tmp_path / "rep.json"
    argv = ["sample", "--n", "6", "--count", "5", "--seed", "7",
            "--report", str(rep)]
    rc1, t1 = run(argv)
    first_report = rep.read_text()
    rc2, t2 = run(argv)
    assert rc1 == rc2 == 0
    assert t1 == t2 and rep.read_text() == first_report
    out = json.loads(t1)
    assert out["n"] == 6 and out["accepted"] == 5
    full = json.loads(first_report)
    assert len(full["part_counts"]) == 5
    assert set(full["summary"]) >= {"part", "full", "reduced_width",
                                    "reduced_height", "acceptance_rate"}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_sample_stdout_is_pinned():
    # digests of sample stdout recorded before the sampler's tree pre-test
    # read the flip words; a faster sampler must keep every draw
    digest = hashlib.sha256()
    delivered = 0
    for seed in range(100):
        rc, text = run(["sample", "--n", "24", "--count", "1",
                        "--seed", str(seed)])
        delivered += rc == 0
        digest.update(text.encode())
    assert delivered == 81          # the rest exceed the default cap
    assert digest.hexdigest() == \
        "9eba23c0de52d9532267b8f8bd9ee2c79a2196f4ba0f2c0f2cc546678944ab06"
    rc, text = run(["sample", "--n", "12", "--count", "30", "--seed", "7"])
    assert rc == 0 and _sha256(text) == \
        "41fa299b71cd9cb5ebc7cd506afabd3098a0b22e8e34b9d648552c38cfb88f08"


def test_sample_builds_the_report_only_when_asked(tmp_path, monkeypatch):
    built = []
    to_json_obj = SA.SampleStats.to_json_obj
    monkeypatch.setattr(SA.SampleStats, "to_json_obj",
                        lambda st: built.append(st) or to_json_obj(st))
    argv = ["sample", "--n", "8", "--count", "5", "--seed", "3"]
    rc, plain = run(argv)
    assert rc == 0 and built == []
    rep = tmp_path / "rep.json"
    rc, text = run(argv + ["--report", str(rep)])
    assert rc == 0 and len(built) == 1 and text == plain
    assert _sha256(text) == \
        "caa560e6e71adef3ecd924dfba81796bacfaf6975300b5003af8f84d8f54e999"
    assert _sha256(rep.read_text()) == \
        "0ae29dc8cc179117878a1a7cfcde23e12eae764fda88a1ddcddc859fb6c4452c"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sample_rejects_nonpositive_count(count):
    rc, text = run(["sample", "--n", "6", "--count", count])
    assert rc == 1
    err = json.loads(text)["error"]
    assert err["kind"] == "BadParameter" and err["stage"] == "sampler"


@pytest.mark.parametrize("option", [["--max-attempts", "0"],
                                    ["--max-attempts", "-5"],
                                    ["--jobs", "0"], ["--jobs", "-1"],
                                    ["--n", "1"]])
def test_sample_rejects_nonpositive_attempts_and_jobs(option):
    rc, text = run(["sample", "--n", "4", "--count", "1"] + option)
    assert rc == 1
    err = json.loads(text)["error"]
    assert err["kind"] == "BadParameter" and err["stage"] == "sampler"
    assert option[0].lstrip("-").replace("-", "_") in err["detail"]


def test_enumerate_outputs_validate(tmp_path):
    rc, text = run(["enumerate", "--n", "3"])
    assert rc == 0
    out = json.loads(text)
    assert out["count"] == 2 and len(out["pairs"]) == 2
    for k, pair in enumerate(out["pairs"]):
        p = tmp_path / f"pair{k}.json"
        p.write_text(json.dumps(pair))
        rc, report = run(["validate", str(p)])
        assert rc == 0 and json.loads(report)["ok"]


def test_error_objects_and_exit_codes(cube_doc, tmp_path):
    rc, text = run(["validate", str(tmp_path / "missing.json")])
    assert rc == 1
    assert json.loads(text)["error"]["kind"] == "FileNotFound"

    rc, text = run(["orient", cube_doc, "--d", "3"])
    assert rc == 1
    err = json.loads(text)["error"]
    assert err["kind"] == "NotDAngulation" and err["stage"] == "planar_map"

    with pytest.raises(SystemExit) as ei:
        main(["orient"])            # missing required arguments
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["sample", "--n", "4", "--count", "1", "--report", "{dir}"],
])
def test_a_directory_for_a_file_is_an_error(tmp_path, argv):
    # found by test_fuzzed_arguments_answer_with_one_object
    rc, text = run([arg.format(dir=tmp_path) for arg in argv])
    assert rc == 1
    err = json.loads(text)["error"]
    assert (err["stage"], err["kind"]) == ("cli", "BadFile")


@pytest.mark.parametrize("text", ['{"map": ', "[1, 2]"])
def test_validate_rejects_a_bad_document(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    rc, out = run(["validate", str(p)])
    assert rc == 1
    err = json.loads(out)["error"]
    assert err["stage"] == "cli" and err["kind"] == "BadDocument"


def test_jobs_default_env(monkeypatch):
    monkeypatch.delenv("SCHNYDER_KIT_JOBS", raising=False)
    assert _default_jobs() == 1
    monkeypatch.setenv("SCHNYDER_KIT_JOBS", "3")
    assert _default_jobs() == 3


def test_jobs_env_that_is_not_an_integer_is_an_error(monkeypatch):
    # the error comes before sampling, so no worker process is started
    def unreachable(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(cli.sampler_mod, "concentration_experiment",
                        unreachable)
    monkeypatch.setenv("SCHNYDER_KIT_JOBS", "two")
    rc, text = run(["sample", "--n", "4", "--count", "1"])
    assert rc == 1
    err = json.loads(text)["error"]
    assert (err["stage"], err["kind"]) == ("cli", "BadEnvironment")
    assert "two" in err["detail"]


def test_sample_reads_the_jobs_env_on_every_call(monkeypatch):
    # the parser is built once, but the --jobs default is resolved per call
    seen = []
    real = cli.sampler_mod.concentration_experiment

    def recording(*args, jobs, **kwargs):
        seen.append(jobs)
        return real(*args, jobs=1, **kwargs)

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    monkeypatch.setattr(cli.sampler_mod, "concentration_experiment",
                        recording)
    argv = ["sample", "--n", "4", "--count", "1", "--seed", "3"]
    monkeypatch.setenv("SCHNYDER_KIT_JOBS", "2")
    rc1, t1 = run(argv)
    monkeypatch.setenv("SCHNYDER_KIT_JOBS", "5")
    rc2, t2 = run(argv)
    rc3, _ = run(argv + ["--jobs", "1"])
    assert rc1 == rc2 == rc3 == 0 and t1 == t2
    assert seen == [2, 5, 1]
    assert len(builds) == 1


def test_sample_bounds_its_workers_by_the_sample_count(monkeypatch):
    # a stub pool records the worker count; no process is started
    seen = []

    class StubPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    argv = ["sample", "--n", "6", "--count", "3", "--seed", "5", "--jobs"]
    rc1, many = run(argv + ["1000000"])
    rc2, one = run(argv + ["1"])
    assert rc1 == rc2 == 0 and many == one
    assert seen == [3]


def cube_document():
    return {"map": I.cube().to_json_obj(), "d": 4}


def _drop(key):
    def edit(doc):
        del doc["map"]["darts"][3][key]
    return edit


def _set(field, value):
    def edit(doc):
        doc["map"]["darts"][3][field] = value
    return edit


def _set_d(value):
    return lambda doc: doc.update(d=value)


MALFORMED = {
    "dart record without twin": _drop("twin"),
    "dart record without origin": _drop("origin"),
    "no outer_dart": lambda doc: doc["map"].pop("outer_dart"),
    "darts not a list": lambda doc: doc["map"].update(darts={"0": 1}),
    "dart not a record": lambda doc: doc["map"]["darts"].__setitem__(3, 2),
    "float origin": _set("origin", 2.0),
    "bool twin": lambda doc: doc["map"]["darts"][0].update(twin=True),
    "bool outer_dart": lambda doc: doc["map"].update(outer_dart=False),
    "string root_vertex": lambda doc: doc["map"].update(root_vertex="0"),
    "map not an object": lambda doc: doc.update(map=[1, 2]),
    "origin past the darts": _set("origin", 10 ** 12),
    "string d": _set_d("4"),
    "float d": _set_d(4.0),
    "bool d": _set_d(True),
    "list d": _set_d([4]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_validate_rejects_a_malformed_document(tmp_path, case):
    doc = cube_document()
    MALFORMED[case](doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc, out = run(["validate", str(p)])
    assert rc == 1
    err = json.loads(out)["error"]
    if case.endswith(" d"):
        assert (err["stage"], err["kind"]) == ("cli", "BadDocument"), err
    else:
        assert err["stage"] == "planar_map", err
        assert err["kind"] in {"MalformedMap", "MalformedRotation"}, err


DART_FIELDS = ("twin", "next_cw", "origin")
PATHS = [("d",), ("map",), ("map", "darts"), ("map", "outer_dart"),
         ("map", "root_vertex"), ("map", "darts", None)] + \
    [("map", "darts", None, f) for f in DART_FIELDS]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.just(10 ** 12),
    st.floats(-4, 40), st.text(max_size=3), st.builds(dict),
    st.lists(st.integers(0, 30), max_size=3))


def _has(obj, key):
    """Whether obj[key] exists: a key of a dict or an index into a list."""
    if isinstance(obj, dict):
        return key in obj
    return isinstance(obj, list) and type(key) is int and key < len(obj)


def _edit(draw, doc, paths, table, values):
    """doc with 1-3 edits: a key or entry at one of paths dropped, a value
    replaced by one drawn from values, or the list at table truncated.
    None in a path stands for an index into a 24-entry list."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "swap", "truncate")))
        path = table if op == "truncate" else draw(st.sampled_from(paths))
        path = [draw(st.integers(0, 23)) if step is None else step
                for step in path]
        parent = doc
        for step in path[:-1]:
            parent = parent[step] if _has(parent, step) else None
        last = path[-1]
        if op == "truncate":
            if _has(parent, last) and isinstance(parent[last], list):
                del parent[last][draw(st.integers(0, len(parent[last]))):]
        elif op == "drop":
            if _has(parent, last):
                del parent[last]
        elif isinstance(parent, dict) or _has(parent, last):
            parent[last] = draw(values)
    return doc


@st.composite
def mutated_cube_documents(draw):
    """The cube document with 1-3 edits to its map or its d."""
    return _edit(draw, cube_document(), PATHS, ("map", "darts"), JSON_VALUES)


def _validate_answers_with_one_object(path, argv=()):
    rc, out = run(["validate", str(path), *argv])
    assert rc in (0, 1, 2)
    obj = json.loads(out)                # exactly one JSON value
    assert isinstance(obj, dict)
    if "error" in obj:
        assert rc == 1 and {"stage", "kind"} <= set(obj["error"])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_cube_documents())
def test_validate_fuzzed_cube_documents(tmp_path, doc):
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(doc))
    _validate_answers_with_one_object(p)


@pytest.fixture(scope="module")
def payload_documents(tmp_path_factory):
    """Valid cube documents made by orient and convert, one per primal
    payload, and the dual document that dualize makes of the Schnyder one."""
    d = tmp_path_factory.mktemp("payloads")
    (d / "cube.json").write_text(json.dumps(cube_document()))
    _, text = run(["orient", str(d / "cube.json"), "--d", "4", "--even"])
    (d / "o.json").write_text(text)
    docs = {"orientation": json.loads(text)}
    for kind in ("labelling", "schnyder"):
        _, text = run(["convert", str(d / "o.json"), "--from", "orientation",
                       "--to", kind])
        docs[kind] = json.loads(text)
    (d / "s.json").write_text(text)
    _, text = run(["dualize", str(d / "s.json")])
    docs["regular_decomposition"] = json.loads(text)
    return docs


PAYLOAD_TABLES = {"orientation": "values", "labelling": "corner_colors",
                  "schnyder": "dart_colors",
                  "regular_decomposition": "dart_colors"}
# colors and orientation values outside their ranges, besides other types
PAYLOAD_VALUES = st.one_of(JSON_VALUES, st.sampled_from((0, -2, 5, 10 ** 12)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_validate_fuzzed_payloads(tmp_path, payload_documents, data):
    kind = data.draw(st.sampled_from(sorted(PAYLOAD_TABLES)))
    doc = copy.deepcopy(payload_documents[kind])
    table = (kind, PAYLOAD_TABLES[kind])
    paths = [(kind,), table, table + (None,), table + (None, 0)] + \
        [(kind, key) for key in doc[kind]]
    if kind == "regular_decomposition":
        paths += [("root_vertex",), ("first_root_dart",)]
    _edit(data.draw, doc, paths, table, PAYLOAD_VALUES)
    p = tmp_path / "fuzz.json"
    p.write_text(json.dumps(doc))
    _validate_answers_with_one_object(
        p, ["--as", "regular"] if kind == "regular_decomposition" else [])


MALFORMED_PAYLOADS = {
    "orientation not an object": ("orientation", 5, "orientation"),
    "orientation without values": ("orientation", {"k": 2}, "orientation"),
    "schnyder not an object": ("schnyder", [], "schnyder"),
    "labelling without colors": ("labelling", {"x": 1}, "schnyder"),
    "dart_colors a string": ("schnyder", {"d": 4, "dart_colors": "ab"},
                             "schnyder"),
    "one-entry dart_colors": ("schnyder", {"d": 4, "dart_colors": [[1]]},
                              "schnyder"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
def test_validate_rejects_a_malformed_payload(tmp_path, case):
    kind, payload, stage = MALFORMED_PAYLOADS[case]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(cube_document(), **{kind: payload})))
    rc, out = run(["validate", str(p)])
    assert rc == 1
    obj = json.loads(out)
    assert list(obj) == ["error"] and obj["error"]["stage"] == stage
    assert obj["error"]["kind"].startswith("Invalid")


def test_validate_reports_every_failing_payload(tmp_path, payload_documents):
    doc = copy.deepcopy(payload_documents["schnyder"])
    doc["labelling"] = copy.deepcopy(
        payload_documents["labelling"]["labelling"])
    corners = doc["labelling"]["corner_colors"]
    corners[0] = corners[0] % 4 + 1
    colors = doc["schnyder"]["dart_colors"]
    swap_at = next(k for k in range(1, len(colors)) if colors[k] != colors[0])
    colors[0], colors[swap_at] = colors[swap_at], colors[0]
    p = tmp_path / "both.json"
    p.write_text(json.dumps(doc))
    rc, out = run(["validate", str(p)])
    report = json.loads(out)
    assert rc == 1 and report["ok"] is False
    assert report["checked"] == ["angulation", "labelling", "schnyder"]
    assert sorted(report["violations"]) == ["labelling", "schnyder"]
    for bad in report["violations"].values():
        assert bad and all(len(v) == 3 for v in bad)


def test_validate_checks_orientation_outdegrees(tmp_path):
    p = tmp_path / "cube.json"
    p.write_text(json.dumps(cube_document()))
    _, text = run(["orient", str(p), "--d", "4"])
    p.write_text(text)
    rc, out = run(["validate", str(p)])
    assert rc == 0 and json.loads(out)["checked"] == ["angulation",
                                                      "orientation"]
    # swapping the two values of an edge keeps its sum, not the outdegrees
    doc = json.loads(text)
    values = doc["orientation"]["values"]
    twin = [dart["twin"] for dart in doc["map"]["darts"]]
    h = next(h for h, x in enumerate(values) if x >= 0 and x != values[twin[h]])
    values[h], values[twin[h]] = values[twin[h]], values[h]
    p.write_text(json.dumps(doc))
    rc, out = run(["validate", str(p)])
    obj = json.loads(out)
    assert rc == 1 and list(obj) == ["error"]
    assert obj["error"]["kind"] == "InvalidOrientation"


def test_validate_reads_a_regular_labelling(tmp_path):
    p = tmp_path / "cube.json"
    p.write_text(json.dumps(cube_document()))
    _, text = run(["dualize", str(p)])
    ang = as_angulation(I.cube(), 4)
    r = D.dual_labelling(S.psi_inverse(O.compute_dd2_orientation(ang)))
    good = dict(json.loads(text), regular_labelling=r.to_json_obj())
    recolored = copy.deepcopy(good)
    colors = recolored["regular_labelling"]["corner_colors"]
    colors[0] = colors[0] % 4 + 1
    garbage = dict(good, regular_labelling="garbage")
    reports = []
    for doc in (good, recolored, garbage):
        p.write_text(json.dumps(doc))
        rc, out = run(["validate", str(p), "--as", "regular"])
        reports.append((rc, json.loads(out)))
    assert reports[0] == (0, {"ok": True,
                              "checked": ["regular", "regular_labelling"]})
    rc, obj = reports[1]
    assert rc == 1 and obj["ok"] is False and obj["violations"]
    rc, obj = reports[2]
    assert rc == 1 and list(obj) == ["error"]
    assert obj["error"]["kind"] == "InvalidLabelling"


@pytest.mark.parametrize("d, name", [(3, "tetrahedron"), (5, "dodecahedron")])
def test_regular_labelling_verdict_ignores_the_outer_dart(tmp_path, d, name):
    # the dual's outer face has no meaning: moving map.outer_dart onto a
    # non-root face must not change the verdict on valid payloads
    ang = as_angulation(getattr(I, name)(), d)
    r = D.dual_labelling(S.psi_inverse(O.compute_dd2_orientation(ang)))
    rv = r.host
    doc = {"map": rv.map.to_json_obj(), "d": d,
           "root_vertex": rv.root_vertex, "first_root_dart": rv.root_darts[0],
           "regular_labelling": r.to_json_obj(),
           "regular_decomposition": D.xi(r).to_json_obj()}
    p = tmp_path / "dual.json"
    for f in rv.non_root_faces():
        doc["map"]["outer_dart"] = rv.map.faces[f][0]
        p.write_text(json.dumps(doc))
        rc, out = run(["validate", str(p), "--as", "regular"])
        assert (rc, json.loads(out)) == (0, {
            "ok": True, "checked": ["regular", "regular_labelling",
                                    "regular_decomposition"]}), f


@pytest.mark.parametrize("argv", [
    ["validate", "{doc}", "--d", "0"],
    ["orient", "{doc}", "--d", "0"],
    ["lattice", "{doc}", "--d", "0", "min"],
])
def test_d_zero_is_not_taken_for_absent(cube_doc, argv):
    # the document says d = 4; --d 0 overrides it and is refused
    rc, text = run([arg.format(doc=cube_doc) for arg in argv])
    assert rc == 1
    err = json.loads(text)["error"]
    assert (err["stage"], err["kind"]) == ("planar_map", "NotDAngulation")


# -- fuzzed arguments ------------------------------------------------------

@pytest.fixture(scope="module")
def cli_files(payload_documents, tmp_path_factory):
    """Input paths by name (the cube documents, the tetrahedron, a missing
    file and a directory) and output paths (a new file, one in a missing
    directory, and the directory) for the argument fuzz."""
    d = tmp_path_factory.mktemp("argv")
    inputs = {}
    for name, doc in [("cube", cube_document()),
                      ("k4", I.tetrahedron().to_json_obj()),
                      *payload_documents.items()]:
        inputs[name] = str(d / f"{name}.json")
        (d / f"{name}.json").write_text(json.dumps(doc))
    (d / "dir").mkdir()
    inputs.update(missing=str(d / "missing.json"), dir=str(d / "dir"))
    outputs = [str(d / "out.txt"), str(d / "missing" / "out.txt"),
               str(d / "dir")]
    return inputs, outputs


D_VALUES = st.one_of(st.just(4), st.integers(-2, 8))
FLAG = st.none()
PRIMAL = ("cube", "orientation", "labelling", "schnyder")


def _argv(draw, inputs, outputs):
    """An argv for one subcommand: its required arguments, each optional
    one or not, on the cube documents mostly, at most 2 samples on at most
    2 workers; one in ten argvs loses a token or gains a stray one."""
    out = st.sampled_from(outputs)
    kinds = st.sampled_from(cli.PRIMAL_KINDS)
    command = draw(st.sampled_from(["validate", "orient", "convert",
                                    "dualize", "lattice", "draw", "sample",
                                    "enumerate"]))
    required, optional = {
        "validate": ([], [("--d", D_VALUES),
                          ("--as", st.sampled_from(["angulation",
                                                    "regular"]))]),
        "orient": ([("--d", D_VALUES)], [("--even", FLAG),
                                         ("--minimal", FLAG)]),
        "convert": ([("--from", kinds), ("--to", kinds)],
                    [("--d", D_VALUES)]),
        "dualize": ([], [("--d", D_VALUES)]),
        "lattice": ([("--d", D_VALUES)], []),
        "draw": ([], [("--root", st.integers(-2, 8)), ("--d", D_VALUES),
                      ("--mode", st.sampled_from(["orthogonal",
                                                  "straightline"])),
                      ("--compact", FLAG), ("--with-root", FLAG),
                      ("--svg", out), ("--json", out)]),
        "sample": ([("--n", st.integers(0, 8)),
                    ("--count", st.integers(0, 2))],
                   [("--seed", st.integers(-5, 10 ** 6)),
                    ("--max-attempts", st.integers(-1, 60)),
                    ("--jobs", st.integers(-1, 2)), ("--report", out)]),
        "enumerate": ([("--n", st.integers(-2, 4))], []),
    }[command]
    argv = [command]
    if command not in ("sample", "enumerate"):
        home = ("regular_decomposition",) if command == "draw" else PRIMAL
        names = st.sampled_from(home) if draw(st.integers(0, 3)) else \
            st.sampled_from(sorted(inputs))
        argv.append(inputs[draw(names)])
    if command == "lattice":
        argv.append(draw(st.sampled_from(["count", "enumerate", "min"])))
    for flag, values in required + optional:
        if (flag, values) in required or draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, str(value)]
    if draw(st.integers(0, 9)) == 0:
        if draw(st.booleans()):
            del argv[draw(st.integers(0, len(argv) - 1))]
        else:
            argv.insert(draw(st.integers(0, len(argv))),
                        draw(st.sampled_from(["--bogus", "x", "--n"])))
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_arguments_answer_with_one_object(cli_files, data):
    # exit 0 or 1 with one JSON object, or argparse's exit 2; a draw that
    # writes its --json or --svg file prints nothing
    argv = _argv(data.draw, *cli_files)
    try:
        rc, out = run(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert rc in (0, 1), argv
    if rc == 0 and argv[0] == "draw" and {"--json", "--svg"} & set(argv):
        assert out == "", argv
        return
    obj = json.loads(out)                # exactly one JSON value
    assert isinstance(obj, dict), argv
    if rc == 1:
        assert obj.get("ok") is False or {"stage", "kind"} <= \
            set(obj["error"]), argv

"""Every input error that a user can reach gets its documented answer: on
the command line, exit status 1 and one JSON object naming the stage and
kind; in the library, the KitError of that stage and kind.  The hosts are
small, so the whole module runs in about a second."""

import io
import json
import runpy
import sys
import warnings

import pytest

from schnyder_kit.cli import main
from schnyder_kit.errors import KitError
from schnyder_kit.planar_map import (
    PlaneMap, as_angulation, as_regular, build_map)
import schnyder_kit.drawing as DR
import schnyder_kit.duality as D
import schnyder_kit.even as E
import schnyder_kit.orientation as O
import schnyder_kit.sampler as SA
import schnyder_kit.schnyder as S

import instances as I
from oracles import is_even


def run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


def doc_of(m, d=4, **extra):
    return dict({"map": m.to_json_obj(), "d": d}, **extra)


def cube_darts(edit):
    """The cube's document after edit(darts, map object)."""
    doc = doc_of(I.cube())
    edit(doc["map"]["darts"], doc["map"])
    return doc


def _swap_next_cw(darts, _):
    # darts 0 and 1 leave different vertices
    darts[0]["next_cw"], darts[1]["next_cw"] = \
        darts[1]["next_cw"], darts[0]["next_cw"]


def _split_rotation(darts, _):
    # vertex 0 turns 0 -> 7 -> 16: make it 0 -> 0 and 7 -> 16 -> 7
    darts[0]["next_cw"], darts[7]["next_cw"], darts[16]["next_cw"] = 0, 16, 7


def _drop_vertex(darts, _):
    # the cube's last vertex 7 becomes 8, so vertex 7 has no dart
    for r in darts:
        if r["origin"] == 7:
            r["origin"] = 8


def cube_orientation(edit):
    """The cube's document with its flow orientation after edit(values)."""
    o = O.compute_dd2_orientation(as_angulation(I.cube(), 4))
    values = list(o.values)
    edit(values, o)
    return doc_of(I.cube(), orientation={"k": o.k, "values": values})


def _half_orient(values, o):
    h = next(h for h, x in enumerate(values) if x >= 0)
    values[h] = -1


def _overfill(values, o):
    h = next(h for h, x in enumerate(values) if x == 0)
    values[h] = 1


def wrong_outdegrees():
    """cube_plus with an orientation whose edges sum to k but whose
    vertices 8 and 4 have outdegree 0 and 2d: every vertex and face cycle
    closes mod d, so the colors would propagate without conflict; only
    the d/(d-2) check of the payload as it is read refuses it."""
    ang = as_angulation(I.cube_plus(), 4)
    alpha = [4 * (v in ang.internal_vertices())
             for v in range(ang.map.n_vertices)]
    alpha[8] -= 4
    alpha[4] += 4
    values = O.compute_alpha_k_orientation(ang.map, ang.internal_edges(),
                                           alpha, 2)
    return doc_of(ang.map, orientation={"k": 2, "values": list(values)})


def cube_orientation_with_k_equal_d():
    """The cube with k = 4 = d, each inner vertex oriented toward its
    outer neighbour only: every outdegree and every edge sum is right, so
    only the check that k = d - 2 refuses it."""
    ang = as_angulation(I.cube(), 4)
    m, ext = ang.map, set(ang.external)
    values = [-1] * m.n_darts
    for h in ang.internal_darts():
        if m.origin[h] not in ext and m.target_of[h] in ext:
            values[h], values[m.twin[h]] = 4, 0
    return doc_of(m, orientation={"k": 4, "values": values})


def recoloured_cube_labelling():
    """The cube's labelling with the first corner of internal vertex 4
    recoloured.  Phi itself checks nothing, so only the check of the
    payload as it is read refuses it."""
    l = cube_labelling()
    colors = list(l.colors)
    h = l.host.map.vertex_darts[4]
    colors[h] = colors[h] % 4 + 1
    return doc_of(l.host.map, labelling={"corner_colors": colors})


def hexangulation_with_bridges():
    """A hexagon u0..u5 with the chord u0 u3 and a pendant edge in each of
    its two quadrilaterals: three faces of degree 6 and the outer one
    visits six distinct vertices, but the pendant edges are bridges."""
    coords = [(2.0, 0.0), (1.0, -1.7), (-1.0, -1.7), (-2.0, 0.0),
              (-1.0, 1.7), (1.0, 1.7), (0.0, -1.0), (0.0, 1.0)]
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 6), (4, 7)]
    return I.map_from_coords(coords, edges)


def octahedron_doc(**extra):
    return doc_of(I.octahedron(), **extra)


def cube_labelling():
    ang = as_angulation(I.cube(), 4)
    return S.psi_inverse(O.compute_dd2_orientation(ang))


CUBE_DARTS = I.cube().n_darts
CONVERT_ORIENTATION = ["convert", "--from", "orientation", "--to", "labelling"]

# case -> (document, argv after the input path, stage, kind, detail part)
CLI_ERRORS = {
    "labelling that breaks the axioms": (
        lambda: doc_of(I.cube(),
                       labelling={"corner_colors": [1] * CUBE_DARTS}),
        ["convert", "--from", "labelling", "--to", "orientation"],
        "schnyder", "InvalidLabelling", "not a clockwise"),
    "convert without the payload": (
        lambda: doc_of(I.cube()),
        ["convert", "--from", "schnyder", "--to", "labelling"],
        "planar_map", "MissingPayload", "no 'schnyder' payload"),
    "twin with a fixed point": (
        lambda: cube_darts(lambda darts, _: darts[0].update(twin=0)),
        ["validate"], "planar_map", "MalformedRotation",
        "fixed-point-free involution"),
    "next_cw leaves its vertex": (
        lambda: cube_darts(_swap_next_cw), ["validate"],
        "planar_map", "MalformedRotation", "leaves the vertex"),
    "outer dart past the darts": (
        lambda: cube_darts(lambda _, m: m.update(outer_dart=CUBE_DARTS)),
        ["validate"], "planar_map", "MalformedRotation", "outer dart"),
    "vertex without a dart": (
        lambda: cube_darts(_drop_vertex), ["validate"],
        "planar_map", "MalformedRotation", "vertex 7 has no dart"),
    "rotation in two orbits": (
        lambda: cube_darts(_split_rotation), ["validate"],
        "planar_map", "MalformedRotation", "rotation orbit missing darts"),
    "root vertex past the vertices": (
        lambda: cube_darts(lambda _, m: m.update(root_vertex=8)),
        ["validate"], "planar_map", "MalformedRotation", "root vertex"),
    "dual of a map with bridges": (
        lambda: doc_of(hexangulation_with_bridges(), d=6), ["dualize"],
        "planar_map", "MalformedRotation", "loop"),
    "outer face visiting a vertex twice": (
        lambda: doc_of(I.path_map()), ["validate"],
        "planar_map", "ExternalVerticesNotDistinct", "outer face visits"),
    "regular view without a root": (
        octahedron_doc, ["validate", "--as", "regular"],
        "planar_map", "NotDRegular", "no root vertex"),
    "first root dart off the root": (
        lambda: octahedron_doc(root_vertex=0, first_root_dart=1),
        ["validate", "--as", "regular"],
        "planar_map", "NotDRegular", "first root dart"),
    "draw at a root past the vertices": (
        octahedron_doc, ["draw", "--root", "6"],
        "planar_map", "NotDRegular", "root 6 is not a vertex"),
    "schnyder payload with the wrong d": (
        lambda: doc_of(I.cube(), schnyder={
            "d": 5, "dart_colors": [[]] * CUBE_DARTS}),
        ["validate"], "schnyder", "InvalidDecomposition",
        "'d' must be the integer 4"),
    "half-oriented edge": (
        lambda: cube_orientation(_half_orient), CONVERT_ORIENTATION,
        "orientation", "InvalidOrientation", "half-oriented edge"),
    "edge values off k": (
        lambda: cube_orientation(_overfill), CONVERT_ORIENTATION,
        "orientation", "InvalidOrientation", "!= k=2"),
    "orientation with the wrong outdegrees": (
        wrong_outdegrees, CONVERT_ORIENTATION,
        "orientation", "InvalidOrientation", "vertex 4 outdegree 8"),
    "convert an orientation with k = d": (
        cube_orientation_with_k_equal_d, CONVERT_ORIENTATION,
        "orientation", "InvalidOrientation", "expected d-2=2"),
    "recoloured labelling converted to schnyder": (
        recoloured_cube_labelling,
        ["convert", "--from", "labelling", "--to", "schnyder"],
        "schnyder", "InvalidLabelling", "not a clockwise"),
    "dualize a schnyder payload that breaks the axioms": (
        lambda: doc_of(I.cube(), schnyder={
            "d": 4, "dart_colors": [[]] * CUBE_DARTS}),
        ["dualize"], "schnyder", "InvalidDecomposition", "forests"),
}


@pytest.mark.parametrize("case", sorted(CLI_ERRORS))
def test_cli_input_errors(tmp_path, case):
    build, argv, stage, kind, detail = CLI_ERRORS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build()))
    rc, out = run([argv[0], str(path), *argv[1:]])
    assert rc == 1
    obj = json.loads(out)
    assert list(obj) == ["error"]
    err = obj["error"]
    assert (err["stage"], err["kind"]) == (stage, kind), err
    assert detail in err["detail"], err


# case -> (document, message part): orientations that validate reports as
# violations and convert refuses; CLI_ERRORS has the convert cases
BAD_ORIENTATIONS = {
    "half-oriented edge": (
        lambda: cube_orientation(_half_orient), "half-oriented edge"),
    "edge values off k": (lambda: cube_orientation(_overfill), "!= k=2"),
    "orientation with k = d": (
        cube_orientation_with_k_equal_d, "expected d-2=2"),
    "orientation with the wrong outdegrees": (
        wrong_outdegrees, "vertex 4 outdegree 8"),
}


@pytest.mark.parametrize("case", sorted(BAD_ORIENTATIONS))
def test_validate_reports_a_bad_orientation(tmp_path, case):
    """validate answers a bad orientation with its violations, as it does
    any other payload, and convert's error names the first three."""
    build, part = BAD_ORIENTATIONS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(build()))
    rc, out = run(["validate", str(path)])
    report = json.loads(out)
    assert rc == 1 and report["ok"] is False
    assert report["checked"] == ["angulation", "orientation"]
    assert list(report["violations"]) == ["orientation"]
    messages = [v[2] for v in report["violations"]["orientation"]]
    assert part in "; ".join(messages)
    rc, out = run(["convert", str(path), *CONVERT_ORIENTATION[1:]])
    assert rc == 1 and json.loads(out) == {"error": {
        "stage": "orientation", "kind": "InvalidOrientation",
        "detail": "; ".join(messages[:3])}}


def test_convert_from_a_labelling(tmp_path):
    l = cube_labelling()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc_of(l.host.map, labelling=l.to_json_obj())))
    rc, out = run(["convert", str(path), "--from", "labelling",
                   "--to", "schnyder"])
    assert rc == 0
    assert json.loads(out)["schnyder"] == S.phi(l).to_json_obj()


def test_the_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    """python -m schnyder_kit.cli answers as main does."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc_of(I.cube())))
    monkeypatch.setattr(sys, "argv", ["schnyder-kit", "validate", str(path)])
    with warnings.catch_warnings():     # the module is imported already
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as ei:
            runpy.run_module("schnyder_kit.cli", run_name="__main__")
    assert ei.value.code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


# -- errors that only library callers can reach ----------------------------

def cube():
    return as_angulation(I.cube(), 4)


def cube_dual():
    return D.dualize(cube())


def cube_dual_as_read():
    """The cube's dual as the command line reads it, by as_regular: a
    view that knows no primal."""
    rv = cube_dual()
    return as_regular(rv.map, 4, first_root_dart=rv.root_darts[0])


def uneven_cube_schnyder():
    o = next(o for o in O.lattice_enumerate(cube()) if not is_even(o))
    return S.phi(S.psi_inverse(o))


def cube_drawing():
    return DR.orthogonal_drawing(
        E.compute_even_regular_decomposition(cube_dual()))


def _mirrored(gd):
    """gd with its x coordinates mirrored: still a grid permutation, but
    no face's x-markers are adjacent any more."""
    w = max(x for x, _ in gd.coords.values())
    coords = {v: (w - x, y) for v, (x, y) in gd.coords.items()}
    return DR.GridDrawing(decomposition=gd.decomposition, coords=coords,
                          bends=gd.bends, markers=gd.markers)


def _swapped_cube_orientation():
    """The cube's flow orientation with the two values of its first
    internal edge swapped: the edge sums stay k, two outdegrees change."""
    o = O.compute_dd2_orientation(cube())
    values = list(o.values)
    h = cube().internal_edges()[0]
    values[h], values[o.map.twin[h]] = values[o.map.twin[h]], values[h]
    return O.FracOrientation(o.host, o.k, tuple(values))


def _lengthened_cube_orientation():
    """The cube's flow orientation with two values appended: every edge
    and every outdegree is right on the cube's darts."""
    o = O.compute_dd2_orientation(cube())
    return O.FracOrientation(o.host, o.k, o.values + (1, 1))


def _face_with_an_external_edge():
    ang = cube()
    o = O.compute_dd2_orientation(ang)
    m = ang.map
    return o, m.faces[m.face_of[m.twin[m.outer_dart]]]


def _all_zero_decomposition():
    ang = cube()
    return ang, S.SchnyderDecomposition(host=ang, masks=ZEROS)


ZEROS = (0,) * CUBE_DARTS
ONES = (1,) * CUBE_DARTS

# case -> (call, stage, kind, detail part); a check's detail joins the
# messages of its first three violations with "; "
LIBRARY_ERRORS = {
    "dual_labelling of an invalid labelling": (
        lambda: D.dual_labelling(S.CornerLabelling(host=cube(), colors=ONES)),
        "schnyder", "InvalidLabelling", "+1 step; corner colors 1->1"),
    "primal_labelling without a primal host": (
        lambda: D.primal_labelling(D.RegularLabelling(
            host=cube_dual_as_read(), colors=ONES)),
        "duality", "NoPrimalHost", "primal angulation host"),
    "primal_labelling of an invalid labelling": (
        lambda: D.primal_labelling(D.RegularLabelling(
            host=cube_dual(), colors=ONES)),
        "duality", "InvalidLabelling", "not a clockwise +1 step"),
    "xi of an invalid labelling": (
        lambda: D.xi(D.RegularLabelling(host=cube_dual(), colors=ONES)),
        "duality", "InvalidLabelling", "not a clockwise +1 step"),
    "chi of an invalid decomposition": (
        lambda: D.chi(S.SchnyderDecomposition(host=cube(), masks=ZEROS)),
        "schnyder", "InvalidDecomposition", "once each; edge must lie"),
    "lambda_inverse of an invalid reduction": (
        lambda: E.lambda_inverse(E.ReducedSchnyderDecomposition(
            host=cube(), masks=ZEROS)),
        "even", "NotEven", "must lie in 1 forests"),
    "lambda_star of an uneven decomposition": (
        lambda: E.lambda_star(D.chi(uneven_cube_schnyder())),
        "even", "NotEven", "same-parity colors"),
    "lambda_star_inverse of an invalid reduction": (
        lambda: E.lambda_star_inverse(E.ReducedRegularDecomposition(
            host=cube_dual(), masks=ZEROS)),
        "even", "NotEven", "must lie in 1 trees"),
    "psi_inverse of an orientation with two values too many": (
        lambda: S.psi_inverse(_lengthened_cube_orientation()),
        "orientation", "InvalidOrientation", "values must cover all 24 darts"),
    "psi_inverse of an orientation with two values swapped": (
        lambda: S.psi_inverse(_swapped_cube_orientation()),
        "orientation", "InvalidOrientation", "outdegree"),
    "push_cycle on a repeated edge": (
        lambda: O.push_cycle(O.compute_dd2_orientation(cube()), (0, 1)),
        "orientation", "NotACircuit", "repeats an edge"),
    "push_cycle on an arc of value 0": (
        lambda: O.push_cycle(*_face_with_an_external_edge()),
        "orientation", "NotACircuit", "value 0"),
    "decode an empty sequence": (
        lambda: SA.decode(SA.EncodingTriple(alpha=(), beta=(1,), gamma=(1,))),
        "TreeReconstructionFailed", "Invalid", "empty degree sequence"),
    "decode beta and gamma of unequal lengths": (
        lambda: SA.decode(SA.EncodingTriple(alpha=(2,), beta=(1, 1),
                                            gamma=(2,))),
        "TreeReconstructionFailed", "Invalid", "different lengths"),
    "encode an all-zero decomposition": (
        lambda: SA.encode(*_all_zero_decomposition()),
        "ValidationFailed", "Invalid", "not a spanning tree"),
    "build_map with an empty rotation": (
        lambda: build_map([[0], [1], []], outer_dart=0),
        "planar_map", "MalformedRotation", "vertex 2 has empty rotation"),
    "build_map with a repeated dart": (
        lambda: build_map([[0], [0]], outer_dart=0),
        "planar_map", "MalformedRotation", "dart 0 repeated"),
    "build_map with a dart out of range": (
        lambda: build_map([[0], [2]], outer_dart=0),
        "planar_map", "MalformedRotation", "dart 2 repeated or out of range"),
    "map tables of unequal lengths": (
        lambda: PlaneMap([1, 0], [0, 1, 2], [0, 1], 0),
        "planar_map", "MalformedRotation", "unequal lengths"),
    "drawing of an uneven decomposition": (
        lambda: DR.orthogonal_drawing(D.chi(uneven_cube_schnyder())),
        "drawing", "InternalInvariantViolation", "unique special edges"),
    "classification of moved vertices": (
        lambda: DR.classify_faces(_mirrored(cube_drawing())),
        "drawing", "InternalInvariantViolation", "not adjacent"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ERRORS))
def test_library_input_errors(case):
    call, stage, kind, detail = LIBRARY_ERRORS[case]
    with pytest.raises(KitError) as ei:
        call()
    err = ei.value
    assert (err.stage, err.kind) == (stage, kind), err
    assert detail in err.detail, err


def test_a_plane_map_is_frozen():
    m = I.cube()
    with pytest.raises(AttributeError, match="immutable"):
        m.outer_dart = 0
    assert m.outer_dart == 1

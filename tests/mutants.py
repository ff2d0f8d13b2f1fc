"""Deliberate faults in the library that the tests must catch.

Each mutant replaces a text that occurs exactly once in a file of
src/schnyder_kit by another one, and names the tests (pytest node ids,
relative to the repository root, without parameters) that must each fail
on the mutated library.  Together they stand for the fast paths that the
oracles of tests/oracles.py and the pinned outputs guard: the flow's
searches, the validators, the circuit scan and its side test, the
sampler's word walks and draws, the placement and the face
classification, the girth search, the map's per-dart tables and the
checks of user input.

    python tests/mutants.py [word ...]

copies the checkout to a temporary directory, applies each mutant there in
turn, runs its tests with pytest and prints one line per mutant and the
number detected.  Given words, it runs only the mutants whose `what`
contains one of them (`python tests/mutants.py flow` runs the flow's).  A
mutant is killed when every test it names fails (a parametrized test fails
when one of its cases does), and it times out when its tests run over
TIMEOUT seconds, say because it makes a walk loop forever; both detect it,
since its tests did not pass.  The tests run with their address space
capped at MEMORY bytes, so a mutant whose tests allocate without end fails
them with MemoryError within seconds and counts as killed.  The working
tree is never edited.  The exit status is 0 when every mutant run is
detected.  The whole run takes about seven minutes on a 2-core machine;
it is not part of tier-1, but tests/test_mutants.py checks that each
entry still applies.
"""

import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "what file old new kills")
TIMEOUT = 600                     # seconds for the tests of one mutant
MEMORY = 1 << 30                  # bytes of address space for those tests


def _mutant(what, file, old, new, *kills):
    return Mutant(what, "src/schnyder_kit/" + file, old, new, kills)


ORIENT = "tests/test_orientation.py::"
CLI = "tests/test_cli.py::"
PMAP = "tests/test_planar_map.py::"
CHECK = "tests/test_tree_checker.py::"
SCHN = "tests/test_schnyder.py::"
SAMP = "tests/test_sampler.py::"
DRAW = "tests/test_drawing.py::"
ACCEPT = "tests/test_acceptance.py::"
INPUT = "tests/test_input_errors.py::"
SAMPLED = "tests/test_sampled_hosts.py::"

MUTANTS = [
    # -- the side test and the circuit scan -------------------------------
    _mutant("side test parity flipped", "planar_map.py",
            "for h in cycle_darts) % 2 == 0",
            "for h in cycle_darts) % 2 == 1",
            ORIENT + "test_ccw_traversal_matches_flood_fill_on_every_d_cycle",
            ORIENT + "test_circuit_scan_matches_flood_fill_oracle"),
    _mutant("subtree interval ends at its last child", "planar_map.py",
            "end[parent] = max(end[parent], end[f])",
            "end[parent] = end[f]",
            ORIENT + "test_ccw_traversal_matches_flood_fill_on_every_d_cycle"),
    _mutant("side index not cached", "planar_map.py",
            'object.__setattr__(self, "_side_index", index)',
            "pass",
            ORIENT + "test_minimal_orientation_builds_one_side_index"),
    _mutant("scan tries each d-cycle in its listed direction only",
            "orientation.py",
            "elif all(values[twin[h]] > 0 for h in cyc) and side(cyc) == ccw:",
            "elif False:",
            ORIENT + "test_circuit_scan_matches_flood_fill_oracle"),
    _mutant("scan takes the listed direction for counterclockwise",
            "orientation.py",
            "side = o.map.outer_face_left_of",
            "side = lambda cyc: False",
            ORIENT + "test_circuit_scan_matches_flood_fill_oracle",
            ORIENT + "test_walk_to_the_minimum_pushes_the_oracle_first_circuit"),
    _mutant("cycle listing walks each vertex counterclockwise",
            "planar_map.py",
            "for h in m.vertex_orbit(v)",
            "for h in reversed(m.vertex_orbit(v))",
            ORIENT + "test_cycle_listing_matches_the_seen_set_listing",
            CLI + "test_lattice_stdout_is_pinned"),
    _mutant("listing keeps the second-met direction", "orientation.py",
            "if rank[path[0]] < rank[twin[h]]:",
            "if rank[path[0]] > rank[twin[h]]:",
            ORIENT + "test_cycle_listing_matches_the_seen_set_listing"),
    _mutant("listing leaves a vertex flagged after backtracking",
            "orientation.py",
            "visited[w] = 0",
            "pass",
            ORIENT + "test_cycle_listing_matches_the_seen_set_listing",
            CLI + "test_lattice_stdout_is_pinned"),
    _mutant("limited scan lists every cycle first", "orientation.py",
            "for cyc in _simple_cycles_of_length(o.host):",
            "for cyc in list(_simple_cycles_of_length(o.host)):",
            ORIENT + "test_limited_scan_stops_drawing_d_cycles"),
    # -- the flow's searches -----------------------------------------------
    _mutant("flow search goes on after its first sink arc", "orientation.py",
            "            while last < 0:\n",
            "            while True:\n",
            ORIENT + "test_flow_results_are_pinned",
            SAMPLED + "test_sampled_flow_results_are_pinned",
            CLI + "test_draw_stdout_is_pinned",
            ORIENT + "test_max_flow_matches_textbook_edmonds_karp"),
    _mutant("flow search: a later neighbour's sink arc replaces the first",
            "orientation.py",
            "                            if last >= 0:\n"
            "                                break\n",
            "",
            ORIENT + "test_flow_results_are_pinned",
            SAMPLED + "test_sampled_flow_results_are_pinned",
            CLI + "test_draw_stdout_is_pinned",
            ORIENT + "test_max_flow_matches_textbook_edmonds_karp"),
    _mutant("flow search takes its newest node first", "orientation.py",
            "arcs = adj[queue[head]]",
            "arcs = adj[queue[-1]]",
            ORIENT + "test_flow_results_are_pinned",
            SAMPLED + "test_sampled_flow_results_are_pinned",
            CLI + "test_draw_stdout_is_pinned",
            ORIENT + "test_max_flow_matches_textbook_edmonds_karp"),
    _mutant("flow search starts one source arc past the first open one",
            "orientation.py",
            "range(first, len(out_s))",
            "range(first + 1, len(out_s))",
            ORIENT + "test_flow_results_are_pinned",
            SAMPLED + "test_sampled_flow_results_are_pinned",
            CLI + "test_draw_stdout_is_pinned",
            ORIENT + "test_max_flow_matches_textbook_edmonds_karp"),
    _mutant("flow visited stamp not advanced between searches",
            "orientation.py",
            "search += 1",
            "search = 1",
            ORIENT + "test_flow_results_are_pinned",
            SAMPLED + "test_sampled_flow_results_are_pinned",
            CLI + "test_draw_stdout_is_pinned",
            ORIENT + "test_max_flow_matches_textbook_edmonds_karp"),
    # Each node of the orientation network has one arc into the sink, so
    # only the textbook oracle test sees this one.
    _mutant("flow sink lookup keeps only a node's last sink arc",
            "orientation.py",
            "into_t[u].append(a)",
            "into_t[u] = [a]",
            ORIENT + "test_max_flow_matches_textbook_edmonds_karp"),
    _mutant("NoSolution certificate read off the search before the last",
            "orientation.py",
            "reached, search = net.reached, net.search",
            "reached, search = net.reached, net.search - 1",
            ORIENT + "test_alpha_k_infeasible_certificate",
            ORIENT + "test_certificate_search_skips_a_tight_component",
            ORIENT + "test_flow_results_are_pinned",
            SAMPLED + "test_sampled_flow_results_are_pinned"),
    # -- the girth search --------------------------------------------------
    _mutant("girth prune one level too early", "planar_map.py",
            "if 2 * du + 1 >= best:",
            "if 2 * du + 2 >= best:",
            PMAP + "test_shortest_cycle_matches_edge_by_edge_girth"),
    _mutant("girth search walks back along its tree edge", "planar_map.py",
            "if e == tree_edge:",
            "if False:",
            PMAP + "test_shortest_cycle_matches_edge_by_edge_girth"),
    _mutant("girth search miscounts a closed cycle", "planar_map.py",
            "best = du + dw + 1",
            "best = du + dw",
            PMAP + "test_shortest_cycle_matches_edge_by_edge_girth"),
    _mutant("girth search keeps the distances of the search before",
            "planar_map.py",
            "            dist[w] = -1\n",
            "            pass\n",
            PMAP + "test_shortest_cycle_matches_edge_by_edge_girth"),
    # -- the per-dart tables -----------------------------------------------
    _mutant("target table reads the dart's own origin", "planar_map.py",
            "self.target_of = tuple(map(self.origin.__getitem__, self.twin))",
            "self.target_of = self.origin",
            PMAP + "test_girth",
            ORIENT + "test_circuit_scan_matches_flood_fill_oracle",
            CLI + "test_draw_stdout_is_pinned"),
    _mutant("edge table takes the larger dart id", "planar_map.py",
            "tuple(d if d < t else t for d, t in enumerate(self.twin))",
            "tuple(d if d > t else t for d, t in enumerate(self.twin))",
            ORIENT + "test_circuit_scan_matches_flood_fill_oracle",
            CLI + "test_draw_stdout_is_pinned"),
    # -- the validators ----------------------------------------------------
    _mutant("a path into a 2-cycle reported as no outgoing arc",
            "schnyder.py",
            'f"no outgoing arc at internal {v}" if nxt[base + v] == base + v',
            'f"no outgoing arc at internal {v}" if nxt[base + v] == base + v '
            "or nxt[nxt[base + v]] == base + v",
            SCHN + "test_validator_messages_name_the_broken_path"),
    _mutant("pointer jumping stops one round early", "schnyder.py",
            "for _ in range((nv - 1).bit_length()):",
            "for _ in range((nv - 1).bit_length() - 1):",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("a second outgoing arc of one color goes unreported",
            "schnyder.py",
            "                    twice.append((c, v))",
            "                    pass",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("vertex rule accepts zero clockwise turns", "schnyder.py",
            "elif sum(map(lt, turn[1:] + turn[:1], turn)) != 1:",
            "elif sum(map(lt, turn[1:] + turn[:1], turn)) > 1:",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("incoming window includes its first end", "schnyder.py",
            "not 0 < (k - lo) % n < (hi - lo) % n:",
            "not 0 <= (k - lo) % n < (hi - lo) % n:",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("primal edge rule ignores a color on both arcs", "schnyder.py",
            "elif a & b or (a | b).bit_count() != want:",
            "elif (a | b).bit_count() != want:",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("forest avoids one excluded root only", "schnyder.py",
            "avoid = {ang.external[j - 1], ang.external[j % ang.d]}",
            "avoid = {ang.external[j - 1]}",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("labelling rule accepts two descents", "schnyder.py",
            "        if desc != 1:",
            "        if desc not in (1, 2):",
            CHECK + "test_corner_rule_flags_what_each_former_validator_flagged"),
    _mutant("dual tree walk leaves the root", "duality.py",
            "cols, _, ends, _ = _sweep(m, masks, p, root=rv.root_vertex)",
            "cols, _, ends, _ = _sweep(m, masks, p)",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("dual edge rule ignores a color on both arcs", "duality.py",
            "if a & b or bin(a | b).count(\"1\") != want:",
            "if bin(a | b).count(\"1\") != want:",
            CHECK + "test_validators_flag_what_the_axioms_flag"),
    _mutant("Phi's span drops its wrap past color d", "schnyder.py",
            "return m if m >= 0 else m + (1 << d) - 1",
            "return m",
            SCHN + "test_span_mask_is_the_cyclic_range",
            SCHN + "test_phi_returns_on_colors_outside_1_to_d"),
    _mutant("chi reads the corner of the dart, not of its twin", "duality.py",
            "else 1 << (colors[dm.twin[h]] - 1)",
            "else 1 << (colors[h] - 1)",
            "tests/test_duality.py::"
            "test_read_off_matches_the_oracles_on_every_lattice"),
    # -- the sampler -------------------------------------------------------
    _mutant("ballot test lets the sum touch -1", "sampler.py",
            "if (both & (low - 1)).bit_count() < k:",
            "if (both & (low - 1)).bit_count() <= k:",
            SAMP + "test_tree_stage_counts_plane_trees",
            SAMP + "test_pretest_fails_exactly_when_the_tree_does",
            SAMP + "test_word_walk_agrees_with_the_tree_on_random_pairs"),
    _mutant("ballot test reads the top flip", "sampler.py",
            "zeros = ~(a | b) & ((1 << (n - 1)) - 1)",
            "zeros = ~(a | b) & ((1 << n) - 1)",
            SAMP + "test_tree_stage_counts_plane_trees",
            SAMP + "test_pretest_fails_exactly_when_the_tree_does"),
    _mutant("ballot test counts zeros from 0", "sampler.py",
            "    k = 0\n    while zeros:",
            "    k = -1\n    while zeros:",
            SAMP + "test_tree_stage_counts_plane_trees",
            SAMP + "test_pretest_fails_exactly_when_the_tree_does"),
    _mutant("a white offers gamma slots, not gamma-1", "sampler.py",
            "slots += gammas.pop() - 1",
            "slots += gammas.pop()",
            SAMP + "test_strands_pretest_fails_exactly_when_the_sweep_does",
            SAMP + "test_strands_word_walk_agrees_with_the_sweep"),
    _mutant("a black vertex takes no slot", "sampler.py",
            "slots -= 1",
            "slots -= 0",
            SAMP + "test_strands_pretest_fails_exactly_when_the_sweep_does",
            SAMP + "test_strands_word_walk_agrees_with_the_sweep"),
    _mutant("class draw one bit short", "sampler.py",
            "bits = total.bit_length()",
            "bits = (total - 1).bit_length()",
            SAMP + "test_class_draw_consumes_the_generator_as_randrange"),
    _mutant("word c drawn only after the tree test", "sampler.py",
            "        while (c := getrandbits(width)).bit_count() != k:\n"
            "            pass\n"
            "        if not (a & 1 and _contour_closes(a, b, n) and\n"
            "                _strands_close(a, b, c)):",
            "        if not (a & 1 and _contour_closes(a, b, n)):\n"
            "            continue\n"
            "        while (c := getrandbits(width)).bit_count() != k:\n"
            "            pass\n"
            "        if not _strands_close(a, b, c):",
            SAMP + "test_decode_results_are_pinned",
            CLI + "test_sample_stdout_is_pinned"),
    _mutant("enumeration skips the first c word", "sampler.py",
            "                for c in words:",
            "                for c in words[1:]:",
            SAMP + "test_enumerate_pairs_decodes_each_oracle_pair_once"),
    _mutant("decode takes a bool for a degree", "sampler.py",
            "if not all(type(x) is int for x in seq) or min(seq) < 1:",
            "if not all(isinstance(x, int) for x in seq) or min(seq) < 1:",
            SAMP + "test_decode_error_stages"),
    # -- the input checks --------------------------------------------------
    _mutant("a rotation split into two orbits passes", "planar_map.py",
            "        if not all(dart_seen):",
            "        if False:",
            INPUT + "test_cli_input_errors"),
    _mutant("an edge whose values miss k passes", "orientation.py",
            "elif a >= 0 and a + b != k:",
            "elif a >= 0 and a + b > 2 * k:",
            INPUT + "test_cli_input_errors",
            INPUT + "test_validate_reports_a_bad_orientation"),
    _mutant("the d/(d-2) check ignores k", "orientation.py",
            "    if o.k != k:\n",
            "    if False:\n",
            INPUT + "test_cli_input_errors",
            INPUT + "test_validate_reports_a_bad_orientation"),
    _mutant("the d/(d-2) check ignores the values' length", "orientation.py",
            "    if len(values) != m.n_darts:\n",
            "    if False:\n",
            INPUT + "test_library_input_errors"),
    _mutant("validate reports a bad orientation as ok", "cli.py",
            "            if bad:\n",
            "            if bad and kind != \"orientation\":\n",
            INPUT + "test_validate_reports_a_bad_orientation",
            CLI + "test_validate_checks_orientation_outdegrees"),
    _mutant("convert uses a labelling payload unchecked", "cli.py",
            "return schnyder_mod.require_valid(t, check)",
            "return schnyder_mod.require_valid(t, check if kind != "
            "\"labelling\" else lambda t: [])",
            INPUT + "test_cli_input_errors"),
    _mutant("convert reads an orientation payload unchecked", "cli.py",
            "return schnyder_mod.require_valid(t, check)",
            "return schnyder_mod.require_valid(t, check if kind != "
            "\"orientation\" else lambda t: [])",
            INPUT + "test_cli_input_errors"),
    _mutant("dualize reads its schnyder payload unchecked", "cli.py",
            "s = _valid_payload(doc, ang, \"schnyder\")",
            "s = _read_payload(doc, ang, \"angulation\", \"schnyder\")[0]",
            INPUT + "test_cli_input_errors"),
    _mutant("decode takes beta and gamma of unequal lengths", "sampler.py",
            "    if len(beta) != len(gamma):",
            "    if False:",
            INPUT + "test_library_input_errors"),
    _mutant("a pushed cycle may repeat an edge", "orientation.py",
            "if len({m.edge_of[h] for h in traversal}) != len(traversal):",
            "if False:",
            INPUT + "test_library_input_errors"),
    # -- the placement and the face classification -------------------------
    _mutant("fx- and fx+ swapped on white faces", "drawing.py",
            "else (b2, a2, a, b)",
            "else (a2, b2, a, b)",
            DRAW + "test_face_counting_matches_equatorial_lines",
            DRAW + "test_each_drawing_is_its_own_baxter_permutation",
            ACCEPT + "test_criterion_07_placement_equivalence"),
    _mutant("x-chain starts at v_1*", "drawing.py",
            'xs = _chain(next_x, m.target_of[rv.root_darts[1]], count, "L_1")',
            'xs = _chain(next_x, m.target_of[rv.root_darts[0]], count, "L_1")',
            DRAW + "test_face_counting_matches_equatorial_lines",
            DRAW + "test_each_drawing_is_its_own_baxter_permutation",
            ACCEPT + "test_criterion_07_placement_equivalence"),
    _mutant("partly and fully reducible faces swapped", "drawing.py",
            "for h in gd.host.map.faces[f]} == markers:",
            "for h in gd.host.map.faces[f]} != markers:",
            DRAW + "test_face_classification_matches_dual_degrees",
            ACCEPT + "test_criterion_09_face_classification"),
]


def _failed(output):
    """The node ids, without parameters, that a pytest -rfE summary
    reports as failed or in error (a collection error names its file)."""
    out = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                out.add(line[len(tag):].split(" - ")[0].split("[")[0])
    return out


def limit_memory():
    """Cap the address space of the calling process at MEMORY bytes; run
    in the pytest child only, as its preexec_fn."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, hard))


def run(mutant, copy):
    """The named tests of a mutant that did not fail on the mutated copy,
    or None when they ran over TIMEOUT seconds."""
    path = copy / mutant.file
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", *mutant.kills],
            cwd=copy, env=env, capture_output=True, text=True,
            timeout=TIMEOUT, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return None
    finally:
        path.write_text(text)
    failed = _failed(proc.stdout)
    return [k for k in mutant.kills
            if k not in failed and k.split("::")[0] not in failed]


def verdict(survivors):
    """(verdict, detected) on what run returned.  A timed-out run has its
    own verdict and counts as detected: its tests did not pass."""
    if survivors is None:
        return f"timed out after {TIMEOUT} s", True
    if survivors:
        return "SURVIVED " + ", ".join(s.split("::")[1]
                                       for s in survivors), False
    return "killed", True


def select(words):
    """(number, mutant) for each mutant whose `what` contains one of the
    given words; every mutant when no word is given."""
    return [(i, m) for i, m in enumerate(MUTANTS, start=1)
            if not words or any(w in m.what for w in words)]


def main(words):
    chosen = select(words)
    detected = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for i, mutant in chosen:
            line, caught = verdict(run(mutant, copy))
            detected += caught
            print(f"{i:2d} {pathlib.Path(mutant.file).name}: {mutant.what}: "
                  f"{line}", flush=True)
    print(f"{detected} of {len(chosen)} mutants killed or timed out")
    return 0 if detected == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The decomposition validators against their axioms written from the
definitions, and the corner rule against the labelling validators it
replaced."""

import random
from collections import Counter

from schnyder_kit.errors import DualityError
from schnyder_kit.planar_map import as_angulation
import schnyder_kit.orientation as O
import schnyder_kit.schnyder as S
import schnyder_kit.duality as D
import schnyder_kit.even as E

import instances as I
from oracles import (
    cyclic_step_violations, labelling_axioms, regular_decomposition_axioms,
    regular_labelling_axioms, schnyder_axioms, sufficiency_violations,
)

def decompositions():
    """(validator, valid table) for each of the four validators."""
    out = []
    for ang in (as_angulation(I.tetrahedron(), 3),
                as_angulation(I.dodecahedron(), 5)):
        s = S.phi(S.psi_inverse(O.compute_dd2_orientation(ang)))
        out += [(S.validate_schnyder, s),
                (D.validate_regular_decomposition, D.chi(s))]
    for ang in (as_angulation(I.cube(), 4), as_angulation(I.cube_plus(), 4),
                as_angulation(I.concentric_quadrangulation(3), 4),
                as_angulation(I.pseudo_double_wheel(4), 4)):
        s = S.phi(S.psi_inverse(O.double(O.compute_p_p1_orientation(ang))))
        rd = D.chi(s)
        out += [(S.validate_schnyder, s),
                (D.validate_regular_decomposition, rd),
                (E.validate_reduced_schnyder, E.lambda_(s)),
                (E.validate_reduced_regular, E.lambda_star(rd))]
    return out


def _swapped(masks, a, b):
    masks = list(masks)
    masks[a], masks[b] = masks[b], masks[a]
    return masks


def _non_root_vertices(t):
    h = t.host
    skip = set(h.external) if hasattr(h, "external") else {h.root_vertex}
    return [v for v in range(h.map.n_vertices) if v not in skip]


def mutations(t):
    """Tables near t: two swapped arcs, a one-color contour, a removed
    parent arc and a forced two-cycle.  Swaps keep one color per arc where
    t has one, so the tree checks run instead of stopping at the arc
    check."""
    m = t.host.map
    root = getattr(t.host, "root_vertex", None)
    out = []
    for v in _non_root_vertices(t):
        orbit = m.vertex_orbit(v)
        if t.masks[orbit[0]] != t.masks[orbit[1]]:
            out.append(_swapped(t.masks, orbit[0], orbit[1]))
            break
    # a contour all of color 1: move each vertex's color-1 arc onto it
    f = next(f for f in range(m.n_faces) if f != m.outer_face and
             all(m.origin[h] != root for h in m.faces[f]))
    masks = list(t.masks)
    for h in m.faces[f]:
        g = next((g for g in m.vertex_orbit(m.origin[h])
                  if g != h and masks[g] & 1), None)
        if g is None:
            masks[h] |= 1
        else:
            masks = _swapped(masks, g, h)
    out.append(masks)
    for v in _non_root_vertices(t):
        h = next((h for h in m.vertex_orbit(v) if t.masks[h] & 1), None)
        if h is not None:
            masks = list(t.masks)
            masks[h] &= ~1
            out.append(masks)
            break
    # v -> w in color 1, then w's color-1 arc turned back onto w -> v
    for h in t.arcs_of_color(1):
        w = m.target(h)
        g = next((g for g in m.vertex_orbit(w) if t.masks[g] & 1), None)
        if w != root and g is not None and g != m.twin[h]:
            out.append(_swapped(t.masks, g, m.twin[h]))
            break
    return [type(t)(host=t.host, masks=tuple(mk), primal=t.primal)
            for mk in out]


def _multiset(violations):
    return Counter((axiom, where) for axiom, where, _ in violations)


# validator -> its axioms, written from the definitions
AXIOMS = {
    S.validate_schnyder: schnyder_axioms,
    E.validate_reduced_schnyder: schnyder_axioms,
    D.validate_regular_decomposition: regular_decomposition_axioms,
    E.validate_reduced_regular: regular_decomposition_axioms,
}


def random_mutations(t, rng, count=40):
    """Tables near t: masks of two darts at one vertex swapped, of two
    darts anywhere swapped, one color bit of one dart flipped, and all
    outgoing colors of one vertex gathered on one of its arcs; tables equal
    to t are skipped."""
    m = t.host.map
    out = []
    for _ in range(count):
        orbit = m.vertex_orbit(rng.randrange(m.n_vertices))
        out.append(_swapped(t.masks, *rng.sample(orbit, 2)))
        out.append(_swapped(t.masks, *rng.sample(range(m.n_darts), 2)))
        masks = list(t.masks)
        masks[rng.randrange(m.n_darts)] ^= 1 << rng.randrange(t.n_colors)
        out.append(masks)
        masks = list(t.masks)
        for h in orbit[1:]:
            masks[orbit[0]] |= masks[h]
            masks[h] = 0
        out.append(masks)
    return [type(t)(host=t.host, masks=tuple(mk), primal=t.primal)
            for mk in out if tuple(mk) != t.masks]


def test_validators_flag_what_the_axioms_flag(even_decompositions):
    """Both primal validators report the (axiom, where) multiset of the
    axioms on the valid tables of decompositions(), on the tables near them
    and on two malformed ones (the dual ones are compared in the next
    test); and all four accept all four tables of every even decomposition
    of the quadrangulations with at most 8 faces, and agree with the
    axioms on a random table near each of those with at most 6 faces."""
    rng = random.Random(17)
    seen = {validator: set() for validator in AXIOMS}
    flagged = 0
    for validator, t in decompositions():
        if t.HOST == "dual":
            continue
        malformed = [t.masks[:-1], (1 << t.n_colors,) + t.masks[1:]]
        for x in [t] + mutations(t) + random_mutations(t, rng) + [
                type(t)(host=t.host, masks=mk, primal=t.primal)
                for mk in malformed]:
            got = _multiset(validator(x))
            assert got == _multiset(AXIOMS[validator](x)), \
                (validator.__name__, x.masks)
            assert (not got) == (x is t)
            seen[validator] |= set(a for a, _ in got)
            flagged += sum(got.values())
    tables = 0
    for n in range(2, 9):
        for _ang, s, rd in even_decompositions[n]:
            for validator, x in ((S.validate_schnyder, s),
                                 (E.validate_reduced_schnyder, E.lambda_(s)),
                                 (D.validate_regular_decomposition, rd),
                                 (E.validate_reduced_regular,
                                  E.lambda_star(rd))):
                assert validator(x) == []
                tables += 1
                if n > 6:
                    continue
                assert AXIOMS[validator](x) == []
                for y in random_mutations(x, rng, 1):
                    assert _multiset(validator(y)) == \
                        _multiset(AXIOMS[validator](y)), \
                        (validator.__name__, y.masks)
                    seen[validator] |= {a for a, _, _ in validator(y)}
    assert tables == 4 * 2619 and flagged > 5000
    assert seen == {
        S.validate_schnyder: {"malformed", "i", "ii", "iii"},
        E.validate_reduced_schnyder: {"malformed", "i'", "ii'", "iii'"},
        D.validate_regular_decomposition: {"i", "ii", "iii", "tree"},
        E.validate_reduced_regular:
            {"i'", "partition", "ii'", "iii'", "tree"}}


# -- the dual rule, xi_inverse and the corner rule -------------------------

def _outcome(fn, x):
    try:
        fn(x)
    except DualityError as exc:
        return exc.kind
    return "accepted"


def _former_sufficiency(r):
    """The certificate with (i') as coded before the corner rule."""
    return cyclic_step_violations(r, "i'") + \
        [v for v in sufficiency_violations(r) if v[0] != "i'"]


def _certified(certificate):
    """xi_inverse followed by a certificate of its output, failing as
    xi_inverse did while it certified its own output."""
    def run(x):
        r = D.xi_inverse(x)
        bad = certificate(r)
        if bad:
            raise DualityError("InvalidDecomposition",
                               f"recovered coloring fails: {bad[:3]}")
        return r
    return run


def test_dual_rule_flags_what_each_former_validator_flagged(monkeypatch):
    """Both dual validators report the (axiom, where) multiset of their
    axioms on every table near a valid one, and xi_inverse accepts and
    rejects the same tables under the axioms, and with its output certified
    by the sufficiency oracle."""
    rng = random.Random(11)
    seen = {D.validate_regular_decomposition: set(),
            E.validate_reduced_regular: set()}
    accepted = 0
    for validator, t in decompositions():
        if t.HOST != "dual":
            continue
        oracle = AXIOMS[validator]
        short = type(t)(host=t.host, masks=t.masks[:-1], primal=t.primal)
        for x in [t, short] + mutations(t) + random_mutations(t, rng, 100):
            new = _multiset(validator(x))
            assert new == _multiset(oracle(x)), (validator.__name__, x.masks)
            seen[validator] |= {axiom for axiom, _ in new}
            if validator is D.validate_regular_decomposition:
                verdict = _outcome(D.xi_inverse, x)
                assert _outcome(_certified(sufficiency_violations), x) == \
                    verdict
                with monkeypatch.context() as mp:
                    mp.setattr(D, "validate_regular_decomposition", oracle)
                    assert _outcome(_certified(_former_sufficiency), x) == \
                        verdict
                accepted += verdict == "accepted"
    assert seen == {
        D.validate_regular_decomposition:
            {"malformed", "i", "ii", "iii", "tree"},
        E.validate_reduced_regular:
            {"malformed", "i'", "partition", "ii'", "iii'", "tree"}}
    assert accepted == 6


def corner_mutations(t, rng, count=3):
    """Corner colorings near t, all colors in range: one corner recolored,
    two corners swapped, the corners of one vertex or of one face shifted
    by +1, and the corners of one vertex reversed; then three malformed
    tables, one corner short or one color out of range."""
    m = t.host.map
    d = t.host.d
    out = []
    for _ in range(count):
        c = list(t.colors)
        h = rng.randrange(m.n_darts)
        c[h] = S._mod(c[h] + rng.randrange(1, d), d)
        out.append(c)
        c = list(t.colors)
        a, b = rng.sample(range(m.n_darts), 2)
        c[a], c[b] = c[b], c[a]
        out.append(c)
        for corners in (m.vertex_orbit(rng.randrange(m.n_vertices)),
                        m.face_corners(rng.randrange(m.n_faces))):
            c = list(t.colors)
            for h in corners:
                c[h] = S._mod(c[h] + 1, d)
            out.append(c)
        c = list(t.colors)
        orbit = m.vertex_orbit(rng.randrange(m.n_vertices))
        for h, x in zip(orbit, reversed([c[h] for h in orbit])):
            c[h] = x
        out.append(c)
    out += [t.colors[:-1], (0,) + t.colors[1:], t.colors[:-1] + (d + 1,)]
    return [type(t)(host=t.host, colors=tuple(c), primal=t.primal)
            for c in out]


def test_corner_rule_flags_what_each_former_validator_flagged(study_corpus):
    """Both labelling validators, and (i') of the sufficiency oracle,
    report the (axiom, where) multiset of their former bodies on the
    labelling of every study-corpus map, on its dual, and on colorings near
    each."""
    rng = random.Random(12)
    seen = {S.validate_labelling: set(), D.validate_regular_labelling: set()}
    tables = 0
    for ang in [a for angs in study_corpus.values() for a in angs]:
        l = S.psi_inverse(O.compute_dd2_orientation(ang))
        r = D.dual_labelling(l)
        for validator, oracle, t in (
                (S.validate_labelling, labelling_axioms, l),
                (D.validate_regular_labelling, regular_labelling_axioms, r)):
            for x in [t] + corner_mutations(t, rng):
                new = _multiset(validator(x))
                assert new == _multiset(oracle(x)), \
                    (validator.__name__, x.colors)
                axioms = {axiom for axiom, _ in new}
                seen[validator] |= axioms
                tables += 1
                if t is r and "malformed" not in axioms:
                    assert _multiset(v for v in sufficiency_violations(x)
                                     if v[0] == "i'") == \
                        _multiset(cyclic_step_violations(x, "i'"))
    assert seen == {validator: {"malformed", "i", "ii", "iii"}
                    for validator in seen}
    assert tables > 10000


def test_inverses_need_no_output_certificate(study_corpus):
    """phi_inverse and lambda_star_inverse validate only their input, since
    Phi and Lambda* are bijections: on the Schnyder decomposition of every
    study-corpus map (and, for d = 4, on the reduced dual of an even one)
    and on the tables near it, every table that passes its validator comes
    back unchanged through the inverse and the map, and the lifted dual
    decomposition is even."""
    rng = random.Random(13)
    valid, tables = Counter(), Counter()
    for ang in [a for angs in study_corpus.values() for a in angs]:
        if ang.d == 4:
            s = S.phi(S.psi_inverse(O.double(O.compute_p_p1_orientation(ang))))
        else:
            s = S.phi(S.psi_inverse(O.compute_dd2_orientation(ang)))
        for x in [s] + mutations(s) + random_mutations(s, rng, 1):
            tables["schnyder"] += 1
            if not S.validate_schnyder(x):
                assert S.phi(S.phi_inverse(x)).masks == x.masks
                valid["schnyder"] += 1
        if ang.d != 4 or ang.map.n_faces == 2:   # mutations need a face off v*
            continue
        t = E.lambda_star(D.chi(s))
        for x in [t] + mutations(t) + random_mutations(t, rng, 1):
            tables["reduced"] += 1
            if not E.validate_reduced_regular(x):
                rd = E.lambda_star_inverse(x)
                assert E.is_even_regular(rd)
                assert E.lambda_star(rd).masks == x.masks
                valid["reduced"] += 1
    assert valid["schnyder"] >= sum(map(len, study_corpus.values()))
    assert valid["reduced"] > len(study_corpus[4]) - 1

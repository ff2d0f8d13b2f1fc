"""Fixtures shared by more than one test module."""

import pytest

from schnyder_kit.duality import chi
from schnyder_kit.orientation import lattice_enumerate
from schnyder_kit.planar_map import as_angulation
from schnyder_kit.schnyder import phi, psi_inverse

import instances as I
from oracles import enumerate_angulations, enumerate_pairs, is_even


@pytest.fixture(scope="session")
def study_corpus():
    """Moderate exhaustive corpora plus handmade instances, per degree: the
    corpus of acceptance criteria 2-5 and of the circuit-scan oracle test."""
    def enum(d, max_faces):
        return [as_angulation(m, d) for m in enumerate_angulations(d, max_faces)]

    return {
        3: enum(3, 10) + [as_angulation(I.tetrahedron(), 3)],
        4: enum(4, 7) + [
            as_angulation(m, 4) for m in
            (I.cube(), I.cube_plus(), I.concentric_quadrangulation(3),
             I.pseudo_double_wheel(4), I.pseudo_double_wheel(5))],
        5: enum(5, 6) + [as_angulation(I.dodecahedron(), 5)],
    }


@pytest.fixture(scope="session")
def small_pairs():
    """n -> oracles.enumerate_pairs(n) for n = 2..8: every even
    decomposition of the quadrangulations with at most 8 faces (2,619
    pairs), found by peeling and the lattice, never by decode."""
    return {n: enumerate_pairs(n) for n in range(2, 9)}


HANDMADE_QUADRANGULATIONS = {
    "cube": I.cube, "cube_plus": I.cube_plus,
    "rings3": lambda: I.concentric_quadrangulation(3),
    **{f"wheel{m}": lambda m=m: I.pseudo_double_wheel(m) for m in (4, 5, 6)},
}


@pytest.fixture(scope="session")
def even_decompositions(small_pairs):
    """key -> [(angulation, s, chi(s))] over even Schnyder decompositions
    s: key n for the pairs of small_pairs[n], and the name of each
    handmade quadrangulation (wheel4..wheel6: pseudo_double_wheel(4..6))
    for all of its own, in lattice order."""
    out = {n: [(ang, s, chi(s)) for ang, s in pairs]
           for n, pairs in small_pairs.items()}
    for name, build in HANDMADE_QUADRANGULATIONS.items():
        ang = as_angulation(build(), 4)
        evens = [phi(psi_inverse(o)) for o in lattice_enumerate(ang)
                 if is_even(o)]
        out[name] = [(ang, s, chi(s)) for s in evens]
    return out

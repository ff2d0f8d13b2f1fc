"""Fixtures shared by more than one test module."""

import pytest

from schnyder_kit.planar_map import as_angulation
from schnyder_kit.sampler import enumerate_angulations

import instances as I


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

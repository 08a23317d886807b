"""Tables that depend on the characteristic.  A table can depend on p only
through torsion in the homology of a complex it ranks, and the 6-vertex
real projective plane is the smallest complex with torsion (H_1 = Z/2).
Its Stanley-Reisner ideal in six variables is pinned here: in char 2 its
Betti table gains beta_{3,6} = beta_{4,6} = 1 and H^2_m(A/I)_0 = 1, and in
odd characteristic all three vanish, in both backends."""

import pytest

from lexcohom import homology, memos
from lexcohom.betti import betti_table
from lexcohom.localcohom import cohomology_table

from conftest import rp2_ideal

BACKENDS = ("combinatorial", "ext")
COMMON = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
TORSION = {(3, 6): 1, (4, 6): 1}


def pins(p) -> list[str]:
    """The pins of the RP^2 ideal over GF(p) that its tables break, by name:
    the Betti table, H^2_m(A/I)_0 in each backend, and the two backends'
    agreement."""
    I = rp2_ideal(p)
    torsion = p == 2
    tables = [cohomology_table(I, backend=backend) for backend in BACKENDS]
    broken = []
    if betti_table(I).entries != {**COMMON, **(TORSION if torsion else {})}:
        broken.append("betti")
    broken += [f"h2_0 {backend}" for backend, T in zip(BACKENDS, tables)
               if T.value(2, 0) != int(torsion)]
    if tables[0] != tables[1]:
        broken.append("backends agree")
    return broken


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_projective_plane_tables_depend_on_the_characteristic(p):
    assert pins(p) == []


def test_ranking_in_the_wrong_characteristic_breaks_the_pins(monkeypatch):
    real = homology.boundary_ranks
    monkeypatch.setattr(homology, "boundary_ranks",
                        lambda levels, p: real(levels, 3 if p == 2 else 2))
    memos.clear_all()
    try:
        assert pins(2) == ["betti", "h2_0 combinatorial", "h2_0 ext"]
        assert pins(3) == ["betti", "h2_0 combinatorial", "h2_0 ext"]
    finally:
        memos.clear_all()

"""Exact rank computations over GF(p).

Betti tables and both local-cohomology backends reduce to many small matrix
ranks over a prime field.  Entries are Python integers, so the elimination
is exact in every characteristic.
"""

from __future__ import annotations


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) of the matrix given as a list of equal-length integer
    rows.

    Each row is reduced against the pivot rows found so far; what is left of
    it, if nonzero, is normalised and becomes the next pivot row.
    """
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, row with 1 there)
    for row in rows:
        row = [v % p for v in row]
        for c, piv in pivots:
            f = row[c]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, piv)]
        c = next((c for c, v in enumerate(row) if v), None)
        if c is not None:
            inv = pow(row[c], -1, p)
            pivots.append((c, [v * inv % p for v in row]))
    return len(pivots)

"""Exact boundary ranks over GF(p).

Betti tables and both local-cohomology backends reduce to the homology of
many small chain complexes of faces.  This module holds the package's one
rank kernel for them: the boundary columns are built and reduced sparsely,
with Python integers as entries, so the elimination is exact in every
characteristic.
"""

from __future__ import annotations


def boundary_ranks(levels: list[list[int]], p: int) -> list[int]:
    """Ranks over GF(p) of the boundary maps of a family of faces encoded as
    vertex bitmasks: ``levels[k]`` lists the faces of k vertices, sorted,
    and entry k of the result is the rank of the boundary from ``levels[k]``
    to ``levels[k - 1]`` (entry 0 is 0).

    The boundary of a face is a column {row face: coefficient mod p} that
    leaves out every subface not listed, so an order filter gets the
    boundary maps of its quotient complex.  Columns are reduced by their
    largest row, from the top level down; a column whose face is the pivot
    row of a reduced column of the level above is skipped ("clearing":
    Chen and Kerber, "Persistent homology computation with a twist",
    EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and compress:
    computing persistent homology in chunks", 2014).  That reduced column
    is a boundary, so its boundary is 0, and the skipped column is a
    combination of the columns of smaller faces.  The rank of a map is its
    number of pivots.
    """
    ranks = [0] * len(levels)
    pivots: dict[int, tuple[dict[int, int], int]] = {}  # row -> (column, 1 / its entry)
    for k in range(len(levels) - 1, 0, -1):
        rows = set(levels[k - 1])
        cleared, pivots = pivots, {}
        for face in levels[k]:
            if face in cleared:
                continue
            col, sign, rest = {}, 1, face
            while rest:
                low = rest & -rest
                if face ^ low in rows:
                    col[face ^ low] = sign
                sign = p - sign
                rest ^= low
            while col:
                top = max(col)
                if top not in pivots:
                    pivots[top] = col, pow(col[top], -1, p)
                    break
                piv, inv = pivots[top]
                f = col[top] * inv % p
                for r, c in piv.items():
                    c = (col.get(r, 0) - f * c) % p
                    if c:
                        col[r] = c
                    else:
                        del col[r]
        ranks[k] = len(pivots)
    return ranks

"""Reduced simplicial homology ranks over GF(p).

Complexes are given as collections of faces encoded as vertex bitmasks; the
empty face is mask 0.  This module builds the package's only boundary
matrices: Koszul and Takayama complexes are simplicial complexes, and the
dual Taylor slices of the ext backend are nerves or order filters (see
``reduced_homology_dims``).  Conventions (these matter: an off-by-one here
silently corrupts first syzygies):

* the void complex (no faces at all) has H~_k = 0 for every k;
* the irrelevant complex {emptyset} has H~_{-1} = K and nothing else.

The memos of the complexes (``betti._koszul_dims``,
``localcohom._takayama_dims`` and ``localcohom._ext_dims``) name a
complex by a family of bitmasks, which they key as one int with bit m set
for mask m (``_mask_family``): canonical, free of duplicates, and a few
dozen bytes where a frozenset takes hundreds.  Each caller keeps its masks
below 2^v, v the number of vertices or generators the complex is built
on, so a key has at most 2^v bits: a Koszul or Takayama miss walks 2^v
candidate faces anyway (under ``limits.CELL_LIMIT`` a Takayama complex
has at most 20 vertices), and an ext slice has at most
``limits.EXT_GENERATOR_LIMIT`` generators.
"""

from __future__ import annotations

from .linalg import rank_mod_p


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _mask_family(masks) -> int:
    """A set of bitmasks as one int, with bit m set for mask m."""
    family = 0
    for m in masks:
        family |= 1 << m
    return family


def _family_masks(family: int) -> list[int]:
    """The masks of a ``_mask_family`` int, in increasing order."""
    masks = []
    while family:
        low = family & -family
        masks.append(low.bit_length() - 1)
        family ^= low
    return masks


def boundary_matrix(lower: list[int], upper: list[int]) -> list[list[int]]:
    """Signed boundary matrix from the span of ``upper`` faces to ``lower``,
    as rows indexed by ``lower``."""
    index = {f: i for i, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, f in enumerate(upper):
        sign = 1
        v = f
        while v:
            low = v & (-v)
            sub = f & ~low
            i = index.get(sub)
            if i is not None:
                mat[i][j] = sign
            sign = -sign
            v &= v - 1
    return mat


def reduced_homology_dims(faces, p: int) -> dict[int, int]:
    """Reduced homology dims {k: dim H~_k} of a simplicial complex.

    ``faces`` must be closed under taking subsets (including mask 0 when the
    complex is nonvoid); only nonzero dims are reported.

    A family closed under taking supersets within a simplex (an order
    filter) is accepted too: its restricted boundary maps are those of the
    quotient chain complex, so the dims are those of the cochain complex on
    the filter, shifted down by one (k counts the face size minus one).
    That quotient is the chain complex of the simplex relative to the
    complex Gamma of the faces outside the filter.  On a simplex with at
    least one vertex the augmented chain complex is acyclic, so the dims
    reported at k are those of H~_{k-1}(Gamma); ``localcohom._ext_dims``
    reads them off a nerve of Gamma this way.
    """
    faces = set(faces)
    if not faces:
        return {}
    by_dim: dict[int, list[int]] = {}
    for f in faces:
        by_dim.setdefault(_popcount(f) - 1, []).append(f)
    for level in by_dim.values():
        level.sort()
    top = max(by_dim)
    ranks: dict[int, int] = {}
    for k in range(0, top + 1):
        lower = by_dim.get(k - 1, [])
        upper = by_dim.get(k, [])
        ranks[k] = rank_mod_p(boundary_matrix(lower, upper), p) if lower and upper else 0
    out = {}
    for k in range(-1, top + 1):
        dim = len(by_dim.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            out[k] = dim
    return out

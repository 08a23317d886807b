"""Reduced simplicial homology ranks over GF(p).

Complexes are given as collections of faces encoded as vertex bitmasks; the
empty face is mask 0.  Every complex of the package is ranked here, by
the one sparse kernel ``linalg.boundary_ranks``: Koszul and Takayama
complexes are simplicial complexes, and the dual Taylor slices of the ext
backend are nerves or order filters (see ``reduced_homology_dims``).
Conventions (these matter: an off-by-one here silently corrupts first
syzygies):

* the void complex (no faces at all) has H~_k = 0 for every k;
* the irrelevant complex {emptyset} has H~_{-1} = K and nothing else.

The memos of the complexes (``betti._koszul_dims``,
``localcohom._takayama_dims`` and ``localcohom._ext_dims``) name a
complex by its own masks: a vertex count v, a sorted tuple of distinct
bitmasks on the vertices 0..v-1, and p.  So a key is canonical and holds
one int per mask, whatever v is: a Koszul complex has at most one mask
per generator dividing x^b, a Takayama complex at most one per block of
generators, and an ext slice at most n, one per coordinate of its
multidegree.
"""

from __future__ import annotations

from .linalg import boundary_ranks


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
    faces = sorted(set(faces))
    if not faces:
        return {}
    levels: list[list[int]] = [[] for _ in range(max(f.bit_count() for f in faces) + 1)]
    for f in faces:
        levels[f.bit_count()].append(f)
    ranks = boundary_ranks(levels, p) + [0]
    out = {}
    for k, level in enumerate(levels):
        dim = len(level) - ranks[k] - ranks[k + 1]
        if dim:
            out[k - 1] = dim
    return out

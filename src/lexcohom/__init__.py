"""Exact commutative-algebra computations for monomial quotients:
Hilbert series, lex / power-quotient embeddings, graded Betti tables and
local-cohomology Hilbert functions, plus a verification harness for the
lex-plus-power inequalities they satisfy."""

from .betti import BettiTable, Corner, betti_table, corners, region_dominates
from .core import (Monomial, MonomialIdeal, RingContext, colon, ideal_intersection,
                   ideal_product, ideal_sum, minimalize, saturate)
from .embeddings import (epsilon_one, is_embedded, lex_ideal_of,
                         lex_segment_ideal, lpp_ideal)
from .hilbert import (HilbertSeries, hilbert_series, is_O_sequence,
                      macaulay_growth, macaulay_rep)
from .localcohom import (CohomologyTable, cohomology_table, cohomology_tables,
                         compare_tables)
from .verify import (FamilySpec, Report, check_extension_recurrence,
                     enumerate_family, run_family)
from .zstable import (ZGradedIdeal, bar, distraction_initial, is_z_stable, z_decompose,
                      z_order_compare, z_recompose, z_saturate, z_stabilize)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "CohomologyTable", "Corner", "FamilySpec", "HilbertSeries",
    "Monomial", "MonomialIdeal", "Report", "RingContext", "ZGradedIdeal",
    "bar", "betti_table", "check_extension_recurrence", "cohomology_table",
    "cohomology_tables", "colon", "compare_tables", "corners", "distraction_initial",
    "enumerate_family", "epsilon_one", "hilbert_series", "ideal_intersection",
    "ideal_product", "ideal_sum", "is_O_sequence", "is_embedded", "is_z_stable",
    "lex_ideal_of", "lex_segment_ideal", "lpp_ideal", "macaulay_growth", "macaulay_rep",
    "minimalize", "region_dominates", "run_family", "saturate", "z_decompose",
    "z_order_compare", "z_recompose", "z_saturate", "z_stabilize",
]

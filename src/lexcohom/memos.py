"""Every process-wide memo, with the reason for its size, and the two
routines that make and empty them.

A memo is an ``lru_cache`` of a function whose answer depends on nothing
but its key and the limits; the module that uses it argues why its key is
sound.  Setting a limit empties every memo (see ``limits``), so a memo
holds bare answers computed under the current limits: a refusal raises,
so it is never stored, and a hit never skips one.  The memos live as long
as the process: each worker of ``verify --jobs N`` fills its own.
"""

from __future__ import annotations

from functools import lru_cache

# Entries of the primality memo ``core._is_prime``, one per characteristic.
# Every ring context checks its characteristic, and a run uses a few: the
# seed-0 ops of each 15 s benchmark run (perfbench) fill 1 entry.
PRIME_MEMO_SIZE = 16
# Entries of each per-context memo (``RingContext.drop_z``, ``powers_ideal``
# and ``max_ideal``), one per ring context.  The seed-0 ops of the three
# 15 s benchmark runs (perfbench) fill at most 3 entries in each.
CONTEXT_MEMO_SIZE = 32
# Entries of the Hilbert numerator memo ``hilbert._numerator``, one per
# canonical antichain, about 1.45 KB each.  The certificates of the
# embeddings read a closed form and fill none.  The seed-0 ops of 15 s
# benchmark runs (perfbench) fill 327 in cohom-harness, 655 in
# zstab-harness and 3,644 in embed-cli; a 500-sample lex-cohomology run on
# FamilySpec(n=4, max_deg=4) fills 715 and the path ideal in 300 variables
# 595.  8,192 entries never fill there, and a full memo takes about 12 MB.
NUMERATOR_MEMO_SIZE = 8_192
# Entries of the Koszul homology memo, one per (supp(b), tight masks, p),
# the masks keyed as one int (``homology._mask_family``).  The seed-0 ops of
# a 15 s cohom-harness run (perfbench) look up 322 distinct complexes 5,032
# times, about 225 bytes each, so 4,096 entries never fill there and a full
# memo takes about 0.9 MB.
KOSZUL_MEMO_SIZE = 4_096
# Entries of the Betti memo, one per ideal.  The seed-0 ops of a 15 s
# cohom-harness run (perfbench) build 740 tables of 162 distinct ideals;
# 256 entries keep all 578 hits.  Those entries take 0.6-1.8 KB each
# (1.2 KB on average), so a full memo of them takes about 0.3 MB.
BETTI_MEMO_SIZE = 256
# Entries of the Takayama homology memo, one per (pinned, exceed masks, p).
# The seed-0 ops of a 15 s cohom-harness run (perfbench) look up 528
# distinct complexes 5,566 times, about 235 bytes each, so 4,096 entries
# never fill there and a full memo takes about 1 MB.
TAKAYAMA_MEMO_SIZE = 4_096
# Entries of the ext slice memo, one per (generators, masks, p).  The same
# ops look up 982 distinct slices 4,301 times, about 240 bytes each, so
# 8,192 entries never fill there and a full memo takes about 2 MB.  The
# three complex memos key their masks as one int each
# (``homology._mask_family``): after those ops the keys' families take 55 KB
# (Takayama 15 KB, ext 31 KB, Koszul 9 KB), where frozensets took 544 KB.
EXT_MEMO_SIZE = 8_192
# Entries of the merged-cell memo, one per (ideal, backend).  The seed-0
# ops of a 15 s cohom-harness run (perfbench) look up 568 distinct pairs
# 2,698 times: 1,850 times for a table's regularity and window top, and
# once more for each miss of the table memo below.  256 entries keep 2,034
# of the 2,130 hits of an unbounded memo, and emptying the memo after the
# run frees 0.27 MB (unbounded: 0.63 MB).  The largest entry seen, the
# 240-generator lex ideal in four variables of degree up to 74, holds 146
# cells, summed from 2,330 multidegrees with cohomology, in 28 KB.
CELL_MEMO_SIZE = 256
# Entries of the table memo, one per (ideal, backend, window): a table's
# module dimension, rows and tails.  The seed-0 ops of a 15 s
# cohom-harness run (perfbench) build 1,850 tables on 576 distinct
# windows of 568 pairs (ideal, backend): 128 entries keep 1,002 of the
# 1,274 hits of an unbounded memo, and emptying the memo after the run
# frees 0.27 MB, about 2.1 KB an entry (1,024 entries keep all of them,
# for 1.22 MB).  A 500-sample lex-cohomology run on FamilySpec(n=4,
# max_deg=4) fills the 128 entries with 1.39 MB.  An entry holds n + 1
# rows as wide as its window: the largest seen, the 240-generator lex
# ideal in four variables on its default window -6,171..74, takes 450 KB,
# so a full memo of entries that large would take about 58 MB.
TABLE_MEMO_SIZE = 128
# Entries of the embedding memo, one per Hilbert series.  The seed-0 ops of
# 15 s benchmark runs (perfbench) look up 72 distinct series 5,361 times in
# zstab-harness, 56 distinct series 925 times in cohom-harness, and 457
# distinct series 1,350 times in embed-cli, where 256 entries keep 843 of
# the 893 hits of an unbounded memo, for 0.49 MB more traced memory after
# the run than with no memo (unbounded: 0.86 MB), 1.9 KB an entry on
# average; an entry holds its ideal's exponent tuples, where generator
# objects took 0.79 and 1.41 MB.  The 256 ideals of
# FamilySpec(n=5, max_deg=4, max_extra_gens=8) at seeds 0-3 leave 148
# entries, and emptying the memo then frees 4.8 MB, 32 KB an entry on
# average; the largest entry seen, their 2,158-generator lex ideal of
# degree up to 382, frees 192 KB.  A full memo of such entries takes about
# 8 MB, and one of entries as large as the largest about 49 MB.
EMBED_MEMO_SIZE = 256
# Entries of the decomposition memo, one per ideal.  The seed-0 ops of a
# 15 s zstab-harness run (perfbench), with the draws of their non-stable
# inputs, decompose 495 distinct ideals 4,197 times: 512 entries keep all
# 3,702 hits, for 0.55 MB more traced memory after the run (the draws
# included, after a garbage collection) than with no memo, the facts
# stored on the chains included (antichains, numerators, component windows
# at their longest length read, bar saturations and the rest; 256 entries
# keep 3,619, for 0.35 MB).  A chain's recomposition is its key, the ideal
# itself, and adds nothing.  The stored windows and the facts stored on
# the components (top degree, generator tallies, m-saturation) added
# about 0.08 MB of the 0.74 MB that the memo took when ideals held
# generator objects.
DECOMPOSE_MEMO_SIZE = 512
# Entries of the stabilization memo, one per ideal.  The seed-0 ops of a
# 15 s zstab-harness run (perfbench) stabilize 422 distinct ideals 1,605
# times: 512 entries keep all 1,183 hits, for 0.62 MB more traced memory
# after the run (the draws included, after a garbage collection) than with
# no memo (256 entries keep 1,122, for 0.40 MB).  Emptying the memo after
# the run frees 1.5 KB an entry on average, the facts the loop stores on
# its chains (antichains, numerators) and their recompositions included;
# the largest seen, a chain of 8 components with 22 generators in all,
# frees 2.9 KB when stabilized and recomposed alone from empty memos.
STABLE_MEMO_SIZE = 512
# Entries of the parser memo ``cli.build_parser``: it takes no argument.
PARSER_MEMO_SIZE = 1

# every memo made by ``memo``, in the order the modules defined them
registry = []


def memo(size: int):
    """Decorator: ``lru_cache(maxsize=size)``, recorded in ``registry``."""
    def record(fn):
        cached = lru_cache(maxsize=size)(fn)
        registry.append(cached)
        return cached
    return record


def clear_all() -> None:
    """Empty every memo.  Emptying ``zstable._decomposition`` drops the facts
    stored on its chains too."""
    for cached in registry:
        cached.cache_clear()

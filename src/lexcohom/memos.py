"""Every process-wide memo, with the reason for its size, and the two
routines that make and empty them.

A memo is an ``lru_cache`` of a function whose answer depends on nothing
but its key; the module that uses it argues why its key is sound.  Each
memo sits behind an entry function that checks every limit and every
check on each call, so a hit skips computation, never a refusal or a
check, and a refusal raises, so it is never stored.  The memos live as
long as the process: each worker of ``verify --jobs N`` fills its own.
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
# Entries of the ring Hilbert-function memo ``core._ring_dims``, one per
# (n, powers, degree).  The seed-0 ops of 15 s benchmark runs (perfbench)
# fill 70 in cohom-harness, 53 in zstab-harness and 144 in embed-cli, so
# 256 entries never fill there.  An entry holds the dims up to its degree:
# unbounded, the one refused lex_ideal_of of (x1^2*x4*x5, x2^4,
# x2*x3*x4^2, x3*x4^3) in five variables left 1,920 entries in 9.45 MB of
# traced memory, and 256 entries hold 2.6 MB of it.
RING_DIMS_MEMO_SIZE = 256
# Entries of the Hilbert numerator memo ``hilbert._numerator``, one per
# canonical antichain, about 1.45 KB each.  The seed-0 ops of 15 s
# benchmark runs (perfbench) fill 332 in cohom-harness, 698 in
# zstab-harness and 5,359 in embed-cli; a 500-sample n = 4 lex-cohomology
# run fills 3,643 and the path ideal in 300 variables 595.  8,192 entries
# never fill there, and a full memo takes about 12 MB.
NUMERATOR_MEMO_SIZE = 8_192
# Entries of the Koszul homology memo, one per (supp(b), tight masks, p).
# The seed-0 ops of a 15 s cohom-harness run (perfbench) look up 322
# distinct complexes 5,032 times, about 450 bytes each, so 4,096 entries
# never fill there and a full memo takes about 1.8 MB.
KOSZUL_MEMO_SIZE = 4_096
# Entries of the Betti memo, one per ideal.  The seed-0 ops of a 15 s
# cohom-harness run (perfbench) build 740 tables of 162 distinct ideals;
# 256 entries keep all 578 hits.  Those entries take 0.6-1.8 KB each
# (1.2 KB on average), so a full memo of them takes about 0.3 MB.
BETTI_MEMO_SIZE = 256
# Entries of the Takayama homology memo, one per (pinned, exceed masks, p).
# The seed-0 ops of a 15 s cohom-harness run (perfbench) look up 528
# distinct complexes 5,566 times, about 680 bytes each, so 4,096 entries
# never fill there and a full memo takes about 2.8 MB.
TAKAYAMA_MEMO_SIZE = 4_096
# Entries of the ext slice memo, one per (generators, masks, p).  The same
# ops look up 982 distinct slices 4,301 times, about 420 bytes each, so
# 8,192 entries never fill there and a full memo takes about 3.5 MB.
EXT_MEMO_SIZE = 8_192
# Entries of the merged-cell memo, one per (ideal, backend).  The seed-0
# ops of a 15 s cohom-harness run (perfbench) look up 568 distinct pairs
# 1,850 times: 256 entries keep 1,186 of the 1,282 hits of an unbounded
# memo, for 0.31 MB more traced memory after the run than with no memo
# (1,024 entries keep all of them, for 0.66 MB).  The largest entry seen,
# the 240-generator lex ideal in four variables of degree up to 74, holds
# 146 cells, summed from 2,330 multidegrees with cohomology, in 28 KB.
CELL_MEMO_SIZE = 256
# Entries of the embedding memo, one per Hilbert series.  The seed-0 ops of
# 15 s benchmark runs (perfbench) look up 72 distinct series 5,361 times in
# zstab-harness, 56 distinct series 925 times in cohom-harness, and 457
# distinct series 1,350 times in embed-cli, where 256 entries keep 843 of
# the 893 hits of an unbounded memo, for 0.50 MB more traced memory after
# the run than with no memo (unbounded: 0.78 MB).  An entry there takes
# 1.5-9.9 KB (at most 43 generators); the largest entry seen, the
# 240-generator lex ideal in four variables of degree up to 74, takes 52 KB.
EMBED_MEMO_SIZE = 256
# Entries of the decomposition memo, one per ideal.  The seed-0 ops of a
# 15 s zstab-harness run (perfbench), with the draws of their non-stable
# inputs, decompose 495 distinct ideals 4,197 times: 512 entries keep all
# 3,702 hits, for 0.51 MB more traced memory after the run than with no
# memo, the chains' stored numerators included (256 entries keep 3,619,
# for 0.26 MB).
DECOMPOSE_MEMO_SIZE = 512
# Entries of the stabilization memo, one per ideal.  The seed-0 ops of a
# 15 s zstab-harness run (perfbench) stabilize 422 distinct ideals 1,605
# times: 512 entries keep all 1,183 hits, for 0.70 MB more traced memory
# after the run than with no memo (256 entries keep 1,122, for 0.44 MB).
# An entry there takes 1.9 KB on average; the largest seen, a chain of 8
# components with 22 generators in all, takes 5.6 KB.
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

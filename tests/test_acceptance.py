"""Acceptance suite: each test is one release criterion, checked exactly
(integer equalities/inequalities, zero tolerance) and printed as a single
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time

from lexcohom import limits
from lexcohom.betti import betti_table
from lexcohom.hilbert import hilbert_series
from lexcohom.localcohom import cohomology_table
from lexcohom.verify import (FamilySpec, enumerate_family,
                             nonstable_instances, run_family,
                             stable_instances, verify_betti_lpp_corners,
                             verify_embedding_lemmas, verify_recurrences,
                             verify_region_inclusion, verify_zstabilize)

from conftest import corrupt_epsilon

P = 32003


def _announce(name, ok, extra=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {extra}")
    assert ok


def _mixed_sample_families():
    return [
        FamilySpec(n=2, char=P, max_deg=4, count=120, seed=101, max_extra_gens=5),
        FamilySpec(n=3, char=P, max_deg=4, count=180, seed=102, max_extra_gens=7),
        FamilySpec(n=4, char=P, max_deg=4, count=120, seed=103, max_extra_gens=7),
        FamilySpec(n=3, char=P, powers=(2, 2), max_deg=4, count=50, seed=104),
        FamilySpec(n=2, char=P, powers=(2, 3), max_deg=4, count=30, seed=105),
    ]


def test_criterion_1_backend_agreement():
    """Two independent local-cohomology backends agree on >= 500 ideals."""
    t0 = time.perf_counter()
    total = 0
    for spec in _mixed_sample_families():
        for I in enumerate_family(spec):
            Ta = cohomology_table(I, backend="combinatorial")
            Tb = cohomology_table(I, backend="ext")
            assert Ta.rows == Tb.rows, f"backend mismatch on {I}"
            assert Ta.all_certified() and Tb.all_certified()
            total += 1
    elapsed = time.perf_counter() - t0
    _announce("1 backend-agreement",
              total >= 500 and elapsed <= 600,
              f"({total} ideals, {elapsed:.1f}s)")


def test_criterion_2_hilbert_identity():
    """Alternating Betti sums reproduce the Hilbert numerator on every table."""
    checked = 0
    for spec in _mixed_sample_families():
        for I in enumerate_family(spec):
            T = betti_table(I)
            if T.alternating_sum() != hilbert_series(I).numer:
                _announce("2 hilbert-identity", False, f"(failed on {I})")
            checked += 1
    _announce("2 hilbert-identity", checked >= 500, f"({checked} tables)")


def test_criterion_3_lpp_cohomology():
    """The lex-plus-power quotient maximizes local cohomology, entrywise."""
    t0 = time.perf_counter()
    rep1 = run_family("lpp-cohomology",
                      FamilySpec(n=2, char=P, powers=(2, 2), max_deg=3,
                                 mode="exhaustive"))
    rep2 = run_family("lpp-cohomology",
                      FamilySpec(n=3, char=P, powers=(2, 2), max_deg=4,
                                 count=500, seed=7, max_extra_gens=6))
    s1, s2 = rep1.summary(), rep2.summary()
    ok = rep1.passed and rep2.passed and s2["total"] == 500
    _announce("3 lpp-cohomology", ok,
              f"(exhaustive {s1['total']}, random {s2['total']}, "
              f"{time.perf_counter() - t0:.1f}s)")


def test_criterion_4_lex_cohomology():
    """The plain lex-segment case over the polynomial ring."""
    rep = run_family("lex-cohomology",
                     FamilySpec(n=3, char=P, max_deg=4, count=200, seed=11,
                                max_extra_gens=6))
    s = rep.summary()
    _announce("4 lex-cohomology", rep.passed and s["total"] == 200,
              f"({s['total']} instances)")


def test_criterion_5_corners_and_regions():
    """Extremal Betti inequalities, region dominance and the corner identity
    between Betti numbers and local cohomology, on the criterion-3 families."""
    t0 = time.perf_counter()
    specs = [
        FamilySpec(n=2, char=P, powers=(2, 2), max_deg=3, mode="exhaustive"),
        FamilySpec(n=3, char=P, powers=(2, 2), max_deg=4, count=500, seed=7,
                   max_extra_gens=6),
    ]
    total = 0
    for spec in specs:
        for I in enumerate_family(spec):
            rec = verify_betti_lpp_corners(I)
            assert rec.passed, f"corner inequality/identity failed on {rec.ideal}"
            rec2 = verify_region_inclusion(I)
            assert rec2.passed, f"region dominance failed on {rec2.ideal}"
            total += 1
    _announce("5 corners-and-regions", total >= 501,
              f"({total} instances, {time.perf_counter() - t0:.1f}s)")


def test_criterion_6_lemma_suite_with_mutation():
    """Supporting lemmas on 300 stable instances over K[x1,x2]/(x1^2,x2^2)[z],
    plus mutation sensitivity of the harness."""
    t0 = time.perf_counter()
    spec = FamilySpec(n=2, char=P, powers=(2, 2), max_deg=4, with_z=True,
                      count=300, seed=13, max_extra_gens=5)
    instances = list(stable_instances(spec))
    assert len(instances) == 300
    for I in instances:
        rec = verify_embedding_lemmas(I)
        assert rec.passed, f"lemma failed on {rec.ideal}: {rec.checks}"
    mutated_failures = sum(
        0 if verify_embedding_lemmas(I, epsilon=corrupt_epsilon).passed else 1
        for I in instances[:40]
    )
    _announce("6 lemma-suite", mutated_failures >= 1,
              f"(300 instances, {mutated_failures} mutation failures, "
              f"{time.perf_counter() - t0:.1f}s)")


def test_criterion_7_recurrences():
    """Extension recurrences for local cohomology, exact on windows."""
    t0 = time.perf_counter()
    specs = [
        FamilySpec(n=1, char=P, max_deg=4, with_z=True, count=25, seed=17),
        FamilySpec(n=2, char=P, max_deg=3, with_z=True, count=50, seed=19,
                   max_extra_gens=5),
        FamilySpec(n=2, char=P, powers=(2, 2), max_deg=3, with_z=True,
                   count=25, seed=23),
    ]
    total = 0
    for spec in specs:
        for I in stable_instances(spec):
            rec = verify_recurrences(I)
            assert rec.passed, f"recurrence failed on {rec.ideal}"
            total += 1
    _announce("7 recurrences", total >= 100,
              f"({total} stable instances, {time.perf_counter() - t0:.1f}s)")


def test_criterion_8_stabilizer(monkeypatch):
    """The stabilization loop on 100 non-stable ideals, budget 50 rounds."""
    monkeypatch.setattr(limits, "STABILIZATION_ROUND_LIMIT", 50)
    t0 = time.perf_counter()
    specs = [
        FamilySpec(n=2, char=P, max_deg=3, with_z=True, count=50, seed=29,
                   max_extra_gens=5),
        FamilySpec(n=3, char=P, max_deg=3, with_z=True, count=50, seed=31,
                   max_extra_gens=5),
    ]
    total = 0
    for spec in specs:
        for I in nonstable_instances(spec):
            rec = verify_zstabilize(I)
            assert rec.passed, f"stabilizer contract failed on {rec.ideal}"
            total += 1
    _announce("8 stabilizer", total >= 100,
              f"({total} non-stable inputs, {time.perf_counter() - t0:.1f}s)")


def test_criterion_9_determinism():
    """Identical seeds produce byte-identical JSON reports."""
    spec = FamilySpec(n=2, char=P, powers=(2, 2), max_deg=3, count=10, seed=37)
    blobs = [
        json.dumps(run_family("lpp-cohomology", spec).to_json_dict(),
                   sort_keys=True).encode()
        for _ in range(2)
    ]
    spec_z = FamilySpec(n=2, char=P, max_deg=3, with_z=True, count=10, seed=41)
    blobs_z = [
        json.dumps(run_family("zstabilize", spec_z).to_json_dict(),
                   sort_keys=True).encode()
        for _ in range(2)
    ]
    _announce("9 determinism",
              blobs[0] == blobs[1] and blobs_z[0] == blobs_z[1])

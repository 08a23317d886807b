import importlib
import pkgutil
import time

import pytest

import lexcohom
from lexcohom import limits, verify
from lexcohom.cli import main
from lexcohom.core import Monomial, MonomialIdeal, RingContext
from lexcohom.errors import IterationCapExceededError, ResourceLimitError
from lexcohom.verify import FamilySpec, run_family
from lexcohom.zstable import is_z_stable, z_stabilize


def test_only_limits_binds_a_limit():
    # groebner keeps its DEFAULT_DEGREE_CAP until the Buchberger engine
    # leaves the package for the tests (ROADMAP item 6)
    exempt = {"lexcohom.limits", "lexcohom.groebner"}
    bound = {}
    for info in pkgutil.iter_modules(lexcohom.__path__, "lexcohom."):
        if info.name in exempt:
            continue
        names = [name for name in vars(importlib.import_module(info.name))
                 if name.isupper() and name.endswith(("_LIMIT", "_CAP"))]
        if names:
            bound[info.name] = names
    assert bound == {}


def test_check_and_read_int_name_the_limit(monkeypatch):
    monkeypatch.setattr(limits, "POOL_LIMIT", 12)
    assert limits.check("POOL_LIMIT", 12, "twelve") == 12
    with pytest.raises(ResourceLimitError, match=r"^thirteen, above limits.POOL_LIMIT = 12$"):
        limits.check("POOL_LIMIT", 13, "thirteen")
    assert limits.read_int("POOL_LIMIT", " +00012 ", "k") == 12
    assert limits.read_int("POOL_LIMIT", "0" * 5000, "k") == 0
    with pytest.raises(ValueError, match=r"^k=13, above limits.POOL_LIMIT = 12$"):
        limits.read_int("POOL_LIMIT", "013", "k", ValueError)
    with pytest.raises(ResourceLimitError, match=r"^k of 5000 digits, above limits.POOL_LIMIT"):
        limits.read_int("POOL_LIMIT", "9" * 5000, "k")


def test_random_family_is_refused_past_the_instance_limit(monkeypatch):
    monkeypatch.setattr(limits, "INSTANCE_LIMIT", 3)
    drawn = []
    real = verify.enumerate_family

    def counted(spec):
        drawn.append(spec)
        return real(spec)

    monkeypatch.setattr(verify, "enumerate_family", counted)
    spec = FamilySpec(2, powers=(2, 2), max_deg=3, count=3)
    assert len(run_family("region", spec).records) == 3
    drawn.clear()
    with pytest.raises(ResourceLimitError, match="limits.INSTANCE_LIMIT = 3"):
        run_family("region", FamilySpec(2, powers=(2, 2), max_deg=3, count=4))
    assert drawn == []


def test_cli_samples_past_the_instance_limit_exit_2(capsys):
    t0 = time.perf_counter()
    assert main(["verify", "region", "--family", "n=2,d=2,maxdeg=3",
                 "--samples", "100000000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "limits.INSTANCE_LIMIT" in capsys.readouterr().err


def test_a_too_stable_family_is_refused_after_its_draws(monkeypatch, capsys):
    # the only ideal of this family is (x1^2, x2^2), which is z-stable
    t0 = time.perf_counter()
    assert main(["verify", "zstabilize", "--family", "n=2,d=2:2,z=1,maxdeg=1",
                 "--samples", "1"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "201 draws for 1 non-stable samples found 0, above " \
        "limits.DRAWS_PER_SAMPLE_LIMIT = 200" in capsys.readouterr().err
    # the limit counts the draws in a row that found no non-stable ideal,
    # so asking for more samples does not draw more before the refusal
    t0 = time.perf_counter()
    assert main(["verify", "zstabilize", "--family", "n=2,d=2:2,z=1,maxdeg=1",
                 "--samples", "2000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "201 draws for 2000 non-stable samples found 0, above " \
        "limits.DRAWS_PER_SAMPLE_LIMIT = 200" in capsys.readouterr().err
    monkeypatch.setattr(limits, "DRAWS_PER_SAMPLE_LIMIT", 3)
    spec = FamilySpec(2, powers=(2, 2), max_deg=1, with_z=True, count=2)
    with pytest.raises(ResourceLimitError, match="^4 draws for 2 non-stable"):
        list(verify.nonstable_instances(spec))


def test_stabilization_refuses_an_lcm_degree_past_the_numerator_limit(monkeypatch):
    # before any round: the chain of (x1^2, z^399) alone has 400 components,
    # and a memo hit is refused too
    ctx = RingContext(1).add_z()
    I = MonomialIdeal.make(ctx, [Monomial((2, 0)), Monomial((0, 399))])
    with pytest.raises(ResourceLimitError,
                       match="degree 401, above limits.NUMERATOR_DEGREE_LIMIT = 400"):
        z_stabilize(I)
    J = MonomialIdeal.make(ctx, [Monomial((2, 0)), Monomial((0, 300))])
    assert is_z_stable(z_stabilize(J))
    monkeypatch.setattr(limits, "NUMERATOR_DEGREE_LIMIT", 301)
    with pytest.raises(ResourceLimitError, match="limits.NUMERATOR_DEGREE_LIMIT = 301"):
        z_stabilize(J)


def test_stabilization_round_limit(monkeypatch):
    # (z^3) in K[x1, x2][z] reaches a z-stable ideal in three rounds
    I = MonomialIdeal.make(RingContext(2).add_z(), [Monomial((0, 0, 3))])
    monkeypatch.setattr(limits, "STABILIZATION_ROUND_LIMIT", 3)
    assert is_z_stable(z_stabilize(I))
    monkeypatch.setattr(limits, "STABILIZATION_ROUND_LIMIT", 2)
    with pytest.raises(IterationCapExceededError,
                       match="limits.STABILIZATION_ROUND_LIMIT = 2"):
        z_stabilize(I)

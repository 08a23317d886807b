"""The benchmark's workloads: seeded input streams and one operation per input.

A workload is a round-robin over families.  Each family draws monomial
ideals from its own ``FamilySpec`` stream, seeded from the benchmark seed
and the family name, so the package only ever sees the generated ideals
(or ideal files).  An operation is timed by the caller;
``finish`` then turns its raw result into a pass flag and the deterministic
JSON payload whose digest the benchmark records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import zlib
from dataclasses import dataclass, replace

from lexcohom import cli, localcohom, verify, zstable
from lexcohom.core import MonomialIdeal
from lexcohom.hilbert import hilbert_series
from lexcohom.ioformat import as_monomial_ideal, parse_ideal_file, write_ideal_file
from lexcohom.verify import FamilySpec, Report, enumerate_family, nonstable_instances

ENDLESS = 10**9  # family streams are lazy; the timed loop decides how many it takes


@dataclass(frozen=True)
class Family:
    """One input stream of a workload and the operation run on each input.

    ``action`` is a theorem name of ``verify.THEOREMS``, ``"agreement"``
    (both cohomology backends, compared entrywise) or a CLI command.
    """

    name: str
    action: str
    spec: FamilySpec
    backend: str | None = None

    @property
    def is_cli(self) -> bool:
        return self.action in ("lex", "lpp")


WORKLOADS: dict[str, tuple[Family, ...]] = {
    "cohom-harness": (
        Family("lpp-cohom-comb-n3", "lpp-cohomology",
               FamilySpec(3, powers=(2, 2), max_deg=4), "combinatorial"),
        Family("lpp-cohom-ext-n3", "lpp-cohomology",
               FamilySpec(3, powers=(2, 2), max_deg=4), "ext"),
        Family("region-n3", "region", FamilySpec(3, powers=(2, 2), max_deg=4)),
        Family("lpp-cohom-comb-n4", "lpp-cohomology",
               FamilySpec(4, powers=(2, 2, 2, 2), max_deg=4), "combinatorial"),
        Family("lpp-corners-n4", "lpp-corners",
               FamilySpec(4, powers=(2, 2, 2, 2), max_deg=4), "combinatorial"),
        Family("agreement-n4", "agreement",
               FamilySpec(4, max_deg=4, max_extra_gens=7)),
    ),
    "zstab-harness": (
        Family("zstabilize-n2z", "zstabilize",
               FamilySpec(2, max_deg=3, with_z=True)),
        Family("embedding-lemmas-n2z", "embedding-lemmas",
               FamilySpec(2, powers=(2, 2), max_deg=4, with_z=True)),
    ),
    "embed-cli": (
        Family("lex-n4-a", "lex", FamilySpec(4, max_deg=4)),
        Family("lpp-n4", "lpp", FamilySpec(4, powers=(2, 2), max_deg=5)),
        Family("lex-n4-b", "lex", FamilySpec(4, max_deg=4)),
        Family("lpp-n5", "lpp", FamilySpec(5, powers=(2, 2, 2), max_deg=3)),
    ),
}


@dataclass
class Input:
    family: Family
    ideal: MonomialIdeal
    path: str | None = None  # ideal file, for CLI operations


def stream(workload: str, seed: int, workdir: str):
    """Endless round-robin of inputs; the same seed gives the same inputs."""
    families = WORKLOADS[workload]
    per_family = []
    for fam in families:
        sub = zlib.crc32(f"{workload}/{fam.name}/{seed}".encode())
        spec = replace(fam.spec, seed=sub, count=ENDLESS)
        if verify.THEOREMS.get(fam.action, ("family",))[0] == "raw":
            per_family.append(nonstable_instances(spec))
        else:
            per_family.append(enumerate_family(spec))
    for k in itertools.count():
        for fam, ideals in zip(families, per_family):
            inp = Input(fam, next(ideals))
            if fam.is_cli:
                inp.path = os.path.join(workdir, f"{k}-{fam.name}.txt")
                with open(inp.path, "w") as fh:
                    fh.write(write_ideal_file(inp.ideal.ctx, inp.ideal.gens))
            yield inp


def run(inp: Input):
    """The timed operation: one ideal through the harness, or one CLI command."""
    fam = inp.family
    if fam.is_cli:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main([fam.action, "--input", inp.path, "--json", inp.path + ".json"])
    if fam.action == "agreement":
        return (localcohom.cohomology_table(inp.ideal, backend="combinatorial"),
                localcohom.cohomology_table(inp.ideal, backend="ext"))
    kind, check = verify.THEOREMS[fam.action]
    I = inp.ideal
    if kind == "stable":  # what verify.stable_instances does to each sample
        I = zstable.z_recompose(zstable.z_stabilize(I))
    return check(I, backend=fam.backend) if fam.backend else check(I)


def finish(inp: Input, raw) -> tuple[bool, dict]:
    """Untimed: (passed, deterministic payload) of a finished operation.

    A CLI operation passes here when it exits 0; its Hilbert-series check
    runs after the timed loop (``cli_hilbert_ok``) so that it cannot warm
    the package's caches for later operations.
    """
    fam = inp.family
    if fam.is_cli:
        if raw != cli.OK:
            return False, {"exit": raw}
        with open(inp.path + ".json") as fh:
            payload = json.load(fh)
        os.remove(inp.path + ".json")
        return True, payload
    if fam.action == "agreement":
        ta, tb = raw
        ok = ta.rows == tb.rows and ta.all_certified() and tb.all_certified()
        return ok, {"combinatorial": verify._cohom_rows(ta), "ext": verify._cohom_rows(tb)}
    return raw.passed, Report(fam.action, fam.spec, [raw]).to_json_dict()


def digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def cli_hilbert_ok(inp: Input, payload: dict) -> bool:
    """The printed ideal has the Hilbert series of the input ideal."""
    out = payload[inp.family.action]
    gens = "" if out == "0" else out.replace(", ", "\n") + "\n"
    ctx, polys = parse_ideal_file(write_ideal_file(inp.ideal.ctx, []) + gens)
    return hilbert_series(as_monomial_ideal(ctx, polys)).numer == \
        hilbert_series(inp.ideal).numer

"""Pinned report digests: the SHA-256 of the stdout, exit code and --json
report of each command-line run below, on the ideals and families that the
CI workflow runs.  ``test_golden.py`` recomputes them against
``golden/digests.json``; a change that must keep every report byte for byte
keeps that test passing unchanged.

Run ``PYTHONPATH=src python tests/golden_reports.py`` from the repository
root to record the digests of the current code into ``golden/digests.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from lexcohom import cli
from lexcohom.embeddings import lex_ideal_of
from lexcohom.ioformat import write_ideal_file
from lexcohom.verify import FamilySpec, enumerate_family

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "digests.json")


def _lex240() -> str:
    """The 240-generator lex ideal in four variables of the CI workflow."""
    spec = FamilySpec(n=4, max_deg=5, max_extra_gens=8, count=8, seed=0)
    L = next(L for L in map(lex_ideal_of, enumerate_family(spec)) if len(L.gens) == 240)
    return write_ideal_file(L.ctx, L.gens)


# the ideal files of the CI workflow, by name
IDEALS = {
    "plain-z": "ring n=2 char=32003\nvariable z\nx2*z\nx1^3\n",
    "powers-z": "ring n=2 char=32003\npowers d=3\nvariable z\nx1^3\nx2*z\n",
    "n2-x1": "ring n=2 char=32003\nx1\n",
    "n2-d2": "ring n=2 char=32003\npowers d=2\nx2^3\n",
    "n3": "ring n=3 char=32003\nx1^4\nx3^4\n",
    "n3-lex": "ring n=3 char=32003\nx1^2\nx1*x2\nx3^3\n",
    "n3-d22": "ring n=3 char=32003\npowers d=2,2\nx1^2\nx2^2\nx3^3\n",
    "n3-d22-cohom": "ring n=3 char=32003\npowers d=2,2\nx1^2\nx2^2\nx1*x3^2\nx2*x3^3\n",
    "n4-x1": "ring n=4 char=32003\nx1\n",
    "n4-cones": "ring n=4 char=32003\nx1^2*x2\nx2^3\nx1*x3^2\nx3*x4^2\nx2*x4^3\nx1^3\n",
    "n6": "ring n=6 char=32003\nx1^2*x2\nx3^3\nx4*x5*x6\n",
    "path60": "ring n=60 char=32003\n"
              + "\n".join(f"x{i}*x{i + 1}" for i in range(1, 60)) + "\n",
    "lex240": _lex240(),
}

# (ideal, command arguments) of the single-ideal runs: every command on every
# ideal (a refusal pins its exit code), both backends on the default window,
# and the windows of the CI workflow
SINGLE = (
    [(name, [cmd]) for name in IDEALS if name not in ("path60", "lex240")
     for cmd in ("hilb", "lex", "lpp", "betti", "zstabilize")]
    + [(name, ["cohom", "--backend", b]) for name in IDEALS if name not in ("path60", "lex240")
       for b in ("combinatorial", "ext")]
    + [("path60", ["hilb"]), ("lex240", ["hilb"]), ("lex240", ["lex"]), ("lex240", ["cohom"]),
       ("n2-x1", ["hilb", "--window=3:1"]),
       ("n2-x1", ["cohom", "--window=0:3"])]
    + [("n6", ["cohom", f"--window={w}", "--backend", b])
       for w in ("-2000:0", "-99999:0", "2:6") for b in ("combinatorial", "ext")]
)

# (theorem, family, samples) of the verify runs of the CI workflow
FAMILIES = (
    ("lpp-corners", "n=2,d=2:2,maxdeg=3", 20),
    ("lpp-corners", "n=3,d=2:2,maxdeg=4", 40),
    ("region", "n=2,d=2:2,maxdeg=3", 20),
    ("lpp-cohomology", "n=2,d=2:2,maxdeg=3", 20),
    ("lpp-cohomology", "n=3,d=2:2,maxdeg=4", 200),
    ("lex-cohomology", "n=3,maxdeg=4", 20),
    ("zstabilize", "n=2,z=1,maxdeg=3", 20),
    ("zstabilize", "n=3,z=1,maxdeg=3", 20),
    ("embedding-lemmas", "n=2,d=2:2,z=1,maxdeg=4", 20),
    ("embedding-lemmas", "n=3,d=2:2,z=1,maxdeg=3", 20),
    ("embedding-lemmas", "n=3,z=1,maxdeg=3", 20),
    ("embedding-lemmas", "n=2,d=2:3,z=1,maxdeg=4", 20),
    ("recurrences", "n=2,z=1,maxdeg=3", 20),
    ("recurrences", "n=3,z=1,maxdeg=3", 20),
)


def runs():
    """(key, argv, ideal text or None) of every pinned run, in order."""
    for name, args in SINGLE:
        yield f"{' '.join(args)} < {name}", args, IDEALS[name]
    for theorem, family, samples in FAMILIES:
        for jobs in (1, 2):
            args = ["verify", theorem, "--family", family, "--samples", str(samples),
                    "--seed", "0", "--jobs", str(jobs)]
            yield " ".join(args), args, None


def digest(argv, text, workdir) -> str:
    """SHA-256 of the exit code, stdout and --json report of one in-process
    ``lexcohom`` run; stderr is left out."""
    report = os.path.join(workdir, "report.json")
    argv = argv + ["--json", report]
    if text is not None:
        path = os.path.join(workdir, "ideal.txt")
        with open(path, "w") as fh:
            fh.write(text)
        argv += ["--input", path]
    with contextlib.suppress(FileNotFoundError):
        os.remove(report)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    try:
        with open(report) as fh:
            written = fh.read()
    except FileNotFoundError:
        written = ""
    blob = f"{code}\n{out.getvalue()}\n{written}"
    return hashlib.sha256(blob.encode()).hexdigest()


def all_digests() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return {key: digest(argv, text, workdir) for key, argv, text in runs()}


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(all_digests(), fh, indent=1)
        fh.write("\n")

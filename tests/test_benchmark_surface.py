"""The benchmark's view of the package: perfbench/ imports the package's
modules and names, wraps its layers in spans and pins the payload digests
of its seed-0 operations.  A package change that breaks any of that makes
``perfbench/run.py`` exit 1 or read ``correct: false``; this guard sees it
in tier-1, on the first operation of each family."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run as perfbench/worker.py runs an operation: spans installed after the
# imports, each operation inside the root span, then finish and digest
SCRIPT = r"""
import json, sys
import spans, workloads
from lexcohom import hilbert

workdir, digests_path = sys.argv[1:]
recorded = json.load(open(digests_path))
assert recorded["seed"] == 0
tracer = spans.Tracer()
tracer.install()
out = {}
for wl, families in workloads.WORKLOADS.items():
    rows = []
    inputs = workloads.stream(wl, 0, workdir)
    for k in range(len(families)):
        inp = next(inputs)
        raw = tracer.span(spans.ROOT, workloads.run, inp)
        ok, payload = workloads.finish(inp, raw)
        hilbert_ok = not inp.family.is_cli or workloads.cli_hilbert_ok(inp, payload)
        rows.append([inp.family.name, ok, hilbert_ok, inp.family.action,
                     workloads.digest(payload), recorded["workloads"][wl][k]])
    out[wl] = rows
metrics = tracer.metrics(hilbert._numerator.cache_info())
print(json.dumps({"ops": out, "metrics": metrics}))
"""


def test_the_first_benchmark_ops_of_each_family_match_their_digests(tmp_path):
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), str(ROOT / "perfbench" / "digests.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ops = [row for rows in result["ops"].values() for row in rows]
    assert [len(rows) for rows in result["ops"].values()] == [6, 2, 4]
    compared = 0
    for name, ok, hilbert_ok, _, got, want in ops:
        # every op passes the series check; an op recorded as null (a lex
        # op that once printed a truncated ideal) is not compared
        assert ok and hilbert_ok, name
        if want is not None:
            assert got == want, name
            compared += 1
    assert compared >= len(ops) - 2
    metrics = result["metrics"]
    assert metrics["verify.op.calls"] == len(ops)
    for span in ("zstable.z_stabilize", "zstable.z_order_compare", "hilbert.hilbert_series",
                 "embeddings.embed", "localcohom.cohomology_table.ext", "cli.main"):
        assert metrics[f"{span}.calls"] > 0, span

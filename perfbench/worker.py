"""One replica of a workload run in a fresh interpreter (started by run.py).

Imports the package from ``src`` of the checkout, generates the seed's first
inputs, then runs the closed loop over the seed's first ``--count``
operations: each operation starts when the previous one returned, under a
per-operation wall-time cap.  Between operations, at most every
REF_EVERY_S, it times a fixed pure-Python reference task, so that run.py
can tell how fast the host ran the interpreter around each operation.
``--count 0`` stops after the set-up.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

OP_CAP_S = 10.0  # the slowest op seen on any workload took under 1 s
SETUP_INPUTS = 100  # generated before the loop; the loop generates the rest untimed
REF_EVERY_S = 0.1
REF_AT_READY = 20  # reference samples taken right after the set-up


def reference() -> float:
    """Seconds for a fixed pure-Python task (tuples, a dict, a sort): 1 to
    1.8 ms on a shared 2-vCPU host.  It does not touch the package."""
    t0 = time.perf_counter()
    table = {}
    for i in range(1000):
        key = (i & 15, (i >> 4) & 15, i % 7)
        table[key] = table.get(key, 0) + max(key)
    sorted(table.items())
    return time.perf_counter() - t0


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True,
                    help="operations to run (0: set up only)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import spans
    import workloads  # imports lexcohom: part of the set-up time
    from lexcohom import hilbert

    os.makedirs(args.workdir)
    inputs = workloads.stream(args.workload, args.seed, args.workdir)
    ready_inputs = list(itertools.islice(inputs, SETUP_INPUTS))
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    ready = time.monotonic()  # system-wide clock: run.py subtracts its start time
    start = time.perf_counter()
    refs = [(time.perf_counter() - start, reference()) for _ in range(REF_AT_READY)]

    signal.signal(signal.SIGALRM, _on_alarm)
    lat, op_at, digests, failures, cli_outputs = [], [], [], [], []
    per_family: dict[str, list[float]] = {}
    for k in range(args.count):
        if time.perf_counter() - start - refs[-1][0] >= REF_EVERY_S:
            refs.append((time.perf_counter() - start, reference()))
        inp = ready_inputs[k] if k < len(ready_inputs) else next(inputs)
        fam = inp.family
        error = None
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = time.perf_counter()
        try:
            raw = tracer.span(spans.ROOT, workloads.run, inp) if tracer else workloads.run(inp)
        except OpTimeout:
            error = "timeout"
        except Exception:  # any raise is a failed op; the loop goes on
            error = "error: " + traceback.format_exc()
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        lat.append(dt)
        op_at.append(t0 + dt / 2 - start)
        per_family.setdefault(fam.name, []).append(dt)
        if error is None:
            ok, payload = workloads.finish(inp, raw)
            if not ok:
                error = "check"
            elif fam.is_cli:
                cli_outputs.append((k, inp, payload))
        digests.append(None if error else workloads.digest(payload))
        if error:
            failures.append({"op": k, "family": fam.name, "ideal": str(inp.ideal),
                             "kind": error})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = hilbert._numerator.cache_info()

    # CLI outputs must have the input's Hilbert series; checked after the
    # loop so the check cannot warm the caches of later operations.
    for k, inp, payload in cli_outputs:
        if not workloads.cli_hilbert_ok(inp, payload):
            known = inp.family.action == "lex"  # cmd_lex truncates at a fixed horizon
            failures.append({"op": k, "family": inp.family.name, "ideal": str(inp.ideal),
                             "kind": "hilbert-lex-known" if known else "hilbert"})
            digests[k] = None
    shutil.rmtree(args.workdir, ignore_errors=True)

    result = {
        "ready": ready,
        "ops": len(lat),
        "lat_s": lat,
        "op_at_s": op_at,
        "refs": refs,
        "digests": digests,
        "failures": failures,
        "rss_mb": rss_mb,
        "families": {name: {"ops": len(v), "busy_s": sum(v), "max_s": max(v)}
                     for name, v in per_family.items()},
    }
    if tracer:
        result["trace"] = tracer.metrics(cache)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

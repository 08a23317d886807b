"""lexcohom benchmark: theorem-harness throughput, single-command latency and
a per-layer split, on three workloads.

    python3 perfbench/run.py --workload cohom-harness --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and imports the package from its ``src``.
Load model: one closed loop in one process, no worker pool; every replica
is a fresh interpreter, so the package's lru caches start empty, as they do
for every CLI invocation.

A run measures a fixed set of operations: the seed's first
``seconds * OPS_PER_S[workload]`` inputs, about ``seconds`` of work at the
reference speed.  The same seed and seconds thus give the same operations,
and the same failures, however fast the host runs.  The host is a shared
2-vCPU machine whose core speed moves by up to 2x for seconds to minutes at
a time, so every time is reported at the reference speed: scaled by
REF_NOMINAL_S over the median time of the reference task that the worker
timed nearest to it (worker.reference).  Raw times are printed beside them.

``--trace 0`` sets up SETUPS fresh interpreters and runs the operations in
the last, and reports the end-to-end metrics.
``--trace 1`` runs half the operations twice, the second time with spans
installed from outside (spans.py), and reports the per-layer metrics and
the tracing overhead.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("cohom-harness", "zstab-harness", "embed-cli")
# operations per second of reference-speed time, measured at the commit that
# defined the benchmark; fixes how many operations a run of --seconds makes
OPS_PER_S = {"cohom-harness": 74, "zstab-harness": 107, "embed-cli": 180}
MIN_OPS = 100  # p90 keeps ten samples beyond it
DEFAULT_SECONDS = 15
SETUPS = 5  # set-ups per run; setup_s is their median
REF_NOMINAL_S = 0.001  # the reference task's time at the reference speed
REF_NEAR = 10  # reference samples that set the host speed around an operation
RUN_LIMIT_S = 170  # one workload's replicas together; a 15 s run takes 20-45 s
DIGEST_SEED = 0  # the seed whose op digests digests.json records
KNOWN_LEX = "hilbert-lex-known"  # failure kind of the known `lexcohom lex` truncation


def unit_of(name: str) -> str:
    """Unit of a per-layer number that BENCHMARK.json does not list."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("frac") else "count"


class BenchError(RuntimeError):
    pass


def ops_for(workload, seconds) -> int:
    return max(MIN_OPS, round(seconds * OPS_PER_S[workload]))


def run_replica(workload, seed, count, deadline, trace=0) -> dict:
    """The seed's first ``count`` operations in a fresh interpreter, killed
    at ``deadline`` (time.monotonic).  Set-up time is measured from before
    the interpreter starts to the moment the first inputs are ready."""
    workdir = WORKDIR / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--count", str(count),
           "--trace", str(trace), "--workdir", str(workdir)]
    # a fixed hash seed makes every run of an operation take the same code path
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: a replica did not finish")
    finally:  # also on SIGTERM or Ctrl-C: no worker outlives the run
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: a replica exited with {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_raw_s"] = res["ready"] - t0
    res["setup_s"] = res["setup_raw_s"] * REF_NOMINAL_S / statistics.median(
        d for _, d in res["refs"][:worker.REF_AT_READY])
    res["lat"] = at_reference_speed(res)
    return res


def at_reference_speed(res) -> list[float]:
    """Each operation's time scaled by REF_NOMINAL_S over the median of the
    REF_NEAR reference samples nearest to it in time."""
    at = [t for t, _ in res["refs"]]
    out = []
    for lat, t in zip(res["lat_s"], res["op_at_s"]):
        k = bisect.bisect_left(at, t)
        lo = min(max(0, k - REF_NEAR // 2), max(0, len(at) - REF_NEAR))
        near = statistics.median(d for _, d in res["refs"][lo:lo + REF_NEAR])
        out.append(lat * REF_NOMINAL_S / near)
    return out


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def recorded_digests(workload, seed):
    if seed != DIGEST_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text())["workloads"].get(workload)


def digest_mismatches(res, expected) -> int:
    """Ops whose payload digest differs from the recorded one.  Ops recorded
    as failed (null) are not compared, so a later fix of a known defect does
    not trip the gate; ops failing now are counted as failures already."""
    if expected is None:
        return 0
    return sum(1 for got, want in zip(res["digests"], expected)
               if want is not None and got is not None and got != want)


def summarize_failures(res):
    """(failures, count by kind, count of wrong answers): every failure but
    a timeout or the known lex truncation is a wrong answer."""
    failures = res["failures"]
    for f in failures:
        if f["kind"] != KNOWN_LEX:
            print(f"  FAIL {f['family']} op {f['op']}: {f['kind']}  ideal {f['ideal']}")
    kinds = Counter(f["kind"].split(":")[0] for f in failures)
    wrong = sum(n for kind, n in kinds.items() if kind not in ("timeout", KNOWN_LEX))
    return failures, dict(kinds), wrong


def end_to_end(workload, seed, seconds, units):
    count = ops_for(workload, seconds)
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [run_replica(workload, seed, 0, deadline) for _ in range(SETUPS - 1)]
    res = run_replica(workload, seed, count, deadline)
    setups.append(res)
    failures, kinds, wrong = summarize_failures(res)
    mismatched = digest_mismatches(res, recorded_digests(workload, seed))

    def summary(lat_key, setup_key):
        lat = sorted(res[lat_key])
        return {
            "ops_per_s": count / sum(lat),
            "op_ms_p50": 1000 * percentile(lat, 0.5),
            "op_ms_p90": 1000 * percentile(lat, 0.9),
            "setup_s": statistics.median(r[setup_key] for r in setups),
            "peak_rss_mb": res["rss_mb"],
        }

    metrics, as_measured = summary("lat", "setup_s"), summary("lat_s", "setup_raw_s")
    refs = sorted(d for _, d in res["refs"])
    failed = len(failures) + mismatched
    print(f"workload {workload}  seed {seed}  {count} ops; closed loop, jobs 1; "
          f"{len(refs)} reference samples, median {1000 * statistics.median(refs):.3f} ms "
          f"(reference speed: {1000 * REF_NOMINAL_S:.3f} ms)")
    print(f"  {'metric':<12} {'at ref speed':>12} {'as measured':>12}")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:12.4f} {as_measured[name]:12.4f} {units[name]}")
    print(f"  {'op_fail_frac':<12} {failed / count:12.4f} ratio  "
          f"({failed} of {count} ops; by kind {kinds or '{}'}; "
          f"{mismatched} digest mismatches)")
    print("  per family, operation time as measured (s):")
    for name, f in res["families"].items():
        print(f"    {name:<22} {f['ops']:5d} ops  {f['busy_s']:8.3f}  max op {f['max_s']:.3f}")
    if seed == DIGEST_SEED:
        print(f"  digests checked against {DIGESTS.name}")
    return wrong == 0 and mismatched == 0, count, failed, metrics


def per_layer(workload, seed, seconds, units):
    count = max(MIN_OPS, ops_for(workload, seconds) // 2)
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = run_replica(workload, seed, count, deadline)
    traced = run_replica(workload, seed, count, deadline, trace=1)
    mismatched = digest_mismatches(plain, recorded_digests(workload, seed))
    same = plain["digests"] == traced["digests"]
    failures, _, wrong = summarize_failures(plain)
    m = traced["trace"]
    busy_plain, busy_traced = sum(plain["lat"]), sum(traced["lat"])
    speed = busy_traced / sum(traced["lat_s"])  # the traced run's scale to reference speed
    for name in m:
        if name.endswith(".self_s"):
            m[name] *= speed
    m["trace.ops"] = count
    m["trace.overhead_s"] = busy_traced - busy_plain
    m["trace.overhead_frac"] = (busy_traced - busy_plain) / busy_plain
    print(f"workload {workload}  seed {seed}  traced {count} ops at reference speed "
          f"(as measured): untraced {busy_plain:.3f} s ({sum(plain['lat_s']):.3f} s), "
          f"traced {busy_traced:.3f} s ({sum(traced['lat_s']):.3f} s); "
          f"digests {'identical' if same else 'DIFFER'}")
    for name in sorted(set(units) | set(m)):
        print(f"  {name:<50} {m.get(name, 0):14.6g} {units.get(name) or unit_of(name)}")
    failed = len(failures) + mismatched
    return wrong == 0 and mismatched == 0 and same, count, failed, m


def record() -> None:
    """Write digests.json: per-op payload digests for DIGEST_SEED, failed ops
    as null."""
    recorded = {}
    for wl in WORKLOADS:
        res = run_replica(wl, DIGEST_SEED, ops_for(wl, DEFAULT_SECONDS),
                          time.monotonic() + RUN_LIMIT_S)
        bad = [f for f in res["failures"] if f["kind"] != KNOWN_LEX]
        if bad:
            raise BenchError(f"cannot record digests, failures: {bad[:3]}")
        recorded[wl] = res["digests"]
        print(f"{wl}: {len(res['digests'])} digests")
    DIGESTS.write_text(json.dumps({"seed": DIGEST_SEED, "workloads": recorded}) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DIGEST_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help=f"rewrite {DIGESTS.name} from seed {DIGEST_SEED}")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "lexcohom" / "__init__.py").is_file():
        print(f"error: no lexcohom package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record()
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for wl in names:
            fn = per_layer if args.trace else end_to_end
            correct, attempted, failed, values = fn(wl, args.seed, args.seconds, units)
            total["correct"] &= correct
            total["attempted"] += attempted
            total["failed"] += failed
            prefix = "" if len(names) == 1 else wl + "/"
            for name, unit in units.items():
                total["metrics"][prefix + name] = {"value": values.get(name, 0), "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

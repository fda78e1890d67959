"""Benchmark runner for invring.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a fresh
interpreter (perfbench/worker.py), so each computes everything anew, as
a user's run does.  With ``--trace 0`` the runner times set-up
several times, then runs passes until the next one would end after
``--seconds``, and reports the end-to-end metrics as medians over passes.
With ``--trace 1`` it runs one plain pass and one traced pass and reports
the per-layer metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("invariant-rings", "cm-certify", "arithmetic", "cli")
SETUP_REPEATS = 7
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_child(cmd, env, timeout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = perf_counter()
        self.env = dict(
            os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed)
        )

    def remaining(self):
        return DEADLINE_S - (perf_counter() - self.start)

    def worker(self, *flags):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        out = run_child(cmd, self.env, self.remaining())
        return json.loads(out.decode().strip().splitlines()[-1])

    def setup_seconds(self):
        """Median time from interpreter start to inputs built, each spawn
        scaled by the host speed sampled just before and after it."""
        if self.workload == "cli":
            cmd = [sys.executable, "-m", "invring.cli", "--version"]
        else:
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
                   "--seed", str(self.seed), "--setup-only"]
        times = []
        for _ in range(SETUP_REPEATS):
            before = speed.slowdown_now()
            t0 = perf_counter()
            run_child(cmd, self.env, self.remaining())
            spawn_s = perf_counter() - t0
            times.append(spawn_s / statistics.mean((before, speed.slowdown_now())))
        return statistics.median(times)


def percentile_ms(p, q):
    """q-th percentile (q a multiple of 5) of a pass's item latencies."""
    return statistics.quantiles(p["latencies_s"], n=20, method="inclusive")[q // 5 - 1] * 1000


def report_problems(workload, passes):
    for p in passes:
        for name, status, reason in p["problems"]:
            print(f"{workload}: {name}: {status}: {reason}", file=sys.stderr)


def measure(bench, seconds):
    setup_s = bench.setup_seconds()
    passes, durations = [], []
    t0 = perf_counter()
    while True:
        t = perf_counter()
        passes.append(bench.worker())
        durations.append(perf_counter() - t)
        elapsed = perf_counter() - t0
        if elapsed + statistics.mean(durations) > seconds:
            break
        if bench.remaining() < 2 * max(durations):
            break
    report_problems(bench.workload, passes[:1])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def med(f):
        return statistics.median(f(p) for p in passes)

    metrics = {
        "wall_s": (med(lambda p: p["scaled_wall_s"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (med(lambda p: p["peak_rss_kib"] / 1024), "MiB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "item_p50_ms": (med(lambda p: percentile_ms(p, 50)), "ms"),
        "item_p75_ms": (med(lambda p: percentile_ms(p, 75)), "ms"),
        "item_p90_ms": (med(lambda p: percentile_ms(p, 90)), "ms"),
    }
    print(
        f"{bench.workload}: {len(passes)} pass(es), {attempted} items,"
        f" failed_frac {failed / attempted:.4f}, unscaled wall_s "
        + " ".join(f"{p['wall_s']:.3f}" for p in passes)
        + ", slowdown " + " ".join(f"{p['slowdown']:.3f}" for p in passes),
        file=sys.stderr,
    )
    correct = all(p["wrong"] == 0 for p in passes) and len({p["answers"] for p in passes}) == 1
    return correct, attempted, failed, metrics


def trace(bench):
    plain_flags = ("--in-process",) if bench.workload == "cli" else ()
    plain = bench.worker(*plain_flags)
    traced = bench.worker("--trace")
    report_problems(bench.workload, [traced])
    if traced["unreached"]:
        raise BenchError(
            "traced run never reached " + ", ".join(traced["unreached"])
            + "; a wrapper is not bound where the library looks it up"
        )
    if traced["answers"] != plain["answers"]:
        raise BenchError("answers differ between the traced and the plain pass")
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["scaled_wall_s"] / plain["scaled_wall_s"] - 1
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    correct = plain["wrong"] == 0 and traced["wrong"] == 0
    return correct, traced["attempted"], traced["failed"], metrics


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "invring" / "__init__.py").is_file():
        print(f"error: no invring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            correct, attempted, failed, metrics = trace(bench)
        else:
            correct, attempted, failed, metrics = measure(bench, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

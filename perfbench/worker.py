"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only] [--trace] [--in-process] [--record]

Builds the workload's inputs, runs its items once under the speed probe,
checks every answer and prints one JSON object as its last line of output.
Times in it are scaled to the probe's reference speed, except ``wall_s``.
``--trace`` installs the per-layer tracer after set-up.  ``--in-process``
makes the cli workload call ``invring.cli.run`` instead of starting a
process per command (the traced cli pass always does).  ``--record`` prints
this workload's section of ``expected.json`` instead of checking against it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import digest, recorded  # noqa: E402

CLI_TIMEOUT_S = 60


class Crashed(Exception):
    """A command ended in a traceback instead of an exit code of its own."""


class Context:
    """Times items, keeps their answers and checks them after the loop."""

    def __init__(self):
        self.records = []  # (name, answer, check, error)
        self.spans = []  # (start, end) of every item

    def item(self, name, thunk, check=None, answer=None):
        t0 = perf_counter()
        try:
            result, error = thunk(), None
        except Exception as exc:  # an item that raises is a failed item
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.spans.append((t0, perf_counter()))
        shown = result if answer is None or error else answer(result)
        self.records.append((name, shown, check or recorded(name), error))
        return result

    def outcomes(self):
        """(name, 'ok' | 'failed' | 'wrong', reason) for every item."""
        for name, shown, check, error in self.records:
            if error is not None:
                yield name, "failed", error
                continue
            reason = check(shown)
            yield name, ("ok" if reason is None else "wrong"), reason

    def answers_digest(self):
        return digest([(name, shown) for name, shown, _, _ in self.records])


# ---------------------------------------------------------------------------
# cli commands: a process each, or invring.cli.run in this process


def cli_subprocess(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "invring.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    if b"Traceback (most recent call last)" in proc.stderr:
        raise Crashed(f"exit {proc.returncode} with a traceback")
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def cli_in_process(argv):
    from invring import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the interpreter would print a traceback
            raise Crashed(f"exit 1 with a traceback ({type(exc).__name__})") from None
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def cli_run(seed, in_process):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(ctx):
        for item_name, name, argv, code in workloads.cli_schedule(seed):
            call = (lambda: cli_in_process(argv)) if in_process else (lambda: cli_subprocess(argv, env))
            ctx.item(item_name, call, check=workloads.cli_check(name, code))

    return run


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--in-process", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)
    is_cli = args.workload == "cli"
    in_process = args.in_process or args.trace
    if is_cli:
        run = cli_run(args.seed, in_process)
    else:
        run = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup": "done"}))
        return
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ctx = Context()
    # a command process runs beside the probe, not interrupted by it
    with SpeedProbe(concurrent=is_cli and not in_process) as probe:
        t0 = perf_counter()
        run(ctx)
        t1 = perf_counter()

    if args.record:  # this workload's section of expected.json
        ok = [(n, a) for n, a, _, e in ctx.records if e is None]
        if is_cli:  # stdout of every command that should succeed
            out = {"cli": {n.rsplit("/", 1)[0]: a[1] for n, a in ok if a[0] == 0}}
        elif args.workload == "arithmetic":
            out = {"class_groups": {n.split("/", 1)[1]: a for n, a in ok if n.startswith("class-group/")}}
        else:
            out = {"digests": {n: digest(a) for n, a in ok}}
        print(json.dumps(out, indent=1, sort_keys=True))
        return

    outcomes = list(ctx.outcomes())
    # the cli's peak memory is that of its largest command process
    who = resource.RUSAGE_CHILDREN if is_cli and not in_process else resource.RUSAGE_SELF
    result = {
        "wall_s": t1 - t0,
        "scaled_wall_s": probe.scaled(t0, t1),
        "slowdown": probe.slowdown,
        "latencies_s": [probe.scaled(a, b) for a, b in ctx.spans],
        "attempted": len(outcomes),
        "failed": sum(1 for _, status, _ in outcomes if status != "ok"),
        "wrong": sum(1 for _, status, _ in outcomes if status == "wrong"),
        "problems": [[n, s, r] for n, s, r in outcomes if s != "ok"],
        "answers": ctx.answers_digest(),
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["unreached"] = tracer.check_required(args.workload)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

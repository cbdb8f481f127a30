"""Benchmark of the stationary-light package, run from the repository root:

    python3 bench/run.py --workload figures --seed 0 --seconds 15 --trace 0

It imports the package from `src/` of the same checkout, runs whole passes
over the workload's operations until `--seconds` have elapsed (at least one
pass), checks every output against the closed forms in `checks.py`, and
prints one JSON object as the last line of standard output.

--trace 0 reports the end-to-end metrics, with no wrappers installed.  Its
times are scaled to a fixed machine speed measured alongside (`speed.py`;
setup_s against a reference import, see `measure_setup`); the uncalibrated
times are printed above the JSON line.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics, uncalibrated, from the traced ones; see `spans.py`.

An operation fails if it raises, exceeds its wall-clock cap (SIGALRM inside
this process), fails a check, or writes different bytes than an earlier
run of the same operation.  `correct` is false when any completed
operation produced wrong or non-deterministic output.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool before numpy is imported (here or in children).
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse
import collections
import contextlib
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import speed
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Cap on one operation; the slowest one (fig4_compare) takes about 15 s.
OP_CAP_S = 60.0
#: No operation starts after this many seconds, so a run ends well within 180 s.
RUN_BUDGET_S = 140.0
#: Fresh interpreters timed for setup_s (after one untimed warm-up).
SETUP_SAMPLES = 11
SETUP_SCENARIO = {"figures": "fig2_cold", "spectral": "nonadiabatic_standing",
                  "ladder": "mb_convergence"}

_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import stationary_light
from stationary_light.cli import parse_config
parse_config(None, {"scenario": sys.argv[2]})
elapsed = time.perf_counter() - start
if not stationary_light.__file__.startswith(sys.argv[1]):
    sys.exit("imported stationary_light from outside the checkout")
print(repr(elapsed))
"""

#: A fixed stdlib import, timed in its own fresh interpreter next to each
#: setup sample, calibrates setup_s: import work follows the host's speed
#: swings differently from the numeric kernel in speed.py.
_REFERENCE_IMPORT_CODE = """\
import time
start = time.perf_counter()
import argparse, asyncio, dataclasses, decimal, email.mime.multipart, http.client, json
import logging, unittest, xml.etree.ElementTree
print(repr(time.perf_counter() - start))
"""
#: Reference import time, in seconds, of the machine speed setup_s is scaled to.
REFERENCE_IMPORT_NOMINAL_S = 0.1


class OpTimeout(Exception):
    """An operation exceeded its wall-clock cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def load_library():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "stationary_light" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'stationary_light'}")
    sys.path.insert(0, str(SRC))
    import stationary_light
    from stationary_light import cli, core, solver

    if not Path(stationary_light.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: stationary_light imported from {stationary_light.__file__}")
    return types.SimpleNamespace(cli=cli, core=core, solver=solver)


def measure_setup(scenario: str) -> tuple[list[float], list[float]]:
    """import stationary_light + parse_config, timed inside fresh interpreters.

    Returns (calibrated, raw) samples.  Each sample is scaled by
    REFERENCE_IMPORT_NOMINAL_S / the reference import timed right after it.
    """
    def child(code: str, *args: str) -> float:
        done = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        return float(done.stdout.strip().splitlines()[-1])

    calibrated, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        setup = child(_SETUP_CODE, str(SRC), scenario)
        reference = child(_REFERENCE_IMPORT_CODE)
        if i:
            raw.append(setup)
            calibrated.append(setup * REFERENCE_IMPORT_NOMINAL_S / reference)
    return calibrated, raw


class Runner:
    """Runs operations with failure accounting, checks and determinism digests."""

    def __init__(self, ops, deadline: float, timed=speed.plain_timed):
        self.ops = ops
        self.deadline = deadline
        self.timed = timed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.completed = 0
        self.worst = {}  # check name -> largest error/tolerance seen
        self.digests: dict[str, list[str]] = {op.name: [] for op in ops}
        self.notes: list[str] = []

    def _fail(self, op, why: str, wrong_output: bool = False) -> None:
        self.failed += 1
        self.correct &= not wrong_output
        self.notes.append(f"{op.name}: {why}")

    def run_op(self, op, tracer=None) -> tuple[float, float]:
        """Execute, time and check one operation; returns (calibrated, raw) seconds."""
        self.attempted += 1
        cap = min(OP_CAP_S, self.deadline - time.perf_counter())
        if cap <= 0:
            self._fail(op, "not started: run budget spent")
            return 0.0, 0.0

        def capped():
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                return op.execute()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)

        with tracer or contextlib.nullcontext():
            result, elapsed, raw = self.timed(capped)
        if isinstance(result, OpTimeout):
            self._fail(op, f"timed out after {cap:.0f} s")
            return elapsed, raw
        if isinstance(result, Exception):  # the operation's own failure is the measurement
            self._fail(op, f"raised {type(result).__name__}: {result}")
            return elapsed, raw
        try:
            ratios = op.check(result)
            digest = op.digest(result)
        except Exception as exc:
            self._fail(op, f"output unreadable: {type(exc).__name__}: {exc}", True)
            return elapsed, raw
        self.completed += 1
        for name, ratio in ratios.items():
            key = f"{op.name}.{name}"
            self.worst[key] = max(self.worst.get(key, 0.0), ratio)
        bad = [f"{n}={r:.3g}" for n, r in ratios.items() if not r <= 1.0]
        seen = self.digests[op.name]
        if seen and digest != seen[0]:
            bad.append("output bytes differ from the first run")
        seen.append(digest)
        if bad:
            self._fail(op, "check failed: " + ", ".join(bad), True)
        return elapsed, raw

    def run_pass(self, tracer=None) -> tuple[float, float, float]:
        """(pass time, slowest operation, raw pass time) over one pass of every op."""
        times = [self.run_op(op, tracer) for op in self.ops]
        return sum(t for t, _ in times), max(t for t, _ in times), sum(r for _, r in times)

    def recheck_determinism(self, seed: int) -> None:
        """With a single pass, re-run one op (chosen by the seed) to compare bytes."""
        if all(len(d) != 1 for d in self.digests.values()):
            return
        self.run_op(self.ops[seed % len(self.ops)])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


PER_LAYER_UNITS = {
    "solver.busy_s": "s", "solver.calls": "count", "solver.steps": "count",
    "solver.fft_calls": "count", "solver.fft_bytes": "bytes_computed",
    "solver.errors": "count",
    "cli.serialize_s": "s", "cli.serialize_bytes": "bytes", "cli.serialize_rows": "count",
    "cli.serialize_calls": "count", "cli.config_s": "s", "cli.self_s": "s",
    "analytic.busy_s": "s", "analytic.calls": "count", "analytic.fft_calls": "count",
    "analytic.errors": "count",
    "observables.busy_s": "s", "observables.calls": "count",
    "fourier.busy_s": "s", "fourier.calls": "count",
    "core.busy_s": "s", "core.calls": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.accounted_share": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    lib = load_library()
    signal.signal(signal.SIGALRM, _on_alarm)
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, out_root, lib)
    timed = speed.plain_timed if args.trace else speed.SpeedProbe().timed
    runner = Runner(ops, started + RUN_BUDGET_S, timed)

    setup, setup_raw = ([], []) if args.trace else measure_setup(SETUP_SCENARIO[args.workload])
    measure_start = time.perf_counter()
    plain, traced, layers = [], [], []
    tracer = Tracer(lib) if args.trace else None
    longest_round = 0.0
    while True:
        round_start = time.perf_counter()
        plain.append(runner.run_pass())
        if tracer:
            first = len(tracer.spans)
            traced.append(runner.run_pass(tracer))
            layers.append(tracer.layer_metrics(first))
        now = time.perf_counter()
        longest_round = max(longest_round, now - round_start)
        if now - measure_start >= args.seconds or now + longest_round > runner.deadline:
            break
    runner.recheck_determinism(args.seed)
    shutil.rmtree(out_root, ignore_errors=True)

    worst = max(runner.worst.values(), default=1.0)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} traced_passes={len(traced)} ops_per_pass={len(ops)}")
    for name, ratio in sorted(runner.worst.items()):
        print(f"  check {name}: error/tolerance = {ratio:.4g}")
    for note, times in collections.Counter(runner.notes).items():
        print(f"  failed x{times} {note}")

    if tracer:
        tracer.dump(OUT / f"{args.workload}-spans.jsonl")
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        wall_traced = statistics.median(p[0] for p in traced)
        per_layer["trace.wall_s"] = wall_traced
        per_layer["trace.overhead_s"] = wall_traced - statistics.median(p[0] for p in plain)
        per_layer["trace.accounted_share"] = per_layer["trace.self_sum_s"] / wall_traced
        metrics = {k: _metric(per_layer[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": _metric(statistics.median(p[0] for p in plain), "s"),
            "slowest_op_s": _metric(statistics.median(p[1] for p in plain), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_rate": _metric(
                (runner.attempted - runner.failed) / runner.attempted, "ratio"),
            "accuracy_headroom": _metric(1.0 - worst, "ratio"),
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not tracer:
        print(f"  uncalibrated: wall_s = {statistics.median(p[2] for p in plain):.6g} s "
              f"over {len(plain)} passes, setup_s = {statistics.median(setup_raw):.6g} s "
              f"over {len(setup_raw)} interpreters")
    print(json.dumps({
        "correct": runner.correct and runner.completed > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation scan: can the tier-1 suite see each term of each closed form?

Each entry of ``EDITS`` is one small, exact source edit ``(label, path, old,
new)``: ``old`` must occur exactly once in ``path`` (relative to the repo
root).  For each edit the scan copies the tree into a temporary directory,
applies that one edit and runs the tier-1 suite there, stopping at its first
failure, in one sequential subprocess.  An edit is *killed* when the suite
fails and *survives* when it passes; a survivor is a term no check can see.
The unedited tree runs first and must pass, or no kill means anything.

Run from the repo root (standard library only; a few minutes, since most
edits stop at an early failure):

    python tools/mutation_scan.py

It prints one line per edit and exits 1 if any edit survived, 2 if the
unedited tree fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CORE = "src/stationary_light/core.py"
ANALYTIC = "src/stationary_light/analytic.py"
SOLVER = "src/stationary_light/solver.py"
FOURIER = "src/stationary_light/fourier.py"

#: (label, path, old, new): one edit each, applied alone.
EDITS = [
    ("r(t): - log 2 -> - 0.6931", CORE,
     "np.minimum(t, 400.0))) - math.log(2.0)", "np.minimum(t, 400.0))) - 0.6931"),
    ("decay law: cos2_theta0 r -> 0.9 cos2_theta0 r", CORE,
     "(t - schedule.cos2_theta0 * r)", "(t - 0.9 * schedule.cos2_theta0 * r)"),
    ("thermal D x1.05", ANALYTIC,
     "diffusion = 4.0 * schedule.kappa_plus_sq",
     "diffusion = 1.05 * 4.0 * schedule.kappa_plus_sq"),
    ("thermal slaved psi_D x0.5", ANALYTIC,
     "slaving = -2.0 * kp * km", "slaving = 0.5 * -2.0 * kp * km"),
    ("thermal slaved psi_D x0", ANALYTIC,
     "slaving = -2.0 * kp * km", "slaving = 0.0 * -2.0 * kp * km"),
    ("thermal slaved psi_D x3", ANALYTIC,
     "slaving = -2.0 * kp * km", "slaving = 3.0 * -2.0 * kp * km"),
    ("dispersive xi x1.05", ANALYTIC,
     "xi = kp2 * l_a / (kp2 - km2)", "xi = 1.05 * kp2 * l_a / (kp2 - km2)"),
    ("dispersive cross-coupling (1 - i q xi) -> 1", ANALYTIC,
     "* (1.0 - 1j * q * xi)", "* (1.0 + 0.0 * q)"),
    ("cold split weight w x1.001", ANALYTIC,
     "strong = 0.5 * ((1.0 + weight) * ahead + (1.0 - weight) * behind)",
     "strong = 0.5 * ((1.0 + 1.001 * weight) * ahead + (1.0 - 1.001 * weight) * behind)"),
    ("ladder Omega x1.02", SOLVER,
     "g_coll * np.sqrt(c2 / (1.0 - c2))", "1.02 * g_coll * np.sqrt(c2 / (1.0 - c2))"),
    ("ladder gamma_ba on odd rows x0.5", SOLVER,
     "np.where(m % 2, medium.gamma_ba,", "np.where(m % 2, 0.5 * medium.gamma_ba,"),
    ("probe cos(theta) x(1 + 1e-3)", ANALYTIC,
     "cos_theta = math.sqrt(cos2_theta(schedule, t))",
     "cos_theta = (1.0 + 1e-3) * math.sqrt(cos2_theta(schedule, t))"),
    ("raman_harmonics ratio sign", ANALYTIC,
     "ratio = -kappa_w / kappa_s", "ratio = kappa_w / kappa_s"),
    ("coeff_d's d1 x1.001", FOURIER,
     "return d0, -y * d0", "return d0, -1.001 * y * d0"),
]

#: The tier-1 command, stopped at its first failure.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".bench_out", ".bench_build", "runs")


def apply(tree: Path, path: str, old: str, new: str) -> None:
    """Replace the one occurrence of ``old`` in ``tree / path`` by ``new``."""
    target = tree / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise ValueError(f"{path}: {old!r} occurs {text.count(old)} times, expected once")
    target.write_text(text.replace(old, new), encoding="utf-8")


def run_one(edit: tuple[str, str, str] | None) -> tuple[bool, str]:
    """(failed, first failing test or '') of tier-1 on a fresh copy of the tree
    with ``edit``, a (path, old, new), applied, or none."""
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        if edit is not None:
            apply(tree, *edit)
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode != 0, failed[0] if failed else ""


def main() -> int:
    failed, first = run_one(None)
    if failed:
        print(f"the unedited tree fails tier-1 ({first}); no edit was scanned")
        return 2
    survivors = []
    for label, path, old, new in EDITS:
        killed, first = run_one((path, old, new))
        print(f"{'killed  ' if killed else 'SURVIVED'}  {label}  {first}".rstrip(), flush=True)
        if not killed:
            survivors.append(label)
    print(f"{len(EDITS) - len(survivors)} of {len(EDITS)} edits killed; "
          f"survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())

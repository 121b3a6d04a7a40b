"""The k1alex benchmark: timed passes over one workload, checked against goldens.

Run from the repository root::

    python3 bench/run.py --workload log --seed 0 --seconds 40 --trace 0

Every pass runs in a fresh interpreter (``worker.py``), so the module-level
``gr_inverse`` cache and the automorphism tables start cold, as they do for
a user of ``k1alex compute``.  Passes repeat, one after another, until the
next one would end after ``--seconds``.  Set-up is timed by extra processes
that stop where the first job would start.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians), plus the ratio of traced to
untraced wall time.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name with its unit, and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("geomean_job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("novikov.ns_log_s", "s"),
    ("novikov.series_mul_calls", "count"),
    ("grouprings.ga_mul_calls", "count"),
    ("grouprings.gr_inverse_calls", "count"),
    ("grouprings.gr_inverse_s", "s"),
    ("grouprings.gr_inverse_nontrivial_calls", "count"),
    ("grouprings.gr_inverse_cache_hit_ratio", "ratio"),
    ("grouprings.max_coeff_bits", "bits"),
    ("novikov.ns_invert_s", "s"),
    ("novikov.ns_invert_calls", "count"),
    ("novikov.witt_normalize_s", "s"),
    ("k1core.pivot_unit_test_s", "s"),
    ("k1core.pivot_unit_tests", "count"),
    ("k1core.eliminate_self_s", "s"),
    ("k1core.pivots", "count"),
    ("k1core.non_witt_pivots", "count"),
    ("k1core.swaps", "count"),
    ("upsilon.upsilon_matrix_s", "s"),
    ("upsilon.det_commutative_s", "s"),
    ("upsilon.block_dim", "count"),
    ("upsilon.is_unit_laurent_calls", "count"),
    ("cover.metabelian_rep_s", "s"),
    ("cover.smith_normal_form_s", "s"),
    ("k1core.build_fox_matrix_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

SETUP_PROBES = 9
# A whole run must end well inside three minutes, whatever the passes do.
RUN_LIMIT_S = 150.0


def run_worker(workload: str, seed: int, deadline: float, *extra: str):
    """Start one worker; return (spawn time, its JSON payload or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(extra) or 'pass'}", file=sys.stderr)
        return spawned, None
    if proc.returncode != 0:
        print(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return spawned, None
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="k1alex benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "k1alex" / "__init__.py").is_file():
        print(f"k1alex sources not found under {SRC}", file=sys.stderr)
        return 2
    n_jobs = len(WORKLOADS[args.workload].jobs)
    hard_end = time.monotonic() + RUN_LIMIT_S

    setup = []
    for _ in range(SETUP_PROBES):
        spawned, probe = run_worker(args.workload, args.seed, hard_end, "--setup-only")
        if probe is None:
            return 1
        setup.append(probe["ready"] - spawned)

    attempted = failed = 0
    plain, traced = [], []
    longest = 0.0
    end = time.monotonic() + args.seconds
    SPANS_DIR.mkdir(exist_ok=True)
    while True:
        tracing = args.trace == 1 and len(traced) < len(plain)
        extra = []
        if tracing:
            spans = SPANS_DIR / f"{args.workload}-seed{args.seed}-pass{len(traced)}.json"
            extra = ["--trace", "--spans", str(spans)]
        spawned, result = run_worker(args.workload, args.seed, hard_end, *extra)
        longest = max(longest, time.monotonic() - spawned)
        attempted += n_jobs
        if result is None:
            failed += n_jobs
            break  # a worker that crashed or hung will not recover in this run
        errors = [e for e in result["errors"] if e is not None]
        failed += len(errors)
        for e in errors:
            print(f"job failed: {e}", file=sys.stderr)
        (traced if tracing else plain).append(result)
        if not tracing:
            setup.append(result["ready"] - spawned)
        have_all = plain and (traced or args.trace == 0)
        now = time.monotonic()
        if (have_all and now + longest > end) or now + longest > hard_end:
            break
    if not plain or (args.trace == 1 and not traced):
        print("no pass completed", file=sys.stderr)
        return 1

    med = statistics.median
    if args.trace == 0:
        values = {
            "wall_s": med(r["wall_s"] for r in plain),
            "geomean_job_s": med(r["geomean_job_s"] for r in plain),
            "setup_s": med(setup),
            "peak_rss_mb": med(r["rss_mb"] for r in plain),
        }
        table = END_TO_END
    else:
        values = {name: med(r["layers"][name] for r in traced)
                  for name, _ in PER_LAYER if not name.startswith("trace.")}
        values["trace.wall_s"] = med(r["wall_s"] for r in traced)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / med(r["wall_s"] for r in plain)
        table = PER_LAYER

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {n_jobs} jobs, {len(setup)} set-ups")
    print("  untraced pass wall times (s): " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    for name, unit in table:
        print(f"  {name:42s} {values[name]:14.6g} {unit}")
    print(f"  {'error_rate':42s} {failed / attempted:14.6g} ({failed} failed of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

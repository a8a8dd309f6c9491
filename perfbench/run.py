"""Benchmark of the kj command line on four workloads.

Usage, from the root of a kj checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: homology-torus, cube-oracle, movie-noisy, verify-suites (see
workloads.py). Each run measures in its own fresh subprocess (child.py), one
job at a time, with no threads; load is that single process. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics, timed with no tracing installed.
Times are probe-scaled (child.py): wall seconds net of the speed probes,
scaled to the speed at which the probe takes REF_PROBE_S, because the shared
machine's own speed swings by up to 2x. A job's time is the median of all
its readings in the run.
  wall_s        the sum of the job times: the job list's time to solution
  job_p50_s     median job time; a job is one kj invocation
  job_tail_s    highest percentile of the job times that has at least ten
                jobs beyond it, or the slowest job when no percentile at or
                above the median has (the line before the JSON says which)
  peak_rss_mib  ru_maxrss of the measuring subprocess
  setup_s       median over SETUP_SAMPLES fresh subprocesses of the
                probe-scaled time from spawn to the first timed job (import
                kj, write the inputs)
--trace 1 measures the job list untraced and then traced, half of --seconds
each, and reports per-layer self times and counts per pass (spans.py), the
traced share of job wall time (trace.coverage) and traced over untraced
wall_s (trace.overhead). Spans are written to .perfbench/spans-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import probe_median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("homology-torus", "cube-oracle", "movie-noisy", "verify-suites")
SETUP_SAMPLES = 7
# Two passes give every job-list slot a second reading and both chiralities of
# each torus knot; the traced comparison runs one pass per side, on the same
# inputs.
MIN_PASSES = 2
RUN_LIMIT_S = 170  # every run ends within 180 s


def job_times(slots: list[list[float]]) -> list[float]:
    """Each job-list slot's time: the median of its probe-scaled readings."""
    return [statistics.median(slot) for slot in slots]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile that
    has at least ten samples beyond it, or the maximum when no percentile at
    or above the median has."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 11
    if k < (n - 1) // 2:
        k = n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def spawn(root: Path, workdir: Path, args, *, seconds: float, trace: int,
          setup_only: bool, deadline: float, min_passes: int = MIN_PASSES,
          probe: bool = True) -> dict:
    """Run child.py to completion and return the JSON it wrote."""
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    env = {k: v for k, v in os.environ.items() if k != "KJ_THREADS"}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--min-passes", str(min_passes),
           "--root", str(root), "--workdir", str(workdir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if probe:
        cmd.append("--probe")
    cmd += ["--spawn-probe", repr(probe_median())]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=root, env=env,
                            stdout=sys.stderr, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("the workload did not finish in time")
    if code != 0:
        raise RuntimeError(f"the workload subprocess exited with code {code}")
    return json.loads(out.read_text())


def machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"platform={platform.platform()}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "kj" / "__init__.py").is_file():
        print("perfbench: run from the root of a kj checkout (src/kj is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    base = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            half = args.seconds / 2
            plain = spawn(root, base / "plain", args, seconds=half, trace=0,
                          setup_only=False, deadline=deadline, min_passes=1, probe=False)
            traced = spawn(root, base / "traced", args, seconds=half, trace=1,
                           setup_only=False, deadline=deadline, min_passes=1, probe=False)
            runs = [plain, traced]
        else:
            setups = [spawn(root, base / f"setup{k}", args, seconds=0, trace=0,
                            setup_only=True, deadline=deadline)
                      for k in range(SETUP_SAMPLES - 1)]
            main_run = spawn(root, base / "run", args, seconds=args.seconds, trace=0,
                             setup_only=False, deadline=deadline)
            runs = [main_run]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["answers_ok"] for r in runs)
    shared = set(runs[0]["digests"]).intersection(*(r["digests"] for r in runs))
    if any(r["digests"][k] != runs[0]["digests"][k] for r in runs for k in shared):
        correct = False
        print("perfbench: traced and untraced outputs differ", file=sys.stderr)

    first = runs[0]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {machine()}")
    print(f"passes={len(first['pass_walls'])} jobs={len(first['job_seconds'][0])} "
          f"failed_share={failed}/{attempted}={failed / attempted:.4f}")
    failing = sorted(set(n for r in runs for n in r["failing"]))
    if failing:
        print("failing: " + "; ".join(failing))

    if args.trace:
        from spans import unit_of

        layers = dict(traced["layers"])
        layers["trace.overhead"] = min(traced["pass_walls"]) / min(plain["pass_walls"])
        print(f"spans: {traced['spans_file']}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        jobs = job_times(first["slot_seconds"])
        value, pct, beyond = tail(jobs)
        print(f"job_tail_s is p{pct:.1f} of {len(jobs)} job times, {beyond} beyond it")
        setup = [s["setup_s"] for s in setups] + [first["setup_s"]]
        raw_setup = statistics.median(s["setup_raw_s"] for s in setups + [first])
        print("unscaled: pass walls " + ", ".join(f"{w:.3f}" for w in first["pass_walls"])
              + f" s (with repeats and probes), setup {raw_setup:.4f} s")
        metrics = {
            "wall_s": {"value": sum(jobs), "unit": "s"},
            "job_p50_s": {"value": statistics.median(jobs), "unit": "s"},
            "job_tail_s": {"value": value, "unit": "s"},
            "peak_rss_mib": {"value": first["rss_mib"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run in a fresh process, spawned by run.py.

Set-up imports kj and writes the workload's input files; it ends right
before the first timed job. The run then repeats the job list, one job at a
time through ``kj.cli.main`` in this process, starting passes until
``--seconds`` have gone by and at least ``--min-passes`` have run, and
writes its measurements as JSON to ``--out``.

The machine is shared: other tenants slow its cores by up to 2x, in spells
that last from a second to tens of seconds, and CPU time slows with them.
Untraced runs therefore time each job against a fixed pure-Python probe run
right before and after the job and, from a SIGALRM timer, every
``SAMPLE_S`` inside it. A job's time is its wall time minus the probes run
inside it, scaled by REF_PROBE_S over the mean probe time around it: seconds
at the speed at which the probe takes REF_PROBE_S. Cheap jobs are repeated
within a pass, up to REP_BUDGET_S of their own time, so their medians rest
on many readings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

# The probe's median time over a minute on the machine the figures were taken
# on (2 cores, Python 3.11.7); it sets only the scale of the reported seconds.
REF_PROBE_S = 0.0016
SAMPLE_S = 0.1
REP_BUDGET_S = 0.25
MAX_REPS = 25
SETUP_PROBES = 3


def probe_median(n: int = SETUP_PROBES) -> float:
    return statistics.median(probe() for _ in range(n))


def probe() -> float:
    """Seconds taken by a fixed piece of work shaped like kj's inner loops:
    dict updates keyed by small ints, Fraction sums and short lists."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(2000):
        k = (i * 7919) % 1031
        table[k] = table.get(k, 0) + i * i
        if i % 10 == 0:
            acc += Fraction(i + 1, k + 1)
    rows = [[(i * j) % 13 for j in range(20)] for i in range(40)]
    sum(sum(r) for r in rows)
    return time.perf_counter() - start


class Sampler:
    """Times one call against the probe (see the module docstring)."""

    def __init__(self, interval: float = SAMPLE_S):
        self.interval = interval
        self.inside: list[float] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that lands inside a probe is dropped
            return
        self._busy = True
        try:
            self.inside.append(probe())
        finally:
            self._busy = False

    def timed(self, fn):
        """(seconds net of the probes inside, probe mean around it, fn())."""
        before = probe()
        self.inside = []
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        inside = self.inside
        probes = [before, *inside, probe()]
        return elapsed - sum(inside), sum(probes) / len(probes), result


def run_job(cli, job) -> tuple[float, str, int | None]:
    """Wall seconds, captured stdout and exit code (None: it raised)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a failed run
        code = None
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - start, out.getvalue(), code


def measure(cli, jobs, seconds: float, min_passes: int, tracer=None,
            sampler: Sampler | None = None) -> dict:
    """Passes over the job list. Without a sampler every job runs once per
    pass and ``job_seconds`` holds raw wall times, one list per pass; with
    one, ``slot_seconds`` holds every probe-scaled time of each job-list
    slot."""
    digests: dict[str, str] = {}
    walls, job_seconds, failing = [], [], []
    slot_seconds: list[list[float]] = []
    attempted = failed = 0
    answers_ok = True
    deadline = time.perf_counter() + seconds
    p = 0
    while p < min_passes or time.perf_counter() < deadline:
        pass_start = time.perf_counter()
        job_seconds.append([])
        for k, job in enumerate(jobs(p)):
            if tracer is not None:
                tracer.job = f"{p}:{k}"
            if k == len(slot_seconds):
                slot_seconds.append([])
            spent, reps = 0.0, 0
            while True:
                if sampler is None:
                    elapsed, out, code = run_job(cli, job)
                else:
                    net, probe_s, (_, out, code) = sampler.timed(lambda: run_job(cli, job))
                    elapsed = net
                    slot_seconds[k].append(net * REF_PROBE_S / probe_s)
                spent += elapsed
                if code is None:
                    ops, bad, names, ok = 1, 1, [job.key], False
                else:
                    ops, bad, names, ok = job.check(out, code)
                digest = hashlib.sha256(out.encode()).hexdigest()
                if digests.setdefault(job.key, digest) != digest:
                    ok, bad, names = False, max(bad, 1), names + [f"output changed: {job.key}"]
                attempted += ops
                failed += bad
                failing += names
                answers_ok = answers_ok and ok
                reps += 1
                if sampler is None or spent >= REP_BUDGET_S or reps >= MAX_REPS:
                    break
            job_seconds[-1].append(spent)
        walls.append(time.perf_counter() - pass_start)
        p += 1
    return {
        "pass_walls": walls,
        "job_seconds": job_seconds,
        "slot_seconds": slot_seconds,
        "attempted": attempted,
        "failed": failed,
        "failing": failing,
        "answers_ok": answers_ok,
        "digests": digests,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true", help="probe-scaled times, repeated cheap jobs")
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spawn-probe", type=float, required=True, help="probe_median() before spawn")
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.root) / "src"))
    import kj.cli as cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print("perfbench: not traced (absent): " + ", ".join(missing), file=sys.stderr)
    from workloads import build_jobs

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = build_jobs(args.workload, args.seed, workdir)
    setup_raw = time.monotonic() - args.spawned
    # set-up is scaled by the probe right before the spawn and right after it
    probe_s = (args.spawn_probe + probe_median()) / 2
    result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * REF_PROBE_S / probe_s}
    if not args.setup_only:
        sampler = Sampler() if args.probe and tracer is None else None
        try:
            result.update(measure(cli, jobs, args.seconds, args.min_passes, tracer, sampler))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            from spans import layer_metrics

            passes = len(result["pass_walls"])
            job_wall = sum(map(sum, result["job_seconds"]))
            result["layers"] = layer_metrics(tracer, passes, job_wall)
            spans_path = Path(args.root) / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                              "spans": tracer.spans}))
            result["spans_file"] = str(spans_path)
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own checks: tracing leaves kj as it found it, the
untraced job runner prints exactly what a plain ``kj`` process prints, and
self time is computed right on a synthetic span tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import kj  # noqa: E402,F401  (loads every kj module the tracer wraps)
import kj.cli as cli  # noqa: E402

from child import Sampler, run_job  # noqa: E402
from run import tail  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Job, parse_laurent  # noqa: E402

JOBS = [
    ("homology", "trefoil", "--theory", "kh", "--ring", "Z"),
    ("jones", "fig8"),
    ("movie", "torus.movie"),
]


def _snapshot():
    """Every name -> object binding the tracer may rewrite."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "kj" or name.startswith("kj."):
            for key, value in vars(mod).items():
                seen[name, key] = value
                if isinstance(value, type) and value.__module__.startswith("kj"):
                    for attr, member in vars(value).items():
                        seen[name, key, attr] = member
    for key, fn in sys.modules["kj.verify"].SUITES.items():
        seen["SUITES", key] = fn
    return seen


def _current(key):
    if key[0] == "SUITES":
        return sys.modules["kj.verify"].SUITES[key[1]]
    value = vars(sys.modules[key[0]])[key[1]]
    return vars(value)[key[2]] if len(key) == 3 else value


def test_wrappers_removed_after_traced_run():
    before = _snapshot()
    tracer = Tracer()
    try:
        assert tracer.install() == []
        tracer.job = "0:0"
        for argv in JOBS + [("verify", "euler-oracle")]:
            assert run_job(cli, Job("job", argv, None))[2] in (0, 10)
        assert _current(("kj.cli", "main")) is not before["kj.cli", "main"]
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "homology.summary", "snf.diagonal", "movie.maps",
            "verify.suite.euler-oracle"} <= names
    assert [k for k, v in before.items() if _current(k) is not v] == []
    # modules kj imported lazily during the jobs hold no wrappers either
    assert [k for k, v in _snapshot().items()
            if getattr(getattr(v, "__func__", v), "__module__", None) == "spans"] == []


def test_untraced_output_is_byte_identical_to_plain_kj():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("KJ_THREADS", None)
    for argv in JOBS:
        plain = subprocess.run([sys.executable, "-m", "kj.cli", *argv], env=env,
                               capture_output=True, check=True, timeout=120).stdout
        _, out, code = run_job(cli, Job("job", argv, None))
        assert code == 0
        assert out.encode() == plain


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] has children b [1, 4] and c [3, 6], which overlap, and d [8, 9];
    # b has child e [2, 3]
    spans = [
        ["a", 0.0, 10.0, -1, "0:0"],
        ["b", 1.0, 4.0, 0, "0:0"],
        ["e", 2.0, 3.0, 1, "0:0"],
        ["c", 3.0, 6.0, 0, "0:0"],
        ["d", 8.0, 9.0, 0, "0:0"],
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 1.0]

    tracer = Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1, "0:0"],
        ["homology.summary", 1.0, 7.0, 0, "0:0"],
        ["snf.diagonal", 2.0, 5.0, 1, "0:0"],
        ["verify.suite.rmoves", 7.5, 9.5, 0, "0:0"],
        ["homology.field", 8.0, 9.0, 3, "0:0"],
        ["moves.apply", 0.0, 0.5, -1, "setup"],
    ]
    m = layer_metrics(tracer, passes=2, job_wall=10.0)
    assert m["cli.self_s"] == 1.0  # (10 - 6 - 2) / 2 passes
    assert m["verify.suite_s.rmoves"] == 1.0 and m["homology.field_s"] == 0.5
    assert m["homology.summary_s"] == 1.5
    assert m["snf.diagonal_s"] == 1.5 and m["snf.calls"] == 0.5
    assert m["setup.moves_apply_s"] == 0.5 and m["moves.apply_calls"] == 0
    assert m["trace.coverage"] == 0.8


def test_tail_and_laurent_helpers():
    assert tail([float(x) for x in range(1, 31)]) == (20.0, 100 * 20 / 30, 10)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert parse_laurent("-q^9 + q^5 + 2*q^-1 - 1") == {9: -1, 5: 1, -1: 2, 0: -1}
    assert parse_laurent("0") == {}


def test_probe_scaled_timing_leaves_output_alone():
    sampler = Sampler(interval=0.002)
    job = Job("job", JOBS[0], None)
    net, probe_s, (elapsed, out, code) = sampler.timed(lambda: run_job(cli, job))
    assert code == 0 and out == run_job(cli, job)[1]
    assert sampler.inside and probe_s > 0
    assert 0 < net < elapsed + sum(sampler.inside)

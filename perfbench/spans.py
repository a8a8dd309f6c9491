"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ``kj`` modules from outside, at
every name where a caller looks them up: module globals (including aliases
such as ``kj.homology.matrix_rank``), class attributes, and the values of
``kj.verify.SUITES``. A wrapper either records a span (name, start, end,
parent span, job id) or only counts calls, for functions called millions of
times. Spans stay in memory until the run ends. ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

SPAN, COUNT = "span", "count"


def _gens(c) -> int:
    return sum(len(b) for b in c.bases.values())


def _build_sizes(tr, args, result):
    tr.counts["cube.generators"] += _gens(result)
    tr.counts["cube.nnz"] += sum(len(m.data) for m in result.diff.values())


def _block_size(tr, args, result):
    tr.peak("homology.block_max_gens", args[0].cols)


def _snf_size(tr, args, result):
    tr.peak("snf.max_entries", len(args[0].data))


def _frame_sizes(tr, args, result):
    tr.peak("movie.frame_gens_max", max((_gens(c) for c in args[0].complexes), default=0))


def _suite_checks(tr, args, result):
    tr.counts["verify.checks"] += len(result)
    tr.counts["verify.checks_failed"] += sum(not r.ok for r in result)


# (span name, module, attribute, mode, hook called with (tracer, args, result))
TARGETS = [
    ("cli.main", "kj.cli", "main", SPAN, None),
    ("diagram.parse", "kj.diagram", "parse_pd", SPAN, None),
    ("diagram.resolve", "kj.diagram", "resolve", SPAN, None),
    ("cube.build", "kj.cube", "build_complex", SPAN, _build_sizes),
    ("cube.validate", "kj.cube", "ChainComplex.validate", SPAN, None),
    ("cube.edge_image", "kj.cube", "ChainComplex.edge_image", COUNT, None),
    ("cube.bracket", "kj.cube", "kauffman_bracket", SPAN, None),
    ("cube.euler", "kj.cube", "graded_euler_characteristic", SPAN, None),
    ("homology.summary", "kj.homology", "homology", SPAN, None),
    ("homology.block", "kj.homology", "_group_of_block", COUNT, _block_size),
    ("homology.field", "kj.homology", "FieldHomology.__init__", SPAN, None),
    ("homology.reduce", "kj.homology", "FieldHomology.reduce", SPAN, None),
    ("snf.diagonal", "kj.snf", "snf_diagonal", SPAN, _snf_size),
    ("sparse.rank", "kj.sparse", "rank", SPAN, None),
    ("sparse.kernel", "kj.sparse", "kernel_basis", SPAN, None),
    ("sparse.solve", "kj.sparse", "solve_in_image", SPAN, None),
    ("sparse.matmul", "kj.sparse", "SparseMatrix.__mul__", SPAN, None),
    ("rings.qsqrt2_mul", "kj.rings", "QSqrt2.__mul__", COUNT, None),
    ("canonical.chain", "kj.canonical", "canonical_chain", SPAN, None),
    ("canonical.chain", "kj.canonical", "CanonicalGenerator.chain", SPAN, None),
    ("canonical.chain", "kj.canonical", "CanonicalGenerator.rescaled_chain", SPAN, None),
    ("canonical.verify_basis", "kj.canonical", "verify_basis", SPAN, None),
    ("moves.apply", "kj.moves", "apply_move", SPAN, None),
    ("movie.maps", "kj.movie", "MovieMaps.__init__", SPAN, _frame_sizes),
    ("movie.chain_map", "kj.movie", "morse_chain_map", SPAN, None),
    ("movie.chain_map", "kj.movie", "r1_chain_map", SPAN, None),
    ("movie.chain_map", "kj.movie", "r2_chain_map", SPAN, None),
    ("movie.chain_verify", "kj.movie", "ChainMap.verify", SPAN, None),
    ("movie.step", "kj.movie", "StepMap.from_chain_map", SPAN, None),
    ("movie.step", "kj.movie", "StepMap.inverse", SPAN, None),
    ("movie.step", "kj.movie", "StepMap.compose_after", SPAN, None),
    ("movie.step", "kj.movie", "_R3Transport.class_map", SPAN, None),
]
SUITES = ("euler-oracle", "rmoves", "proposition", "corollary", "leading-order")

# reported metric -> (source, span or counter name); "self" sums self time,
# "total" sums whole span durations (a suite's time with everything it
# calls), "calls" counts spans or calls, "count" and "max" read the hooks'
# tallies
LAYER_METRICS = {
    "diagram.parse_s": ("self", "diagram.parse"),
    "diagram.resolve_s": ("self", "diagram.resolve"),
    "diagram.resolve_calls": ("calls", "diagram.resolve"),
    "cube.build_s": ("self", "cube.build"),
    "cube.validate_s": ("self", "cube.validate"),
    "cube.edge_image_calls": ("calls", "cube.edge_image"),
    "cube.bracket_s": ("self", "cube.bracket"),
    "cube.euler_s": ("self", "cube.euler"),
    "cube.generators": ("count", "cube.generators"),
    "cube.nnz": ("count", "cube.nnz"),
    "homology.summary_s": ("self", "homology.summary"),
    "homology.blocks": ("calls", "homology.block"),
    "homology.block_max_gens": ("max", "homology.block_max_gens"),
    "homology.field_s": ("self", "homology.field"),
    "homology.field_builds": ("calls", "homology.field"),
    "homology.reduce_s": ("self", "homology.reduce"),
    "homology.reduce_calls": ("calls", "homology.reduce"),
    "snf.diagonal_s": ("self", "snf.diagonal"),
    "snf.calls": ("calls", "snf.diagonal"),
    "snf.max_entries": ("max", "snf.max_entries"),
    "sparse.rank_s": ("self", "sparse.rank"),
    "sparse.kernel_s": ("self", "sparse.kernel"),
    "sparse.solve_s": ("self", "sparse.solve"),
    "sparse.solve_calls": ("calls", "sparse.solve"),
    "sparse.matmul_s": ("self", "sparse.matmul"),
    "sparse.matmul_calls": ("calls", "sparse.matmul"),
    "rings.qsqrt2_mul_calls": ("calls", "rings.qsqrt2_mul"),
    "canonical.chain_s": ("self", "canonical.chain"),
    "canonical.verify_basis_s": ("self", "canonical.verify_basis"),
    "moves.apply_s": ("self", "moves.apply"),
    "moves.apply_calls": ("calls", "moves.apply"),
    "movie.maps_s": ("self", "movie.maps"),
    "movie.chain_map_s": ("self", "movie.chain_map"),
    "movie.chain_verify_s": ("self", "movie.chain_verify"),
    "movie.step_s": ("self", "movie.step"),
    "movie.frame_gens_max": ("max", "movie.frame_gens_max"),
    **{f"verify.suite_s.{s}": ("total", f"verify.suite.{s}") for s in SUITES},
    "verify.checks": ("count", "verify.checks"),
    "verify.checks_failed": ("count", "verify.checks_failed"),
    "cli.self_s": ("self", "cli.main"),
}


class Tracer:
    """Spans are lists [name, start, end, parent index or -1, job id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.job = "setup"
        self._open: list[int] = []
        self._undo: list = []

    def peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, mode: str, hook):
        counts = self.counts

        if mode == COUNT and hook is None:
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            if mode == COUNT:
                counts[name] += 1
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                parent = self._open[-1] if self._open else -1
                span = [name, time.perf_counter(), None, parent, self.job]
                self.spans.append(span)
                self._open.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._open.pop()
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError):
                    pass  # the layer changed shape; its size tallies stay at 0
            return result

        return spanned

    def _replace(self, owner, attr, new, by_dict=False):
        if by_dict:
            old = owner[attr]
            owner[attr] = new
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = owner.__dict__[attr]
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, old))

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the names that do not."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "kj" or k.startswith("kj.")]
        missing = []
        for name, module, attr, mode, hook in TARGETS:
            mod = sys.modules.get(module)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or leaf not in vars(owner):
                missing.append(f"{module}.{attr}")
                continue
            raw = vars(owner)[leaf]
            if owner_name:
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                new = self._wrap(name, fn, mode, hook)
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._replace(owner, key, staticmethod(new) if static else new)
            else:
                new = self._wrap(name, raw, mode, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            self._replace(m, key, new)
        suites = getattr(sys.modules.get("kj.verify"), "SUITES", {})
        for key in SUITES:
            if key in suites:
                wrapped = self._wrap(f"verify.suite.{key}", suites[key], SPAN, _suite_checks)
                self._replace(suites, key, wrapped, by_dict=True)
            else:
                missing.append(f"kj.verify.SUITES[{key!r}]")
        return missing

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- arithmetic on spans ------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, job) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def unit_of(metric: str) -> str:
    if metric.startswith("trace."):
        return "ratio"
    if metric.startswith("setup.") or LAYER_METRICS[metric][0] in ("self", "total"):
        return "s"
    return "count"


def layer_metrics(tracer: Tracer, passes: int, job_wall: float) -> dict[str, float]:
    """Per-pass totals of the layer metrics, plus setup and coverage figures.

    job_wall is the summed wall time of the traced jobs; coverage is the
    share of it that spans below ``cli.main`` account for. Every metric is
    present, 0 when its layer did not run."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    calls: Counter = Counter(tracer.counts)
    covered = 0.0
    setup_apply = 0.0
    for (name, start, end, parent, job), own in zip(spans, selfs):
        if job == "setup":
            if name == "moves.apply":
                setup_apply += own
            continue
        self_s[name] += own
        total_s[name] += end - start
        calls[name] += 1
        if name != "cli.main" and (parent < 0 or spans[parent][0] == "cli.main"):
            covered += end - start
    out = {}
    for metric, (source, key) in LAYER_METRICS.items():
        if source == "self":
            out[metric] = self_s[key] / passes
        elif source == "total":
            out[metric] = total_s[key] / passes
        elif source == "max":
            out[metric] = tracer.maxima.get(key, 0)
        else:
            out[metric] = calls[key] / passes
    out["setup.moves_apply_s"] = setup_apply
    out["trace.coverage"] = covered / job_wall if job_wall else 0.0
    return out

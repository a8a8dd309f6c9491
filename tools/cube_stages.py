"""Print the stage table of ROADMAP.md's Baseline: for T(2,n), the least
time of 7 to resolve every resolution and trace its circles on a freshly
parsed diagram, the time of ``ChainComplex(...)`` (which traces them on a
diagram of its own), of ``validate()``, of ``homology()`` (which, as in
``kj homology``, writes no d), then of writing d (the first read of
``values``, as a movie frame's d is written), the entries of d, the peak
RSS before the build, after it, after ``homology()`` and after writing d,
the cube edges and the edge keys the build lays out (one ``LocalTables.piece`` each, so
T(2,9) lays out 45 keys for its 2,304 edges), and the cube squares the
first ``validate()`` sums and the source codes it sums them on in all,
under Khovanov homology over Z and Lee homology over Q. Then, for the
``torus-noise`` movie at t = 0 and 1 over Q, the least time of 7 repeats to
build and verify its elementary chain maps (Morse, R1 and R2, a removal's
by its forward map) on frames built beforehand, their stored entries, and
the peak RSS before and after. Then, for each bundled closed movie, the
least time of 7 calls of ``kj_number`` and the ``FieldHomology`` builds of
one call. Last, the least time of 7 calls of ``run_suite("all", 8)``, what
``kj verify all --seed 8`` runs, and the ``ChainComplex`` and
``FieldHomology`` builds of one call. Each row runs in a fresh subprocess,
so that its RSS is its own. Standard library only.

    python3 tools/cube_stages.py [n ...]    (default: 9 11)
"""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THEORIES = (("Kh", 0, "Z"), ("Lee", 1, "Q"))
MOVIE = "torus-noise"
CLOSED_MOVIES = ("sphere", "torus", "genus2", "torus-noise")  # the bundled movies
VERIFY_SEED = 8
REPEATS = 7


def torus_pd(n: int) -> str:
    """T(2,n) by the formula the test suite uses (tests/diagrams.py)."""
    spec = importlib.util.spec_from_file_location("diagrams", ROOT / "tests" / "diagrams.py")
    diagrams = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diagrams)
    return diagrams.torus_pd(n)


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stages(n: int, t: int, ring_name: str) -> dict:
    """One row, measured in this process."""
    from kj.cube import ChainComplex
    from kj.diagram import parse_pd
    from kj.homology import homology
    from kj.rings import QQ, ZZ

    ring = {"Z": ZZ, "Q": QQ}[ring_name]
    d = parse_pd(torus_pd(n))
    row = {"rss_before_mib": _rss_mib()}
    start = time.perf_counter()
    c = ChainComplex(d, t, ring)
    row["complex_s"] = time.perf_counter() - start
    row["rss_built_mib"] = _rss_mib()
    start = time.perf_counter()
    c.validate()
    row["validate_s"] = time.perf_counter() - start
    start = time.perf_counter()
    homology(c)  # as `kj homology` runs it: its blocks are cut from the edge list
    row["homology_s"] = time.perf_counter() - start
    row["rss_homology_mib"] = _rss_mib()
    start = time.perf_counter()
    c.values  # noqa: B018 -- d is written on first read, as a movie frame's is
    row["write_s"] = time.perf_counter() - start
    row["generators"] = sum(c.dim(i) for i in c.degrees())
    row["entries"] = len(c.values)  # from the arrays: the SparseMatrix view would add to the RSS
    row["rss_end_mib"] = _rss_mib()
    row["cube_edges"] = sum(map(len, c._edge_shapes.values()))
    row["edge_keys"] = len(c.local.cube_edges)
    # counted on a fresh build, so that counting does not slow the timed call
    with _summed() as counts:
        ChainComplex(d, t, ring).validate()
    row["squares_summed"], row["codes_summed"] = counts["squares"], counts["codes"]
    return row


@contextlib.contextmanager
def _summed():
    """Count the cube squares that ``validate`` sums inside the block, and
    the source codes it sums them on in all, by wrapping
    ``kj.cube._square_fault``: each square is two paths, each path first
    the source codes it is summed on."""
    from kj import cube

    counts, fault = Counter(), cube._square_fault

    def counted(paths, stride):
        for first, second in zip(paths[::2], paths[1::2]):
            counts["squares"] += 1
            counts["codes"] += len({*first[0], *second[0]})
        return fault(paths, stride)

    cube._square_fault = counted
    try:
        yield counts
    finally:
        cube._square_fault = fault


def trace_stages(n: int) -> dict:
    """The trace time of T(2,n), measured in this process."""
    from kj.diagram import parse_pd, resolve

    def trace():
        d = parse_pd(torus_pd(n))  # fresh: a diagram keeps the circles it traced
        start = time.perf_counter()
        for bits in itertools.product((0, 1), repeat=n):
            resolve(d, bits).circles  # noqa: B018 -- traced on first access
        return time.perf_counter() - start

    return {"trace_s": min(trace() for _ in range(REPEATS))}


def chain_map_stages(name: str, t: int) -> dict:
    """One chain-map row, measured in this process."""
    from kj.corpus import load_movie
    from kj.cube import LocalTables, build_complex
    from kj.movie import elementary_chain_map
    from kj.rings import QQ

    movie = load_movie(name)
    row, times = {}, []
    for _ in range(REPEATS):
        local = LocalTables(t, QQ)  # shared by the frames and maps, as in MovieMaps
        built = {f: build_complex(f, t, QQ, local) for f in dict.fromkeys(movie.frames)}
        frames = [built[f] for f in movie.frames]
        row.setdefault("rss_before_mib", _rss_mib())
        start = time.perf_counter()
        maps = [elementary_chain_map(rec, c1, c2)
                for rec, c1, c2 in zip(movie.records, frames, frames[1:]) if rec.kind != "r3"]
        times.append(time.perf_counter() - start)
    row["maps_s"] = min(times)
    row["maps"] = len(maps)
    row["entries"] = sum(len(cm.values) for cm in maps)
    row["rss_end_mib"] = _rss_mib()
    return row


@contextlib.contextmanager
def _counted(*classes):
    """Count the instances of ``classes`` made inside the block, by class
    name."""
    counts, inits = Counter(), [(cls, cls.__init__) for cls in classes]
    for cls, init in inits:
        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        cls.__init__ = counted
    try:
        yield counts
    finally:
        for cls, init in inits:
            cls.__init__ = init


def _least_time(call) -> tuple[float, object]:
    """The least time of ``REPEATS`` calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
    return min(times), out


def kj_number_stages(name: str) -> dict:
    """One closed-movie row, measured in this process."""
    from kj.corpus import load_movie
    from kj.homology import FieldHomology
    from kj.movie import kj_number

    movie = load_movie(name)
    with _counted(FieldHomology) as counts:
        seconds, n = _least_time(lambda: kj_number(movie))
    return {"kj_number_s": seconds, "n": n,
            "field_builds": counts["FieldHomology"] // REPEATS}


def verify_stages(seed: int) -> dict:
    """The verify row, measured in this process."""
    from kj.cube import ChainComplex
    from kj.homology import FieldHomology
    from kj.verify import run_suite

    with _counted(ChainComplex, FieldHomology) as counts:
        seconds, reports = _least_time(lambda: run_suite("all", seed))
    return {"run_suite_s": seconds, "checks": len(reports),
            "complex_builds": counts["ChainComplex"] // REPEATS,
            "field_builds": counts["FieldHomology"] // REPEATS}


ROWS = {"trace": trace_stages, "stages": stages, "chain-maps": chain_map_stages,
        "kj-number": kj_number_stages, "verify": verify_stages}


def _run_row(kind: str, *args) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--row", kind, *map(json.dumps, args)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--row"]:  # one row, in a subprocess of the tables below
        sys.path.insert(0, str(SRC))
        print(json.dumps(ROWS[argv[1]](*map(json.loads, argv[2:]))))
        return 0
    print(f"| workload | trace, least of {REPEATS} | `ChainComplex` | `validate` | `homology()` "
          "| then write d | entries of d | RSS | cube edges | edge keys | squares summed "
          "| codes summed |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|")
    for n in map(int, argv or ["9", "11"]):
        trace_s = _run_row("trace", n)["trace_s"]
        for theory, t, ring in THEORIES:
            r = _run_row("stages", n, t, ring)
            print(
                f"| T(2,{n}) {theory} over {ring} ({r['generators']:,} gens) "
                f"| {trace_s * 1000:.1f} ms | {r['complex_s']:.3f} s | {r['validate_s']:.3f} s "
                f"| {r['homology_s']:.3f} s | {r['write_s']:.3f} s | {r['entries']:,} "
                f"| {r['rss_before_mib']:.0f} → {r['rss_built_mib']:.0f} → "
                f"{r['rss_homology_mib']:.0f} → {r['rss_end_mib']:.0f} MiB "
                f"| {r['cube_edges']:,} | {r['edge_keys']:,} "
                f"| {r['squares_summed']:,} | {r['codes_summed']:,} |",
                flush=True,
            )
    print()
    print(f"| movie | chain maps, built and verified, least of {REPEATS} | stored entries | RSS |")
    print("|---|---|---|---|")
    for t in (0, 1):
        r = _run_row("chain-maps", MOVIE, t)
        print(
            f"| {MOVIE} at t = {t} over Q ({r['maps']} maps) | {r['maps_s'] * 1000:.2f} ms "
            f"| {r['entries']:,} | {r['rss_before_mib']:.0f} → {r['rss_end_mib']:.0f} MiB |",
            flush=True,
        )
    print()
    print(f"| closed movie | `kj_number`, least of {REPEATS} | n | `FieldHomology` builds |")
    print("|---|---|---|---|")
    for name in CLOSED_MOVIES:
        r = _run_row("kj-number", name)
        print(f"| {name} | {r['kj_number_s'] * 1000:.2f} ms | {r['n']} | {r['field_builds']} |",
              flush=True)
    print()
    print(f"| verify run | `run_suite`, least of {REPEATS} | checks "
          "| `ChainComplex` builds | `FieldHomology` builds |")
    print("|---|---|---|---|---|")
    r = _run_row("verify", VERIFY_SEED)
    print(f"| all, seed {VERIFY_SEED} | {r['run_suite_s'] * 1000:.1f} ms | {r['checks']} "
          f"| {r['complex_builds']} | {r['field_builds']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print the stage table of ROADMAP.md's Baseline: for T(2,n), the time of
``ChainComplex(...)``, of ``validate()`` and of ``homology()``, the entries
of d, and the peak RSS before the build, after it and at the end, under
Khovanov homology over Z and Lee homology over Q. Then, for the
``torus-noise`` movie at t = 0 and 1 over Q, the least time of 7 repeats to
build and verify its elementary chain maps (Morse, R1 and R2, a removal's
by its forward map) on frames built beforehand, their stored entries, and
the peak RSS before and after. Last, for each bundled closed movie, the
least time of 7 calls of ``kj_number`` and the ``FieldHomology`` builds of
one call. Each row runs in a fresh subprocess, so that its RSS is its own.
Standard library only.

    python3 tools/cube_stages.py [n ...]    (default: 9 11)
"""

from __future__ import annotations

import importlib.util
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THEORIES = (("Kh", 0, "Z"), ("Lee", 1, "Q"))
MOVIE = "torus-noise"
CLOSED_MOVIES = ("sphere", "torus", "genus2", "torus-noise")  # the bundled movies
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
    homology(c)
    row["homology_s"] = time.perf_counter() - start
    row["generators"] = sum(c.dim(i) for i in c.degrees())
    row["entries"] = len(c.values)  # from the arrays: the SparseMatrix view would add to the RSS
    row["rss_end_mib"] = _rss_mib()
    return row


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


def kj_number_stages(name: str) -> dict:
    """One closed-movie row, measured in this process."""
    from kj.corpus import load_movie
    from kj.homology import FieldHomology
    from kj.movie import kj_number

    movie = load_movie(name)
    builds, init = [], FieldHomology.__init__

    def counted(self, *args, **kwargs):
        builds.append(None)
        init(self, *args, **kwargs)

    FieldHomology.__init__ = counted
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            n = kj_number(movie)
            times.append(time.perf_counter() - start)
    finally:
        FieldHomology.__init__ = init
    return {"kj_number_s": min(times), "n": n, "field_builds": len(builds) // REPEATS}


def _run_row(*args) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--row", *map(str, args)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--row"]:  # one row, in a subprocess of the tables below
        sys.path.insert(0, str(SRC))
        if len(argv) == 2:
            print(json.dumps(kj_number_stages(argv[1])))
        elif len(argv) == 3:
            print(json.dumps(chain_map_stages(argv[1], int(argv[2]))))
        else:
            print(json.dumps(stages(int(argv[1]), int(argv[2]), argv[3])))
        return 0
    print("| workload | `ChainComplex` | `validate` | `homology()` | entries of d | RSS |")
    print("|---|---|---|---|---|---|")
    for n in map(int, argv or ["9", "11"]):
        for theory, t, ring in THEORIES:
            r = _run_row(n, t, ring)
            print(
                f"| T(2,{n}) {theory} over {ring} ({r['generators']:,} gens) "
                f"| {r['complex_s']:.3f} s | {r['validate_s']:.3f} s "
                f"| {r['homology_s']:.3f} s | {r['entries']:,} "
                f"| {r['rss_before_mib']:.0f} → {r['rss_built_mib']:.0f} → "
                f"{r['rss_end_mib']:.0f} MiB |",
                flush=True,
            )
    print()
    print(f"| movie | chain maps, built and verified, least of {REPEATS} | stored entries | RSS |")
    print("|---|---|---|---|")
    for t in (0, 1):
        r = _run_row(MOVIE, t)
        print(
            f"| {MOVIE} at t = {t} over Q ({r['maps']} maps) | {r['maps_s'] * 1000:.2f} ms "
            f"| {r['entries']:,} | {r['rss_before_mib']:.0f} → {r['rss_end_mib']:.0f} MiB |",
            flush=True,
        )
    print()
    print(f"| closed movie | `kj_number`, least of {REPEATS} | n | `FieldHomology` builds |")
    print("|---|---|---|---|")
    for name in CLOSED_MOVIES:
        r = _run_row(name)
        print(f"| {name} | {r['kj_number_s'] * 1000:.2f} ms | {r['n']} | {r['field_builds']} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print one sha256 per named kj invocation, over its exit code, stdout and
stderr, and a last line ``all`` over every line before it, so that two
checkouts give the same answers exactly when their lines agree.

    PYTHONPATH=src python3 tools/answers_digest.py [prefix ...]

The invocations, each in text and in JSON: ``kj homology`` on the corpus
and T(2,3), ..., T(2,11) under Khovanov homology over Z and Q and Lee
homology over Q and F_5; ``kj jones`` and ``kj generators`` on the same
diagrams; ``kj verify all --seed s`` for s = 0..9 and ``kj verify
proposition --seed s`` for s = 10..29; ``kj movie`` under both
theories on the bundled movies, the movies of ``tests/golden``, the open
movies ``composite s-k`` (``verify._random_composite_movies(s)`` for
s = 0..29, each with one ``random_cancelling_insertion`` from
``random.Random(s)``), ``slide k`` (``tests/diagrams.slide_sweep()``) and
``removal-first`` (``tests/diagrams.REMOVAL_FIRST_MOVIE``); and, named
``error <kind> ...``, one or more invocations that end in each documented
error exit: a missing file (1), a bad ring (2), a bad command-line argument
(2), a death on an edge that is not a free loop (4) and T(2,13) (5). T(2,n)
is ``tests/diagrams.torus_pd(n)``. Given prefixes, only the
invocations whose names start with one of them run. Every invocation runs
in this process, through ``kj.cli.main``. Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
THEORIES = (("kh", "Z"), ("kh", "Q"), ("lee", "Q"), ("lee", "Fp:5"))


def suite_diagrams():
    """The test suite's ``tests/diagrams.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("diagrams", ROOT / "tests" / "diagrams.py")
    diagrams = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diagrams)
    return diagrams


def open_movies(workdir: Path) -> dict[str, str]:
    """Name -> path of the open movies written into ``workdir``."""
    from kj.verify import _random_composite_movies, random_cancelling_insertion

    diagrams = suite_diagrams()
    movies = {}
    for s in range(30):
        rng = random.Random(s)
        for k, movie in enumerate(_random_composite_movies(s)):
            movies[f"composite {s}-{k}"] = random_cancelling_insertion(movie, rng).to_json()
    for k, movie in enumerate(diagrams.slide_sweep()):
        movies[f"slide {k}"] = movie.to_json()
    movies["removal-first"] = diagrams.REMOVAL_FIRST_MOVIE
    out = {}
    for name, movie in movies.items():
        path = workdir / (name.replace(" ", "-") + ".movie")
        path.write_text(json.dumps(movie))
        out[name] = str(path)
    return out


def invocations(workdir: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every invocation, T(2,n) and the open movies written
    into ``workdir``."""
    from kj.corpus import DIAGRAMS, MOVIES

    torus_pd = suite_diagrams().torus_pd
    diagrams = {name: name for name in DIAGRAMS}
    for n in (3, 5, 7, 9, 11):
        path = workdir / f"T2_{n}.pd"
        path.write_text(torus_pd(n) + "\n")
        diagrams[f"T2_{n}"] = str(path)
    movies = {name: f"{name}.movie" for name in MOVIES}
    movies.update((p.stem, str(p)) for p in sorted(GOLDEN.glob("*.movie")))
    movies.update(open_movies(workdir))
    out = []
    for name, source in diagrams.items():
        for theory, ring in THEORIES:
            out.append((f"homology {name} {theory} {ring}",
                        ["homology", source, "--theory", theory, "--ring", ring]))
        out += [(f"{command} {name}", [command, source]) for command in ("jones", "generators")]
    out += [(f"verify all {s}", ["verify", "all", "--seed", str(s)]) for s in range(10)]
    out += [(f"verify proposition {s}", ["verify", "proposition", "--seed", str(s)])
            for s in range(10, 30)]
    for name, source in movies.items():
        out += [(f"movie {name} {theory}", ["movie", source, "--theory", theory])
                for theory in ("kh", "lee")]
    too_large = workdir / "T2_13.pd"
    too_large.write_text(torus_pd(13) + "\n")
    death = workdir / "death-on-a-crossing-edge.movie"
    death.write_text(json.dumps({"initial": DIAGRAMS["trefoil"],
                                 "moves": [{"type": "death", "edge": 1}]}))
    out += [
        ("error parse homology no-such.pd", ["homology", "no-such.pd"]),
        ("error validation homology trefoil Fp:4", ["homology", "trefoil", "--ring", "Fp:4"]),
        ("error validation homology trefoil lee Z",
         ["homology", "trefoil", "--theory", "lee", "--ring", "Z"]),
        ("error move death on a crossing edge", ["movie", str(death)]),
        ("error too-large homology T2_13", ["homology", str(too_large)]),
        ("error usage frobnicate", ["frobnicate"]),
        ("error usage verify bogus", ["verify", "bogus"]),
        ("error usage homology", ["homology"]),
    ]
    return [(f"{name} {fmt}", ["--format", fmt, *argv])
            for name, argv in out for fmt in ("text", "json")]


def digest(argv: list[str]) -> str:
    """sha256 of one in-process run: its exit code, stdout and stderr."""
    from kj.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a kj whose argparse exits on a bad argument
            code = exc.code
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def main(prefixes: list[str]) -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in invocations(Path(tmp)):
            if not prefixes or name.startswith(tuple(prefixes)):
                lines.append(f"{name}  {digest(argv)}")
                print(lines[-1], flush=True)
    print(f"all  {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count kj's two known defects: the failing checks of the proposition suite,
and the slides whose movie maps raise.

Usage, from the root of a kj checkout:

    PYTHONPATH=src:tests python3 tools/known_defects.py

It prints every failing check of ``verify.proposition_suite(s)`` for
s = 0..29, then every movie of ``tests/diagrams.slide_sweep()`` on which
``MovieMaps`` raises, at t = 0 and at t = 1, with the error. Each part ends
in a count line and its time in seconds.
"""

import time

from kj.errors import InternalInvariantError
from kj.movie import MovieMaps
from kj.verify import proposition_suite
from diagrams import slide_sweep

SEEDS = range(30)


def proposition_failures(seed: int) -> tuple[list[str], int]:
    """The names of the failing checks of ``proposition_suite(seed)``, and
    how many checks it made."""
    reports = proposition_suite(seed)
    return [r.name for r in reports if not r.ok], len(reports)


def slide_failures(movies, t: int) -> list[tuple[int, str]]:
    """(index, error) of each movie whose ``MovieMaps`` at ``t`` raises."""
    out = []
    for k, movie in enumerate(movies):
        try:
            MovieMaps(movie, t=t)
        except InternalInvariantError as exc:
            out.append((k, str(exc)))
    return out


def main() -> int:
    start = time.perf_counter()
    failed = checks = failing_seeds = 0
    for s in SEEDS:
        names, count = proposition_failures(s)
        checks += count
        failed += len(names)
        failing_seeds += bool(names)
        for name in names:
            print(f"proposition seed {s}: {name}")
    print(f"proposition: {failed} of {checks} checks fail, on {failing_seeds} seeds "
          f"({time.perf_counter() - start:.1f} s)")
    movies = slide_sweep()
    for t in (0, 1):
        start = time.perf_counter()
        failures = slide_failures(movies, t)
        for k, error in failures:
            print(f"slide {k} t={t}: {error}")
        print(f"slide t={t}: {len(failures)} of {len(movies)} movies raise "
              f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

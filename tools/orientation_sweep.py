"""Digest of the surface and orientation answers over a fixed sweep of movies.

Usage, from the root of a kj checkout:

    PYTHONPATH=src:tests python3 tools/orientation_sweep.py

The sweep is 494 movies: ``verify._elementary_morse_instances()``,
``verify._random_composite_movies(s)`` for s = 0..29, the four bundled movies
with ten ``random_cancelling_insertion``s of each from ``random.Random(5)``,
and ``tests/diagrams.slide_sweep()``. For each movie it records
``surface_components``, ``has_closed_component``, ``is_connected_surface``,
``movie_convention_flips``, ``compatible_orientations`` for every orientation
of the first frame and ``propagate_orientation`` for every move and every
orientation of the frame before it, an exception as its ``repr``. It prints
the number of movies, the number of values and the sha256 of their JSON.
"""

import hashlib
import json
import random

from kj.corpus import MOVIES, load_movie
from kj.diagram import all_orientations
from kj.movie import compatible_orientations, movie_convention_flips, propagate_orientation
from kj.verify import (
    _elementary_morse_instances,
    _random_composite_movies,
    random_cancelling_insertion,
)
from diagrams import slide_sweep


def sweep_movies():
    movies = [mv for _, mv, _ in _elementary_morse_instances()]
    for s in range(30):
        movies += _random_composite_movies(s)
    rng = random.Random(5)
    for name in MOVIES:
        base = load_movie(name)
        movies.append(base)
        movies += [random_cancelling_insertion(base, rng) for _ in range(10)]
    return movies + slide_sweep()


def answer(f):
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - an exception is an answer too
        return repr(exc)


def movie_values(mv):
    out = [
        answer(lambda: sorted(sorted(c) for c in mv.surface_components())),
        answer(mv.has_closed_component),
        answer(mv.is_connected_surface),
        answer(lambda: movie_convention_flips(mv)),
    ]
    out += [
        answer(lambda: sorted(compatible_orientations(mv, o)))
        for o in all_orientations(mv.frames[0])
    ]
    for k, (d1, d2, rec) in enumerate(zip(mv.frames, mv.frames[1:], mv.records)):
        out += [
            answer(lambda: propagate_orientation(d1, d2, rec, mv.links[k], o))
            for o in all_orientations(d1)
        ]
    return out


def main():
    movies = sweep_movies()
    values = [v for mv in movies for v in movie_values(mv)]
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    print(len(movies), len(values), digest)


if __name__ == "__main__":
    main()

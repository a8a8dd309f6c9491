"""Bundled diagrams and movies, so every verification runs offline.

The movie files live in ``kj/data`` in the JSON format accepted by the
``kj movie`` command; the diagrams, here as PD text, double as the test
corpus.
"""

from __future__ import annotations

from importlib import resources

from .movie import Movie

__all__ = ["DIAGRAMS", "MOVIES", "load_movie", "bundled_path"]

DIAGRAMS = {
    "unknot": "PD[O]",
    "unlink2": "PD[O, O]",
    "curl": "PD[X(1,1,2,2)]",
    "trefoil": "PD[X(1,5,2,4), X(3,1,4,6), X(5,3,6,2)]",
    "mirror-trefoil": "PD[X(1,4,2,5), X(3,6,4,1), X(5,2,6,3)]",
    "hopf": "PD[X(1,3,2,4), X(3,1,4,2)]",
    "fig8": "PD[X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)]",
    "cinquefoil": "PD[X(2,8,3,7), X(4,10,5,9), X(6,2,7,1), X(8,4,9,3), X(10,6,1,5)]",
    "r3-unknot": "PD[X(5,3,1,4), X(2,3,5,6), X(1,2,6,4)]",
}

MOVIES = ("sphere", "torus", "genus2", "torus-noise")


def bundled_path(name: str):
    """The bundled movie ``name``, with or without ``.movie``, or None."""
    ref = resources.files("kj.data").joinpath(name.removesuffix(".movie") + ".movie")
    return ref if ref.is_file() else None


def load_movie(name: str) -> Movie:
    ref = bundled_path(name)
    if ref is None:
        raise FileNotFoundError(f"no bundled movie named {name!r}")
    return Movie.from_json(ref.read_text())

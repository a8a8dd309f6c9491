"""Exact computation of Khovanov and Lee homology of link diagrams, the
maps induced by surface cobordisms presented as movies, and the
Khovanov-Jacobsson numbers of closed surfaces."""

from .canonical import CanonicalGenerator, canonical_chain, lee_generator, verify_basis
from .cube import (
    ChainComplex,
    build_complex,
    filtration_level,
    graded_euler_characteristic,
    kauffman_bracket,
)
from .diagram import (
    PlanarDiagram,
    crossing_sign,
    oriented_resolution,
    parse_pd,
    render_pd,
    resolve,
    writhe,
)
from .homology import FieldHomology, HomologySummary, homology, lee_total_rank
from .laurent import Laurent
from .movie import Movie, MovieMaps, compatible_orientations, kj_number
from .moves import Birth, Death, Move, R1Move, R2Move, R3Move, Saddle, apply_move
from .rings import GF, QQ, QSQRT2, QSqrt2, ZZ, half_power_of_two
from .sparse import SparseMatrix, kernel_basis, solve_in_image
from .verify import (
    leading_order_check,
    run_suite,
    verify_corollary,
    verify_proposition,
)

__all__ = [
    "PlanarDiagram",
    "parse_pd",
    "render_pd",
    "resolve",
    "writhe",
    "crossing_sign",
    "oriented_resolution",
    "ChainComplex",
    "build_complex",
    "filtration_level",
    "graded_euler_characteristic",
    "kauffman_bracket",
    "homology",
    "HomologySummary",
    "FieldHomology",
    "lee_total_rank",
    "CanonicalGenerator",
    "lee_generator",
    "canonical_chain",
    "verify_basis",
    "Movie",
    "MovieMaps",
    "kj_number",
    "compatible_orientations",
    "Birth",
    "Death",
    "Saddle",
    "R1Move",
    "R2Move",
    "R3Move",
    "Move",
    "apply_move",
    "verify_proposition",
    "verify_corollary",
    "leading_order_check",
    "run_suite",
    "SparseMatrix",
    "kernel_basis",
    "solve_in_image",
    "Laurent",
    "ZZ",
    "QQ",
    "QSQRT2",
    "QSqrt2",
    "GF",
    "half_power_of_two",
]

__version__ = "0.1.0"

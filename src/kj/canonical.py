"""Canonical cycles of the filtered theory, one per link orientation.

On the oriented resolution every circle receives one of the two idempotent-
like labels

    a = v- + v+,      b = v- - v+,

chosen by the color of the region to the circle's left when traversed with
its induced direction (left color 1 gives a). That is the diagram's own
checkerboard color (outer face of each piece 0) left of any of the circle's
edges along the orientation, ``diagram.edge_color``. Circles touching at a
crossing see the two sides of one smoothing arc, so they always receive
opposite labels and the chain is killed by every merge, making it a cycle.

The rescaled generator multiplies by 2^((w - k)/2), with w the writhe of the
orientation and k the circle count of the oriented resolution. Computations
stay over Q and carry the rescaling as the integer e = w - k (a power of
sqrt2); only ``rescaled_chain`` writes the factor out, over Q(sqrt2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cube import ChainComplex, V_MINUS, V_PLUS, build_complex
from .diagram import (
    PlanarDiagram,
    all_orientations,
    oriented_resolution,
    resolve,
    writhe,
)
from .errors import InternalInvariantError, PDValidationError
from .homology import FieldHomology
from .rings import QQ, QSQRT2, Ring, half_power_of_two
from .sparse import SparseMatrix, rank as matrix_rank, vec_add, vec_sub

__all__ = [
    "LABEL_A",
    "LABEL_B",
    "CanonicalGenerator",
    "lee_generator",
    "canonical_chain",
    "verify_basis",
    "mod4_types",
]

LABEL_A = "a"
LABEL_B = "b"

# expansion of the two labels in the (v+, v-) basis: label -> {v_label: coeff}
_EXPANSION = {
    LABEL_A: {V_MINUS: 1, V_PLUS: 1},
    LABEL_B: {V_MINUS: 1, V_PLUS: -1},
}


@dataclass
class CanonicalGenerator:
    """The canonical cycle of one orientation, with its rescaling data."""

    diagram: PlanarDiagram
    orientation: tuple[bool, ...]
    bits: tuple[int, ...]
    labels: tuple[str, ...]  # a/b per circle of the oriented resolution
    scale_exponent: Fraction  # (w - k)/2

    @property
    def twice_exponent(self) -> int:
        """e = w - k: the rescaled cycle is 2^(e/2) times the raw one."""
        return int(2 * self.scale_exponent)

    def chain(self, complex_: ChainComplex) -> dict:
        """The raw cycle as a chain of ``complex_`` (any ring, t = 1)."""
        ring = complex_.ring
        stack = [((), ring.one)]
        for lab in self.labels:
            stack = [
                (prefix + (vlab,), coeff * ring.from_int(c))
                for prefix, coeff in stack
                for vlab, c in _EXPANSION[lab].items()
            ]
        return {(self.bits, tup): coeff for tup, coeff in stack}

    def rescaled_chain(self, complex_: ChainComplex) -> dict:
        """The rescaled cycle; requires the Q(sqrt2) complex."""
        if complex_.ring is not QSQRT2:
            raise ValueError("rescaled generators are written out over Q(sqrt2)")
        factor = half_power_of_two(self.twice_exponent)
        return {g: factor * v for g, v in self.chain(complex_).items()}


def lee_generator(
    d: PlanarDiagram, orientation, flip_colors: bool = False
) -> CanonicalGenerator:
    """Construct the canonical cycle data for one orientation.

    ``flip_colors`` swaps the global checkerboard convention; it exchanges
    the two labels on every circle and exists for convention tests.
    """
    if d.is_empty():
        raise PDValidationError("the empty diagram has no circles to label")
    o = tuple(orientation)
    bits = oriented_resolution(d, o)
    res = resolve(d, bits)
    labels = []
    for i in range(res.circle_count):
        color = res.oriented_color(i, o)
        if flip_colors:
            color = 1 - color
        labels.append(LABEL_A if color == 1 else LABEL_B)
    k = res.circle_count
    w = writhe(d, o)
    return CanonicalGenerator(
        diagram=d,
        orientation=o,
        bits=bits,
        labels=tuple(labels),
        scale_exponent=Fraction(w - k, 2),
    )


def canonical_chain(complex_: ChainComplex, orientation, rescaled: bool = False) -> dict:
    """Chain of the canonical cycle in a t = 1 complex."""
    if complex_.t != 1:
        raise ValueError("canonical generators are cycles of the t = 1 complex")
    gen = lee_generator(complex_.diagram, orientation)
    return gen.rescaled_chain(complex_) if rescaled else gen.chain(complex_)


@dataclass
class BasisReport:
    diagram: PlanarDiagram
    ok: bool
    expected_rank: int
    homology_rank: int
    coordinates: SparseMatrix  # homology coordinates of each canonical class
    classes: list[tuple[int, dict]]  # per orientation: (degree, class coordinates)

    def to_json(self):
        return {
            "ok": self.ok,
            "expected_rank": self.expected_rank,
            "homology_rank": self.homology_rank,
            "matrix": self.coordinates.to_json(),
        }


def verify_basis(d: PlanarDiagram, ring: Ring | None = None) -> BasisReport:
    """Check that the canonical classes freely generate the t = 1 homology.

    Returns the change-of-basis matrix from canonical classes to the
    greedy homology basis (``FieldHomology.greedy_coordinates``), one column
    per orientation in the order of ``all_orientations``; a failure
    indicates a labeling-rule bug.
    """
    complex_ = build_complex(d, 1, ring or QQ)
    fh = FieldHomology(complex_)
    orientations = all_orientations(d)
    expected = len(orientations)
    classes: list[tuple[int, dict]] = []
    for o in orientations:
        chain = canonical_chain(complex_, o)
        if complex_.apply_differential(chain):
            raise InternalInvariantError(
                f"canonical chain of {o} is not a cycle"
            )
        i, coords = fh.reduce_chain(chain)
        classes.append((i, fh.greedy_coordinates(i, coords)))
    rank = fh.total_rank()
    # full-rank check: the classes must be independent and span
    m, _ = fh.class_matrix(classes)
    ok = expected == rank and matrix_rank(m) == expected
    return BasisReport(d, ok, expected, rank, m, classes)


def mod4_types(d: PlanarDiagram) -> tuple[int, int]:
    """q residues mod 4 of (sbar_o + sbar_o') and (sbar_o - sbar_o') for a knot.

    Both combinations must be homogeneous mod 4 and their residues differ
    by 2; raises otherwise. The two orientations share their rescaling, so
    the raw cycles give the same supports.
    """
    if d.component_count != 1:
        raise PDValidationError("mod-4 types are stated for knots")
    complex_ = build_complex(d, 1, QQ)
    o, oprime = lee_generator(d, (True,)), lee_generator(d, (False,))
    if o.twice_exponent != oprime.twice_exponent:
        raise InternalInvariantError("the knot's two orientations rescale differently")
    s, sprime = o.chain(complex_), oprime.chain(complex_)
    plus = vec_add(QQ, s, sprime)
    minus = vec_sub(QQ, s, sprime)
    out = []
    for chain in (plus, minus):
        residues = {complex_.q_of(g) % 4 for g in chain}
        if len(residues) != 1:
            raise InternalInvariantError(
                "canonical combination is not homogeneous mod 4"
            )
        out.append(residues.pop())
    if (out[0] - out[1]) % 4 != 2:
        raise InternalInvariantError("mod-4 residues do not differ by 2")
    return out[0], out[1]


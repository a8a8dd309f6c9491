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
Expanding the labels, the cycle's entry at a labeling is -1 to the number of
b circles labelled v+; ``CanonicalGenerator.vector`` writes it so, at the
oriented resolution's place in a complex, and the other readers take it
from there.

The rescaled generator multiplies by 2^((w - k)/2), with w the writhe of the
orientation and k the circle count of the oriented resolution. w is read off
the oriented resolution, whose 1-smoothed crossings are the negative ones.
Computations stay over Q and carry the rescaling as the integer e = w - k (a
power of sqrt2); only ``rescaled_chain`` writes the factor out, over
Q(sqrt2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cube import ChainComplex, V_PLUS, build_complex
from .diagram import PlanarDiagram, all_orientations, oriented_resolution, resolve
from .errors import InternalInvariantError, PDValidationError
from .homology import FieldHomology
from .rings import QQ, QSQRT2, half_power_of_two
from .sparse import _Echelon, vec_add, vec_sub

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

    def vector(self, complex_: ChainComplex) -> tuple[int, dict]:
        """The raw cycle as (degree, vector) of ``complex_`` (any ring,
        t = 1): on the oriented resolution, the entry at each label code is
        -1 to the number of b circles labelled v+ (a clear bit of the code)."""
        k = len(self.labels)
        i, offset = complex_.index[self.bits, (V_PLUS,) * k]
        b = sum(1 << k - 1 - j for j, lab in enumerate(self.labels) if lab == LABEL_B)
        signs = complex_.ring.one, complex_.ring.from_int(-1)
        return i, {offset + code: signs[(b & ~code).bit_count() & 1] for code in range(1 << k)}

    def chain(self, complex_: ChainComplex) -> dict:
        """The raw cycle as a chain of ``complex_`` (any ring, t = 1)."""
        return complex_.vec_to_chain(*self.vector(complex_))

    def rescaled_chain(self, complex_: ChainComplex) -> dict:
        """The rescaled cycle; requires the Q(sqrt2) complex."""
        if complex_.ring is not QSQRT2:
            raise ValueError("rescaled generators are written out over Q(sqrt2)")
        factor = half_power_of_two(self.twice_exponent)
        return {g: factor * v for g, v in self.chain(complex_).items()}


def lee_generator(d: PlanarDiagram, orientation) -> CanonicalGenerator:
    """Construct the canonical cycle data for one orientation."""
    if d.is_empty():
        raise PDValidationError("the empty diagram has no circles to label")
    o = tuple(orientation)
    bits = oriented_resolution(d, o)
    res = resolve(d, bits)
    k = res.circle_count
    labels = tuple(LABEL_A if res.oriented_color(c, o) == 1 else LABEL_B for c in range(k))
    w = len(bits) - 2 * sum(bits)  # the 1-smoothed crossings are the negative ones
    return CanonicalGenerator(d, o, bits, labels, Fraction(w - k, 2))


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
    generators: list[CanonicalGenerator]  # one per orientation
    classes: list[tuple[int, dict]]  # per orientation: (degree, class coordinates)


def verify_basis(d: PlanarDiagram) -> BasisReport:
    """Check that the canonical classes freely generate the t = 1 homology
    over Q.

    Reports each orientation's generator and the coordinates of its class
    on the greedy homology basis (``FieldHomology.greedy_coordinates``), in
    the order of ``all_orientations``; a failure indicates a labeling-rule
    bug. ``FieldHomology.reduce`` raises on a canonical vector that is not
    a cycle.
    """
    complex_ = build_complex(d, 1, QQ)
    fh = FieldHomology(complex_)
    generators = [lee_generator(d, o) for o in all_orientations(d)]
    classes: list[tuple[int, dict]] = []
    for gen in generators:
        i, vec = gen.vector(complex_)
        classes.append((i, fh.greedy_coordinates(i, fh.reduce(i, vec))))
    expected, rank = len(generators), fh.total_rank()
    # full-rank check: the classes must be independent and span
    ok = expected == rank and len(_canonical_span(QQ, classes).pivots) == expected
    return BasisReport(d, ok, expected, rank, generators, classes)


def _canonical_span(ring, vectors):
    """``vectors``, each (degree, vector), as an echelon form keyed by
    (degree, position) and labelled by position in ``vectors``; it has one
    pivot per vector when they are independent, and then the coefficients it
    solves for do not depend on the order of its pivots."""
    ech = _Echelon(ring)
    for j, (i, vec) in enumerate(vectors):
        ech.insert({(i, p): v for p, v in vec.items()}, label=j)
    return ech


def mod4_types(d: PlanarDiagram) -> tuple[int, int]:
    """q residues mod 4 of (sbar_o + sbar_o') and (sbar_o - sbar_o') for a knot.

    Both combinations must be homogeneous mod 4 and their residues differ
    by 2; raises otherwise. The two orientations share their rescaling, so
    the raw cycles give the same supports, and their oriented resolution,
    so the cycles sit in one degree.
    """
    if d.component_count != 1:
        raise PDValidationError("mod-4 types are stated for knots")
    complex_ = build_complex(d, 1, QQ)
    o, oprime = lee_generator(d, (True,)), lee_generator(d, (False,))
    if o.twice_exponent != oprime.twice_exponent:
        raise InternalInvariantError("the knot's two orientations rescale differently")
    (i, s), (_, sprime) = o.vector(complex_), oprime.vector(complex_)
    out = []
    for vec in (vec_add(QQ, s, sprime), vec_sub(QQ, s, sprime)):
        residues = {complex_.qs[i][p] % 4 for p in vec}
        if len(residues) != 1:
            raise InternalInvariantError(
                "canonical combination is not homogeneous mod 4"
            )
        out.append(residues.pop())
    if (out[0] - out[1]) % 4 != 2:
        raise InternalInvariantError("mod-4 residues do not differ by 2")
    return out[0], out[1]

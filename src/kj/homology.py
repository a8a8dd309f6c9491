"""Homology of the graded complexes: ranks, torsion, and basis cycles.

Over a field the module produces explicit representative cycles per degree
(and per q when the differential is graded), plus a reduction routine that
expresses any cycle in the homology basis with an exactness certificate.
Over the integers it reports free ranks and torsion via Smith normal form,
with torsion attributed to the q of its target block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cube import ChainComplex, Gen
from .errors import InternalInvariantError
from .rings import Ring, ZZ
from .snf import snf_diagonal
from .sparse import (
    SparseMatrix,
    _Echelon,
    kernel_basis,
    rank as matrix_rank,
)

__all__ = ["HomologySummary", "homology", "FieldHomology", "lee_total_rank"]


@dataclass
class HomologySummary:
    """Free ranks (and torsion over Z) keyed by (i, q); Lee keyed by (i, None)."""

    ring_name: str
    t: int
    groups: dict = field(default_factory=dict)  # (i, q) -> (rank, [torsion])

    def rank(self, i, q=None) -> int:
        return self.groups.get((i, q), (0, []))[0]

    def torsion(self, i, q=None) -> list[int]:
        return list(self.groups.get((i, q), (0, []))[1])

    def total_rank(self) -> int:
        return sum(r for r, _ in self.groups.values())

    def nonzero(self):
        return {k: v for k, v in self.groups.items() if v[0] or v[1]}

    def to_json(self):
        items = []
        for (i, q), (rank, tors) in sorted(
            self.groups.items(), key=lambda kv: (kv[0][0], kv[0][1] if kv[0][1] is not None else 0)
        ):
            if rank == 0 and not tors:
                continue
            entry = {"i": i, "rank": rank, "torsion": tors}
            if q is not None:
                entry["q"] = q
            items.append(entry)
        return {"ring": self.ring_name, "t": self.t, "groups": items}

    def to_text(self) -> str:
        lines = []
        header = f"homology over {self.ring_name} (t = {self.t})"
        lines.append(header)
        for (i, q), (rank, tors) in sorted(
            self.groups.items(), key=lambda kv: (kv[0][0], kv[0][1] if kv[0][1] is not None else 0)
        ):
            if rank == 0 and not tors:
                continue
            qtxt = "" if q is None else f", q = {q:>3}"
            ttxt = "" if not tors else "  torsion " + " ".join(
                f"Z/{n}" for n in tors
            )
            lines.append(f"  i = {i:>3}{qtxt}: rank {rank}{ttxt}")
        if len(lines) == 1:
            lines.append("  trivial")
        return "\n".join(lines)


def _blocks_by_q(complex_: ChainComplex, i: int) -> dict[int, list[int]]:
    """Positions of degree-i basis elements grouped by q."""
    out: dict[int, list[int]] = {}
    for pos, g in enumerate(complex_.bases[i]):
        out.setdefault(complex_.q_of(g), []).append(pos)
    return out


def _restrict(m: SparseMatrix, rows: list[int], cols: list[int]) -> SparseMatrix:
    rmap = {r: i for i, r in enumerate(rows)}
    cmap = {c: i for i, c in enumerate(cols)}
    out = SparseMatrix(len(rows), len(cols), m.ring)
    for (r, c), v in m.data.items():
        if r in rmap and c in cmap:
            out.set(rmap[r], cmap[c], v)
    return out


def homology(complex_: ChainComplex, ring: Ring | None = None) -> HomologySummary:
    """Free ranks per (i, q) for the graded theory, per i for the filtered
    one; torsion only over the integers."""
    ring = ring or complex_.ring
    if ring.name != complex_.ring.name:
        raise ValueError("homology ring must match the complex ring")
    summary = HomologySummary(ring.name, complex_.t)
    graded = complex_.t == 0
    degrees = complex_.degrees()
    for i in degrees:
        d_out = complex_.diff[i]
        d_in = complex_.diff.get(i - 1)
        if graded:
            for q, cols in sorted(_blocks_by_q(complex_, i).items()):
                rows_out = (
                    [p for p, g in enumerate(complex_.bases[i + 1]) if complex_.q_of(g) == q]
                    if i + 1 in complex_.bases
                    else []
                )
                block_out = _restrict(d_out, rows_out, cols)
                if d_in is not None and i - 1 in complex_.bases:
                    cols_in = [
                        p
                        for p, g in enumerate(complex_.bases[i - 1])
                        if complex_.q_of(g) == q
                    ]
                    block_in = _restrict(d_in, cols, cols_in)
                else:
                    block_in = SparseMatrix(len(cols), 0, complex_.ring)
                rank_free, tors = _group_of_block(block_out, block_in, ring)
                if rank_free or tors:
                    summary.groups[(i, q)] = (rank_free, tors)
        else:
            if d_in is None:
                d_in = SparseMatrix(complex_.dim(i), 0, complex_.ring)
            rank_free, tors = _group_of_block(d_out, d_in, ring)
            if rank_free or tors:
                summary.groups[(i, None)] = (rank_free, tors)
    return summary


def _group_of_block(d_out: SparseMatrix, d_in: SparseMatrix, ring: Ring):
    """(free rank, torsion) of ker(d_out)/im(d_in) for one block."""
    if ring is ZZ:
        diag_out = snf_diagonal(d_out)
        diag_in = snf_diagonal(d_in)
        rank_out = len(diag_out)
        rank_in = len(diag_in)
        free = d_out.cols - rank_out - rank_in
        tors = [abs(x) for x in diag_in if abs(x) > 1]
        return free, sorted(tors)
    free = d_out.cols - matrix_rank(d_out) - matrix_rank(d_in)
    return free, []


def lee_total_rank(complex_: ChainComplex) -> int:
    """Total rank of the filtered theory's homology over the complex's field."""
    if complex_.t != 1:
        raise ValueError("lee_total_rank expects a t = 1 complex")
    return homology(complex_).total_rank()


class FieldHomology:
    """Explicit homology bases with representative cycles, over a field.

    For every homological degree i this stores an echelon of im(d_{i-1})
    extended by representative cycles to ker(d_i); ``reduce`` writes any
    cycle as (coordinates on the representatives) + exact part.
    """

    def __init__(self, complex_: ChainComplex):
        if not complex_.ring.is_field:
            raise ValueError("FieldHomology requires field coefficients")
        self.complex = complex_
        self.ring = complex_.ring
        self.reps: dict[int, list[dict]] = {}
        # per degree: the echelon, and insertion index -> representative position
        self._echelons: dict[int, tuple[_Echelon, dict[int, int]]] = {}
        for i in complex_.degrees():
            ech = _Echelon(self.ring, complex_.dim(i))
            if i - 1 in complex_.bases:
                for col in complex_.diff[i - 1].columns():
                    ech.insert(col)
            reps: list[dict] = []
            position: dict[int, int] = {}
            for vec in kernel_basis(complex_.diff[i]):
                if ech.insert(vec) is None:
                    position[ech.ncols - 1] = len(reps)
                    reps.append(vec)
            self.reps[i] = reps
            self._echelons[i] = (ech, position)

    def rank(self, i: int) -> int:
        return len(self.reps.get(i, ()))

    def total_rank(self) -> int:
        return sum(len(r) for r in self.reps.values())

    def basis_chains(self, i: int) -> list[dict]:
        """Representative cycles as chains (Gen -> scalar)."""
        return [self.complex.vec_to_chain(i, v) for v in self.reps.get(i, [])]

    def reduce(self, i: int, vec: dict) -> dict:
        """Coordinates of a cycle's class on the degree-i representatives.

        Raises if the vector is not a cycle or not in the cycle space.
        """
        ech, position = self._echelons[i]
        sol = ech.membership(vec)
        if sol is None:
            raise InternalInvariantError("vector is not a cycle of the complex")
        return {position[j]: v for j, v in sol.items() if j in position}

    def reduce_chain(self, chain: dict) -> tuple[int, dict]:
        if not chain:
            raise ValueError("cannot locate the degree of the zero chain")
        i, vec = self.complex.chain_to_vec(chain)
        return i, self.reduce(i, vec)

    def class_of(self, chain: dict) -> dict:
        """Coordinates of a chain's homology class (zero chain -> {})."""
        if not chain:
            return {}
        _, coords = self.reduce_chain(chain)
        return coords

    def is_exact(self, chain: dict) -> bool:
        return not self.class_of(chain)

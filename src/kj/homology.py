"""Homology of the graded complexes: ranks, torsion, and basis cycles.

``homology`` reports free ranks, and torsion over the integers, per (i, q)
for the graded theory and per i for the filtered one. It splits the
complex into direct-summand blocks (q, or q mod 4 for the filtered
differential, which shifts q by 0 or 4), cancels unit entries of the
differential block by block (Gaussian elimination), and then takes the Smith
normal form over Z, or the rank over a field, of only what is left. Torsion
is attributed to the q of its target block.

``FieldHomology`` produces explicit representative cycles per degree over a
field, plus a reduction routine that writes any cycle's class in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cube import ChainComplex
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


def homology(complex_: ChainComplex) -> HomologySummary:
    """Free ranks per (i, q) for the graded theory, per i for the filtered
    one, over the complex's ring; torsion only over the integers."""
    ring = complex_.ring
    summary = HomologySummary(ring.name, complex_.t)
    graded = complex_.t == 0
    first = {}  # degree -> id of its first generator
    degree: list[int] = []  # generator id -> i
    labels: list[int] = []  # generator id -> q (t = 0) or q mod 4 (t = 1)
    for i in complex_.degrees():
        first[i] = len(labels)
        qs = complex_.qs[i]
        degree.extend([i] * len(qs))
        labels.extend(qs if graded else [q % 4 for q in qs])
    # (i, q) or (i, None) -> leftover generator ids, and their rows of d
    leftover: dict[tuple, list[int]] = {}
    rows: dict[int, dict] = {}
    for out, inn in _blocks(complex_, first, labels):
        _eliminate(out, inn, ring)
        for x, row in out.items():
            leftover.setdefault((degree[x], labels[x] if graded else None), []).append(x)
            rows[x] = row
    for (i, k), gens in leftover.items():
        d_out = _leftover_matrix(rows, gens, leftover.get((i + 1, k), []), ring)
        d_in = _leftover_matrix(rows, leftover.get((i - 1, k), []), gens, ring)
        rank_free, tors = _group_of_block(d_out, d_in, ring)
        if rank_free or tors:
            summary.groups[(i, k)] = (rank_free, tors)
    return summary


def _blocks(complex_: ChainComplex, first: dict[int, int], labels: list[int]):
    """The differential split into direct summands by generator label, one
    block at a time, as adjacency: source -> {target: coeff} and target ->
    {sources}. Every generator of the block is a key of both maps.

    Generators are numbered degree by degree from ``first``. The entries of
    d are sorted into blocks in one pass, and a block's maps are built only
    when its turn comes, so at most one block's adjacency is alive.
    """
    ids = list(range(len(labels)))  # one int object per generator, shared
    members: dict[int, list[int]] = {}
    for x in ids:
        members.setdefault(labels[x], []).append(x)
    entries: dict[int, dict[int, list]] = {b: {} for b in members}
    for i, m in complex_.diff.items():
        if i + 1 in first:
            src = first[i]
            for rc in m.data:
                entries[labels[src + rc[1]]].setdefault(i, []).append(rc)
    for b in sorted(members):
        out = {x: {} for x in members[b]}
        inn = {x: set() for x in members[b]}
        for i, keys in entries.pop(b).items():
            data = complex_.diff[i].data
            src, tgt = first[i], first[i + 1]
            for rc in keys:
                x, y = ids[src + rc[1]], ids[tgt + rc[0]]
                out[x][y] = data[rc]
                inn[y].add(x)
        yield out, inn


def _eliminate(out: dict, inn: dict, ring: Ring) -> None:
    """Cancel unit entries of a block's differential in place, until none is
    left (Bar-Natan's Gaussian elimination lemma, arXiv:math/0606318).

    Cancelling a unit u = d(x -> y) deletes x and y and adds
    -d(x' -> y) u^-1 d(x -> y') to every other entry x' -> y'; the complex
    that remains is homotopy equivalent to the one before. Units are +-1 over
    Z and every nonzero entry over a field. Among the units of a row, the
    target with the fewest incoming entries goes first, which keeps fill-in
    small.
    """
    field = ring.is_field
    one = ring.one
    cancelled = True
    while cancelled:
        cancelled = False
        for x in list(out):
            row = out.get(x)
            if not row:
                continue
            y = None
            for target, v in row.items():
                if (field or v == 1 or v == -1) and (
                    y is None or len(inn[target]) < len(inn[y])
                ):
                    y = target
            if y is None:
                continue
            cancelled = True
            u = row.pop(y)
            scale = -(one / u) if field else -u
            del out[x]
            for target in row:
                inn[target].discard(x)
            for w in inn.pop(x):
                del out[w][x]
            for z in out.pop(y):
                inn[z].discard(y)
            sources = inn.pop(y)
            sources.discard(x)
            for w in sources:
                wrow = out[w]
                a = wrow.pop(y) * scale
                for target, v in row.items():
                    s = wrow.get(target)
                    s = a * v if s is None else s + a * v
                    if s:
                        if target not in wrow:
                            inn[target].add(w)
                        wrow[target] = s
                    elif target in wrow:
                        del wrow[target]
                        inn[target].discard(w)


def _leftover_matrix(rows: dict, cols: list[int], targets: list[int], ring: Ring) -> SparseMatrix:
    """The leftover differential from ``cols`` to ``targets``."""
    index = {y: r for r, y in enumerate(targets)}
    m = SparseMatrix(len(targets), len(cols), ring)
    for c, x in enumerate(cols):
        for y, v in rows[x].items():
            m.set(index[y], c, v)
    return m


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
    extended by representative cycles to ker(d_i). Only the representatives
    are labelled (by their position), so ``reduce`` writes any cycle as
    coordinates on the representatives modulo boundaries.
    """

    def __init__(self, complex_: ChainComplex):
        if not complex_.ring.is_field:
            raise ValueError("FieldHomology requires field coefficients")
        self.complex = complex_
        self.ring = complex_.ring
        self.reps: dict[int, list[dict]] = {}
        self._echelons: dict[int, _Echelon] = {}
        for i in complex_.degrees():
            ech = _Echelon(self.ring)
            if i - 1 in complex_.bases:
                for col in complex_.diff[i - 1].columns():
                    ech.insert(col)
            reps: list[dict] = []
            for vec in kernel_basis(complex_.diff[i]):
                if ech.insert(vec, label=len(reps)) is None:
                    reps.append(vec)
            self.reps[i] = reps
            self._echelons[i] = ech

    def rank(self, i: int) -> int:
        return len(self.reps.get(i, ()))

    def total_rank(self) -> int:
        return sum(len(r) for r in self.reps.values())

    def reduce(self, i: int, vec: dict) -> dict:
        """Coordinates of a cycle's class on the degree-i representatives.

        Raises if the vector is not in the cycle space.
        """
        sol = self._echelons[i].membership(vec)
        if sol is None:
            raise InternalInvariantError("vector is not a cycle of the complex")
        return sol

    def reduce_chain(self, chain: dict) -> tuple[int, dict]:
        if not chain:
            raise ValueError("cannot locate the degree of the zero chain")
        i, vec = self.complex.chain_to_vec(chain)
        return i, self.reduce(i, vec)

    def class_matrix(self, classes: list[tuple[int, dict]]) -> tuple[SparseMatrix, dict[int, int]]:
        """Classes given as (degree, coordinates) as the columns of one matrix
        on the homology basis of all degrees, with each degree's first row."""
        offset: dict[int, int] = {}
        run = 0
        for i in sorted(self.reps):
            offset[i] = run
            run += self.rank(i)
        m = SparseMatrix(run, len(classes), self.ring)
        for j, (i, coords) in enumerate(classes):
            for k, v in coords.items():
                m.set(offset[i] + k, j, v)
        return m, offset

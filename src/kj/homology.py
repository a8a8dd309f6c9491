"""Homology of the graded complexes: ranks, torsion, and basis cycles.

``homology`` reports free ranks, and torsion over the integers, per (i, q)
for the graded theory and per i for the filtered one. It splits the
complex into direct-summand blocks (q, or q mod 4 for the filtered
differential, which shifts q by 0 or 4), each cut straight from the
cube's edge list when its turn comes (``ChainComplex.blocks``), so d is
never written, and cancels unit entries of the differential block by
block (Gaussian elimination), dropping each cancellation as
``_eliminate`` hands it over. Entries are plain numbers in every ring:
d's are integers, so a field of characteristic 0 eliminates over Q, and
F_p on residues mod p. Over a field every
nonzero entry is a unit, so nothing of d is left and a group's free rank is
its count of leftover generators. Over Z each leftover block of d_i, from
(i, k) to (i + 1, k), is built once and its Smith diagonal taken once: the
free rank at (i, k) is the leftover count less the ranks of d_i and
d_(i-1) there, and the torsion is the invariant factors of d_(i-1) above 1,
attributed to the q of its target block.

``FieldHomology`` runs the same elimination over a field and keeps its
record: the leftover generators are a basis of the homology (the leftover
basis), f projects a cycle onto them (its class), and g includes them back
as representative cycles (Bar-Natan, arXiv:math/0606318). The record holds
plain numbers; f and g act on ring elements, so they return them. No echelon of a
whole degree is built. Only printing asks for the greedy basis, the
kernel_basis cycles independent in homology in column order, which keeps
printed coordinates as they were; converting to it is one rank x rank
system per degree.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

from .cube import ChainComplex
from .errors import InternalInvariantError
from .rings import QQ, Ring, ZZ
from .snf import snf_diagonal
from .sparse import SparseMatrix, _Echelon, kernel_basis

__all__ = ["HomologySummary", "homology", "FieldHomology", "lee_total_rank"]


@dataclass
class HomologySummary:
    """Free ranks (and torsion over Z) keyed by (i, q); Lee keyed by (i, None)."""

    ring_name: str
    t: int
    groups: dict = field(default_factory=dict)  # (i, q) -> (rank, [torsion])

    def rank(self, i, q=None) -> int:
        return self.groups.get((i, q), (0, []))[0]

    def total_rank(self) -> int:
        return sum(r for r, _ in self.groups.values())

    def nonzero(self):
        return {k: v for k, v in self.groups.items() if v[0] or v[1]}

    def _shown(self) -> list:
        """The nonzero groups as ((i, q), (rank, torsion)), by i, then q."""
        return sorted(self.nonzero().items(), key=lambda kv: (kv[0][0], kv[0][1] or 0))

    def to_json(self):
        items = []
        for (i, q), (rank, tors) in self._shown():
            entry = {"i": i, "rank": rank, "torsion": tors}
            if q is not None:
                entry["q"] = q
            items.append(entry)
        return {"ring": self.ring_name, "t": self.t, "groups": items}

    def to_text(self) -> str:
        lines = [f"homology over {self.ring_name} (t = {self.t})"]
        for (i, q), (rank, tors) in self._shown():
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
    degree_of = _degree_of(complex_)
    # (i, q) or (i, None) -> leftover generator ids, and their rows of d
    leftover: dict[tuple, list[int]] = {}
    rows: dict[int, dict] = {}
    for label, out, inn in complex_.blocks():
        deque(_eliminate(out, inn, ring), maxlen=0)  # cancel, dropping each cancellation
        for x, row in out.items():
            leftover.setdefault((degree_of(x), label if graded else None), []).append(x)
            rows[x] = row
    # (i, k) -> (rank, torsion) of the leftover d_i from (i, k) to (i + 1, k)
    blocks = {} if ring.is_field else {
        (i, k): _group_of_block(_leftover_matrix(rows, gens, leftover.get((i + 1, k), [])))
        for (i, k), gens in leftover.items()
    }
    for (i, k), gens in leftover.items():
        rank_in, tors = blocks.get((i - 1, k), (0, []))
        rank_free = len(gens) - blocks.get((i, k), (0, []))[0] - rank_in
        if rank_free or tors:
            summary.groups[(i, k)] = (rank_free, tors)
    return summary


def _degree_of(complex_: ChainComplex):
    """The degree of a generator id, found among the degrees' first ids."""
    degrees = complex_.degrees()
    starts = [complex_.first[i] for i in degrees]
    return lambda g: degrees[bisect_right(starts, g) - 1]


def _eliminate(out: dict, inn: dict, ring: Ring):
    """Cancel unit entries of a block's differential in place, until none is
    left (Bar-Natan's Gaussian elimination lemma, arXiv:math/0606318).

    Entries are plain numbers: ints over Z, ints and ``Fraction``s over a
    field of characteristic 0 (a matrix of ints reduces alike over Q and
    Q(sqrt2)), and residues mod p over F_p, where each new entry is reduced
    mod p and a unit inverted by ``pow``.

    Cancelling a unit u = d(x -> y) deletes x and y and adds
    -d(x' -> y) u^-1 d(x -> y') to every other entry x' -> y'; the complex
    that remains is homotopy equivalent to the one before. Units are +-1 over
    Z and every nonzero entry over a field. Among the units of a row, the
    target with the fewest incoming entries goes first, which keeps fill-in
    small.

    Yields the cancellations in order as (x, y, s, row, gcol): s = -u^-1,
    ``row`` is the rest of x's row, and ``gcol`` maps every other source w
    of y to -d(w -> y) u^-1. They are the lemma's maps: the projection f
    sends x to 0 and y to s * row, and the inclusion g sends w to
    w + gcol[w] * x. Over a field no entry may be left.
    """
    field, p = ring.is_field, ring.characteristic
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
            if not field:
                scale = -u
            elif p:
                scale = -pow(u, -1, p) % p
            else:
                scale = -QQ.div(1, u)
            del out[x]
            for target in row:
                inn[target].discard(x)
            for w in inn.pop(x):
                del out[w][x]
            for z in out.pop(y):
                inn[z].discard(y)
            sources = inn.pop(y)
            sources.discard(x)
            gcol = {}
            for w in sources:
                wrow = out[w]
                a = wrow.pop(y) * scale
                if p:
                    a %= p
                gcol[w] = a
                for target, v in row.items():
                    s = wrow.get(target)
                    s = a * v if s is None else s + a * v
                    if p:
                        s %= p
                    if s:
                        if target not in wrow:
                            inn[target].add(w)
                        wrow[target] = s
                    elif target in wrow:
                        del wrow[target]
                        inn[target].discard(w)
            yield x, y, scale, row, gcol
    if field and any(out.values()):
        raise InternalInvariantError("elimination over a field left an entry")


def _leftover_matrix(rows: dict, cols: list[int], targets: list[int]) -> SparseMatrix:
    """The leftover differential from ``cols`` to ``targets``, over Z."""
    index = {y: r for r, y in enumerate(targets)}
    m = SparseMatrix(len(targets), len(cols), ZZ)
    for c, x in enumerate(cols):
        for y, v in rows[x].items():
            m.set(index[y], c, v)
    return m


def _group_of_block(d: SparseMatrix) -> tuple[int, list[int]]:
    """(rank, torsion of the cokernel) of one leftover block of d over Z,
    from its invariant factors, which form a divisibility chain."""
    diag = snf_diagonal(d)
    return len(diag), [x for x in diag if x > 1]


def lee_total_rank(complex_: ChainComplex) -> int:
    """Total rank of the filtered theory's homology over the complex's field."""
    if complex_.t != 1:
        raise ValueError("lee_total_rank expects a t = 1 complex")
    return homology(complex_).total_rank()


class FieldHomology:
    """Homology over a field with explicit maps to and from the chains.

    The complex is eliminated block by block, as in ``homology``. Over a
    field every nonzero entry is a unit, so no entry of d survives and the
    leftover generators of degree i are a basis of H^i (the leftover basis).
    The recorded cancellations give the two maps of the elimination lemma:
    f projects a chain onto the leftover generators, and g includes them back
    as cycles. ``reps[i]`` is g of the degree-i leftover basis, ``reduce``
    is f on a cycle, and f(reps[i][k]) is the k-th unit vector.

    Printed coordinates use the greedy basis instead: walking the
    ``kernel_basis`` of d_i's columns in order, the cycles whose classes are
    independent of those kept before. ``greedy_reps`` and ``greedy_coordinates`` convert,
    one rank x rank system per degree, built only when a caller asks.
    """

    def __init__(self, complex_: ChainComplex):
        if not complex_.ring.is_field:
            raise ValueError("FieldHomology requires field coefficients")
        self.complex = complex_
        self.ring = complex_.ring
        degree_of = _degree_of(complex_)
        first = self._first = complex_.first
        self._steps: list[tuple] = []  # the cancellations, in order
        self._step_of: dict[int, int] = {}  # cancelled id -> its step
        self._g_of: dict[int, list] = {}  # id w -> [(step, gcol[w])]
        leftover: dict[int, list[int]] = {i: [] for i in first}
        for _, out, inn in complex_.blocks():
            for step in _eliminate(out, inn, self.ring):
                k = len(self._steps)
                self._steps.append(step)
                self._step_of[step[0]] = self._step_of[step[1]] = k
                for w, a in step[4].items():
                    self._g_of.setdefault(w, []).append((k, a))
            for x in out:
                leftover[degree_of(x)].append(x)
        self._position = {
            x: k for gens in leftover.values() for k, x in enumerate(sorted(gens))
        }
        self.reps: dict[int, list[dict]] = {
            i: [self._include(x, first[i]) for x in sorted(gens)]
            for i, gens in leftover.items()
        }
        self._greedy: dict[int, tuple[list[dict], _Echelon]] = {}

    def rank(self, i: int) -> int:
        return len(self.reps.get(i, ()))

    def total_rank(self) -> int:
        return sum(len(r) for r in self.reps.values())

    def reduce(self, i: int, vec: dict) -> dict:
        """Coordinates of a cycle's class on the degree-i leftover basis: f.

        Raises if the vector is not in the cycle space. The zero vector has
        no class, in any degree, the complex's or not.
        """
        if not vec:
            return {}
        if self.complex.apply(i, vec):
            raise InternalInvariantError("vector is not a cycle of the complex")
        return self._project(i, vec)

    def greedy_reps(self, i: int) -> list[dict]:
        """The degree-i cycles of the greedy basis."""
        return self._greedy_basis(i)[0]

    def greedy_coordinates(self, i: int, coords: dict) -> dict:
        """Leftover-basis coordinates of a degree-i class, rewritten on the
        greedy basis."""
        sol = self._greedy_basis(i)[1].membership(coords)
        if sol is None:
            raise InternalInvariantError("greedy basis does not span the homology")
        return sol

    def _greedy_basis(self, i: int):
        got = self._greedy.get(i)
        if got is None:
            reps: list[dict] = []
            ech = _Echelon(self.ring)  # labelled by position in reps
            if self.rank(i):
                for vec in kernel_basis(self.ring, self.complex.columns(i)):
                    if ech.insert(self._project(i, vec), label=len(reps)) is None:
                        reps.append(vec)
                        if len(reps) == self.rank(i):
                            break
            got = self._greedy[i] = (reps, ech)
        return got

    def _project(self, i: int, vec: dict) -> dict:
        """f(vec) for a degree-i vector, on the degree-i leftover basis.

        The cancellations act in the order they were made: each one drops its
        x and replaces its y by s * row, whose generators all outlive it.
        """
        first, step_of, steps = self._first[i], self._step_of, self._steps
        v = {first + c: x for c, x in vec.items()}
        heap = [step_of[g] for g in v if g in step_of]
        heapq.heapify(heap)
        while heap:
            x, y, scale, row, _ = steps[heapq.heappop(heap)]
            v.pop(x, None)
            c = v.pop(y, None)
            if c is None:
                continue
            c = c * scale
            for z, w in row.items():
                s = v.get(z)
                if s is None:
                    v[z] = c * w
                    if z in step_of:
                        heapq.heappush(heap, step_of[z])
                else:
                    s = s + c * w
                    if s:
                        v[z] = s
                    else:
                        del v[z]
        position = self._position
        return {position[g]: c for g, c in v.items()}

    def _include(self, x: int, first: int) -> dict:
        """g(x) for a leftover generator x, as a vector of its degree.

        The cancellations act in reverse order: each adds gcol[w] * x_k for
        the w present, and every w that feeds x_k is final by then, since it
        is x itself or an x_j cancelled later than x_k.
        """
        one, steps, g_of = self.ring.one, self._steps, self._g_of
        v = {x: one}
        pending: dict[int, object] = {}
        heap: list[int] = []

        def spread(w, c):
            for k, a in g_of.get(w, ()):
                if k in pending:
                    pending[k] = pending[k] + c * a
                else:
                    pending[k] = c * a
                    heapq.heappush(heap, -k)

        spread(x, one)
        while heap:
            k = -heapq.heappop(heap)
            c = pending.pop(k)
            if c:
                xk = steps[k][0]
                v[xk] = c
                spread(xk, c)
        return {g - first: c for g, c in v.items()}

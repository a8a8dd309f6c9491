"""Sparse matrices over an exact ring, plus field linear algebra.

Matrices never store zero entries. Vectors are plain dicts index -> scalar
with zeros dropped. Kernel, image, and membership solving run over any field
adapter (Q, F_p, and Q(sqrt2) when a caller asks for it) by Gaussian
elimination on the exact elements themselves.
"""

from __future__ import annotations

from .rings import Ring

__all__ = [
    "SparseMatrix",
    "vec_add",
    "vec_scale",
    "vec_sub",
    "kernel_basis",
    "solve_in_image",
    "rank",
]


class SparseMatrix:
    """A rows x cols matrix over ``ring`` with entries in data[(r, c)]."""

    __slots__ = ("rows", "cols", "ring", "data")

    def __init__(self, rows: int, cols: int, ring: Ring, data=None):
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.data = {}
        if data:
            for (r, c), v in data.items():
                self.set(r, c, v)

    def set(self, r: int, c: int, v) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r},{c}) out of range")
        if self.ring.is_zero(v):
            self.data.pop((r, c), None)
        else:
            self.data[(r, c)] = v

    def add_to(self, r: int, c: int, v) -> None:
        cur = self.data.get((r, c), self.ring.zero)
        self.set(r, c, cur + v)

    def get(self, r: int, c: int):
        return self.data.get((r, c), self.ring.zero)

    @staticmethod
    def identity(n: int, ring: Ring) -> "SparseMatrix":
        m = SparseMatrix(n, n, ring)
        for i in range(n):
            m.set(i, i, ring.one)
        return m

    def is_zero(self) -> bool:
        return not self.data

    def __mul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
        by_row: dict[int, list] = {}
        for (r, c), v in other.data.items():
            by_row.setdefault(r, []).append((c, v))
        m = SparseMatrix(self.rows, other.cols, self.ring)
        for (r, k), v in self.data.items():
            for c, w in by_row.get(k, ()):
                m.add_to(r, c, v * w)
        return m

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def apply(self, vec: dict) -> dict:
        """Matrix times a column vector (dict col -> scalar)."""
        out: dict = {}
        for (r, c), v in self.data.items():
            if c in vec:
                out[r] = out.get(r, self.ring.zero) + v * vec[c]
        return {r: v for r, v in out.items() if not self.ring.is_zero(v)}

    def column(self, c: int) -> dict:
        return {r: v for (r, cc), v in self.data.items() if cc == c}

    def columns(self) -> list[dict]:
        cols: list[dict] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.data.items():
            cols[c][r] = v
        return cols

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_json(self):
        entries = [
            {"row": r, "col": c, "value": str(v)}
            for (r, c), v in sorted(self.data.items())
        ]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.data)} nonzero, {self.ring.name})"


def vec_add(ring: Ring, u: dict, v: dict) -> dict:
    out = dict(u)
    for k, x in v.items():
        s = out.get(k, ring.zero) + x
        if ring.is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_sub(ring: Ring, u: dict, v: dict) -> dict:
    return vec_add(ring, u, vec_scale(ring, ring.from_int(-1), v))


def vec_scale(ring: Ring, s, v: dict) -> dict:
    if ring.is_zero(s):
        return {}
    return {k: s * x for k, x in v.items()}


class _Echelon:
    """Row echelon form of a list of column vectors, for span queries.

    Columns are inserted one at a time; each reduces against the pivots found
    so far. A column inserted under a label carries its coefficient through
    the reduction, so ``membership`` can express a target in terms of the
    labelled columns; unlabelled columns only widen the span.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.pivots: list[tuple[int, dict, dict]] = []  # (pivot row, vector, combo)

    def _reduce(self, vec: dict, combo: dict):
        ring = self.ring
        vec = dict(vec)
        combo = dict(combo)
        for prow, pvec, pcombo in self.pivots:
            if prow in vec:
                factor = ring.div(vec[prow], pvec[prow])
                vec = vec_sub(ring, vec, vec_scale(ring, factor, pvec))
                combo = vec_sub(ring, combo, vec_scale(ring, factor, pcombo))
        return vec, combo

    def insert(self, vec: dict, label=None) -> dict | None:
        """Insert a column; returns None if independent, else the combination
        of earlier labelled columns equal to it modulo the unlabelled ones."""
        red, combo = self._reduce(vec, {} if label is None else {label: self.ring.one})
        if red:
            self.pivots.append((min(red), red, combo))
            return None
        combo.pop(label, None)
        return vec_scale(self.ring, self.ring.from_int(-1), combo)

    def membership(self, vec: dict) -> dict | None:
        """Coefficients on the labelled columns expressing vec modulo the
        unlabelled ones, or None if vec is outside the span."""
        red, combo = self._reduce(vec, {})
        if red:
            return None
        return vec_scale(self.ring, self.ring.from_int(-1), combo)


def rank(m: SparseMatrix) -> int:
    if not m.ring.is_field:
        raise ValueError("rank requires field coefficients")
    ech = _Echelon(m.ring)
    for col in m.columns():
        ech.insert(col)
    return len(ech.pivots)


def kernel_basis(ring: Ring, columns) -> list[dict]:
    """A basis of the kernel of a matrix over the field ``ring``, one vector
    per non-pivot column, from its ``columns`` (dicts row -> scalar, read one
    at a time)."""
    if not ring.is_field:
        raise ValueError("kernel_basis requires field coefficients")
    ech = _Echelon(ring)
    out = []
    for j, col in enumerate(columns):
        combo = ech.insert(col, label=j)
        if combo is not None:
            # col_j = sum(combo[k] * col_k), so e_j - combo spans the kernel
            vec = {k: -v for k, v in combo.items()}
            vec[j] = ring.one
            out.append(vec)
    return out


def solve_in_image(m: SparseMatrix, target: dict) -> dict | None:
    """Exact x with m*x = target, or None if target is not in the image."""
    if not m.ring.is_field:
        raise ValueError("solve_in_image requires field coefficients")
    ech = _Echelon(m.ring)
    for j, col in enumerate(m.columns()):
        ech.insert(col, label=j)
    return ech.membership(target)

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from kj.rings import QQ, ZZ
from kj.snf import snf_diagonal
from kj.sparse import SparseMatrix, _Echelon, kernel_basis, rank, solve_in_image


def _mat(ring, rows):
    m = SparseMatrix(len(rows), len(rows[0]) if rows else 0, ring)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m.set(i, j, ring.from_int(v))
    return m


def _det(rows):
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _invariant_factors(rows):
    """d_k / d_(k-1) from the determinantal divisors d_k, the gcd of all
    k x k minors, up to the rank."""
    n, m = len(rows), len(rows[0])
    divisors = [1]
    for k in range(1, min(n, m) + 1):
        g = 0
        for rs in combinations(range(n), k):
            for cs in combinations(range(m), k):
                g = gcd(g, int(_det([[rows[r][c] for c in cs] for r in rs])))
        if g == 0:
            break
        divisors.append(g)
    return [b // a for a, b in zip(divisors, divisors[1:])]


def test_snf_worked_example():
    assert snf_diagonal(_mat(ZZ, [[2, 4], [6, 8]])) == [2, 4]


def test_snf_identity_and_zero():
    assert snf_diagonal(SparseMatrix.identity(3, ZZ)) == [1, 1, 1]
    assert snf_diagonal(SparseMatrix(2, 3, ZZ)) == []
    assert snf_diagonal(_mat(ZZ, [[2, 0], [0, 3]])) == [1, 6]


def test_snf_randomized_properties():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert snf_diagonal(_mat(ZZ, dense)) == _invariant_factors(dense)


def test_kernel_and_solve():
    ident = SparseMatrix.identity(3, QQ)
    target = {0: Fraction(2), 2: Fraction(-1)}
    assert solve_in_image(ident, target) == target
    row = _mat(QQ, [[1, 1]])
    basis = kernel_basis(row.ring, row.columns())
    assert len(basis) == 1
    vec = basis[0]
    assert vec[1] / vec[0] == Fraction(-1)

    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _mat(
            QQ,
            [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)],
        )
        r = rank(m)
        assert len(kernel_basis(m.ring, m.columns())) == cols - r
        # anything in the column span must solve exactly
        coeffs = {j: QQ.from_int(rng.randint(-3, 3)) for j in range(cols)}
        target = m.apply(coeffs)
        sol = solve_in_image(m, target)
        assert sol is not None
        assert m.apply(sol) == target


def test_solve_detects_non_membership():
    m = _mat(QQ, [[1, 0], [0, 0]])
    assert solve_in_image(m, {1: Fraction(1)}) is None


def test_echelon_reports_only_labelled_columns():
    # unlabelled image columns e0 + e1 and e2; labelled representatives e0, e3
    ech = _Echelon(QQ)
    one = Fraction(1)
    assert ech.insert({0: one, 1: one}) is None
    assert ech.insert({2: one}) is None
    assert ech.insert({0: one}, label=0) is None
    assert ech.insert({3: one}, label=1) is None
    # e1 = (e0 + e1) - e0: only the representative e0 shows, with -1
    assert ech.membership({1: one}) == {0: Fraction(-1)}
    target = {0: Fraction(2), 2: Fraction(5), 3: Fraction(-3)}
    assert ech.membership(target) == {0: Fraction(2), 1: Fraction(-3)}
    assert ech.membership({2: one}) == {}
    assert ech.membership({4: one}) is None
    # a dependent labelled column reports the labelled columns it equals
    assert ech.insert({0: one, 2: one, 3: one}, label=2) == {0: one, 1: one}


def test_matrix_json_roundtrippable_strings():
    m = _mat(QQ, [[1, 0], [0, -2]])
    payload = m.to_json()
    assert payload["rows"] == 2 and payload["cols"] == 2
    assert {(e["row"], e["col"], e["value"]) for e in payload["entries"]} == {
        (0, 0, "1"),
        (1, 1, "-2"),
    }

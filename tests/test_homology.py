import functools
import hashlib
import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kj.canonical import canonical_chain
from kj.corpus import DIAGRAMS
from kj.cube import build_complex, graded_euler_characteristic
from kj.diagram import all_orientations, parse_pd
from kj.errors import IllegalMoveError
from kj.homology import FieldHomology, homology, lee_total_rank
from kj.laurent import Laurent
from kj.moves import R1Move, R2Move, apply_move
from kj.rings import GF, QQ, ZZ
from kj.sparse import SparseMatrix, _Echelon, kernel_basis, rank

from diagrams import (
    CINQUEFOIL, FIG8, HOPF, MIRROR_TREFOIL, TREFOIL, UNKNOT, UNLINK2, torus_pd,
)


def test_unknot_homology():
    s = homology(build_complex(parse_pd(UNKNOT), 0, ZZ))
    assert s.nonzero() == {(0, 1): (1, []), (0, -1): (1, [])}


def test_trefoil_integral_khovanov():
    s = homology(build_complex(parse_pd(TREFOIL), 0, ZZ))
    assert s.nonzero() == {
        (0, 1): (1, []),
        (0, 3): (1, []),
        (2, 5): (1, []),
        (3, 7): (0, [2]),
        (3, 9): (1, []),
    }


def test_mirror_trefoil_integral_khovanov():
    s = homology(build_complex(parse_pd(MIRROR_TREFOIL), 0, ZZ))
    # degrees and gradings mirror; the order-2 torsion moves to degree -2
    assert s.nonzero() == {
        (0, -1): (1, []),
        (0, -3): (1, []),
        (-2, -5): (1, []),
        (-2, -7): (0, [2]),
        (-3, -9): (1, []),
    }


def test_homology_euler_characteristic_consistency():
    for text in (TREFOIL, FIG8, HOPF, CINQUEFOIL):
        d = parse_pd(text)
        c = build_complex(d, 0, ZZ)
        s = homology(c)
        chi = Laurent.zero()
        for (i, q), (rank, _) in s.groups.items():
            chi = chi + Laurent.q(q, (-1) ** i * rank)
        assert chi == graded_euler_characteristic(c)


def test_universal_coefficients_spot_check():
    d = parse_pd(TREFOIL)
    z = homology(build_complex(d, 0, ZZ))
    for ring in (QQ, GF(3), GF(5), GF(7)):
        f = homology(build_complex(d, 0, ring))
        free = {k: v[0] for k, v in z.nonzero().items() if v[0]}
        got = {k: v[0] for k, v in f.nonzero().items() if v[0]}
        # p = 2 would differ; odd p prime to the torsion agrees with Z ranks
        assert got == free


def test_acyclic_two_term_complex():
    # d = identity on a one-dimensional space in adjacent degrees
    d = parse_pd(UNKNOT)
    c = build_complex(d, 0, QQ)
    fh = FieldHomology(c)
    assert fh.total_rank() == 2  # sanity on the unknot itself

    class TwoTerm:
        ring = QQ
        t = 0
        first = {0: 0, 1: 1}  # ids x = 0 in degree 0, y = 1 in degree 1

        def degrees(self):
            return [0, 1]

        def blocks(self):
            # d as its one block, q = 0, cut as ChainComplex.blocks cuts it: d x = y
            yield 0, {0: {1: 1}, 1: {}}, {0: set(), 1: {0}}

    s = homology(TwoTerm())  # type: ignore[arg-type]
    assert s.nonzero() == {}


def test_lee_ranks_are_two_to_the_components():
    expected = {
        UNKNOT: 2,
        TREFOIL: 2,
        FIG8: 2,
        HOPF: 4,
        UNLINK2: 4,
    }
    for text, rank in expected.items():
        c = build_complex(parse_pd(text), 1, QQ)
        assert lee_total_rank(c) == rank


def test_lee_ranks_over_odd_prime_fields():
    for ring in (GF(3), GF(5)):
        c = build_complex(parse_pd(TREFOIL), 1, ring)
        assert lee_total_rank(c) == 2


def test_trefoil_lee_degrees():
    c = build_complex(parse_pd(TREFOIL), 1, QQ)
    s = homology(c)
    assert s.nonzero() == {(0, None): (2, [])}


def test_hopf_lee_degrees():
    c = build_complex(parse_pd(HOPF), 1, QQ)
    s = homology(c)
    assert s.nonzero() == {(0, None): (2, []), (2, None): (2, [])}


def test_field_homology_reduce_roundtrip():
    c = build_complex(parse_pd(TREFOIL), 0, QQ)
    fh = FieldHomology(c)
    for i in c.degrees():
        for k, rep in enumerate(fh.reps[i]):
            coords = fh.reduce(i, rep)
            assert coords == {k: QQ.one}
    # exact cycles reduce to zero
    for i in c.degrees():
        if i + 1 not in c.bases:
            continue
        img = c.diff[i].columns()
        for col in img[:3]:
            if col:
                assert fh.reduce(i + 1, col) == {}


def test_zero_vector_has_no_class_in_any_degree():
    c = build_complex(parse_pd(TREFOIL), 0, QQ)
    fh = FieldHomology(c)
    outside = [min(c.degrees()) - 1, max(c.degrees()) + 1, 99]
    assert not set(outside) & set(c.degrees())
    for i in [*c.degrees(), *outside]:
        assert fh.reduce(i, {}) == {}


class _EchelonHomology:
    """The whole-degree echelon homology that FieldHomology replaced, kept
    as the reference: per degree, an echelon of im(d_{i-1}) extended by each
    vector of kernel_basis(d_i) independent of it (the greedy basis), those
    labelled by position, so membership gives greedy coordinates."""

    def __init__(self, c):
        self.reps, self._echelons = {}, {}
        for i in c.degrees():
            ech = _Echelon(c.ring)
            if i - 1 in c.bases:
                for col in c.diff[i - 1].columns():
                    ech.insert(col)
            reps = []
            for vec in kernel_basis(c.ring, c.diff[i].columns()):
                if ech.insert(vec, label=len(reps)) is None:
                    reps.append(vec)
            self.reps[i], self._echelons[i] = reps, ech

    def reduce(self, i, vec):
        return self._echelons[i].membership(vec)


CROSS_CHECK = {
    **DIAGRAMS,
    **{f"T2_{n}{'m' if m else ''}": torus_pd(n, m) for n in (3, 5, 7) for m in (False, True)},
}


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("name", sorted(CROSS_CHECK))
def test_field_homology_matches_echelon_reference(name, t, ring):
    d = parse_pd(CROSS_CHECK[name])
    c = build_complex(d, t, ring)
    fh = FieldHomology(c)
    ref = _EchelonHomology(c)
    groups = homology(c).groups
    for i in c.degrees():
        assert fh.rank(i) == sum(r for (j, _), (r, _) in groups.items() if j == i)
        assert fh.greedy_reps(i) == ref.reps[i]
        for k, rep in enumerate(fh.reps[i]):
            assert c.diff[i].apply(rep) == {}
            assert fh.reduce(i, rep) == {k: ring.one}
        if i + 1 in c.bases:
            for col in c.diff[i].columns():
                assert fh.reduce(i + 1, col) == {}
        for rep in ref.reps[i]:
            assert fh.greedy_coordinates(i, fh.reduce(i, rep)) == ref.reduce(i, rep)
    if t == 1:
        for o in all_orientations(d):
            i, vec = c.chain_to_vec(canonical_chain(c, o))
            assert fh.greedy_coordinates(i, fh.reduce(i, vec)) == ref.reduce(i, vec)


@pytest.mark.parametrize("t", [0, 1])
def test_q_elimination_divides_out_of_z_only_where_it_must(t):
    # an integral scale -1/u is an int, and the Fraction branch of QQ.div runs
    # too: the reference tests above check what elimination makes of both
    fh = FieldHomology(build_complex(parse_pd(torus_pd(5)), t, QQ))
    scales = [step[2] for step in fh._steps]
    assert all(type(s) is int or s.denominator != 1 for s in scales)
    assert sum(type(s) is Fraction for s in scales) >= 1


# the corpus and T(2,3...7) with their mirrors
FIELD_CHECK = {
    **DIAGRAMS,
    **{f"T2_{n}{'m' if m else ''}": torus_pd(n, m) for n in range(3, 8) for m in (False, True)},
}


def test_cancellations_are_pinned():
    # the (x, y) of every cancellation over Q, at t = 0 and 1, as elimination
    # made them when each block was cut from the written triple of d: the
    # order of a block's rows, of each row's entries and of each incoming set
    # decides the pivots, and so the leftover basis and the printed classes
    digest = hashlib.sha256()
    for name, text in sorted(FIELD_CHECK.items()):
        for t in (0, 1):
            fh = FieldHomology(build_complex(parse_pd(text), t, QQ))
            digest.update(repr((name, t, [(x, y) for x, y, *_ in fh._steps])).encode())
    assert digest.hexdigest() == \
        "fa387ceac7cd1dfe012b84b24243a56b0148f00e8509791216d27042e5ee6d3d"


# F2 only at t = 0: the filtered theory needs an odd p
PRIME_FIELDS = [(GF(2), 0), *((GF(p), t) for p in (3, 5, 7) for t in (0, 1))]


def _ranks_by_echelon(c):
    """Free ranks per (i, q), or per (i, None) at t = 1, from the rank of
    each block of ``c.diff`` (ring elements throughout) by ``sparse.rank``."""
    graded = c.t == 0
    labels = {i: [q if graded else q % 4 for q in c.qs[i]] for i in c.degrees()}
    ranks = Counter()  # (i, label) -> rank of d_i there
    for i, m in c.diff.items():
        columns = m.columns()
        for b in set(labels[i]):
            cols = [j for j, q in enumerate(labels[i]) if q == b]
            rows = [r for r, q in enumerate(labels.get(i + 1, ())) if q == b]
            at = {r: k for k, r in enumerate(rows)}
            # d keeps the label: an entry outside the block raises KeyError
            block = SparseMatrix(len(rows), len(cols), c.ring, {
                (at[r], k): v for k, j in enumerate(cols) for r, v in columns[j].items()})
            ranks[i, b] = rank(block)
    groups = Counter()
    for i, qs in labels.items():
        for b, size in Counter(qs).items():
            groups[i, b if graded else None] += size - ranks[i, b] - ranks[i - 1, b]
    return {k: (r, []) for k, r in groups.items() if r}


@pytest.mark.parametrize("ring, t", PRIME_FIELDS, ids=[f"{r.name}-{t}" for r, t in PRIME_FIELDS])
@pytest.mark.parametrize("name", sorted(FIELD_CHECK))
def test_homology_over_prime_fields_matches_block_ranks(name, ring, t):
    c = build_complex(parse_pd(FIELD_CHECK[name]), t, ring)
    assert homology(c).nonzero() == _ranks_by_echelon(c)


@pytest.mark.parametrize("name, ring, t", [
    pytest.param(name, ring, t, id=f"{name}-{ring.name}-{t}")
    for ring, t in PRIME_FIELDS for name in sorted(FIELD_CHECK)
    # over F5 the test above covers CROSS_CHECK already
    if not (ring.characteristic == 5 and name in CROSS_CHECK)
])
def test_field_homology_over_prime_fields_matches_echelon_reference(name, ring, t):
    c = build_complex(parse_pd(FIELD_CHECK[name]), t, ring)
    fh = FieldHomology(c)
    ref = _EchelonHomology(c)
    element = type(ring.one)
    for i in c.degrees():
        assert fh.greedy_reps(i) == ref.reps[i]
        for k, rep in enumerate(fh.reps[i]):
            assert all(type(v) is element for v in rep.values())
            assert c.apply(i, rep) == {}
            coords = fh.reduce(i, rep)
            assert coords == {k: ring.one} and type(coords[k]) is element
        for col in c.columns(i - 1):
            assert fh.reduce(i, col) == {}
        for rep in ref.reps[i]:
            coords = fh.greedy_coordinates(i, fh.reduce(i, rep))
            assert coords == ref.reduce(i, rep)
            assert all(type(v) is element for v in coords.values())


def test_lee_over_integers_keeps_invariant_factors():
    # the leftovers of both q mod 4 blocks of a degree reach one Smith form,
    # so a degree reports all its torsion once, as invariant factors (coprime
    # orders from two blocks would give Z/6, not Z/2 Z/3); values recorded
    # from the whole-degree Smith form that came before elimination
    expected = {
        TREFOIL: {(0, None): (2, []), (3, None): (0, [2, 2])},
        FIG8: {(-1, None): (0, [2, 2]), (0, None): (2, []), (2, None): (0, [2, 2])},
        CINQUEFOIL: {(0, None): (2, []), (3, None): (0, [2, 2]), (5, None): (0, [2, 2])},
    }
    for text, groups in expected.items():
        assert homology(build_complex(parse_pd(text), 1, ZZ)).nonzero() == groups


def test_integral_homology_reads_each_leftover_block_once(monkeypatch):
    # each leftover block of d_i, (i, q) to (i + 1, q), reaches one Smith
    # diagonal, which gives the rank of d_i there and the torsion at i + 1
    import sys

    module = sys.modules["kj.homology"]
    c = build_complex(parse_pd(torus_pd(7)), 0, ZZ)
    degree_of = module._degree_of(c)
    blocks = Counter()
    for q, out, inn in c.blocks():
        # out holds the leftover rows once every cancellation is made
        deque(module._eliminate(out, inn, c.ring), maxlen=0)
        blocks.update((degree_of(x), q) for x in out)
    calls = []
    snf = module.snf_diagonal
    monkeypatch.setattr(module, "snf_diagonal", lambda m: calls.append(m) or snf(m))
    homology(c)
    assert len(blocks) == 14
    # one call per block, on a matrix whose columns are that block's leftovers
    assert sorted(m.cols for m in calls) == sorted(blocks.values())


def _add_random_r_move(d, rng: random.Random):
    """d after one R1 or R2 addition at a random spot, retried on illegal ones."""
    for _ in range(200):
        edges = d.edges
        if rng.random() < 0.5:
            move = R1Move("add", rng.choice(edges), rng.choice(("left", "right")))
        else:
            move = R2Move("add", (rng.choice(edges), rng.choice(edges)),
                          rng.choice((False, True)))
        try:
            return apply_move(d, move)[0]
        except IllegalMoveError:
            continue
    raise RuntimeError("found no legal R1 or R2 addition")


# Khovanov homology over Z, Lee homology over F5
INVARIANCE_RINGS = {0: ZZ, 1: GF(5)}


@functools.cache
def _homology_of(text: str, t: int):
    return homology(build_complex(parse_pd(text), t, INVARIANCE_RINGS[t])).nonzero()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(DIAGRAMS)), seed=st.integers(0, 2**32 - 1))
def test_homology_invariant_under_random_r_moves(name, seed):
    # corpus diagrams have at most 5 crossings, so the result has at most 7
    text = DIAGRAMS[name]
    moved = _add_random_r_move(parse_pd(text), random.Random(seed))
    assert moved.crossing_count <= 7
    for t, ring in INVARIANCE_RINGS.items():
        got = homology(build_complex(moved, t, ring)).nonzero()
        assert got == _homology_of(text, t)

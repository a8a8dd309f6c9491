"""Each machine check that no other test sees fail can fire: a crafted
input or a monkeypatched table makes it refuse, and each test fails if its
check is deleted. The checks: the leading-order q test of a move's t = 0
and t = 1 maps, the slide's invertibility, ``FieldHomology.reduce`` on a
non-cycle, ``validate``'s q test in the filtered theory, the degree shift
of ``ChainMap.piece``, and ``kj_number``'s degree and integrality."""

from fractions import Fraction

import pytest

import kj.cube as cube
import kj.movie
from kj.corpus import load_movie
from kj.cube import V_MINUS, V_PLUS, ChainMap, build_complex
from kj.diagram import parse_pd
from kj.errors import InternalInvariantError
from kj.homology import FieldHomology
from kj.movie import Movie, MovieMaps, kj_number
from kj.moves import Birth, R3Move, Saddle
from kj.rings import QQ
from kj.sparse import SparseMatrix
from kj.verify import _leading_order_report

from diagrams import R3_UNKNOT, TREFOIL, UNKNOT, UNLINK2


def _maps(movie):
    return MovieMaps(movie, t=0), MovieMaps(movie, t=1)


def test_leading_order_refuses_an_impure_t0_map():
    # the t = 1 merge sends v- v- to v+, which raises q by 4: read as the
    # t = 0 map, it is not pure of degree chi; the difference is unchanged
    movie = Movie(parse_pd(UNLINK2), [Saddle((1, 2))])
    maps0, maps1 = _maps(movie)
    assert _leading_order_report(movie, maps0, maps1).ok
    report = _leading_order_report(movie, maps1, maps0)
    assert not report.ok
    [move] = report.details["moves"]
    assert move["strictly_higher"] is False and move["min_extra_shift"] == 4


def test_leading_order_refuses_a_difference_that_keeps_q():
    # doubling the birth's t = 1 map leaves the t = 0 map pure, but the
    # difference is the t = 0 map itself, which raises q by nothing
    movie = Movie(parse_pd(UNKNOT), [Birth()])
    maps0, maps1 = _maps(movie)
    assert _leading_order_report(movie, maps0, maps1).ok
    step = maps1.steps[0]
    step.values = [v + v for v in step.values]
    report = _leading_order_report(movie, maps0, maps1)
    assert not report.ok
    [move] = report.details["moves"]
    assert move["strictly_higher"] is False and move["min_extra_shift"] == 0
    assert report.details["composite_ok"] is False


def _slide_with(monkeypatch, change):
    """The slide on the R3 unknot, its class matrix ``m`` in its lowest
    degree replaced by ``change(m)``."""
    class_map = kj.movie._R3Transport.class_map

    def changed(self, fh1, fh2):
        step = class_map(self, fh1, fh2)
        i = min(i for i, m in step.mats.items() if m.cols)
        step.mats[i] = change(step.mats[i])
        return step

    monkeypatch.setattr(kj.movie._R3Transport, "class_map", changed)
    return Movie(parse_pd(R3_UNKNOT), [R3Move((0, 1, 2))])


def test_a_slide_refuses_a_matrix_that_is_not_square(monkeypatch):
    def narrowed(m):
        return SparseMatrix(m.rows, m.cols - 1, m.ring,
                            {(r, c): v for (r, c), v in m.data.items() if c < m.cols - 1})

    movie = _slide_with(monkeypatch, narrowed)
    for t in (0, 1):
        with pytest.raises(InternalInvariantError, match="is not square"):
            MovieMaps(movie, t)


def test_a_slide_refuses_a_singular_matrix(monkeypatch):
    def first_column_zero(m):
        return SparseMatrix(m.rows, m.cols, m.ring,
                            {(r, c): v for (r, c), v in m.data.items() if c})

    movie = _slide_with(monkeypatch, first_column_zero)
    for t in (0, 1):
        with pytest.raises(InternalInvariantError, match="is not invertible"):
            MovieMaps(movie, t)


def test_reduce_refuses_a_chain_that_is_not_a_cycle():
    c = build_complex(parse_pd(TREFOIL), 0, QQ)
    fh = FieldHomology(c)
    i, p = next((i, p) for i in c.degrees() for p in range(c.dim(i)) if c.apply(i, {p: QQ.one}))
    with pytest.raises(InternalInvariantError, match="not a cycle"):
        fh.reduce(i, {p: QQ.one})


def test_build_catches_a_broken_filtered_q_shift(monkeypatch):
    # v+ and v- swapped in both products: an isomorphic algebra, so
    # d^2 = 0 still holds, but at t = 1 the merge v+ v+ -> v- lowers q by 2,
    # which the filtered theory forbids
    swap = {V_PLUS: V_MINUS, V_MINUS: V_PLUS}
    merge, split = cube.merge_products, cube.split_products
    monkeypatch.setattr(cube, "merge_products",
                        lambda x, y, t: [(swap[z], c) for z, c in merge(swap[x], swap[y], t)])
    monkeypatch.setattr(cube, "split_products",
                        lambda x, t: [((swap[a], swap[b]), c) for (a, b), c in split(swap[x], t)])
    with pytest.raises(InternalInvariantError, match="filtered differential shifted q by -2"):
        build_complex(parse_pd(TREFOIL), 1, QQ)


def test_a_chain_map_refuses_an_entry_off_its_shift(monkeypatch):
    init = ChainMap.__init__

    def shifted(self, src, dst, shift=0):
        init(self, src, dst, shift + 1)

    monkeypatch.setattr(ChainMap, "__init__", shifted)
    with pytest.raises(InternalInvariantError, match="shifts degree by 0, expected 1"):
        MovieMaps(Movie(parse_pd(UNKNOT), [Birth()]), 0)


@pytest.mark.parametrize("image, message", [
    ((1, {0: 2}), "maps into degree 1, not 0"),
    ((0, {0: Fraction(3, 2)}), "not integral: 3/2"),
])
def test_kj_number_refuses_a_bad_image(monkeypatch, image, message):
    movie = load_movie("torus")
    assert kj_number(movie) == 2
    monkeypatch.setattr(MovieMaps, "push", lambda self, i, vec: image)
    with pytest.raises(InternalInvariantError, match=message):
        kj_number(movie)

import gc
import hashlib
import itertools
import random
import re
import tracemalloc
import weakref
from array import array
from pathlib import Path

import pytest

from kj import cube
from kj.corpus import DIAGRAMS, MOVIES, load_movie
from kj.cube import (
    V_MINUS,
    V_PLUS,
    build_complex,
    carry_labels,
    filtration_level,
    graded_euler_characteristic,
    kauffman_bracket,
)
from kj.diagram import parse_pd, resolve
from kj.errors import InternalInvariantError, PDValidationError
from kj.laurent import Laurent
from kj.moves import Birth, R1Move, R2Move
from kj.movie import FrameTable, Movie, MovieMaps, elementary_chain_map
from kj.rings import GF, QQ, ZZ
from kj.sparse import SparseMatrix

from diagrams import CURL, FIG8, HOPF, MIRROR_TREFOIL, TREFOIL, torus_pd


def test_unknot_complex():
    c = build_complex(parse_pd("PD[O]"), 0, QQ)
    assert c.degrees() == [0]
    assert c.dim(0) == 2
    gens = c.bases[0]
    qs = sorted(c.q_of(g) for g in gens)
    assert qs == [-1, 1]
    assert c.diff[0].is_zero()


def test_trefoil_generator_count_matches_brute_force():
    d = parse_pd(TREFOIL)
    total = sum(
        2 ** resolve(d, bits).circle_count
        for bits in itertools.product((0, 1), repeat=3)
    )
    assert total == 30
    c = build_complex(d, 0, QQ)
    assert sum(c.dim(i) for i in c.degrees()) == total


def test_curl_lee_complex_small():
    c = build_complex(parse_pd(CURL), 1, QQ)
    assert sorted(c.dim(i) for i in c.degrees()) == [2, 4]
    c.validate()


def test_lee_rejects_characteristic_two():
    with pytest.raises(PDValidationError):
        build_complex(parse_pd(CURL), 1, GF(2))


def test_d_squared_zero_on_corpus_both_theories():
    for text in (TREFOIL, MIRROR_TREFOIL, CURL, HOPF, FIG8, "PD[O,O]", "PD[]"):
        d = parse_pd(text)
        for t in (0, 1):
            build_complex(d, t, QQ).validate()


def test_q_grading_examples():
    c = build_complex(parse_pd("PD[O]"), 0, QQ)
    (plus,) = [g for g in c.bases[0] if g[1] == (V_PLUS,)]
    assert c.q_of(plus) == 1
    tre = build_complex(parse_pd(TREFOIL), 0, QQ)
    gen = ((0, 0, 0), (V_MINUS, V_MINUS))
    assert tre.q_of(gen) == 1  # -2 + 0 + 3


def test_filtration_level():
    c = build_complex(parse_pd("PD[O]"), 0, QQ)
    plus = ((), (V_PLUS,))
    minus = ((), (V_MINUS,))
    one = QQ.one
    assert filtration_level(c, {plus: one, minus: one}) == -1
    assert filtration_level(c, {plus: one}) == 1
    assert filtration_level(c, {}) == float("inf")


def test_lee_differential_is_graded_plus_degree_four():
    for text in (CURL, TREFOIL, HOPF):
        d = parse_pd(text)
        c0 = build_complex(d, 0, QQ)
        c1 = build_complex(d, 1, QQ)
        for i in c1.degrees():
            if i + 1 not in c1.bases:
                continue
            d0, d1 = c0.diff[i].data, c1.diff[i].data
            delta = [key for key in d0.keys() | d1.keys() if d1.get(key, 0) != d0.get(key, 0)]
            for r, col in delta:
                dq = c1.q_of(c1.bases[i + 1][r]) - c1.q_of(c1.bases[i][col])
                assert dq == 4


def test_kauffman_bracket_values():
    assert kauffman_bracket(parse_pd("PD[O]")) == Laurent({1: 1, -1: 1})
    assert kauffman_bracket(parse_pd("PD[]")) == Laurent.one()
    assert kauffman_bracket(parse_pd("PD[O,O]")) == Laurent({1: 1, -1: 1}) ** 2
    tre = kauffman_bracket(parse_pd(TREFOIL))
    assert tre == Laurent({1: 1, 3: 1, 5: 1, 9: -1})
    mir = kauffman_bracket(parse_pd(MIRROR_TREFOIL))
    assert mir == Laurent({-1: 1, -3: 1, -5: 1, -9: -1})


def test_euler_characteristic_equals_bracket():
    for text in (TREFOIL, MIRROR_TREFOIL, CURL, HOPF, FIG8, "PD[O]", "PD[O,O]", "PD[]"):
        d = parse_pd(text)
        c = build_complex(d, 0, QQ)
        assert graded_euler_characteristic(c) == kauffman_bracket(d)


def test_euler_characteristic_multiplicative_disjoint_union():
    u2 = build_complex(parse_pd("PD[O,O]"), 0, QQ)
    assert graded_euler_characteristic(u2) == Laurent({1: 1, -1: 1}) ** 2


def test_d_squared_on_random_small_diagrams():
    # crude random PD generator: random closures are rarely valid, so build
    # random resolutions of corpus diagrams instead and rely on moves later
    rng = random.Random(19)
    texts = [TREFOIL, MIRROR_TREFOIL, CURL, HOPF, FIG8]
    for _ in range(10):
        d = parse_pd(rng.choice(texts))
        for t in (0, 1):
            build_complex(d, t, ZZ if t == 0 else QQ).validate()


def test_empty_diagram_complex_is_rank_one():
    c = build_complex(parse_pd("PD[]"), 0, QQ)
    assert c.degrees() == [0] and c.dim(0) == 1
    assert c.q_of(c.bases[0][0]) == 0
    from kj.homology import homology

    assert homology(c).nonzero() == {(0, 0): (1, [])}


def test_carry_labels_rejects_unmatched_circles():
    two = resolve(parse_pd("PD[O, O]"), ())
    one = resolve(parse_pd("PD[O]"), ())
    assert carry_labels(two, one, (V_MINUS, V_PLUS), {1: None}) == (V_MINUS,)
    # the second loop has no circle with its edges in the target
    with pytest.raises(InternalInvariantError):
        carry_labels(two, one, (V_MINUS, V_PLUS))
    # the only source circle is dropped and nothing labels the target
    with pytest.raises(InternalInvariantError):
        carry_labels(one, one, (V_PLUS,), {0: None})
    trefoil = resolve(parse_pd(TREFOIL), (0, 0, 0))  # circles (1, 5, 3) and (2, 4, 6)
    # edge 1, where circle (1, 5, 3) starts, is missing from the target
    shifted = resolve(parse_pd("PD[X(2,6,3,5), X(4,2,5,7), X(6,4,7,3)]"), (0, 0, 0))
    with pytest.raises(InternalInvariantError):
        carry_labels(trefoil, shifted, (V_PLUS, V_MINUS))
    # flipping crossing 0 merges both circles: the target circle that holds
    # edge 1 also holds 2, 4 and 6
    merged = resolve(parse_pd(TREFOIL), (1, 0, 0))
    with pytest.raises(InternalInvariantError):
        carry_labels(trefoil, merged, (V_PLUS, V_MINUS))
    # every edge of the second loop is skipped, though the target holds it
    with pytest.raises(InternalInvariantError):
        carry_labels(two, two, (V_MINUS, V_PLUS), skip=frozenset({2}))
    assert carry_labels(two, two, (V_MINUS, V_PLUS), skip=frozenset({3})) == (V_MINUS, V_PLUS)


def _mirror(text: str) -> str:
    """Swap the over and under strand of every crossing: X(a,b,c,d) -> X(a,d,c,b)."""
    return re.sub(r"X\((\d+),(\d+),(\d+),(\d+)\)", r"X(\1,\4,\3,\2)", text)


def _slow_differential(c, i: int) -> SparseMatrix:
    """d_i entry by entry from ``gen_differential``."""
    m = SparseMatrix(c.dim(i + 1), c.dim(i), c.ring)
    for col, g in enumerate(c.bases[i]):
        for target, coeff in c.gen_differential(g):
            j, row = c.index[target]
            assert j == i + 1
            m.add_to(row, col, c.ring.from_int(coeff))
    return m


TORI = [torus_pd(n) for n in (3, 5, 7)]


@pytest.mark.parametrize("t, ring", [(0, ZZ), (0, QQ), (1, QQ), (1, GF(5))])
def test_differential_matches_generator_by_generator(t, ring):
    for text in [*DIAGRAMS.values(), *TORI, *map(_mirror, TORI)]:
        c = build_complex(parse_pd(text), t, ring)
        for i in c.degrees():
            assert c.diff[i] == _slow_differential(c, i), (text, i)


def test_build_catches_a_dropped_split_term(monkeypatch):
    split = cube.split_products
    monkeypatch.setattr(cube, "split_products", lambda x, t: split(x, t)[1:])
    for t in (0, 1):
        with pytest.raises(InternalInvariantError, match="d\\^2 != 0"):
            build_complex(parse_pd(TREFOIL), t, QQ)


def test_build_refuses_two_terms_on_one_entry(monkeypatch):
    split = cube.split_products
    monkeypatch.setattr(cube, "split_products", lambda x, t: split(x, t)[:1] * 2)
    with pytest.raises(InternalInvariantError, match="landed on one entry"):
        build_complex(parse_pd(TREFOIL), 0, QQ)


def test_build_catches_a_broken_q_shift(monkeypatch):
    # the t = 1 products at t = 0: d^2 = 0 still holds, but v- v- -> v+
    # raises q by 4, which the graded theory forbids
    merge, split = cube.merge_products, cube.split_products
    monkeypatch.setattr(cube, "merge_products", lambda x, y, t: merge(x, y, 1))
    monkeypatch.setattr(cube, "split_products", lambda x, t: split(x, 1))
    with pytest.raises(InternalInvariantError, match="graded differential broke q"):
        build_complex(parse_pd(TREFOIL), 0, QQ)


@pytest.mark.parametrize("t, ring", [(0, ZZ), (0, QQ), (1, QQ), (1, GF(5))])
def test_differential_keeps_entry_order(t, ring):
    # the order of d's entries decides the pivots of the elimination
    for text in [*DIAGRAMS.values(), *TORI, *map(_mirror, TORI)]:
        c = build_complex(parse_pd(text), t, ring)
        for i in c.degrees():
            slow = _slow_differential(c, i)
            assert list(c.diff[i].data.items()) == list(slow.data.items()), (text, i)


def test_written_triple_of_d_is_pinned():
    # d's arrays, entry order included, as they were when the complex wrote
    # d while it was built: one sha256 over ptr, targets and each entry's
    # repr, on the corpus, T(2,3...9) and their mirrors
    digest, entries = hashlib.sha256(), 0
    tori = [torus_pd(n, mirror) for mirror in (False, True) for n in (3, 5, 7, 9)]
    for text in [*DIAGRAMS.values(), *tori]:
        d = parse_pd(text)
        for t, ring in ((0, ZZ), (0, GF(5)), (1, QQ)):
            c = cube.ChainComplex(d, t, ring)
            for part in (c.ptr.tolist(), c.targets.tolist(), c.values):
                digest.update(repr(part).encode())
            entries += len(c.values)
    assert entries == 649070
    assert digest.hexdigest() == "06b7a663127243413ffc1c5b8d833cd518d19b60603373f797c038b21ca03a69"


def _reference_layout(c, local):
    """d of ``c`` laid out one ``local.piece`` per cube edge, whose carried
    weights ``carried_weights`` finds, as before edges were keyed: each
    edge's shape and sign, by resolution index in column order, and d's
    triple as ``fill`` writes it from those pieces."""
    n = c.diagram.crossing_count
    at = list(c.resolutions.values())  # by index
    ptr, targets, values = array("l", [0]), array("l"), []
    edges = {}
    for v in sorted(range(2 ** n - 1), key=int.bit_count):  # the top one has no edges out
        top = c.first[v.bit_count() - c.n_minus + 1]
        pieces = []
        for j in range(n):
            u = v | 1 << n - 1 - j
            if u != v:
                src, tgt, consumed, created, table = _edge_change(c, at, v, j)
                sign = (-1) ** (v >> n - j).bit_count()  # 1 bits below the flipped one
                pieces.append(local.piece(
                    src, tgt, top + c._spans[u][0], consumed, created, table, sign))
        edges[v] = [(shape, sign) for shape, _, _, sign in pieces]
        cube.LocalTables.fill(ptr, targets, values, c._spans[v][1], pieces)
    ptr.extend(itertools.repeat(len(values), c.dim(max(c.bases))))
    return edges, (ptr, targets, values)


def _assert_laid_out_as_reference(c, local, label) -> None:
    """``c``'s cube edges have the shapes and signs that ``_reference_layout``
    lays out through ``local``, and d the same written triple."""
    edges, triple = _reference_layout(c, local)
    assert list(c._edge_shapes) == list(edges), label
    pairs = set()  # (shape id in c.local, shape id in local)
    for v, ids in c._edge_shapes.items():
        assert [e & 1 for e in ids] == [sign < 0 for _, sign in edges[v]], (label, v)
        pairs.update((e >> 1, shape[3]) for e, (shape, _) in zip(ids, edges[v]))
    for sid, ref in pairs:
        # rows, table keys, coded table and consumed bits
        got, want = c.local.shapes[sid], local.shapes[ref]
        assert (got[:3], got[5]) == (want[:3], want[5]), (label, sid)
    assert (c.ptr, c.targets, c.values) == triple, label


def test_keyed_edges_lay_out_d_as_one_piece_per_edge():
    tori = [torus_pd(n, mirror) for mirror in (False, True) for n in (3, 5, 7, 9)]
    for text in [*DIAGRAMS.values(), *tori]:
        d = parse_pd(text)
        for t, ring in itertools.product((0, 1), (ZZ, QQ, GF(5))):
            c = cube.ChainComplex(d, t, ring)
            _assert_laid_out_as_reference(c, cube.LocalTables(t, ring), (text, t, ring))
    c = cube.ChainComplex(parse_pd(torus_pd(11)), 0, QQ)
    _assert_laid_out_as_reference(c, cube.LocalTables(0, QQ), "T(2,11)")
    # the frames of a movie share one set of tables, and so its edge keys
    golden = Path(__file__).parent / "golden"
    movies = [load_movie(name) for name in MOVIES]
    movies += [Movie.from_json(p.read_text()) for p in sorted(golden.glob("*.movie"))]
    loops = 0
    for movie in movies:
        for t in (0, 1):
            local, ref = cube.LocalTables(t, QQ), cube.LocalTables(t, QQ)
            for f in dict.fromkeys(movie.frames):
                loops += bool(f.loops)
                _assert_laid_out_as_reference(cube.ChainComplex(f, t, QQ, local), ref, f)
    assert loops


def test_d_carries_once_per_edge_key(monkeypatch):
    calls, weights = [0], cube.carried_weights

    def counted(*args):
        calls[0] += 1
        return weights(*args)

    monkeypatch.setattr(cube, "carried_weights", counted)
    c = cube.ChainComplex(parse_pd(torus_pd(9)), 0, ZZ)
    assert len(_edges(c)) == 2304
    assert calls[0] == len(c.local.cube_edges) == 45


@pytest.mark.parametrize("t, ring", [(0, ZZ), (0, QQ), (0, GF(5)), (1, ZZ), (1, QQ), (1, GF(5))])
def test_columns_and_apply_read_the_arrays_as_the_view_does(t, ring):
    rng = random.Random(2100 + 10 * t + ring.characteristic)
    for text in [*DIAGRAMS.values(), torus_pd(3), torus_pd(5)]:
        c = build_complex(parse_pd(text), t, ring)
        _assert_reads_as_view(c, c.diff, rng, text)
    # d and the chain maps share one stored form and its readers: every
    # elementary chain map of a movie with each kind of move
    movie = load_movie("torus-noise")
    local = cube.LocalTables(t, ring)
    frames = [build_complex(f, t, ring, local) for f in movie.frames]
    maps = [elementary_chain_map(rec, c1, c2)
            for rec, c1, c2 in zip(movie.records, frames, frames[1:])]
    assert {"birth", "death", "saddle_merge", "saddle_split", "r1_add", "r1_remove",
            "r2_add", "r2_remove"} == {rec.kind for rec in movie.records}
    for rec, cm in zip(movie.records, maps):
        assert cm.values
        _assert_reads_as_view(cm, cm.mats, rng, rec.kind)


def _assert_reads_as_view(stored, view, rng, label):
    """``columns`` and ``apply`` of a stored map (d or a chain map) read as
    its ``SparseMatrix`` view does, entry order included."""
    assert stored.columns(max(view) + 1) == []
    for i, m in view.items():
        assert [list(col.items()) for col in stored.columns(i)] \
            == [list(col.items()) for col in m.columns()], (label, i)
        for _ in range(4):
            picked = rng.sample(range(m.cols), min(m.cols, rng.randint(1, 5)))
            vec = {k: m.ring.from_int(rng.choice((-2, -1, 1, 3))) for k in picked}
            assert list(stored.apply(i, vec).items()) == list(m.apply(vec).items()), (label, i)


def test_stored_differential_takes_at_most_32_bytes_an_entry():
    # d lives in two int arrays and a list of shared ring elements; a dict
    # keyed by (row, col) tuples took 90 to 110 bytes an entry here
    d = parse_pd(torus_pd(7))
    for t, ring in ((0, ZZ), (1, QQ)):
        tracemalloc.start()
        try:
            c = cube.ChainComplex(d, t, ring)
            entries = len(c.values)  # d is written on first read
            held = tracemalloc.get_traced_memory()[0]
            del c.ptr, c.targets, c.values
            stored = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries > 5000
        assert 8 * entries <= stored <= 32 * entries, (t, stored / entries)
    # chain maps are stored as d is: R1 and R2 maps on T(2,5), built on
    # frames built beforehand; a dict per degree took 40 to 120 bytes an
    # entry here
    d = parse_pd(torus_pd(5))
    for move in (R1Move("add", 1, "left"), R1Move("add", 1, "right"), R2Move("add", (1, 3)),
                 R2Move("add", (1, 6), True)):
        movie = Movie(d, [move])
        for t, ring in ((0, ZZ), (1, QQ)):
            local = cube.LocalTables(t, ring)
            c1, c2 = (build_complex(f, t, ring, local) for f in movie.frames)
            tracemalloc.start()
            try:
                cm = elementary_chain_map(movie.records[0], c1, c2)
                held = tracemalloc.get_traced_memory()[0]
                entries = len(cm.values)
                del cm.ptr, cm.targets, cm.values
                stored = held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert entries > 200
            assert 8 * entries <= stored <= 32 * entries, (move, t, stored / entries)


@pytest.mark.parametrize("t", [0, 1])
def test_index_is_position_in_degree(t):
    for text in [*DIAGRAMS.values(), *TORI, *map(_mirror, TORI)]:
        c = build_complex(parse_pd(text), t, QQ)
        assert not isinstance(c.index, dict)
        for i in c.degrees():
            for pos, g in enumerate(c.bases[i]):
                assert c.index[g] == (i, pos), (text, g)
        assert len(c.index) == sum(c.dim(i) for i in c.degrees())
        assert set(c.index) == {g for i in c.degrees() for g in c.bases[i]}
        bits, labels = c.bases[c.degrees()[0]][0]
        foreign = [
            (bits + (0,), labels),  # bits not in the cube
            (bits, labels + (V_PLUS,)),  # one label too many
            (bits, (2,) * len(labels) or (2,)),  # a label of 2
        ]
        for g in foreign:
            assert g not in c.index
            with pytest.raises(KeyError):
                c.index[g]
            with pytest.raises(KeyError):
                c.q_of(g)


@pytest.mark.parametrize("t", [0, 1])
def test_generator_counts_match_the_list_written_on_first_read(t):
    tori = [torus_pd(n) for n in (3, 5, 7, 9)]
    for text in [*DIAGRAMS.values(), *tori, *map(_mirror, tori)]:
        c = build_complex(parse_pd(text), t, QQ)
        assert "bases" not in c.__dict__
        degrees, first = c.degrees(), dict(c.first)
        bases = c.bases
        assert c.bases is bases
        assert c.degrees() == degrees == list(bases) and c.first == first
        for i in degrees:
            assert c.dim(i) == len(bases[i]) == len(c.qs[i]), (text, i)
            for pos, g in enumerate(bases[i]):
                assert c.index[g] == (i, pos), (text, g)


def test_built_complex_is_freed_by_reference_counting():
    gc.disable()
    try:
        for t in (0, 1):
            c = build_complex(parse_pd(TREFOIL), t, QQ)
            g = c.bases[0][0]
            c.q_of(g), c.gen_differential(g), list(c.index), c.values
            ref = weakref.ref(c)
            del c
            assert ref() is None
    finally:
        gc.enable()


def _reference_validate(c) -> None:
    """The column-by-column check that ``validate`` replaced: every length-2
    path of d, on the ints of d's entries, read back by identity from the
    complex's shared elements, once d is written (writing it may make the
    elements of a sign no edge was laid out with)."""
    c.values  # noqa: B018 -- d is written on first read
    ints = {id(x): v for v, x in c.local.elements.items() if x is not None}

    def int_columns(i):
        cols = [[] for _ in range(c.diff[i].cols)]
        for (r, col), x in c.diff[i].data.items():
            cols[col].append((r, ints[id(x)]))
        return cols

    shifts = {0} if c.t == 0 else {0, 4}
    for i in c.degrees():
        if i + 1 not in c.bases:
            continue
        later = int_columns(i + 1) if i + 2 in c.bases else None
        q_src, q_tgt = c.qs[i], c.qs[i + 1]
        for col, entries in enumerate(int_columns(i)):
            image: dict[int, int] = {}
            for r, v in entries:
                dq = q_tgt[r] - q_src[col]
                if dq not in shifts:
                    if c.t == 0:
                        raise InternalInvariantError("graded differential broke q")
                    raise InternalInvariantError(f"filtered differential shifted q by {dq}")
                if later is not None:
                    for r2, w in later[r]:
                        image[r2] = image.get(r2, 0) + v * w
            if any(image.values()):
                raise InternalInvariantError(f"d^2 != 0 at degree {i}")


def _raised(check) -> str | None:
    try:
        check()
    except InternalInvariantError as exc:
        return str(exc)
    return None


def _edge_change(c, at: list, v: int, j: int) -> tuple:
    """The cube edge of ``c`` out of resolution index v that flips bit j,
    read off the diagram: its two resolutions (``at`` gives each by index),
    the circles it consumes and creates, and its table."""
    src, tgt = at[v], at[v | 1 << c.diagram.crossing_count - 1 - j]
    e1, _, e2, _ = c.diagram.crossings[j]
    c1, c2 = src.circle_of_edge[e1], src.circle_of_edge[e2]
    t1, t2 = tgt.circle_of_edge[e1], tgt.circle_of_edge[e2]
    if c1 != c2:
        return src, tgt, (c1, c2), (t1,), "merge"
    return src, tgt, (c1,), (t1, t2), "split"


def _edges(c) -> list[tuple[int, int]]:
    """Every cube edge of ``c`` as (resolution index, place among the edges
    out of it), in the order of d's columns."""
    return [(v, k) for v, ids in c._edge_shapes.items() for k in range(len(ids))]


def _reshape(c, v: int, k: int, change) -> None:
    """Give edge k out of resolution v of ``c`` the shape ``piece`` lays out
    when ``change`` rewrites its carried weights, on throwaway tables, and
    append that shape to ``c.local.shapes``, so that no memo of the shared
    tables holds it; the edge keeps its sign."""
    n = c.diagram.crossing_count
    j = [j for j in range(n) if not v >> n - 1 - j & 1][k]
    src, tgt, consumed, created, table = _edge_change(c, list(c.resolutions.values()), v, j)
    weights = cube.carried_weights
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cube, "carried_weights", lambda *args: change(list(weights(*args))))
        shape = cube.LocalTables(c.t, c.ring).piece(src, tgt, 0, consumed, created, table)[0]
    shapes = c.local.shapes
    shapes.append((*shape[:3], len(shapes), {}, shape[5]))
    c._edge_shapes[v][k] = 2 * (len(shapes) - 1) + (c._edge_shapes[v][k] & 1)


def _mutate(monkeypatch, kind: str, rng: random.Random, edges: int) -> None:
    """Break the next build of d one way: flip the sign of one cube edge,
    swap where two carried circles land on one edge, drop a split term, or
    use the t = 1 products at t = 0. A sign or a swap is made on the
    ``_edge_shapes`` of one built complex, at one edge counted in the order
    of d's columns across the complexes built from now on."""
    target, seen = rng.randrange(max(edges, 1)), [0]
    if kind in ("sign", "swap"):
        build = cube.ChainComplex._build

        def swapped(out):
            if len(out) > 1:
                p, q = rng.sample(range(len(out)), 2)
                out[p], out[q] = out[q], out[p]
            return tuple(out)

        def mutated(self):
            build(self)
            at = _edges(self)
            if 0 <= target - seen[0] < len(at):
                v, k = at[target - seen[0]]
                if kind == "sign":
                    self._edge_shapes[v][k] ^= 1
                else:
                    _reshape(self, v, k, swapped)
            seen[0] += len(at)

        monkeypatch.setattr(cube.ChainComplex, "_build", mutated)
    elif kind == "drop":
        split = cube.split_products
        monkeypatch.setattr(cube, "split_products", lambda x, t: split(x, t)[1:])
    else:
        merge, split = cube.merge_products, cube.split_products
        monkeypatch.setattr(cube, "merge_products", lambda x, y, t: merge(x, y, 1))
        monkeypatch.setattr(cube, "split_products", lambda x, t: split(x, 1))


@pytest.mark.parametrize("t, ring", [(0, ZZ), (0, QQ), (0, GF(5)), (1, ZZ), (1, QQ), (1, GF(5))])
def test_validate_raises_exactly_when_the_column_check_does(t, ring):
    rng = random.Random(1931 + 10 * t + ring.characteristic)
    raised = 0
    for text in [*DIAGRAMS.values(), *TORI]:
        d = parse_pd(text)
        edges = d.crossing_count * 2 ** (d.crossing_count - 1) if d.crossing_count else 0
        for kind in ("sign", "swap", "drop", "products"):
            with pytest.MonkeyPatch.context() as mp:
                _mutate(mp, kind, rng, edges)
                try:
                    c = cube.ChainComplex(d, t, ring)
                except InternalInvariantError as exc:
                    assert "landed on one entry" in str(exc)
                    continue
            expected = _raised(lambda: _reference_validate(c))
            assert _raised(c.validate) == expected, (text, kind)
            raised += expected is not None
    assert raised >= 15  # the check is not vacuous


def test_validate_checks_in_full_on_every_call(monkeypatch):
    good = cube.ChainComplex(parse_pd(torus_pd(5)), 1, QQ)
    good.validate()
    good.validate()
    split = cube.split_products
    monkeypatch.setattr(cube, "split_products", lambda x, t: split(x, t)[1:])
    bad = cube.ChainComplex(parse_pd(torus_pd(5)), 1, QQ)
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="d\\^2 != 0"):
            bad.validate()


def _codes_summed(monkeypatch) -> list[int]:
    """From now on, the number of source codes each cube square that
    ``validate`` sums is summed on, one entry per square."""
    summed, fault = [], cube._square_fault

    def counted(paths, stride):
        for first, second in zip(paths[::2], paths[1::2]):
            summed.append(len({*first[0], *second[0]}))
        return fault(paths, stride)

    monkeypatch.setattr(cube, "_square_fault", counted)
    return summed


def test_validate_sums_each_square_on_its_touched_codes(monkeypatch):
    summed = _codes_summed(monkeypatch)
    for t in (0, 1):
        build_complex(parse_pd(torus_pd(7)), t, QQ)
    # a square's first edges consume at most four circles
    assert summed and max(summed) <= 16
    # T(2,7)'s resolution of weight w has w circles. Swap where the first
    # cube edge into the top one (7 circles) carries two of the circles it
    # leaves alone, so that some square out of a 5-circle resolution
    # carries one of its untouched circles to a different circle on each
    # path: that square is summed on all 32 codes.
    def swapped(out):
        p, q = [p for p, w in enumerate(out) if w][:2]
        out[p], out[q] = out[q], out[p]
        return tuple(out)

    bad = cube.ChainComplex(parse_pd(torus_pd(7)), 1, QQ)
    _reshape(bad, next(v for v in bad._edge_shapes if v.bit_count() == 6), 0, swapped)
    expected = _raised(lambda: _reference_validate(bad))
    assert expected is not None
    summed.clear()
    assert _raised(bad.validate) == expected
    assert 32 in summed


def _repeated_edge(c):
    """(degree, source offset, target offset, shape id) of a cube edge whose
    shape an earlier edge of ``c`` already has, with the same sign."""
    n = c.diagram.crossing_count
    spans = [offset for _, offset, _ in c._where.values()]
    seen = set()
    for v, ids in c._edge_shapes.items():
        ups = [v | 1 << n - 1 - j for j in range(n) if not v & 1 << n - 1 - j]
        for sid, u in zip(ids, ups):
            if sid in seen:
                return v.bit_count() - c.n_minus, spans[v], spans[u], sid
            seen.add(sid)
    raise AssertionError("no shape repeats")


@pytest.mark.parametrize("whole", [False, True, "value"])
def test_validate_reads_back_an_edge_whose_shape_repeats(whole):
    c = cube.ChainComplex(parse_pd(torus_pd(5)), 1, QQ)
    c.validate()
    i, col, row, edge = _repeated_edge(c)
    top = c.first[i + 1]
    places = []  # where the edge's entries sit in the arrays of d, by source code
    for code, r, _ in c.local.terms(edge >> 1):
        g = c.first[i] + col + code
        places.append(next(k for k in range(c.ptr[g], c.ptr[g + 1])
                           if c.targets[k] == top + row + r))
    if whole == "value":
        # change in place the edge's entry at the last source code of its
        # resolution, every edge shape of which the first call checked
        c.values[places[-1]] = c.values[places[-1]] * 3 + 1
        places = []
    elif not whole:
        places = places[:1]
    # move the edge's entries to rows past every row of d_i, in their columns
    for k, place in enumerate(places):
        c.targets[place] = top + c.dim(i + 1) + k
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="does not hold the entries"):
            c.validate()


def test_validate_refuses_an_entry_no_edge_wrote():
    c = cube.ChainComplex(parse_pd(TREFOIL), 0, QQ)
    i = next(i for i in c.degrees() if c.diff[i].data)
    d_i = c.diff[i]
    r, col = next((r, col) for r in range(d_i.rows) for col in range(d_i.cols)
                  if (r, col) not in d_i.data)
    # append the entry to its column of the arrays
    g = c.first[i] + col
    c.targets.insert(c.ptr[g + 1], c.first[i + 1] + r)
    c.values.insert(c.ptr[g + 1], QQ.one)
    for k in range(g + 1, len(c.ptr)):
        c.ptr[k] += 1
    for _ in range(2):
        with pytest.raises(InternalInvariantError, match="does not hold the entries"):
            c.validate()


def test_shared_local_tables_check_each_square_shape_once(monkeypatch):
    local = cube.LocalTables(1, QQ)
    first = build_complex(parse_pd(torus_pd(5)), 1, QQ, local)
    checked = len(local.checked_squares)
    assert checked > 0
    # a second complex through the same tables sums no square again
    again = build_complex(parse_pd(torus_pd(5)), 1, QQ, local)
    assert again.local is first.local
    assert len(local.checked_squares) == checked
    assert again.diff == first.diff
    # a build through the same tables with one edge's sign flipped has a
    # shape no square was checked with, and fails on every call
    _mutate(monkeypatch, "sign", random.Random(5), 80)
    bad = cube.ChainComplex(parse_pd(torus_pd(5)), 1, QQ, local)
    expected = _raised(lambda: _reference_validate(bad))
    assert expected is not None
    for _ in range(2):
        assert _raised(bad.validate) == expected


def test_a_run_table_still_checks_a_mutated_frame(monkeypatch):
    table = FrameTable()
    first = Movie(parse_pd(torus_pd(5)), [Birth()])
    local = MovieMaps(first, 1, table=table).complexes[0].local
    checked = set(local.checked_squares)
    assert checked
    # T(2,5) with every edge label raised by 10: a frame the table does not
    # hold, whose square shapes the first movie has all checked
    relabelled = re.sub(r"\d+", lambda m: str(int(m.group()) + 10), torus_pd(5))
    other = MovieMaps(Movie(parse_pd(relabelled), []), 1, table=table)
    assert other.complexes[0].local is local
    assert local.checked_squares == checked
    # the first movie's frames were dropped, so it builds T(2,5) again
    # through the same tables, and one flipped edge sign still fails
    _mutate(monkeypatch, "sign", random.Random(5), 80)
    with pytest.raises(InternalInvariantError, match="d\\^2 != 0"):
        MovieMaps(first, 1, table=table)


def test_shared_local_tables_must_match_t_and_ring():
    with pytest.raises(ValueError, match="t and ring"):
        cube.ChainComplex(parse_pd(TREFOIL), 0, QQ, cube.LocalTables(1, QQ))
    with pytest.raises(ValueError, match="t and ring"):
        cube.ChainComplex(parse_pd(TREFOIL), 1, QQ, cube.LocalTables(1, ZZ))

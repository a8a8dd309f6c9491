from fractions import Fraction

import pytest

from kj.canonical import canonical_chain, lee_generator
from kj.corpus import load_movie
from kj.cube import V_MINUS, V_PLUS, ChainComplex, build_complex
from kj.diagram import all_orientations, parse_pd
from kj.errors import InternalInvariantError
from kj.moves import Birth, Death, R1Move, R2Move, R3Move, Saddle, apply_move
from kj.movie import Movie, MovieMaps, kj_number
from kj.rings import QQ, QSQRT2, QSqrt2, half_power_of_two
from kj.sparse import SparseMatrix

from diagrams import HOPF, R3_UNKNOT, TREFOIL, UNKNOT, UNLINK2


def _canonical_class(maps: MovieMaps, frame: int, orientation, rescaled=True):
    c = maps.complexes[frame]
    chain = canonical_chain(c, orientation, rescaled=rescaled and c.ring is QSQRT2)
    i, vec = c.chain_to_vec(chain)
    return i, maps.homologies[frame].reduce(i, vec)


def _is_sign_multiple(maps, frame, coords_pair, factor):
    """coords == +-factor * other for some global sign."""
    i, got = coords_pair[0]
    j, want = coords_pair[1]
    if i != j:
        return False
    ring = maps.ring
    for s in (1, -1):
        scaled = {k: factor * ring.from_int(s) * v for k, v in want.items()}
        if scaled == got:
            return True
    return False


def _assert_canonical_transport(movie: Movie, check_signs=None):
    """Every orientation's rescaled class maps to +- the transported one,
    with transported orientations read through the convention flips."""
    from kj.movie import compatible_orientations, effective_orientation, movie_total_flip

    maps = MovieMaps(movie, t=1, ring=QSQRT2)
    d1 = movie.frames[0]
    total = maps.composite_step()
    flip = movie_total_flip(movie)
    signs = {}
    for o in all_orientations(d1):
        outs = compatible_orientations(movie, o)
        assert len(outs) == 1, "R-moves must transport orientations uniquely"
        o2 = effective_orientation(next(iter(outs)), flip)
        i, coords = _canonical_class(maps, 0, o)
        image = total.apply_class(i, coords)
        j, expect = _canonical_class(maps, len(movie.frames) - 1, o2)
        assert i == j
        matched = None
        for s in (1, -1):
            scaled = {k: maps.ring.from_int(s) * v for k, v in expect.items()}
            if scaled == image:
                matched = s
                break
        assert matched is not None, f"orientation {o}: image is not a signed canonical class"
        signs[o] = matched
    return signs


def test_r1_left_canonical_exact_on_unknot():
    # chain-level identity: the curl map sends sbar_o to sbar_otilde on the nose
    mv = Movie(parse_pd(UNKNOT), [R1Move("add", 1, "left")])
    maps = MovieMaps(mv, t=1, ring=QSQRT2)
    cm = maps.chain_steps[0]
    src, dst = maps.complexes
    sbar = canonical_chain(src, (True,), rescaled=True)
    image = cm.apply_chain(sbar)
    expect = canonical_chain(dst, (True,), rescaled=True)
    assert image == expect


def test_r1_both_hands_canonical_classes():
    for hand in ("left", "right"):
        mv = Movie(parse_pd(UNKNOT), [R1Move("add", 1, hand)])
        _assert_canonical_transport(mv)


def test_r1_on_trefoil_edge_canonical():
    for hand in ("left", "right"):
        mv = Movie(parse_pd(TREFOIL), [R1Move("add", 1, hand)])
        _assert_canonical_transport(mv)


def test_r1_remove_canonical():
    base = Movie(parse_pd(UNKNOT), [R1Move("add", 1, "left")])
    loop_edge = base.records[0].data["loop_edge"]
    mv = Movie(
        parse_pd(UNKNOT),
        [R1Move("add", 1, "left"), R1Move("remove", loop_edge)],
    )
    _assert_canonical_transport(mv)


def test_r2_self_poke_canonical():
    mv = Movie(parse_pd(UNKNOT), [R2Move("add", (1, 1))])
    _assert_canonical_transport(mv)


def test_r2_two_loops_canonical_all_orientations():
    mv = Movie(parse_pd(UNLINK2), [R2Move("add", (1, 2))])
    _assert_canonical_transport(mv)
    mv = Movie(parse_pd(UNLINK2), [R2Move("add", (1, 2), over=True)])
    _assert_canonical_transport(mv)


def test_r2_on_trefoil_and_hopf():
    mv = Movie(parse_pd(TREFOIL), [R2Move("add", (1, 3))])
    _assert_canonical_transport(mv)
    mv = Movie(parse_pd(HOPF), [R2Move("add", (1, 3))])
    _assert_canonical_transport(mv)


def test_r2_add_remove_composite_is_identity_up_to_sign():
    base = Movie(parse_pd(UNKNOT), [R2Move("add", (1, 1))])
    rec = base.records[0]
    mv = Movie(
        parse_pd(UNKNOT),
        [
            R2Move("add", (1, 1)),
            R2Move("remove", (rec.data["m1"], rec.data["m2"])),
        ],
    )
    maps = MovieMaps(mv, t=0, ring=QQ)
    total = maps.composite_step()
    for i, m in total.mats.items():
        ident = SparseMatrix.identity(m.rows, QQ)
        assert m == ident or m == ident.scale(Fraction(-1))


def test_r3_canonical_classes():
    mv = Movie(parse_pd(R3_UNKNOT), [R3Move((0, 1, 2))])
    _assert_canonical_transport(mv)


def test_r3_double_application_is_identity_up_to_sign():
    mv = Movie(parse_pd(R3_UNKNOT), [R3Move((0, 1, 2)), R3Move((0, 1, 2))])
    # the slide back restores the original diagram's complex dimensions
    maps = MovieMaps(mv, t=0, ring=QQ)
    total = maps.composite_step()
    for i, m in total.mats.items():
        ident = SparseMatrix.identity(m.rows, QQ)
        assert m == ident or m == ident.scale(Fraction(-1))


def test_r3_khovanov_iso():
    mv = Movie(parse_pd(R3_UNKNOT), [R3Move((0, 1, 2))])
    maps = MovieMaps(mv, t=0, ring=QQ)
    step = maps.steps[0]
    for i, m in step.mats.items():
        assert m.rows == m.cols
    # ranks agree frame to frame
    assert maps.homologies[0].total_rank() == maps.homologies[1].total_rank() == 2


def test_kj_number_with_r_move_noise():
    base = [Birth(), Saddle((1, 1)), Saddle((1, 2)), Death(1)]
    mv = Movie(
        parse_pd("PD[]"),
        [
            Birth(),
            R1Move("add", 1, "left"),
            R1Move("remove", 1),  # the surviving strand keeps id 2
            Saddle((2, 2)),
            R2Move("add", (2, 1)),
            R2Move("remove", (3, 4)),
            Saddle((1, 2)),
            Death(1),
        ],
    )
    assert [f.is_empty() for f in mv.frames][-1]
    assert kj_number(mv) == 2


def test_every_frame_complex_is_validated(monkeypatch):
    checked = []
    validate = ChainComplex.validate

    def spy(self):
        checked.append(self)
        validate(self)

    monkeypatch.setattr(ChainComplex, "validate", spy)
    for t in (0, 1):
        checked.clear()
        maps = MovieMaps(load_movie("torus-noise"), t)
        assert checked == maps.complexes


def test_chain_map_check_catches_every_flipped_r2_entry():
    # the check runs at every degree of the source, the top one included,
    # where f_{i+1} is zero and d_j f_i alone must vanish
    for text, edges in ((UNKNOT, (1, 1)), (TREFOIL, (1, 3))):
        mv = Movie(parse_pd(text), [R2Move("add", edges)])
        for t in (0, 1):
            cm = MovieMaps(mv, t=t).chain_steps[0]
            entries = [(m, key) for m in cm.mats.values() for key in list(m.data)]
            assert entries
            for m, key in entries:
                v = m.data[key]
                m.data[key] = -v
                with pytest.raises(InternalInvariantError):
                    cm.verify()
                m.data[key] = v
            cm.verify()

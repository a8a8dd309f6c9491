import hashlib
import random
from fractions import Fraction

import pytest

from kj.cube import V_MINUS, V_PLUS, build_complex
from kj.diagram import PlanarDiagram, parse_pd, render_pd
from kj.errors import IllegalMoveError
from kj.moves import (Birth, Death, R1Move, R2Move, R3Move, Saddle, apply_move,
                      move_from_json, move_to_json)
from kj.movie import Movie, MovieMaps, compatible_orientations, kj_number
from kj.rings import QQ
from kj.verify import _positional_map, _random_composite_movies, random_cancelling_insertion

from diagrams import R3_UNKNOT, TREFOIL, UNKNOT, slide_sweep


def test_birth_on_empty():
    d, rec = apply_move(PlanarDiagram(), Birth())
    assert render_pd(d) == "PD[O]"
    assert rec.data["loop"] == 1


def test_saddle_split_then_merge_loops():
    d = parse_pd("PD[O]")
    d2, rec = apply_move(d, Saddle((1, 1)))
    assert render_pd(d2) == "PD[O, O]"
    d3, rec2 = apply_move(d2, Saddle((1, 2)))
    assert render_pd(d3) == "PD[O]"
    assert rec2.data["new_loop"] == 1


def test_death():
    d = parse_pd("PD[O]")
    d2, _ = apply_move(d, Death(1))
    assert d2.is_empty()
    with pytest.raises(IllegalMoveError):
        apply_move(parse_pd(TREFOIL), Death(1))


def test_r1_add_on_loop_matches_expected_code():
    d = parse_pd("PD[O]")
    d2, rec = apply_move(d, R1Move("add", 1, "left"))
    assert d2.crossings == ((1, 1, 2, 2),)
    d3, rec2 = apply_move(d2, R1Move("remove", rec.data["loop_edge"]))
    assert render_pd(d3) == "PD[O]"


def test_r1_right_hand():
    d = parse_pd("PD[O]")
    d2, rec = apply_move(d, R1Move("add", 1, "right"))
    from kj.diagram import writhe

    assert writhe(d2) == -1
    d3, _ = apply_move(d2, R1Move("remove", rec.data["loop_edge"]))
    assert render_pd(d3) == "PD[O]"


def test_r1_add_on_trefoil_edge():
    d = parse_pd(TREFOIL)
    d2, rec = apply_move(d, R1Move("add", 2, "left"))
    assert d2.crossing_count == 4
    from kj.diagram import writhe

    assert writhe(d2) == 4
    d3, _ = apply_move(d2, R1Move("remove", rec.data["loop_edge"]))
    assert sorted(d3.crossings) == sorted(d.crossings)


def test_r2_add_remove_self_poke():
    d = parse_pd("PD[O]")
    d2, rec = apply_move(d, R2Move("add", (1, 1)))
    assert d2.crossing_count == 2
    from kj.diagram import writhe

    assert writhe(d2) == 0
    d3, _ = apply_move(d2, R2Move("remove", (rec.data["m1"], rec.data["m2"])))
    assert render_pd(d3) == "PD[O]"


def test_r2_add_two_loops():
    d = parse_pd("PD[O,O]")
    d2, rec = apply_move(d, R2Move("add", (1, 2)))
    assert d2.crossing_count == 2 and d2.component_count == 2
    d3, _ = apply_move(d2, R2Move("remove", (rec.data["m1"], rec.data["m2"])))
    assert render_pd(d3) == "PD[O, O]"


def test_r2_add_trefoil_edges():
    d = parse_pd(TREFOIL)
    d2, rec = apply_move(d, R2Move("add", (1, 3)))
    assert d2.crossing_count == 5
    d3, _ = apply_move(d2, R2Move("remove", (rec.data["m1"], rec.data["m2"])))
    assert sorted(d3.crossings) == sorted(d.crossings)


CURL_AND_LOOP = "PD[X(1,1,2,2), O]"
TREFOIL_AND_LOOP = "PD[X(1,5,2,4), X(3,1,4,6), X(5,3,6,2), O]"


@pytest.mark.parametrize("pd, edges, over, crossings, loops, m1, m2", [
    pytest.param(CURL_AND_LOOP, (3, 3), False,
                 ((1, 1, 2, 2), (3, 5, 4, 3), (4, 5, 6, 6)), (), 4, 5, id="loop-self-poke"),
    pytest.param(CURL_AND_LOOP, (1, 1), False,
                 ((7, 1, 2, 2), (1, 5, 4, 7), (4, 5, 6, 6)), (3,), 4, 5, id="edge-self-fold"),
    pytest.param("PD[O, O]", (1, 2), False,
                 ((1, 4, 3, 2), (3, 4, 1, 2)), (), 3, 4, id="two-loops"),
    pytest.param(CURL_AND_LOOP, (1, 3), True,
                 ((6, 1, 2, 2), (3, 5, 4, 6), (4, 5, 3, 1)), (), 4, 5, id="loop-under-edge-along"),
    pytest.param(CURL_AND_LOOP, (2, 3), True,
                 ((1, 1, 2, 6), (3, 5, 4, 2), (4, 5, 3, 6)), (), 4, 5, id="loop-under-edge-against"),
    pytest.param(CURL_AND_LOOP, (1, 3), False,
                 ((3, 1, 2, 2), (1, 5, 4, 6), (4, 5, 3, 6)), (), 4, 5, id="edge-along-under-loop"),
    pytest.param(CURL_AND_LOOP, (2, 3), False,
                 ((1, 1, 2, 3), (2, 6, 4, 5), (4, 6, 3, 5)), (), 4, 5, id="edge-against-under-loop"),
    pytest.param(TREFOIL_AND_LOOP, (2, 4), False,
                 ((1, 5, 2, 11), (3, 1, 4, 6), (5, 3, 6, 8), (2, 10, 9, 11), (9, 10, 8, 4)),
                 (7,), 9, 10, id="edges-TT"),
    pytest.param(CURL_AND_LOOP, (1, 2), False,
                 ((4, 1, 2, 7), (1, 6, 5, 2), (5, 6, 4, 7)), (3,), 5, 6, id="edges-TF"),
    pytest.param(CURL_AND_LOOP, (1, 2), True,
                 ((7, 1, 2, 4), (2, 1, 5, 6), (5, 7, 4, 6)), (3,), 5, 6, id="edges-FT"),
    pytest.param(TREFOIL_AND_LOOP, (1, 3), False,
                 ((8, 5, 2, 4), (11, 1, 4, 6), (5, 3, 6, 2), (1, 11, 9, 10), (9, 3, 8, 10)),
                 (7,), 9, 10, id="edges-FF"),
])
def test_r2_add_wiring_and_fresh_ids(pd, edges, over, crossings, loops, m1, m2):
    d2, rec = apply_move(parse_pd(pd), R2Move("add", edges, over))
    assert d2.crossings == crossings and d2.loops == loops
    assert (rec.data["m1"], rec.data["m2"]) == (m1, m2)


@pytest.mark.parametrize("pd, edge, hand, crossings, loop_edge", [
    ("PD[O]", 1, "left", ((1, 1, 2, 2),), 1),
    ("PD[O]", 1, "right", ((2, 1, 1, 2),), 1),
    (TREFOIL, 2, "left", ((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 8), (7, 7, 8, 2)), 7),
    (TREFOIL, 2, "right", ((1, 5, 2, 4), (3, 1, 4, 6), (5, 3, 6, 8), (2, 7, 7, 8)), 7),
])
def test_r1_add_curl_crossings(pd, edge, hand, crossings, loop_edge):
    d2, rec = apply_move(parse_pd(pd), R1Move("add", edge, hand))
    assert d2.crossings == crossings and d2.loops == ()
    assert rec.data["loop_edge"] == loop_edge


@pytest.mark.parametrize("move", [
    Birth(), Death(3), Saddle((1, 2)), Saddle((2, 2), "right"),
    R1Move("add", 1, "right"), R1Move("remove", 4), R2Move("add", (1, 3), True),
    R2Move("remove", (5, 6)), R3Move((0, 1, 2)),
])
def test_move_json_round_trip(move):
    assert move_from_json(move_to_json(move)) == move


def test_r3_applies_and_is_involutive():
    d = parse_pd(R3_UNKNOT)
    d2, rec = apply_move(d, R3Move((0, 1, 2)))
    assert d2.crossing_count == 3
    assert sorted(d2.crossings) != sorted(d.crossings)
    d3, _ = apply_move(d2, R3Move((0, 1, 2)))
    # sliding back returns the original diagram up to edge names: one
    # renaming carries it slot by slot onto the original
    assert d3.crossing_count == 3
    _positional_map(d3, d)
    from kj.cube import kauffman_bracket

    assert kauffman_bracket(d2) == kauffman_bracket(d)
    sweep = slide_sweep()
    assert len(sweep) == 126
    for mv in sweep:
        slid, slide = mv.frames[2], mv.moves[1]
        back, _ = apply_move(slid, slide)
        _positional_map(back, mv.frames[1])


def test_every_move_record_is_pinned():
    # each move's frame and record, as the moves wrote them: one sha256
    # over every move of the slide sweep and of the seeded composite movies
    # of seeds 0..9, each with one cancelling insertion so that R1 and R2
    # removals are covered
    movies = slide_sweep()
    for s in range(10):
        rng = random.Random(s)
        movies += [random_cancelling_insertion(mv, rng) for mv in _random_composite_movies(s)]
    digest, kinds, count = hashlib.sha256(), set(), 0
    for mv in movies:
        frame = mv.initial
        for move in mv.moves:
            frame, rec = apply_move(frame, move)
            digest.update(repr((render_pd(frame), frame.loops, rec.kind,
                                sorted(rec.crossing_map.items()),
                                repr(sorted(rec.data.items())))).encode())
            kinds.add(rec.kind)
            count += 1
    assert kinds == {"birth", "death", "saddle_merge", "saddle_split", "saddle_reconnect",
                     "r1_add", "r1_remove", "r2_add", "r2_remove", "r3"}
    assert count == 746
    assert digest.hexdigest() == "dd21e92dc6bd520dbbf17d5fcbc7285b333d16f422b99865e0e241f5a88f8a84"


def test_movie_construction_and_euler():
    mv = Movie(
        PlanarDiagram(),
        [Birth(), Saddle((1, 1)), Saddle((1, 2)), Death(1)],
    )
    assert mv.euler_characteristic == 0
    assert mv.is_closed
    assert [render_pd(f) for f in mv.frames] == [
        "PD[]",
        "PD[O]",
        "PD[O, O]",
        "PD[O]",
        "PD[]",
    ]


def test_sphere_torus_genus2_numbers():
    sphere = Movie(PlanarDiagram(), [Birth(), Death(1)])
    assert sphere.euler_characteristic == 2
    assert kj_number(sphere) == 0
    torus = Movie(
        PlanarDiagram(), [Birth(), Saddle((1, 1)), Saddle((1, 2)), Death(1)]
    )
    assert kj_number(torus) == 2
    genus2 = Movie(
        PlanarDiagram(),
        [
            Birth(),
            Saddle((1, 1)),
            Saddle((1, 2)),
            Saddle((1, 1)),
            Saddle((1, 2)),
            Death(1),
        ],
    )
    assert genus2.euler_characteristic == -2
    assert kj_number(genus2) == 0


def test_genus1_chain_values():
    # split then merge on the unknot: v+ -> 2 v-, v- -> 2t v+
    mv = Movie(parse_pd("PD[O]"), [Saddle((1, 1)), Saddle((1, 2))])
    maps1 = MovieMaps(mv, t=1, ring=QQ)
    cm = maps1.chain_composite()
    src = maps1.complexes[0]
    dst = maps1.complexes[-1]
    plus_in = ((), (V_PLUS,))
    minus_in = ((), (V_MINUS,))

    def apply_chain(m, chain):
        i, vec = m.src.chain_to_vec(chain)
        return m.dst.vec_to_chain(i + m.shift, m.apply(i, vec))

    out_plus = apply_chain(cm, {plus_in: Fraction(1)})
    # the final frame's loop id is 1 again
    assert out_plus == {((), (V_MINUS,)): Fraction(2)}
    out_minus = apply_chain(cm, {minus_in: Fraction(1)})
    assert out_minus == {((), (V_PLUS,)): Fraction(2)}
    maps0 = MovieMaps(mv, t=0, ring=QQ)
    cm0 = maps0.chain_composite()
    assert apply_chain(cm0, {plus_in: Fraction(1)}) == {((), (V_MINUS,)): Fraction(2)}
    assert apply_chain(cm0, {minus_in: Fraction(1)}) == {}


def test_compatible_orientations_identity_and_genus1():
    tre = parse_pd(TREFOIL)
    ident = Movie(tre, [])
    assert compatible_orientations(ident, (True,)) == {(True,)}
    mv = Movie(parse_pd("PD[O]"), [Saddle((1, 1)), Saddle((1, 2))])
    assert compatible_orientations(mv, (True,)) == {(True,)}
    assert compatible_orientations(mv, (False,)) == {(False,)}


def test_surface_components_and_closedness():
    torus = Movie(
        PlanarDiagram(), [Birth(), Saddle((1, 1)), Saddle((1, 2)), Death(1)]
    )
    assert torus.has_closed_component()
    assert torus.is_connected_surface()
    strip = Movie(parse_pd("PD[O]"), [Saddle((1, 1)), Saddle((1, 2))])
    assert not strip.has_closed_component()


T, F = True, False
ANNULI = [[(0, 0), (1, 0)], [(0, 1), (1, 1)]]


@pytest.mark.parametrize(
    "pd, move, o, compatible, surface",
    [
        # a birth branches: the new loop takes either orientation
        ("PD[O]", Birth(), (F,), {(F, F), (F, T)}, [[(0, 0), (1, 0)], [(1, 1)]]),
        # the fresh loop of a split takes its circle's colour
        ("PD[X(1,1,2,2)]", Saddle((2, 2)), (F,), {(F, F)}, [[(0, 0), (1, 0), (1, 1)]]),
        ("PD[O, O]", Saddle((1, 2)), (T, T), {(T,)}, [[(0, 0), (0, 1), (1, 0)]]),
        # flip_components reverses both loops an R2 joins
        ("PD[O, O]", R2Move("add", (1, 2)), (T, F), {(F, T)}, ANNULI),
        ("PD[X(1,4,3,2), X(3,4,1,2)]", R2Move("remove", (3, 4)), (T, F), {(F, T)},
         ANNULI),
        ("PD[O]", R1Move("add", 1, "left"), (F,), {(F,)}, [[(0, 0), (1, 0)]]),
        (TREFOIL, Saddle((1, 3), "right"), (F,), {(F, F)}, [[(0, 0), (1, 0), (1, 1)]]),
        # a merge of circles whose colours differ has no compatible orientation
        ("PD[O, O]", Saddle((1, 2)), (T, F), set(), [[(0, 0), (0, 1), (1, 0)]]),
    ],
    ids=["birth", "split-loop", "merge-loops", "r2-loops",
         "r2-remove-loops", "r1-loop", "reconnect", "incompatible-merge"],
)
def test_orientation_transport_per_branch(pd, move, o, compatible, surface):
    """One move per branch of the orientation transport, and the surface
    components the same strand links give."""
    mv = Movie(parse_pd(pd), [move])
    assert compatible_orientations(mv, o) == compatible
    assert sorted(sorted(c) for c in mv.surface_components()) == surface


@pytest.mark.parametrize("over", [False, True])
def test_r2_poke_between_two_loops_keeps_two_annuli(over):
    # with over=True the anchors send old loop 2 to new edge 1, so the label
    # 1 that old loop 1 shares with the new frame names another strand
    mv = Movie(parse_pd("PD[O, O]"), [R2Move("add", (1, 2), over)])
    classes = sorted(sorted(c) for c in mv.surface_components())
    assert len(classes) == 2
    assert all({k for k, _ in c} == {0, 1} for c in classes)
    assert not mv.is_connected_surface()
    # the old loop that the new component through edge 1 continues
    old = 1 if over else 0
    assert {oc for oc, _ in mv.links[0][mv.frames[1].component_map[1]]} == {old}

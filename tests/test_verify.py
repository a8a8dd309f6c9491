import random

import pytest

from kj.canonical import canonical_chain, mod4_types
from kj.corpus import load_movie
from kj.cube import build_complex
from kj.diagram import parse_pd
from kj.homology import homology
from kj.movie import Movie, MovieMaps, compatible_orientations, kj_number
from kj.moves import R1Move, R2Move, R3Move, Saddle, apply_move
from kj.rings import QQ, QSQRT2, QSqrt2
from kj.sparse import SparseMatrix, solve_in_image
from kj.verify import (
    corollary_suite,
    euler_oracle_suite,
    leading_order_check,
    leading_order_suite,
    random_cancelling_insertion,
    rmoves_suite,
    run_suite,
    verify_corollary,
    verify_proposition,
)

from diagrams import CURL, R3_UNKNOT, TREFOIL, UNKNOT, UNLINK2


def test_birth_proposition_example():
    mv = Movie(parse_pd(UNKNOT), [__import__("kj.moves", fromlist=["Birth"]).Birth()])
    report = verify_proposition(mv, (True,))
    assert report.ok
    assert report.details["chi"] == 1
    assert len(report.details["compatible"]) == 2
    # here 2^(-chi) = 2^(-1) differs from 2^(-1/2): the alternative fails
    assert report.details["exponent_-chi"] is False


def test_death_proposition_example():
    from kj.moves import Death

    mv = Movie(parse_pd(UNLINK2), [Death(1)])
    report = verify_proposition(mv, (True, True))
    assert report.ok and report.details["chi"] == 1


def test_genus1_proposition_and_corollary():
    mv = Movie(parse_pd(UNKNOT), [Saddle((1, 1)), Saddle((1, 2))])
    rep = verify_proposition(mv, (True,))
    assert rep.ok and rep.details["chi"] == -2
    cor = verify_corollary(mv)
    assert cor.ok and cor.details["combination"] == "sum" and cor.details["sign"] in (1, -1)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the label convention is per piece")
def test_proposition_on_a_poke_that_joins_two_pieces():
    # the smallest failing movie of the proposition sweep (seed 8,
    # seeded-7): after the split the frame PD[X(1,1,2,2), O] has two pieces,
    # and the poke joins them; both orientations fail at level chain today
    mv = Movie(parse_pd(CURL), [Saddle((2, 2), "left"), R2Move("add", (3, 1))])
    for o in [(True,), (False,)]:
        assert verify_proposition(mv, o).ok


def test_r2_exactness_witness():
    # in the opposite-orientation poke, the image differs from the target
    # canonical chain by an exact term
    mv = Movie(parse_pd(UNKNOT), [R2Move("add", (1, 1))])
    maps = MovieMaps(mv, t=1, ring=QSQRT2)
    c1, c2 = maps.complexes
    cm = maps.steps[0]
    from kj.movie import effective_orientation, movie_total_flip

    flip = movie_total_flip(mv)
    for o in ((True,), (False,)):
        i, vec = c1.chain_to_vec(canonical_chain(c1, o, rescaled=True))
        image = c2.vec_to_chain(i + cm.shift, cm.apply(i, vec))
        o2 = effective_orientation(next(iter(compatible_orientations(mv, o))), flip)
        for sign in (1, -1):
            target = canonical_chain(c2, o2, rescaled=True)
            target = {g: QSQRT2.from_int(sign) * v for g, v in target.items()}
            residue = dict(image)
            for g, v in target.items():
                w = residue.get(g, QSQRT2.zero) - v
                if QSQRT2.is_zero(w):
                    residue.pop(g, None)
                else:
                    residue[g] = w
            if not residue:
                break
            i, vec = c2.chain_to_vec(residue)
            if i - 1 not in c2.bases:
                continue
            sol = solve_in_image(c2.diff[i - 1], vec)
            if sol is not None:
                break
        else:
            raise AssertionError(f"no exactness witness for {o}")


def test_reidemeister_moves_preserve_homology():
    base = parse_pd(TREFOIL)
    base_summary = homology(build_complex(base, 0, QQ)).nonzero()
    moves = [
        Movie(base, [R1Move("add", 1, "left")]),
        Movie(base, [R1Move("add", 2, "right")]),
        Movie(base, [R2Move("add", (1, 3))]),
    ]
    for mv in moves:
        after = homology(build_complex(mv.frames[-1], 0, QQ)).nonzero()
        assert after == base_summary
    slid = Movie(parse_pd(R3_UNKNOT), [R3Move((0, 1, 2))])
    a = homology(build_complex(slid.frames[0], 0, QQ)).nonzero()
    b = homology(build_complex(slid.frames[1], 0, QQ)).nonzero()
    assert a == b


def test_homology_invariant_under_crossing_reordering():
    reordered = parse_pd("PD[X(5,3,6,2), X(1,5,2,4), X(3,1,4,6)]")
    a = homology(build_complex(parse_pd(TREFOIL), 0, QQ)).nonzero()
    b = homology(build_complex(reordered, 0, QQ)).nonzero()
    assert a == b


def test_suites_all_green():
    for reports in (
        euler_oracle_suite(),
        rmoves_suite(3),
        corollary_suite(),
        leading_order_suite(),
    ):
        assert all(r.ok for r in reports), [r.line() for r in reports if not r.ok]


def test_leading_order_reads_q_at_the_target_degree_of_a_shifting_saddle():
    # these saddles change the reference crossing signs, so their chain maps
    # send degree i to i - 1: the check reads the target's q at i - 1, and
    # n_plus - 2 n_minus drops by 3, so the t = 0 map has q degree -4 where
    # chi = -1
    for text, saddle in ((CURL, Saddle((1, 2), "left")), (CURL, Saddle((2, 1), "right")),
                         (R3_UNKNOT, Saddle((2, 6), "left"))):
        mv = Movie(parse_pd(text), [saddle])
        assert MovieMaps(mv, t=0).steps[0].shift == -1
        report = leading_order_check(mv)
        assert report.ok
        (move,) = report.details["moves"]
        assert (move["checked"], move["chi"], move["min_extra_shift"]) == (True, -1, 4)
        assert report.details["composite_min_extra"] == 4


def test_insertion_invariance_nonclosed():
    # inserting a cancelling pair into an open movie keeps the induced map
    # up to global sign
    mv = Movie(parse_pd(UNKNOT), [Saddle((1, 1)), Saddle((1, 2))])
    rng = random.Random(5)
    noisy = random_cancelling_insertion(mv, rng)
    shift_a, a = MovieMaps(mv, t=0, ring=QQ).induced_map()
    shift_b, b = MovieMaps(noisy, t=0, ring=QQ).induced_map()
    assert shift_a == shift_b
    for i, m in a.items():
        other = b[i]
        negated = SparseMatrix(other.rows, other.cols, QQ, {k: -v for k, v in other.data.items()})
        assert m in (other, negated)


def test_closed_movies_and_suites_never_compute_a_kernel_basis(monkeypatch):
    """Movie maps read homology off the recorded elimination: only the
    greedy basis of an open movie's ends or of `kj generators` asks for
    kernel_basis, so KJ numbers and the verify suites never do."""
    import importlib

    movies = ("torus", "genus2", "torus-noise")
    suites = ("corollary", "proposition")

    def results():
        numbers = [kj_number(load_movie(name)) for name in movies]
        return numbers, [[r.line() for r in run_suite(s, 8)] for s in suites]

    expected = results()

    def refuse(m):
        raise AssertionError("kernel_basis on an automatic path")

    # kj.homology, the attribute of the package, is the function homology()
    for module in ("kj.sparse", "kj.homology"):
        monkeypatch.setattr(importlib.import_module(module), "kernel_basis", refuse)
    assert results() == expected
    assert expected[0] == [2, 0, 2]


def test_automatic_paths_never_use_qsqrt2(monkeypatch):
    """Q(sqrt2) is computed in only when a caller asks for it: the verify
    suites, mod-4 types and KJ numbers run over Q."""

    def refuse(self, other):
        raise AssertionError("Q(sqrt2) arithmetic on an automatic path")

    monkeypatch.setattr(QSqrt2, "__mul__", refuse)
    monkeypatch.setattr(QSqrt2, "__rmul__", refuse)
    assert all(r.ok for r in run_suite("corollary"))
    assert all(r.ok for r in run_suite("rmoves"))
    plus, minus = mod4_types(parse_pd(TREFOIL))
    assert (plus - minus) % 4 == 2
    assert kj_number(load_movie("torus")) == 2


def test_twice_exponent_is_writhe_less_circle_count():
    """The generator's e, read off its oriented resolution's bits, is the
    writhe of the orientation less the circle count of that resolution."""
    from kj.canonical import lee_generator
    from kj.corpus import DIAGRAMS
    from kj.diagram import all_orientations, oriented_resolution, resolve, writhe

    from diagrams import torus_pd

    texts = list(DIAGRAMS.values())
    texts += [torus_pd(n, mirror) for n in (3, 5) for mirror in (False, True)]
    for text in texts:
        d = parse_pd(text)
        for o in all_orientations(d):
            k = resolve(d, oriented_resolution(d, o)).circle_count
            assert lee_generator(d, o).twice_exponent == writhe(d, o) - k, (text, o)


def test_each_frame_orientation_traces_its_oriented_resolution_once(monkeypatch):
    """One proposition check and one corollary check trace the oriented
    resolution of each (frame, orientation) they read once: each builds one
    generator for it and takes its vector and its exponent from there."""
    import kj.canonical as canonical
    import kj.diagram as diagram
    import kj.verify as verify
    from kj.diagram import all_orientations, oriented_resolution

    traced = []

    def traced_resolve(d, bits):
        traced.append((id(d), tuple(bits)))
        return diagram.resolve(d, bits)

    for module in (canonical, verify):
        monkeypatch.setattr(module, "resolve", traced_resolve, raising=False)

    def read(frame, orientations):
        return [(id(frame), oriented_resolution(frame, o)) for o in orientations]

    saddle = Movie(parse_pd(TREFOIL), [Saddle((1, 3), "right")])
    first, last = saddle.frames[0], saddle.frames[-1]
    assert verify_proposition(saddle, (True,)).ok
    assert sorted(traced) == sorted(read(first, [(True,)]) + read(last, all_orientations(last)))
    traced.clear()
    genus1 = verify._genus_movie(1)
    first, last = genus1.frames[0], genus1.frames[-1]
    assert verify_corollary(genus1).ok
    assert sorted(traced) == sorted(
        read(first, all_orientations(first)) + read(last, all_orientations(last))
    )


def test_canonical_coefficients_fall_back_to_classes(monkeypatch):
    """When the pushed chains are not read on canonical chains, the
    proposition and the corollary read the same signs off homology classes."""
    import kj.verify as verify

    saddle = Movie(parse_pd(TREFOIL), [Saddle((1, 3), "right")])

    def reports():
        out = [verify_proposition(saddle, o) for o in ((True,), (False,))]
        return out + [verify_corollary(verify._genus_movie(1))]

    chain_level = reports()
    # the chain-level read is skipped; the class-level read is left as it is
    monkeypatch.setattr(MovieMaps, "chain_level", False)
    class_level = reports()
    for before, after in zip(chain_level, class_level):
        assert before.ok and after.ok, (before.line(), after.line())
        assert before.details.pop("level") == "chain"
        assert after.details.pop("level") == "class"
        assert after.details == before.details
    assert chain_level[0].details["signs"] == {"++": 1}


def test_transport_report_names_an_origin_whose_transport_branches():
    from kj.moves import Birth
    from kj.verify import _canonical_transport_report

    report = _canonical_transport_report(Movie(parse_pd(UNKNOT), [Birth()]), "birth")
    assert not report.ok
    assert report.details == {"error": "transport of (True,) branches"}

from fractions import Fraction

import pytest

from kj.canonical import (
    LABEL_A,
    LABEL_B,
    canonical_chain,
    lee_generator,
    mod4_types,
    verify_basis,
)
from kj.corpus import DIAGRAMS
from kj.cube import V_MINUS, V_PLUS, build_complex
from kj.diagram import all_orientations, parse_pd
from kj.errors import PDValidationError
from kj.homology import FieldHomology
from kj.rings import GF, QQ, QSQRT2, QSqrt2, half_power_of_two

from diagrams import CURL, FIG8, HOPF, R3_UNKNOT, TREFOIL, UNKNOT, UNLINK2, torus_pd


def test_unknot_generators_expand_correctly():
    d = parse_pd(UNKNOT)
    c = build_complex(d, 1, QQ)
    s_o = canonical_chain(c, (True,))
    s_oprime = canonical_chain(c, (False,))
    plus = ((), (V_PLUS,))
    minus = ((), (V_MINUS,))
    assert s_o == {minus: Fraction(1), plus: Fraction(1)}
    assert s_oprime == {minus: Fraction(1), plus: Fraction(-1)}
    # v+ = (s_o - s_o')/2
    half = Fraction(1, 2)
    diff = {g: half * (s_o.get(g, 0) - s_oprime.get(g, 0)) for g in set(s_o) | set(s_oprime)}
    diff = {g: v for g, v in diff.items() if v}
    assert diff == {plus: Fraction(1)}


def test_generators_are_cycles_everywhere():
    for text in (UNKNOT, CURL, TREFOIL, HOPF, FIG8, UNLINK2, R3_UNKNOT):
        d = parse_pd(text)
        c = build_complex(d, 1, QQ)
        for o in all_orientations(d):
            i, vec = c.chain_to_vec(canonical_chain(c, o))
            assert c.apply(i, vec) == {}


def test_adjacent_circles_alternate_labels():
    d = parse_pd(TREFOIL)
    gen = lee_generator(d, (True,))
    assert sorted(gen.labels) == [LABEL_A, LABEL_B]


def test_scale_exponents():
    assert lee_generator(parse_pd(UNKNOT), (True,)).scale_exponent == Fraction(-1, 2)
    assert lee_generator(parse_pd(TREFOIL), (True,)).scale_exponent == Fraction(1, 2)
    assert lee_generator(parse_pd(FIG8), (True,)).scale_exponent == Fraction(-3, 2)


def test_rescaled_chain_uses_exact_half_powers():
    d = parse_pd(UNKNOT)
    c = build_complex(d, 1, QSQRT2)
    sbar = canonical_chain(c, (True,), rescaled=True)
    inv_sqrt2 = half_power_of_two(-1)
    assert sbar[((), (V_PLUS,))] == inv_sqrt2
    assert sbar[((), (V_MINUS,))] == inv_sqrt2


def test_verify_basis_on_corpus():
    for text in (UNKNOT, CURL, TREFOIL, HOPF, FIG8, UNLINK2, R3_UNKNOT):
        report = verify_basis(parse_pd(text))
        assert report.ok, text
        assert report.homology_rank == 2 ** parse_pd(text).component_count


def test_verify_basis_refuses_dependent_classes(monkeypatch):
    # every orientation given the first orientation's cycle: the rank still
    # matches, but the repeated classes are dependent and the check fails
    def first_generator(d, orientation):
        return lee_generator(d, all_orientations(d)[0])

    monkeypatch.setattr("kj.canonical.lee_generator", first_generator)
    for text in (HOPF, UNLINK2, TREFOIL):
        d = parse_pd(text)
        report = verify_basis(d)
        assert not report.ok, text
        assert report.homology_rank == 2 ** d.component_count


def test_mod4_types():
    assert mod4_types(parse_pd(UNKNOT)) == (3, 1)
    for text in (TREFOIL, CURL, FIG8):
        plus, minus = mod4_types(parse_pd(text))
        assert (plus - minus) % 4 == 2
    with pytest.raises(PDValidationError):
        mod4_types(parse_pd(HOPF))


def test_global_color_flip_swaps_generators_on_knots():
    for text in (UNKNOT, TREFOIL, CURL, FIG8):
        d = parse_pd(text)
        gen = lee_generator(d, (True,))
        flipped = tuple(LABEL_B if lab == LABEL_A else LABEL_A for lab in gen.labels)
        reversed_ = lee_generator(d, (False,))
        assert flipped == reversed_.labels
        assert gen.bits == reversed_.bits


def test_canonical_classes_independent_in_homology():
    d = parse_pd(HOPF)
    c = build_complex(d, 1, QQ)
    fh = FieldHomology(c)
    coords = []
    for o in all_orientations(d):
        i, vec = c.chain_to_vec(canonical_chain(c, o))
        coords.append((i, fh.reduce(i, vec)))
    # four distinct classes across degrees 0 and 2
    assert len(coords) == 4
    seen = set()
    for i, cc in coords:
        seen.add((i, tuple(sorted((k, str(v)) for k, v in cc.items()))))
    assert len(seen) == 4


def _stack_expansion(gen, c):
    """The raw cycle by expanding a = v- + v+ and b = v- - v+ circle by
    circle, as a chain of ``c``: the reference ``CanonicalGenerator.vector``
    is checked against."""
    expansion = {LABEL_A: {V_MINUS: 1, V_PLUS: 1}, LABEL_B: {V_MINUS: 1, V_PLUS: -1}}
    stack = [((), c.ring.one)]
    for lab in gen.labels:
        stack = [
            (prefix + (vlab,), coeff * c.ring.from_int(x))
            for prefix, coeff in stack
            for vlab, x in expansion[lab].items()
        ]
    return {(gen.bits, labels): coeff for labels, coeff in stack}


def test_vector_is_the_stack_expansion():
    texts = list(DIAGRAMS.values())
    texts += [torus_pd(n, mirror) for n in (3, 5, 7) for mirror in (False, True)]
    for text in texts:
        d = parse_pd(text)
        for ring in (QQ, GF(5), QSQRT2):
            c = build_complex(d, 1, ring)
            for o in all_orientations(d):
                gen = lee_generator(d, o)
                reference = _stack_expansion(gen, c)
                assert gen.vector(c) == c.chain_to_vec(reference), (text, ring.name, o)
                assert gen.chain(c) == reference
                if ring is QSQRT2:
                    factor = half_power_of_two(gen.twice_exponent)
                    assert gen.rescaled_chain(c) == {g: factor * v for g, v in reference.items()}

"""Machine verification of the canonical-generator calculus.

Each checker runs the exact-arithmetic engine on one instance and returns a
structured report; the suites iterate over the bundled corpus plus seeded
random instances. Reports carry the realized signs and both exponent
hypotheses (-chi/2 against -chi), so a discrepancy is documented rather
than assumed away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .canonical import canonical_chain
from .cube import build_complex, graded_euler_characteristic, kauffman_bracket
from .diagram import (
    PlanarDiagram,
    all_orientations,
    oriented_resolution,
    parse_pd,
    render_pd,
    resolve,
    writhe,
)
from .errors import IllegalMoveError
from .homology import homology
from .movie import (
    Movie,
    MovieMaps,
    compatible_orientations,
    effective_orientation,
    movie_total_flip,
)
from .moves import MOVE_JSON, Birth, Death, Move, R1Move, R2Move, R3Move, Saddle, apply_move
from .rings import QQ, half_power_sign
from .sparse import _Echelon, vec_sub

__all__ = [
    "verify_proposition",
    "verify_corollary",
    "leading_order_check",
    "euler_oracle_suite",
    "rmoves_suite",
    "proposition_suite",
    "corollary_suite",
    "leading_order_suite",
    "run_suite",
]


@dataclass
class CheckReport:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {"name": self.name, "ok": self.ok, "details": _plain(self.details)}

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name}" + (f" ({extras})" if extras else "")


def _plain(x):
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, set):
        return [_plain(v) for v in sorted(x, key=repr)]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


# The checks push raw canonical cycles s_o over Q. As sbar_o = 2^(e_o/2) s_o,
# a coefficient r of s_o' in the image of s_o is the coefficient
# r * 2^((e_o - e_o')/2) of sbar_o' in the image of sbar_o.


def _twice_exponent(d: PlanarDiagram, orientation) -> int:
    """e = w - k: the writhe less the circle count of the oriented resolution."""
    res = resolve(d, oriented_resolution(d, orientation))
    return writhe(d, orientation) - res.circle_count


def _canonical_coefficients(maps: MovieMaps, chains: list[dict], finals) -> list:
    """For each cycle of ``chains`` on the first frame, the coefficients of
    its image (``MovieMaps.push``) on the last frame's canonical cycles of
    ``finals``, by position in ``finals``, with the level they were read at:
    "chain" when the movie has a move, every move is a chain map and the
    image expands on the canonical chains, else "class", from homology
    classes on the last frame. The coefficients are None when the image is
    outside the canonical span. The canonical cycles and their echelon forms
    are built once for all the chains."""
    c1, c2 = maps.complexes[0], maps.complexes[-1]
    canonical = [c2.chain_to_vec(canonical_chain(c2, o)) for o in finals]
    chain_span = _canonical_span(c2.ring, canonical) if maps.chain_level else None
    class_span = None
    out = []
    for chain in chains:
        image = maps.push(*c1.chain_to_vec(chain))
        if chain_span is not None:
            coeffs = _expand_in_span(chain_span, image)
            if coeffs is not None:
                out.append(("chain", coeffs))
                continue
        fh = maps.homologies[-1]
        if class_span is None:
            class_span = _canonical_span(c2.ring, [_class_of(fh, v) for v in canonical])
        out.append(("class", _expand_in_span(class_span, _class_of(fh, image))))
    return out


def _class_of(fh, image):
    """A (degree, cycle) as (degree, its coordinates on ``fh``'s leftover
    basis)."""
    i, vec = image
    return i, fh.reduce(i, vec) if vec else {}


def _canonical_span(ring, vectors):
    """``vectors``, each (degree, vector), as an echelon form labelled by
    position, with the row number of each (degree, position) they meet."""
    index: dict = {}
    ech = _Echelon(ring)
    for j, (i, vec) in enumerate(vectors):
        ech.insert({index.setdefault((i, p), len(index)): v for p, v in vec.items()}, label=j)
    return index, ech


def _expand_in_span(span, image):
    """Solve image = sum c_o * vector o on a ``_canonical_span``, image a
    (degree, vector), or None."""
    index, ech = span
    i, vec = image
    if any((i, p) not in index for p in vec):
        return None
    return ech.membership({index[i, p]: v for p, v in vec.items()})


def verify_proposition(movie: Movie, orientation) -> CheckReport:
    """phi'(sbar_o) against sum over compatible orientations of
    +-2^(-chi/2) sbar, with the alternative exponent -chi also evaluated."""
    return _proposition_reports(movie, [orientation])[0]


def _proposition_reports(movie: Movie, orientations) -> list[CheckReport]:
    """``verify_proposition`` for each orientation of ``orientations``,
    all judged against one build of the movie's maps."""
    names = [f"proposition[{_movie_name(movie)}, o={_otxt(o)}]" for o in orientations]
    error = None
    if any(f.is_empty() for f in movie.frames):
        error = "movie has an empty frame"
    elif movie.has_closed_component():
        error = "movie has a closed component"
    if error:
        return [CheckReport(name, False, {"error": error}) for name in names]
    maps = MovieMaps(movie, t=1)
    flip = movie_total_flip(movie)
    compats = [
        {effective_orientation(o2, flip) for o2 in compatible_orientations(movie, o)}
        for o in orientations
    ]
    finals = all_orientations(movie.frames[-1])
    results = _canonical_coefficients(
        maps, [canonical_chain(maps.complexes[0], o) for o in orientations], finals
    )
    exponents = _final_exponents(movie, finals)
    out = []
    for name, o, compat, (level, coeffs) in zip(names, orientations, compats, results):
        if coeffs is None:
            out.append(CheckReport(
                name, False, {"error": "image is not in the canonical span"}
            ))
            continue
        shifts = _exponent_shifts(movie, o, exponents)
        out.append(_judge_coefficients(
            name, movie.euler_characteristic, finals, shifts, coeffs, compat, level
        ))
    return out


def _final_exponents(movie: Movie, finals) -> list[int]:
    """e_o' of each final orientation o'."""
    return [_twice_exponent(movie.frames[-1], o) for o in finals]


def _exponent_shifts(movie: Movie, orientation, exponents) -> list[int]:
    """e_o' - e_o for each final exponent e_o', o the initial orientation."""
    e_in = _twice_exponent(movie.frames[0], orientation)
    return [e - e_in for e in exponents]


def _judge_coefficients(name, chi, finals, shifts, coeffs, compat, level) -> CheckReport:
    """Each compatible coefficient must be +-2^(-chi/2) (the alternative
    hypothesis: +-2^(-chi)), every other one zero."""
    signs = {}
    ok_main = True
    ok_alt = True
    for j, o in enumerate(finals):
        r = coeffs.get(j, 0)
        if o in compat:
            sign = half_power_sign(r, -chi + shifts[j])
            if sign is None:
                ok_main = False
            else:
                signs[o] = sign
            if half_power_sign(r, -2 * chi + shifts[j]) is None:
                ok_alt = False
        elif r:
            ok_main = False
            ok_alt = False
    details = {
        "chi": chi,
        "level": level,
        "compatible": [_otxt(o) for o in sorted(compat)],
        "signs": {_otxt(o): s for o, s in sorted(signs.items())},
        "exponent_-chi/2": ok_main,
        "exponent_-chi": ok_alt,
    }
    return CheckReport(name, ok_main, details)


def verify_corollary(movie: Movie) -> CheckReport:
    """The mod-4 dichotomy for a connected cobordism between knots."""
    name = f"corollary[{_movie_name(movie)}]"
    d1, d2 = movie.frames[0], movie.frames[-1]
    if d1.component_count != 1 or d2.component_count != 1:
        return CheckReport(name, False, {"error": "ends are not knots"})
    if not movie.is_connected_surface():
        return CheckReport(name, False, {"error": "cobordism is not connected"})
    # sbar_+ - sbar_- is a multiple of s_+ - s_- only if both orientations of
    # a knot share their exponent, so check that at both ends
    exps = [{_twice_exponent(d, o) for o in all_orientations(d)} for d in (d1, d2)]
    if any(len(e) != 1 for e in exps):
        return CheckReport(name, False, {"error": "orientations rescale differently"})
    shift = exps[1].pop() - exps[0].pop()
    chi = movie.euler_characteristic
    maps = MovieMaps(movie, t=1)
    c1 = maps.complexes[0]
    diff = vec_sub(QQ, canonical_chain(c1, (True,)), canonical_chain(c1, (False,)))
    [(level, coeffs)] = _canonical_coefficients(maps, [diff], all_orientations(d2))
    if coeffs is None:
        return CheckReport(name, False, {"error": "image not in canonical span"})
    c_a = coeffs.get(0, 0)
    c_b = coeffs.get(1, 0)
    residue = chi % 4
    if residue == 0:
        shape_ok = c_a == -c_b  # multiple of sbar_o - sbar_o'
    elif residue == 2:
        shape_ok = c_a == c_b  # multiple of sbar_o + sbar_o'
    else:
        return CheckReport(name, False, {"error": f"chi = {chi} is odd"})
    sign = half_power_sign(c_a, -chi + shift)
    ok = shape_ok and sign is not None
    alt_ok = shape_ok and half_power_sign(c_a, -2 * chi + shift) is not None
    return CheckReport(
        name,
        ok,
        {
            "chi": chi,
            "residue_mod_4": residue,
            "combination": "difference" if residue == 0 else "sum",
            "sign": sign,
            "exponent_-chi/2": ok,
            "exponent_-chi": alt_ok,
            "level": level,
        },
    )


def leading_order_check(movie: Movie) -> CheckReport:
    """Per move, the t = 1 chain map minus the t = 0 one must raise the
    q-filtration strictly; for chain-level movies the composite difference
    must raise it by at least chi + 4."""
    return _leading_order_report(movie, MovieMaps(movie, t=0), MovieMaps(movie, t=1))


def _leading_order_report(movie: Movie, maps0: MovieMaps, maps1: MovieMaps) -> CheckReport:
    """``leading_order_check`` on the movie's maps at t = 0 and t = 1."""
    name = f"leading-order[{_movie_name(movie)}]"
    per_move = []
    all_ok = True
    for k, rec in enumerate(movie.records):
        cm0, cm1 = maps0.chain_steps[k], maps1.chain_steps[k]
        if cm0 is None or cm1 is None:
            per_move.append({"move": rec.kind, "checked": False})
            continue
        chi_move = rec.chi
        ok, min_shift = _difference_filtration(
            maps0.complexes[k], maps0.complexes[k + 1], cm0, cm1, chi_move
        )
        all_ok = all_ok and ok
        per_move.append(
            {"move": rec.kind, "checked": True, "chi": chi_move,
             "strictly_higher": ok, "min_extra_shift": min_shift}
        )
    comp_detail = {}
    comp0 = maps0.chain_composite()
    comp1 = maps1.chain_composite()
    if comp0 is not None and comp1 is not None:
        chi = movie.euler_characteristic
        ok, min_shift = _difference_filtration(
            maps0.complexes[0], maps0.complexes[-1], comp0, comp1, chi,
            minimum_extra=4,
        )
        all_ok = all_ok and ok
        comp_detail = {"composite_ok": ok, "composite_min_extra": min_shift}
    return CheckReport(name, all_ok, {"moves": per_move, **comp_detail})


def _difference_filtration(c_src, c_dst, cm0, cm1, chi, minimum_extra=1):
    """Whether the t = 0 map is pure of q degree chi and the t = 1 map less
    the t = 0 one raises q by at least chi + ``minimum_extra``, and the
    least extra shift of that difference. Degree i of the source maps into
    degree i + shift of the target, where each map's q is read."""
    ok = True
    min_shift = None
    is_zero, zero = cm1.src.ring.is_zero, cm1.src.ring.zero
    for i in c_src.degrees():
        q_src, q_dst = c_src.qs[i], c_dst.qs.get(i + cm0.shift)
        for c, (f0, f1) in enumerate(zip(cm0.columns(i), cm1.columns(i))):
            # the t = 0 map must be pure of degree chi
            if any(q_dst[r] - q_src[c] != chi for r in f0):
                ok = False
            for r in f0.keys() | f1.keys():
                if is_zero(f1.get(r, zero) - f0.get(r, zero)):
                    continue
                extra = q_dst[r] - q_src[c] - chi
                min_shift = extra if min_shift is None else min(min_shift, extra)
                if extra < minimum_extra:
                    ok = False
    return ok, min_shift


def final_computation_check(movie: Movie) -> CheckReport:
    """The genus-one calculation: phi'(v+) = +-2 v- and the vanishing of the
    correction term via the q >= 3 gap of the unknot's homology."""
    return _final_computation_report(movie, MovieMaps(movie, t=0), MovieMaps(movie, t=1))


def _final_computation_report(movie: Movie, maps0: MovieMaps, maps1: MovieMaps) -> CheckReport:
    """``final_computation_check`` on the movie's maps at t = 0 and t = 1."""
    from .cube import V_MINUS, V_PLUS

    name = f"final-computation[{_movie_name(movie)}]"
    if not (maps0.chain_level and maps1.chain_level):
        return CheckReport(name, False, {"error": "movie is not chain-level"})
    c_in, c_out = maps1.complexes[0], maps1.complexes[-1]
    plus = next(
        g for g in c_in.bases[0] if g[1] == (V_PLUS,) * len(g[1]) and not g[0]
    )
    source = c_in.chain_to_vec({plus: QQ.one})
    img1, img0 = maps1.push(*source), maps0.push(*source)
    minus_gen = next(g for g in c_out.bases[0] if g[1] == (V_MINUS,))
    expect = c_out.chain_to_vec({minus_gen: QQ.from_int(2)})
    neg = c_out.chain_to_vec({minus_gen: QQ.from_int(-2)})
    phi_ok = img1 in (expect, neg)
    psi = vec_sub(QQ, img1[1], img0[1])
    chi = movie.euler_characteristic
    bound = 1 + chi + 4
    gap_ok = all(
        q < bound
        for (i, q), (rank, _) in homology(maps0.complexes[-1]).nonzero().items()
        if rank
    )
    return CheckReport(
        name,
        phi_ok and not psi and gap_ok,
        {
            "phi_prime_v_plus": "2 v-" if img1 == expect else ("-2 v-" if img1 == neg else "unexpected"),
            "psi_v_plus_zero": not psi,
            "target_gap_above": bound - 1,
            "gap_ok": gap_ok,
        },
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _movie_name(movie: Movie) -> str:
    names = {
        "birth": "b", "death": "d", "saddle": "s",
        "r1": "r1", "r2": "r2", "r3": "r3",
    }
    start = "empty" if movie.initial.is_empty() else render_pd(movie.initial)
    seq = ",".join(names.get(m.kind, m.kind) for m in movie.moves)
    return f"{start};{seq}"


def _otxt(o) -> str:
    return "".join("+" if b else "-" for b in o) or "()"


def euler_oracle_suite(corpus=None) -> list[CheckReport]:
    from .corpus import DIAGRAMS

    out = []
    for name, text in (corpus or DIAGRAMS).items():
        d = parse_pd(text)
        c = build_complex(d, 0, QQ)
        chi_q = graded_euler_characteristic(c)
        bracket = kauffman_bracket(d, c.resolutions)
        out.append(
            CheckReport(
                f"euler-oracle[{name}]",
                chi_q == bracket,
                {"bracket": str(bracket)},
            )
        )
    return out


def _canonical_transport_report(movie: Movie, label: str) -> CheckReport:
    """rho'([sbar_o]) = +-[sbar_otilde] for every orientation."""
    maps = MovieMaps(movie, t=1)
    flip = movie_total_flip(movie)
    finals = all_orientations(movie.frames[-1])
    exponents = _final_exponents(movie, finals)
    origins = all_orientations(movie.frames[0])
    results = _canonical_coefficients(
        maps, [canonical_chain(maps.complexes[0], o) for o in origins], finals
    )
    signs = {}
    for o, (level, coeffs) in zip(origins, results):
        outs = compatible_orientations(movie, o)
        if len(outs) != 1:
            return CheckReport(label, False, {"error": f"transport of {o} branches"})
        o2 = effective_orientation(next(iter(outs)), flip)
        # an R-move is an isotopy (chi = 0) and o2 its one compatible end
        shifts = _exponent_shifts(movie, o, exponents)
        judged = coeffs is not None and _judge_coefficients(
            label, 0, finals, shifts, coeffs, {o2}, level
        )
        if not (judged and judged.ok):
            return CheckReport(
                label, False, {"error": f"image of {_otxt(o)} is not a signed canonical class"}
            )
        signs[_otxt(o)] = judged.details["signs"][_otxt(o2)]
    return CheckReport(label, True, {"signs": signs})


def rmoves_suite(seed: int = 0) -> list[CheckReport]:
    from .corpus import DIAGRAMS

    out = []
    unknot = parse_pd(DIAGRAMS["unknot"])
    trefoil = parse_pd(DIAGRAMS["trefoil"])
    hopf = parse_pd(DIAGRAMS["hopf"])
    unlink = parse_pd(DIAGRAMS["unlink2"])
    instances: list[tuple[str, Movie]] = []
    for hand in ("left", "right"):
        instances.append(
            (f"r1-add-{hand}-unknot", Movie(unknot, [R1Move("add", 1, hand)]))
        )
        instances.append(
            (f"r1-add-{hand}-trefoil", Movie(trefoil, [R1Move("add", 1, hand)]))
        )
    curl = Movie(unknot, [R1Move("add", 1, "left")])
    instances.append(
        (
            "r1-remove-left",
            Movie(unknot, [R1Move("add", 1, "left"),
                           R1Move("remove", curl.records[0].data["loop_edge"])]),
        )
    )
    poke = Movie(unknot, [R2Move("add", (1, 1))])
    m1, m2 = poke.records[0].data["m1"], poke.records[0].data["m2"]
    instances.append(("r2-add-fold-unknot", poke))
    instances.append(
        (
            "r2-remove-fold",
            Movie(unknot, [R2Move("add", (1, 1)), R2Move("remove", (m1, m2))]),
        )
    )
    instances.append(("r2-add-unlink", Movie(unlink, [R2Move("add", (1, 2))])))
    instances.append(
        ("r2-add-unlink-over", Movie(unlink, [R2Move("add", (1, 2), over=True)]))
    )
    instances.append(("r2-add-trefoil", Movie(trefoil, [R2Move("add", (1, 3))])))
    instances.append(("r2-add-hopf", Movie(hopf, [R2Move("add", (1, 3))])))
    r3d = parse_pd(DIAGRAMS["r3-unknot"])
    instances.append(("r3-slide", Movie(r3d, [R3Move((0, 1, 2))])))
    for label, movie in instances:
        out.append(_canonical_transport_report(movie, f"rmoves[{label}]"))
    return out


def _elementary_morse_instances() -> list[tuple[str, Movie, list]]:
    """(label, movie, orientations of its first frame), one movie each."""
    from .corpus import DIAGRAMS

    out = []
    for name in ("unknot", "unlink2", "curl", "trefoil", "hopf", "fig8"):
        d = parse_pd(DIAGRAMS[name])
        orientations = all_orientations(d)
        out.append((f"birth-on-{name}", Movie(d, [Birth()]), orientations))
        for loop in d.loops[:1]:
            if d.component_count > 1:
                out.append((f"death-on-{name}", Movie(d, [Death(loop)]), orientations))
        saddles = []
        edges = list(d.edges)
        for e1 in edges:
            for e2 in edges:
                for side in ("left", "right"):
                    if len(saddles) >= 3:
                        break
                    try:
                        mv = Movie(d, [Saddle((e1, e2), side)])
                    except IllegalMoveError:
                        continue
                    if any(f.is_empty() for f in mv.frames):
                        continue
                    saddles.append((f"saddle-{e1}-{e2}-{side}-{name}", mv))
        out.extend((label, mv, orientations) for label, mv in saddles)
    return out


def _random_composite_movies(seed: int, count: int = 10):
    from .corpus import DIAGRAMS

    rng = random.Random(seed)
    starts = ["unknot", "unlink2", "curl", "trefoil", "hopf"]
    movies = []
    attempts = 0
    while len(movies) < count and attempts < 400:
        attempts += 1
        d = parse_pd(DIAGRAMS[rng.choice(starts)])
        moves: list[Move] = []
        frame = d
        steps = rng.randint(2, 4)
        good = True
        for _ in range(steps):
            cands = _legal_move_candidates(frame, rng)
            picked = None
            for mv in cands:
                try:
                    nxt, _ = apply_move(frame, mv)
                except IllegalMoveError:
                    continue
                if nxt.is_empty():
                    continue
                if nxt.crossing_count > 4:
                    continue
                picked = (mv, nxt)
                break
            if picked is None:
                good = False
                break
            moves.append(picked[0])
            frame = picked[1]
        if not good or not moves:
            continue
        movie = Movie(d, moves)
        if movie.has_closed_component():
            continue
        movies.append(movie)
    return movies


def _legal_move_candidates(d: PlanarDiagram, rng: random.Random) -> list[Move]:
    edges = list(d.edges)
    cands: list[Move] = [Birth()]
    for loop in d.loops:
        cands.append(Death(loop))
    for _ in range(6):
        if edges:
            e1, e2 = rng.choice(edges), rng.choice(edges)
            cands.append(Saddle((e1, e2), rng.choice(("left", "right"))))
            cands.append(R2Move("add", (e1, e2), rng.choice((False, True))))
    if edges:
        cands.append(R1Move("add", rng.choice(edges), rng.choice(("left", "right"))))
    rng.shuffle(cands)
    return cands


def proposition_suite(seed: int = 0) -> list[CheckReport]:
    instances = _elementary_morse_instances() + [
        (f"seeded-{idx}", movie, all_orientations(movie.frames[0])[:2])
        for idx, movie in enumerate(_random_composite_movies(seed))
    ]
    out = []
    for label, movie, orientations in instances:
        for o, report in zip(orientations, _proposition_reports(movie, orientations)):
            out.append(_rename(report, f"proposition[{label}, o={_otxt(o)}]"))
    # the printed exponent must fail somewhere (chi != 0 instances exist)
    alt_fails = any(
        not r.details.get("exponent_-chi", True) for r in out if r.ok
    )
    out.append(
        CheckReport(
            "proposition[exponent-discrepancy]",
            alt_fails,
            {"alternative_exponent_fails_somewhere": alt_fails},
        )
    )
    return out


def _rename(report: CheckReport, name: str) -> CheckReport:
    report.name = name
    return report


def _genus_movie(genus: int) -> Movie:
    moves: list[Move] = []
    for _ in range(genus):
        moves.append(Saddle((1, 1)))
        moves.append(Saddle((1, 2)))
    return Movie(parse_pd("PD[O]"), moves)


def corollary_suite(seed: int = 0) -> list[CheckReport]:
    out = [
        _rename(verify_corollary(Movie(parse_pd("PD[O]"), [])), "corollary[identity]"),
        _rename(verify_corollary(_genus_movie(1)), "corollary[genus-1]"),
        _rename(verify_corollary(_genus_movie(2)), "corollary[genus-2]"),
    ]
    return out


def leading_order_suite(seed: int = 0) -> list[CheckReport]:
    from .corpus import DIAGRAMS

    unknot = parse_pd(DIAGRAMS["unknot"])
    unlink = parse_pd(DIAGRAMS["unlink2"])
    trefoil = parse_pd(DIAGRAMS["trefoil"])
    movies = [
        ("birth", Movie(unknot, [Birth()])),
        ("death", Movie(unlink, [Death(1)])),
        ("saddle-split", Movie(unknot, [Saddle((1, 1))])),
        ("saddle-merge", Movie(unlink, [Saddle((1, 2))])),
        ("r1-left", Movie(unknot, [R1Move("add", 1, "left")])),
        ("r1-right", Movie(unknot, [R1Move("add", 1, "right")])),
        ("r2-fold", Movie(unknot, [R2Move("add", (1, 1))])),
        ("r2-unlink", Movie(unlink, [R2Move("add", (1, 2))])),
        ("saddle-trefoil", Movie(trefoil, [Saddle((1, 1))])),
    ]
    out = [
        _rename(leading_order_check(mv), f"leading-order[{label}]")
        for label, mv in movies
    ]
    # the genus-1 maps serve both of its checks
    genus1 = _genus_movie(1)
    maps = MovieMaps(genus1, t=0), MovieMaps(genus1, t=1)
    out.append(_rename(_leading_order_report(genus1, *maps), "leading-order[genus-1]"))
    out.append(_rename(
        _final_computation_report(genus1, *maps), "leading-order[final-computation]"
    ))
    return out


SUITES = {
    "euler-oracle": lambda seed: euler_oracle_suite(),
    "rmoves": rmoves_suite,
    "proposition": proposition_suite,
    "corollary": corollary_suite,
    "leading-order": leading_order_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckReport]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)


# ---------------------------------------------------------------------------
# randomized cancelling insertions (closed-movie invariance)
# ---------------------------------------------------------------------------


def random_cancelling_insertion(movie: Movie, rng: random.Random) -> Movie:
    """Insert one (add, remove) Reidemeister pair at a random legal spot.
    The pair may give the frame after it new edge labels (an R1 pair on a
    free loop does), so the later moves are renamed to match, one frame at
    a time."""
    for _ in range(200):
        k = rng.randrange(len(movie.moves) + 1)
        frame = movie.frames[k]
        if frame.is_empty():
            continue
        edges = list(frame.edges)
        choice = rng.random()
        try:
            if choice < 0.5:
                edge = rng.choice(edges)
                hand = rng.choice(("left", "right"))
                add = R1Move("add", edge, hand)
                mid, rec = apply_move(frame, add)
                remove = R1Move("remove", rec.data["loop_edge"], hand)
            else:
                e1 = rng.choice(edges)
                e2 = rng.choice(edges)
                add = R2Move("add", (e1, e2), rng.choice((False, True)))
                mid, rec = apply_move(frame, add)
                remove = R2Move("remove", (rec.data["m1"], rec.data["m2"]))
            after, _ = apply_move(mid, remove)
            moves = [*movie.moves[:k], add, remove]
            for before, mv in zip(movie.frames[k:], movie.moves[k:]):
                mv = _relabelled(mv, _positional_map(before, after))
                after, _ = apply_move(after, mv)
                moves.append(mv)
        except IllegalMoveError:
            continue
        return Movie(movie.initial, moves)
    raise RuntimeError("found no legal cancelling insertion")


def _positional_map(a: PlanarDiagram, b: PlanarDiagram) -> dict[int, int]:
    """Edge relabelling that turns diagram ``a`` into ``b``, crossing slot by
    crossing slot. A free loop keeps its label where ``b`` has it; the other
    loops pair up in sorted order."""
    if len(a.crossings) != len(b.crossings) or len(a.loops) != len(b.loops):
        raise IllegalMoveError("the cancelling pair changed the frame")
    m: dict[int, int] = {}
    for ca, cb in zip(a.crossings, b.crossings):
        for x, y in zip(ca, cb):
            if m.setdefault(x, y) != y:
                raise IllegalMoveError("the cancelling pair changed the frame")
    kept = set(a.loops) & set(b.loops)
    m.update((e, e) for e in kept)
    m.update(zip(sorted(set(a.loops) - kept), sorted(set(b.loops) - kept)))
    if len(set(m.values())) != len(m):
        raise IllegalMoveError("the cancelling pair changed the frame")
    return m


def _relabelled(mv: Move, m: dict[int, int]) -> Move:
    """``mv`` with its edges renamed by ``m``: its ``edge`` or ``edges``
    key in the move table."""
    keys = MOVE_JSON[mv.kind][1]
    if "edge" in keys:
        return replace(mv, edge=m[mv.edge])
    if "edges" in keys:
        return replace(mv, edges=tuple(m[e] for e in mv.edges))
    return mv

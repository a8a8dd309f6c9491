"""Machine verification of the canonical-generator calculus.

Each checker runs the exact-arithmetic engine on one instance and returns a
structured report; the suites iterate over the bundled corpus plus seeded
random instances. Reports carry the realized signs and both exponent
hypotheses (-chi/2 against -chi), so a discrepancy is documented rather
than assumed away. The proposition, transport and corollary checks build one
``lee_generator`` per (frame, orientation) they read and take from it both
the canonical vector and the exponent e = w - k; they expand a pushed image
on the last frame's canonical vectors, keyed by (degree, position).

Every suite is a module-level function ``suite(seed, table)`` returning its
reports, listed by name in ``SUITES``: ``seed`` draws its random movies and
``table`` is the run's ``FrameTable``; a suite with no use for one of them
ignores it. ``run_suite`` calls each suite so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import islice, product

from .canonical import _canonical_span, lee_generator
from .corpus import DIAGRAMS
from .cube import V_MINUS, V_PLUS, build_complex, graded_euler_characteristic, kauffman_bracket
from .diagram import PlanarDiagram, all_orientations, parse_pd, render_pd
from .errors import IllegalMoveError
from .homology import homology
from .movie import (
    ChainMap,
    FrameTable,
    Movie,
    MovieMaps,
    compatible_orientations,
    effective_orientation,
    movie_total_flip,
)
from .moves import (MOVE_JSON, Birth, Death, Move, MoveRecord, R1Move, R2Move, R3Move, Saddle,
                    apply_move)
from .rings import QQ, half_power_sign
from .sparse import vec_sub

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
# r * 2^((e_o - e_o')/2) of sbar_o' in the image of sbar_o. Each check builds
# one generator per (frame, orientation) it reads, for its vector and its e.


def _canonical_coefficients(maps: MovieMaps, cycles: list[tuple[int, dict]], finals) -> list:
    """For each (degree, cycle) of ``cycles`` on the first frame, the
    coefficients of its image (``MovieMaps.push``) on the canonical cycles of
    the last frame's generators ``finals``, by position in ``finals``, with
    the level they were read at: "chain" when the movie has a move, every
    move is a chain map and the image expands on the canonical vectors, else
    "class", from homology classes on the last frame. The coefficients are
    None when the image is outside the canonical span. The canonical vectors
    and their echelon forms are built once for all the cycles."""
    c2 = maps.complexes[-1]
    canonical = [gen.vector(c2) for gen in finals]
    chain_span = _canonical_span(c2.ring, canonical) if maps.chain_level else None
    class_span = None
    out = []
    for cycle in cycles:
        image = maps.push(*cycle)
        if chain_span is not None:
            coeffs = _expand_in_span(chain_span, image)
            if coeffs is not None:
                out.append(("chain", coeffs))
                continue
        fh = maps.homology(-1)
        if class_span is None:
            class_span = _canonical_span(c2.ring, [(i, fh.reduce(i, v)) for i, v in canonical])
        i, vec = image
        out.append(("class", _expand_in_span(class_span, (i, fh.reduce(i, vec)))))
    return out


def _expand_in_span(span, image):
    """Solve image = sum c_o * vector o on a ``_canonical_span``, image a
    (degree, vector), or None."""
    i, vec = image
    return span.membership({(i, p): v for p, v in vec.items()})


def verify_proposition(movie: Movie, orientation) -> CheckReport:
    """phi'(sbar_o) against sum over compatible orientations of
    +-2^(-chi/2) sbar, with the alternative exponent -chi also evaluated."""
    return _proposition_reports(movie, [orientation])[0]


def _proposition_reports(movie: Movie, orientations, table: FrameTable | None = None
                         ) -> list[CheckReport]:
    """``verify_proposition`` for each orientation of ``orientations``,
    all judged against one build of the movie's maps, whose frames come
    from ``table`` where it has them (``MovieMaps``)."""
    names = [f"proposition[{_movie_name(movie)}, o={_otxt(o)}]" for o in orientations]
    error = None
    if any(f.is_empty() for f in movie.frames):
        error = "movie has an empty frame"
    elif movie.has_closed_component():
        error = "movie has a closed component"
    if error:
        return [CheckReport(name, False, {"error": error}) for name in names]
    maps = MovieMaps(movie, t=1, table=table)
    flip = movie_total_flip(movie)
    compats = [
        {effective_orientation(o2, flip) for o2 in compatible_orientations(movie, o)}
        for o in orientations
    ]
    starts = [lee_generator(movie.frames[0], o) for o in orientations]
    finals = all_orientations(movie.frames[-1])
    ends = [lee_generator(movie.frames[-1], o) for o in finals]
    c1 = maps.complexes[0]
    results = _canonical_coefficients(maps, [gen.vector(c1) for gen in starts], ends)
    out = []
    for name, start, compat, (level, coeffs) in zip(names, starts, compats, results):
        if coeffs is None:
            out.append(CheckReport(
                name, False, {"error": "image is not in the canonical span"}
            ))
            continue
        shifts = [end.twice_exponent - start.twice_exponent for end in ends]  # e_o' - e_o
        out.append(_judge_coefficients(
            name, movie.euler_characteristic, finals, shifts, coeffs, compat, level
        ))
    return out


def _judge_coefficients(name, chi, finals, shifts, coeffs, compat, level) -> CheckReport:
    """Each compatible coefficient must be +-2^(-chi/2) (the alternative
    hypothesis: +-2^(-chi)), every other one zero."""
    signs = {}
    ok_main = True
    ok_alt = True
    for j, o in enumerate(finals):
        r = coeffs.get(j, 0)
        if o in compat:
            sign, alt = _exponent_signs(r, chi, shifts[j])
            if sign is None:
                ok_main = False
            else:
                signs[o] = sign
            ok_alt = ok_alt and alt
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


def _exponent_signs(r, chi, shift):
    """The sign s with r = s 2^((-chi + shift)/2), the paper's exponent,
    or None; and whether r is +-2^((-2 chi + shift)/2), the alternative
    exponent -chi. ``shift`` is e_o' - e_o of the two canonical vectors."""
    return half_power_sign(r, -chi + shift), half_power_sign(r, -2 * chi + shift) is not None


def verify_corollary(movie: Movie, table: FrameTable | None = None) -> CheckReport:
    """The mod-4 dichotomy for a connected cobordism between knots; the
    frames come from ``table`` where it has them (``MovieMaps``)."""
    name = f"corollary[{_movie_name(movie)}]"
    d1, d2 = movie.frames[0], movie.frames[-1]
    if d1.component_count != 1 or d2.component_count != 1:
        return CheckReport(name, False, {"error": "ends are not knots"})
    if not movie.is_connected_surface():
        return CheckReport(name, False, {"error": "cobordism is not connected"})
    # sbar_+ - sbar_- is a multiple of s_+ - s_- only if both orientations of
    # a knot share their exponent, so check that at both ends
    gens = [[lee_generator(d, o) for o in all_orientations(d)] for d in (d1, d2)]
    exps = [{gen.twice_exponent for gen in frame} for frame in gens]
    if any(len(e) != 1 for e in exps):
        return CheckReport(name, False, {"error": "orientations rescale differently"})
    shift = exps[1].pop() - exps[0].pop()
    chi = movie.euler_characteristic
    maps = MovieMaps(movie, t=1, table=table)
    # both orientations of a knot have one oriented resolution, so one degree
    (i, plus), (_, minus) = (gen.vector(maps.complexes[0]) for gen in gens[0])
    [(level, coeffs)] = _canonical_coefficients(maps, [(i, vec_sub(QQ, plus, minus))], gens[1])
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
    sign, alt = _exponent_signs(c_a, chi, shift)
    ok = shape_ok and sign is not None
    alt_ok = shape_ok and alt
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


def leading_order_check(movie: Movie, table: FrameTable | None = None) -> CheckReport:
    """Per move, the t = 1 chain map minus the t = 0 one must raise the
    q-filtration strictly; for chain-level movies the composite difference
    must raise it by at least chi + 4. The t = 0 map has q degree chi plus
    3 times the degree it shifts by, as n_plus - 2 n_minus changes so. The
    frames come from ``table`` where it has them (``MovieMaps``)."""
    return _leading_order_report(
        movie, MovieMaps(movie, t=0, table=table), MovieMaps(movie, t=1, table=table)
    )


def _leading_order_report(movie: Movie, maps0: MovieMaps, maps1: MovieMaps) -> CheckReport:
    """``leading_order_check`` on the movie's maps at t = 0 and t = 1."""
    name = f"leading-order[{_movie_name(movie)}]"
    per_move = []
    all_ok = True
    for k, rec in enumerate(movie.records):
        cm0, cm1 = maps0.steps[k], maps1.steps[k]
        if type(cm0) is not ChainMap or type(cm1) is not ChainMap:
            per_move.append({"move": rec.kind, "checked": False})
            continue
        # a map that shifts the degree changes n_plus - 2 n_minus by 3 shift
        ok, min_shift = _difference_filtration(
            maps0.complexes[k], maps0.complexes[k + 1], cm0, cm1, rec.chi + 3 * cm0.shift
        )
        all_ok = all_ok and ok
        per_move.append(
            {"move": rec.kind, "checked": True, "chi": rec.chi,
             "strictly_higher": ok, "min_extra_shift": min_shift}
        )
    comp_detail = {}
    comp0 = maps0.chain_composite()
    comp1 = maps1.chain_composite()
    if comp0 is not None and comp1 is not None:
        ok, min_shift = _difference_filtration(
            maps0.complexes[0], maps0.complexes[-1], comp0, comp1,
            movie.euler_characteristic + 3 * comp0.shift, minimum_extra=4,
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
    name = f"final-computation[{_movie_name(movie)}]"
    if not (maps0.chain_level and maps1.chain_level):
        return CheckReport(name, False, {"error": "movie is not chain-level"})
    c_in, c_out = maps1.complexes[0], maps1.complexes[-1]
    # v+ on every circle of the crossingless first frame; +-2 v- on the last
    i, p = c_in.index[(), (V_PLUS,) * c_in.resolutions[()].circle_count]
    img1, img0 = maps1.push(i, {p: QQ.one}), maps0.push(i, {p: QQ.one})
    j, m = c_out.index[(), (V_MINUS,)]
    expect, neg = (j, {m: QQ.from_int(2)}), (j, {m: QQ.from_int(-2)})
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


def euler_oracle_suite(seed: int = 0, table: FrameTable | None = None) -> list[CheckReport]:
    """The graded Euler characteristic of each corpus diagram's Khovanov
    complex against its Kauffman bracket. It builds no movie, so it reads
    neither ``seed`` nor ``table``."""
    out = []
    for name, text in DIAGRAMS.items():
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


def _canonical_transport_report(movie: Movie, label: str, table: FrameTable | None = None
                                ) -> CheckReport:
    """rho'([sbar_o]) = +-[sbar_otilde] for every orientation o of the first
    frame, read off ``_proposition_reports``: each o must have exactly one
    compatible end otilde (a report with an error names none), and its
    report must pass (an R-move is an isotopy, so chi = 0). The first origin
    that fails, in the order of ``all_orientations``, gives the error;
    otherwise the report is the sign of each origin's one compatible end."""
    origins = all_orientations(movie.frames[0])
    signs = {}
    for o, report in zip(origins, _proposition_reports(movie, origins, table)):
        if "compatible" in report.details and len(report.details["compatible"]) != 1:
            return CheckReport(label, False, {"error": f"transport of {o} branches"})
        if not report.ok:
            return CheckReport(
                label, False, {"error": f"image of {_otxt(o)} is not a signed canonical class"}
            )
        [signs[_otxt(o)]] = report.details["signs"].values()
    return CheckReport(label, True, {"signs": signs})


def rmoves_suite(seed: int = 0, table: FrameTable | None = None) -> list[CheckReport]:
    out = []
    unknot = parse_pd(DIAGRAMS["unknot"])
    trefoil = parse_pd(DIAGRAMS["trefoil"])
    hopf = parse_pd(DIAGRAMS["hopf"])
    unlink = parse_pd(DIAGRAMS["unlink2"])
    instances: list[tuple[str, Movie]] = []
    for hand in ("left", "right"):
        instances.append((f"r1-add-{hand}-unknot", Movie(unknot, [R1Move("add", 1, hand)])))
        instances.append((f"r1-add-{hand}-trefoil", Movie(trefoil, [R1Move("add", 1, hand)])))
    curl = Movie(unknot, [R1Move("add", 1, "left")])
    instances.append(("r1-remove-left", Movie(unknot, [*curl.moves, _undo(curl.records[0])])))
    poke = Movie(unknot, [R2Move("add", (1, 1))])
    instances.append(("r2-add-fold-unknot", poke))
    instances.append(("r2-remove-fold", Movie(unknot, [*poke.moves, _undo(poke.records[0])])))
    instances.append(("r2-add-unlink", Movie(unlink, [R2Move("add", (1, 2))])))
    instances.append(("r2-add-unlink-over",
                      Movie(unlink, [R2Move("add", (1, 2), over=True)])))
    instances.append(("r2-add-trefoil", Movie(trefoil, [R2Move("add", (1, 3))])))
    instances.append(("r2-add-hopf", Movie(hopf, [R2Move("add", (1, 3))])))
    r3d = parse_pd(DIAGRAMS["r3-unknot"])
    instances.append(("r3-slide", Movie(r3d, [R3Move((0, 1, 2))])))
    for label, movie in instances:
        out.append(_canonical_transport_report(movie, f"rmoves[{label}]", table))
    return out


def _elementary_morse_instances() -> list[tuple[str, Movie, list]]:
    """(label, movie, orientations of its first frame), one movie each."""
    out = []
    for name in ("unknot", "unlink2", "curl", "trefoil", "hopf", "fig8"):
        d = parse_pd(DIAGRAMS[name])
        orientations = all_orientations(d)
        out.append((f"birth-on-{name}", Movie(d, [Birth()]), orientations))
        for loop in d.loops[:1]:
            if d.component_count > 1:
                out.append((f"death-on-{name}", Movie(d, [Death(loop)]), orientations))
        out.extend((f"{label}-{name}", mv, orientations)
                   for label, mv in islice(_legal_saddles(d), 3))
    return out


def _legal_saddles(d: PlanarDiagram):
    """(label, movie) for each one-saddle movie on ``d`` that leaves no
    frame empty, in order of first edge, second edge and side."""
    for e1, e2, side in product(d.edges, d.edges, ("left", "right")):
        try:
            mv = Movie(d, [Saddle((e1, e2), side)])
        except IllegalMoveError:
            continue
        if not any(f.is_empty() for f in mv.frames):
            yield f"saddle-{e1}-{e2}-{side}", mv


def _random_composite_movies(seed: int) -> list[Movie]:
    """Ten seeded movies of two to four moves on small corpus diagrams,
    each frame non-empty with at most four crossings and no closed
    component (fewer if 400 draws do not find ten)."""
    rng = random.Random(seed)
    starts = ["unknot", "unlink2", "curl", "trefoil", "hopf"]
    movies = []
    attempts = 0
    while len(movies) < 10 and attempts < 400:
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


def proposition_suite(seed: int = 0, table: FrameTable | None = None) -> list[CheckReport]:
    instances = _elementary_morse_instances() + [
        (f"seeded-{idx}", movie, all_orientations(movie.frames[0])[:2])
        for idx, movie in enumerate(_random_composite_movies(seed))
    ]
    out = []
    for label, movie, orientations in instances:
        for o, report in zip(orientations, _proposition_reports(movie, orientations, table)):
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


def corollary_suite(seed: int = 0, table: FrameTable | None = None) -> list[CheckReport]:
    out = [
        _rename(verify_corollary(Movie(parse_pd("PD[O]"), []), table), "corollary[identity]"),
        _rename(verify_corollary(_genus_movie(1), table), "corollary[genus-1]"),
        _rename(verify_corollary(_genus_movie(2), table), "corollary[genus-2]"),
    ]
    return out


def leading_order_suite(seed: int = 0, table: FrameTable | None = None) -> list[CheckReport]:
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
        _rename(leading_order_check(mv, table), f"leading-order[{label}]")
        for label, mv in movies
    ]
    # the genus-1 maps serve both of its checks
    genus1 = _genus_movie(1)
    maps = MovieMaps(genus1, t=0, table=table), MovieMaps(genus1, t=1, table=table)
    out.append(_rename(_leading_order_report(genus1, *maps), "leading-order[genus-1]"))
    out.append(_rename(
        _final_computation_report(genus1, *maps), "leading-order[final-computation]"
    ))
    return out


SUITES = {
    "euler-oracle": euler_oracle_suite,
    "rmoves": rmoves_suite,
    "proposition": proposition_suite,
    "corollary": corollary_suite,
    "leading-order": leading_order_suite,
}


def run_suite(name: str, seed: int = 0) -> list[CheckReport]:
    """The reports of one suite, or of every suite for "all". One
    ``FrameTable`` serves every movie the run builds maps of, so a movie
    takes the frames it shares with the movie before it at its t."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    table = FrameTable()
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    return [report for suite in suites for report in suite(seed, table)]


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
            else:
                e1 = rng.choice(edges)
                e2 = rng.choice(edges)
                add = R2Move("add", (e1, e2), rng.choice((False, True)))
            mid, rec = apply_move(frame, add)
            remove = _undo(rec)
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


def _undo(rec: MoveRecord) -> Move:
    """The removal that undoes the R1 or R2 addition ``rec`` records."""
    if rec.kind == "r1_add":
        return R1Move("remove", rec.data["loop_edge"], rec.data["hand"])
    return R2Move("remove", (rec.data["m1"], rec.data["m2"]))


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

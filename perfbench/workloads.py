"""Workload inputs, job lists and answer checks for the kj benchmark.

Every expected answer here comes from outside kj's homology code: the
hand-written tables in ``expected.json`` (Khovanov 2000, section 6.2 closed
form for T(2,n); Lee 2005 total rank 2^components), the closed form of the
Jones polynomial of T(2,n), and the Khovanov-Jacobsson numbers of the bundled
surfaces (n = 2 for a torus, 0 for a sphere or a genus-2 surface).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from kj.corpus import bundled_path
from kj.diagram import PlanarDiagram
from kj.errors import IllegalMoveError
from kj.moves import Death, R1Move, R2Move, Saddle, apply_move, move_from_json, move_to_json

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# kj's own verify seed is fixed: the suites' run time ranges from 8.6 s to
# 20.7 s over verify seeds 0-11, which would swamp every timing bound. Seed 8
# fails two proposition checks at class level, so the known defect stays
# visible, and at about 9 s it is among the cheapest seeds, which keeps a
# two-pass run short.
VERIFY_SEED = 8

HOMOLOGY_THEORIES = (("kh", "Z"), ("kh", "Q"), ("lee", "Q"), ("lee", "Fp:5"))
MOVIE_CROSSING_CAP = 5
# one cancelling group adds an R1 curl and two R2 pokes (1 + 2 + 2 = 5
# crossings at its deepest frame) and then removes them in reverse order
GROUP_KINDS = ("r1", "r2", "r2")
GROUPS_PER_MOVIE = 2
SURFACES = {  # bundled base movie -> (Euler characteristic, n)
    "sphere": (2, 0),
    "torus": (0, 2),
    "torus-noise": (0, 2),
    "genus2": (-2, 0),
}
GENERATED_BASES = ("torus",) * 4 + ("genus2",) * 4


@dataclass(frozen=True)
class Job:
    """One kj invocation. ``check(stdout, exit_code)`` returns (operations
    attempted, operations failed, failing names, whether the output is what
    the benchmark expects). Only verify-suites separates the last two: a
    check that kj itself reports as [FAIL] is a failed operation, but the
    output is as expected when it reports it consistently."""

    key: str
    argv: tuple[str, ...]
    check: Callable[[str, int], tuple[int, int, list[str], bool]]


# -- inputs -------------------------------------------------------------------


def torus_pd(n: int, mirror: bool) -> str:
    """T(2,n) by the ROADMAP formula (odd n, positive); mirror reverses the
    cyclic order of every crossing."""
    if n % 2 == 0:
        raise ValueError("the formula gives T(2,n) only for odd n")
    w = lambda x: (x - 1) % (2 * n) + 1  # noqa: E731
    xs = [(w(2 * i), w(2 * i + n + 1), w(2 * i + 1), w(2 * i + n)) for i in range(1, n + 1)]
    if mirror:
        xs = [(a, d, c, b) for a, b, c, d in xs]
    return "PD[" + ", ".join("X(%d,%d,%d,%d)" % x for x in xs) + "]"


def torus_name(n: int, mirror: bool) -> str:
    return f"T(2,{n})" + ("*" if mirror else "")


def torus_jones(n: int, mirror: bool) -> dict[int, int]:
    """Unnormalized Jones polynomial of T(2,n): q^(n-2) + q^n + q^(n+2) - q^(3n)."""
    s = -1 if mirror else 1
    return {s * (n - 2): 1, s * n: 1, s * (n + 2): 1, s * 3 * n: -1}


# -- output parsers -----------------------------------------------------------

_GROUP_RE = re.compile(
    r"^\s*i =\s*(-?\d+)(?:, q =\s*(-?\d+))?: rank (\d+)(?:\s+torsion (.*))?$"
)


def parse_homology(text: str) -> list[list]:
    groups = []
    for line in text.splitlines():
        m = _GROUP_RE.match(line)
        if m:
            i, q, rank, tors = m.groups()
            tors = [int(t.split("/")[1]) for t in tors.split()] if tors else []
            groups.append([int(i), None if q is None else int(q), int(rank), tors])
    return groups


def parse_laurent(text: str) -> dict[int, int]:
    """Inverse of Laurent.__repr__: '-q^9 + q^5 + 2*q^-1 + 1'."""
    out: dict[int, int] = {}
    if text.strip() == "0":
        return out
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, _, var = tok.rpartition("*") if "*" in tok else ("", "", tok)
        if var.startswith("q"):
            exp = int(var[2:]) if var.startswith("q^") else 1
            c = int(coeff) if coeff else 1
        else:
            exp, c = 0, int(var)
        out[exp] = out.get(exp, 0) + sign * c
        sign = 1
    return out


def _field(text: str, label: str) -> str | None:
    m = re.search(rf"^{re.escape(label)}:\s*(.*)$", text, re.M)
    return m.group(1).strip() if m else None


# -- checks -------------------------------------------------------------------


def _one(ok: bool, key: str):
    return (1, 0, [], True) if ok else (1, 1, [key], False)


def homology_check(name: str, theory: str, ring: str, components: int):
    """Kh against the hand-written table; Lee by its total rank."""

    def check(out: str, code: int):
        if code != 0:
            return _one(False, name)
        got = parse_homology(out)
        if theory == "lee":
            # Lee 2005: total rank 2^components over any field of char != 2
            return _one(sum(g[2] for g in got) == 2 ** components, name)
        want = EXPECTED["kh"][name]
        if ring != "Z":
            want = [[i, q, r, []] for i, q, r, _ in want if r]
        return _one(sorted(got) == sorted(want), name)

    return check


def jones_check(key: str, expected: dict[int, int]):
    def check(out: str, code: int):
        euler = _field(out, "euler characteristic")
        ok = (
            code == 0
            and _field(out, "oracle agreement") == "yes"
            and euler is not None
            and parse_laurent(euler) == expected
            and parse_laurent(_field(out, "state sum") or "") == expected
        )
        return _one(ok, key)

    return check


def movie_check(key: str, chi: int, n: int):
    def check(out: str, code: int):
        ok = (
            code == 0
            and _field(out, "euler characteristic") == str(chi)
            and re.search(rf"^n = {n}$", out, re.M) is not None
        )
        return _one(ok, key)

    return check


def verify_check(key: str):
    """One operation per check; a check fails when kj prints [FAIL] for it."""

    def check(out: str, code: int):
        lines = out.splitlines()
        m = re.match(r"^(\d+)/(\d+) checks passed$", lines[-1]) if lines else None
        if m is None:
            return 1, 1, [key], False
        passed, total = int(m.group(1)), int(m.group(2))
        failing = [ln[len("[FAIL] "):].split(" (")[0] for ln in lines if ln.startswith("[FAIL] ")]
        consistent = passed + len(failing) == total and code == (10 if failing else 0)
        if not consistent:
            return total, total, [key], False
        return total, len(failing), failing, True

    return check


# -- movie decoration ---------------------------------------------------------


def positional_map(a, b) -> dict[int, int]:
    """Edge relabelling that turns diagram a into diagram b, slot by slot;
    raises ValueError when the two are not the same diagram up to labels."""
    if len(a.crossings) != len(b.crossings) or len(a.loops) != len(b.loops):
        raise ValueError("different shapes")
    m: dict[int, int] = {}
    for ca, cb in zip(a.crossings, b.crossings):
        for x, y in zip(ca, cb):
            if m.setdefault(x, y) != y:
                raise ValueError("inconsistent relabelling")
    # free loops are interchangeable circles side by side in the plane
    m.update(zip(sorted(a.loops), sorted(b.loops)))
    if len(set(m.values())) != len(m):
        raise ValueError("relabelling is not a bijection")
    return m


def _cancelling_group(frame, rng: random.Random, attempts: int = 60):
    """Adds in a seeded order from GROUP_KINDS, then their removals in
    reverse. Returns (moves, frames from ``frame`` on) or None."""
    for _ in range(attempts):
        kinds = list(GROUP_KINDS)
        rng.shuffle(kinds)
        try:
            cur, frames, recs, moves = frame, [frame], [], []
            for kind in kinds:
                edges = cur.edges
                if kind == "r1":
                    mv = R1Move("add", rng.choice(edges), rng.choice(("left", "right")))
                else:
                    mv = R2Move("add", (rng.choice(edges), rng.choice(edges)), rng.random() < 0.5)
                cur, rec = apply_move(cur, mv)
                frames.append(cur)
                recs.append(rec)
                moves.append(mv)
            if max(len(f.crossings) for f in frames) > MOVIE_CROSSING_CAP:
                continue
            for depth in reversed(range(len(kinds))):
                m = positional_map(frames[depth + 1], cur)
                data = recs[depth].data
                if kinds[depth] == "r1":
                    mv = R1Move("remove", m[data["loop_edge"]])
                else:
                    mv = R2Move("remove", (m[data["m1"]], m[data["m2"]]))
                cur, _ = apply_move(cur, mv)
                frames.append(cur)
                moves.append(mv)
            positional_map(frame, cur)
            return moves, frames
        except (IllegalMoveError, ValueError, KeyError):
            continue
    return None


# Per-group cost ranges from 0.1 s to 0.9 s, so groups drawn from the run's
# seed made a pass of movie-noisy range from 4.0 s to 7.1 s across seeds. The
# groups are therefore drawn once, from this fixed seed, and so are the pairs
# that share a movie; the run's seed places each pair: which base movie,
# which one-loop frames, and the job order.
POOL_SEED = 2005


def decoration_pool() -> list[list[tuple[list, list]]]:
    """GROUPS_PER_MOVIE cancelling groups for each generated movie, each as
    (moves, frames) on the one-loop frame PD[O]."""
    rng = random.Random(POOL_SEED)
    one_loop = PlanarDiagram((), (1,))
    pool = []
    while len(pool) < len(GENERATED_BASES) * GROUPS_PER_MOVIE:
        group = _cancelling_group(one_loop, rng)
        if group is not None:
            pool.append(group)
    return [pool[k:k + GROUPS_PER_MOVIE] for k in range(0, len(pool), GROUPS_PER_MOVIE)]


def decorated_movie(base: str, groups, rng: random.Random) -> dict:
    """The bundled ``base`` movie with the given groups inserted at seeded
    one-loop frames, as movie JSON."""
    text = bundled_path(f"{base}.movie").read_text()
    base_moves = [move_from_json(m) for m in json.loads(text)["moves"]]
    frames = [PlanarDiagram()]
    for mv in base_moves:
        frames.append(apply_move(frames[-1], mv)[0])
    spots = [k for k, f in enumerate(frames) if not f.crossings and len(f.loops) == 1]
    at = sorted(rng.choice(spots) for _ in groups)
    actual, relabel, out = PlanarDiagram(), {}, []
    pending = iter(groups)
    for k, mv in enumerate(base_moves):
        for _ in range(at.count(k)):
            moves, canonical = next(pending)
            # the loop's label does not reach past the first move: from there
            # on, the frames equal the canonical ones
            moves = [_relabelled(moves[0], {1: actual.loops[0]})] + moves[1:]
            cur = actual
            for j, step in enumerate(moves, 1):
                cur = apply_move(cur, step)[0]
                if cur != canonical[j]:
                    raise RuntimeError(f"decoration of {base} left its canonical frames")
            step_map = positional_map(actual, cur)
            relabel = {e: step_map[v] for e, v in relabel.items()}
            out.extend(moves)
            actual = cur
        mv = _relabelled(mv, relabel)
        actual = apply_move(actual, mv)[0]
        out.append(mv)
        relabel = positional_map(frames[k + 1], actual)
    return {"initial": "empty", "moves": [move_to_json(m) for m in out]}


def _relabelled(mv, m: dict[int, int]):
    if isinstance(mv, Death):
        return Death(m[mv.edge])
    if isinstance(mv, (Saddle, R2Move)):
        return replace(mv, edges=(m[mv.edges[0]], m[mv.edges[1]]))
    if isinstance(mv, R1Move):
        return replace(mv, edge=m[mv.edge])
    return mv


# -- job lists ----------------------------------------------------------------


def build_jobs(workload: str, seed: int, workdir: Path):
    """Write the workload's input files into workdir and return
    ``jobs(pass_index) -> list[Job]``. The seed picks the job order, the
    chirality each torus knot starts with, and where the movie decorations
    go; kj sees only the written files. Passes alternate every knot's
    chirality, so a run's timings do not hang on which mirror the seed drew."""
    rng = random.Random(seed)
    if workload == "homology-torus":
        return _torus_jobs(rng, workdir, (3, 5, 7), _homology_torus, _homology_corpus())
    if workload == "cube-oracle":
        return _torus_jobs(rng, workdir, (5, 7, 9), _jones_torus, _jones_corpus())
    if workload == "movie-noisy":
        return _movie_jobs(rng, workdir)
    if workload == "verify-suites":
        argv = ("verify", "all", "--seed", str(VERIFY_SEED))
        job = Job(" ".join(argv), argv, verify_check("verify"))
        return lambda p: [job]
    raise ValueError(f"unknown workload {workload!r}")


def _torus_jobs(rng: random.Random, workdir: Path, ns, make, fixed: list[Job]):
    paths = {}
    for n in ns:
        for mirror in (False, True):
            path = workdir / f"T2_{n}{'m' if mirror else ''}.pd"
            path.write_text(torus_pd(n, mirror) + "\n")
            paths[n, mirror] = str(path)
    start = {n: rng.random() < 0.5 for n in ns}

    def listed(p: int) -> list[Job]:
        mirrors = {n: start[n] != (p % 2 == 1) for n in ns}
        return [j for n in ns for j in make(n, mirrors[n], paths[n, mirrors[n]])] + fixed

    order = list(range(len(listed(0))))
    rng.shuffle(order)
    return lambda p: [listed(p)[i] for i in order]


def _homology_torus(n: int, mirror: bool, path: str) -> list[Job]:
    name = torus_name(n, mirror)
    return [
        Job(f"homology {name} {th} {ring}", ("homology", path, "--theory", th, "--ring", ring),
            homology_check(name, th, ring, 1))
        for th, ring in HOMOLOGY_THEORIES
    ]


def _homology_corpus() -> list[Job]:
    """``kj homology <name>`` with its defaults, Khovanov homology over Z."""
    return [Job(f"homology {name}", ("homology", name), homology_check(name, "kh", "Z", 1))
            for name in ("trefoil", "fig8", "hopf")]


def _jones_torus(n: int, mirror: bool, path: str) -> list[Job]:
    name = torus_name(n, mirror)
    return [Job(f"jones {name}", ("jones", path), jones_check(name, torus_jones(n, mirror)))]


def _jones_corpus() -> list[Job]:
    return [
        Job(f"jones {name}", ("jones", name),
            jones_check(name, {int(e): c for e, c in EXPECTED["jones"][name].items()}))
        for name in EXPECTED["jones"]
    ]


def _movie_jobs(rng: random.Random, workdir: Path):
    jobs = [
        Job(f"movie {base}", ("movie", f"{base}.movie"), movie_check(base, *SURFACES[base]))
        for base in SURFACES
    ]
    pool = decoration_pool()
    rng.shuffle(pool)
    for k, (base, groups) in enumerate(zip(GENERATED_BASES, pool)):
        path = workdir / f"{base}-{k}.movie"
        path.write_text(json.dumps(decorated_movie(base, groups, rng), indent=1) + "\n")
        jobs.append(Job(f"movie {path.name}", ("movie", str(path)),
                        movie_check(path.name, *SURFACES[base])))
    rng.shuffle(jobs)
    return lambda p: jobs

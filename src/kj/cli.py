"""Command line frontend.

Subcommands: homology, jones, generators, movie, verify. Inputs are PD
files, movie JSON files, or bundled corpus names. Output is deterministic
text or JSON (schema 1). Exit codes: 1 parse error, 2 validation error,
3 internal invariant failure, 4 illegal move, 5 diagram too large (more
crossings and free loops than ``kj.cube.MAX_CROSSINGS``, in a diagram or in
any frame of a movie), 10 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .canonical import lee_generator, verify_basis
from .corpus import DIAGRAMS, bundled_path
from .cube import build_complex, graded_euler_characteristic, kauffman_bracket
from .diagram import all_orientations, parse_pd, render_pd, writhe
from .errors import (
    DiagramTooLargeError,
    IllegalMoveError,
    InternalInvariantError,
    PDSyntaxError,
    PDValidationError,
)
from .homology import homology
from .movie import Movie, MovieMaps, kj_number
from .rings import GF, QQ, QSQRT2, ZZ
from .verify import run_suite

SCHEMA = 1

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3
EXIT_MOVE = 4
EXIT_TOO_LARGE = 5
EXIT_VERIFY = 10


def _ring_from_flag(text: str):
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text == "Qsqrt2":
        return QSQRT2
    if text.startswith("Fp:"):
        try:
            p = int(text.split(":", 1)[1])
        except ValueError:
            raise PDValidationError(f"bad prime field spec {text!r}")
        return GF(p)
    raise PDValidationError(f"unknown ring {text!r}")


def _read_text(path) -> str:
    """The file's text; a directory or a file that is not UTF-8 is a parse error."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PDSyntaxError(f"cannot read {path}: {exc}") from None


def _read_diagram(source: str):
    if source in DIAGRAMS:
        return parse_pd(DIAGRAMS[source])
    ref = bundled_path(source)
    if ref is not None and source.endswith(".pd"):
        return parse_pd(_read_text(ref))
    if os.path.exists(source):
        return parse_pd(_read_text(Path(source)))
    raise PDSyntaxError(f"no such diagram file or corpus name: {source}")


def _read_movie(source: str) -> Movie:
    if os.path.exists(source):
        return Movie.from_json(_read_text(Path(source)))
    ref = bundled_path(source)
    if ref is not None:
        return Movie.from_json(_read_text(ref))
    raise PDSyntaxError(f"no such movie file or corpus name: {source}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print(text)


def cmd_homology(args) -> int:
    d = _read_diagram(args.diagram)
    ring = _ring_from_flag(args.ring)
    t = 0 if args.theory == "kh" else 1
    if t == 1 and ring is ZZ:
        # torsion of the deformed theory is out of scope; use a field
        raise PDValidationError("the filtered theory is computed over a field")
    # ranks do not change under the field extension Q(sqrt2) / Q, and every
    # entry of d is an integer, so Q(sqrt2) homology is computed over Q
    complex_ = build_complex(d, t, QQ if ring is QSQRT2 else ring)
    summary = homology(complex_)
    summary.ring_name = ring.name
    _emit(
        args,
        {"command": "homology", "diagram": render_pd(d), "theory": args.theory,
         "result": summary.to_json()},
        summary.to_text(),
    )
    return 0


def cmd_jones(args) -> int:
    d = _read_diagram(args.diagram)
    c = build_complex(d, 0, QQ)
    bracket = kauffman_bracket(d, c.resolutions)
    chi_q = graded_euler_characteristic(c)
    agree = bracket == chi_q
    text = "\n".join(
        [
            f"state sum:            {bracket}",
            f"euler characteristic: {chi_q}",
            f"oracle agreement:     {'yes' if agree else 'NO'}",
        ]
    )
    _emit(
        args,
        {"command": "jones", "diagram": render_pd(d),
         "bracket": bracket.to_json(), "euler": chi_q.to_json(),
         "agree": agree},
        text,
    )
    return 0 if agree else EXIT_INTERNAL


def cmd_generators(args) -> int:
    d = _read_diagram(args.diagram)
    if d.is_empty():
        raise PDValidationError("the empty diagram has no canonical generators")
    report = verify_basis(d)
    rows = []
    for o, (i, coords) in zip(all_orientations(d), report.classes):
        gen = lee_generator(d, o)
        rows.append(
            {
                "orientation": ["+" if b else "-" for b in o],
                "writhe": writhe(d, o),
                "circles": len(gen.labels),
                "labels": list(gen.labels),
                "scale_exponent": str(gen.scale_exponent),
                "degree": i,
                "class": {str(k): str(v) for k, v in sorted(coords.items())},
            }
        )
    lines = [f"canonical generators of {render_pd(d)}"]
    for r in rows:
        lines.append(
            "  o={o}  w={w}  circles={k}  labels={lab}  2^({e})  degree {i}  class {cls}".format(
                o="".join(r["orientation"]), w=r["writhe"], k=r["circles"],
                lab="".join(r["labels"]), e=r["scale_exponent"], i=r["degree"],
                cls=r["class"],
            )
        )
    lines.append(
        f"basis check: {'ok' if report.ok else 'FAILED'} "
        f"(rank {report.homology_rank}, expected {report.expected_rank})"
    )
    _emit(
        args,
        {"command": "generators", "diagram": render_pd(d),
         "generators": rows, "basis_ok": report.ok,
         "rank": report.homology_rank},
        "\n".join(lines),
    )
    return 0 if report.ok else EXIT_INTERNAL


def cmd_movie(args) -> int:
    movie = _read_movie(args.movie)
    if movie.is_closed and args.theory == "lee":
        raise PDValidationError("the KJ number of a closed movie is defined at t = 0")
    chi = movie.euler_characteristic
    frames = [("empty" if f.is_empty() else render_pd(f)) for f in movie.frames]
    payload = {
        "command": "movie",
        "frames": frames,
        "euler_characteristic": chi,
        "closed": movie.is_closed,
    }
    lines = [f"frames ({len(frames)}):"]
    lines.extend(f"  {i}: {f}" for i, f in enumerate(frames))
    lines.append(f"euler characteristic: {chi}")
    if movie.is_closed:
        n = kj_number(movie)
        payload["n"] = n
        lines.append(f"n = {n}")
    else:
        t = 0 if args.theory == "kh" else 1
        shift, mats = MovieMaps(movie, t=t).induced_map()
        blocks = {i: m for i, m in sorted(mats.items()) if m.rows or m.cols}
        payload["induced_map"] = {
            "t": t, "shift": shift,
            "matrices": {str(i): m.to_json() for i, m in blocks.items()},
        }
        lines.append(f"induced map on homology (t = {t}):")
        for i, m in blocks.items():
            lines.append(f"  degree {i} -> {i + shift}: "
                         f"{m.rows}x{m.cols} matrix")
            for (r, c), v in sorted(m.data.items()):
                lines.append(f"    [{r},{c}] = {v}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seed)
    ok = all(r.ok for r in reports)
    text_lines = [r.line() for r in reports]
    text_lines.append(
        f"{sum(r.ok for r in reports)}/{len(reports)} checks passed"
    )
    _emit(
        args,
        {"command": "verify", "suite": args.suite, "seed": args.seed,
         "ok": ok, "checks": [r.to_json() for r in reports]},
        "\n".join(text_lines),
    )
    return 0 if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kj",
        description="Exact Khovanov/Lee homology, movie-induced maps, and "
        "Khovanov-Jacobsson numbers.",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("homology", help="homology of a diagram")
    ph.add_argument("diagram", help="PD file or corpus name")
    ph.add_argument("--theory", choices=("kh", "lee"), default="kh")
    ph.add_argument("--ring", default="Z",
                    help="Z, Q, Qsqrt2, or Fp:<p> with p a prime below 2^31")
    ph.set_defaults(func=cmd_homology)

    pj = sub.add_parser("jones", help="state-sum bracket and the chain-level oracle")
    pj.add_argument("diagram")
    pj.set_defaults(func=cmd_jones)

    pg = sub.add_parser("generators", help="canonical generators of the filtered theory")
    pg.add_argument("diagram")
    pg.set_defaults(func=cmd_generators)

    pm = sub.add_parser("movie", help="frames, Euler characteristic, induced map")
    pm.add_argument("movie", help="movie JSON file or corpus name")
    pm.add_argument("--theory", choices=("kh", "lee"), default="kh")
    pm.set_defaults(func=cmd_movie)

    pv = sub.add_parser("verify", help="run a bundled verification suite")
    pv.add_argument(
        "suite",
        choices=("proposition", "corollary", "rmoves", "leading-order",
                 "euler-oracle", "all"),
    )
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PDSyntaxError as exc:
        print(f"kj: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PDValidationError as exc:
        print(f"kj: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IllegalMoveError as exc:
        print(f"kj: illegal move: {exc}", file=sys.stderr)
        return EXIT_MOVE
    except DiagramTooLargeError as exc:
        print(f"kj: diagram too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except InternalInvariantError as exc:
        print(f"kj: internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import kj.movie
from kj.cli import EXIT_TOO_LARGE, main
from kj.corpus import DIAGRAMS
from kj.cube import MAX_CROSSINGS
from kj.diagram import parse_pd
from kj.errors import IllegalMoveError, PDSyntaxError
from kj.moves import apply_move, move_from_json

from diagrams import REMOVAL_FIRST_MOVIE, torus_pd


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_unknot(capsys):
    code, out, _ = run_cli(capsys, "homology", "unknot", "--theory", "kh")
    assert code == 0
    assert "i =   0, q =   1: rank 1" in out
    assert "i =   0, q =  -1: rank 1" in out


def test_homology_trefoil_lee_rank(capsys):
    code, out, _ = run_cli(capsys, "homology", "trefoil", "--theory", "lee", "--ring", "Q")
    assert code == 0
    assert "rank 2" in out


def test_homology_trefoil_torsion(capsys):
    code, out, _ = run_cli(capsys, "homology", "trefoil", "--theory", "kh", "--ring", "Z")
    assert code == 0
    assert "torsion Z/2" in out


def test_movie_numbers(capsys):
    for name, n in (("torus.movie", 2), ("sphere.movie", 0), ("genus2.movie", 0)):
        code, out, _ = run_cli(capsys, "movie", name)
        assert code == 0
        assert f"n = {n}" in out


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("PD[X(1,2,3)]")
    code, _, err = run_cli(capsys, "homology", str(bad))
    assert code == 1 and "parse error" in err
    invalid = tmp_path / "invalid.pd"
    invalid.write_text("PD[X(1,1,1,2)]")
    code, _, err = run_cli(capsys, "homology", str(invalid))
    assert code == 2 and "validation error" in err
    movie = tmp_path / "bad.movie"
    movie.write_text(json.dumps({"initial": "empty", "moves": [{"type": "death", "edge": 7}]}))
    code, _, err = run_cli(capsys, "movie", str(movie))
    assert code == 4 and "illegal move" in err
    for ring in ("Fp:4", "Fp:1", "Fp:1000000000000000003"):
        code, _, err = run_cli(capsys, "homology", "trefoil", "--ring", ring)
        assert code == 2 and err.count("\n") == 1 and "validation error" in err
    malformed = [
        "PD[X(1,5,2,4), X(3,1,4,6), X(5,3,6,2)]",
        json.dumps([{"type": "birth"}]),
        json.dumps({"initial": "empty", "moves": [{"type": "saddle"}]}),
        json.dumps({"initial": "empty",
                    "moves": [{"type": "birth"}, {"type": "death", "edge": "x"}]}),
        # JSON's Infinity is a float that no int holds
        json.dumps({"initial": "empty", "moves": [{"type": "death", "edge": float("inf")}]}),
        # an edge or a crossing is a JSON integer, and over a JSON bool
        *(json.dumps({"initial": "empty", "moves": [{"type": "birth"}, move]}) for move in (
            {"type": "death", "edge": 1.5},
            {"type": "death", "edge": "1"},
            {"type": "death", "edge": 1.0},
            {"type": "saddle", "edges": [True, 1]},
            {"type": "r1", "action": "add", "edge": "1"},
            # a key its move type does not list, and a string key holding a number
            {"type": "r1", "action": "add", "edge": 1, "hnad": "right"},
            {"type": "saddle", "edges": [1, 1], "sdie": "right"},
            {"type": "r1", "action": "add", "edge": 1, "hand": 1},
        )),
        json.dumps({"initial": DIAGRAMS["trefoil"],
                    "moves": [{"type": "r2", "action": "add", "edges": [1, 3], "ovre": True}]}),
        # a movie has only initial and moves
        json.dumps({"intial": DIAGRAMS["trefoil"], "moves": []}),
        json.dumps({"initial": DIAGRAMS["trefoil"],
                    "moves": [{"type": "r2", "action": "add", "edges": [1, 3], "over": "false"}]}),
        json.dumps({"initial": DIAGRAMS["trefoil"],
                    "moves": [{"type": "r2", "action": "add", "edges": [1, 3], "over": 0}]}),
        json.dumps({"initial": DIAGRAMS["trefoil"], "moves": [{"type": "r3", "crossings": [0, 1, 2.0]}]}),
    ]
    for k, text in enumerate(malformed):
        path = tmp_path / f"malformed{k}.movie"
        path.write_text(text)
        code, _, err = run_cli(capsys, "movie", str(path))
        assert code == 1 and err.count("\n") == 1 and "parse error" in err
    code, _, err = run_cli(capsys, "movie", "trefoil.pd")
    assert code == 1 and "parse error" in err
    movie.write_text(json.dumps({"initial": "PD[X(1,1,1,2)]", "moves": []}))
    code, _, err = run_cli(capsys, "movie", str(movie))
    assert code == 2 and "validation error" in err
    # the Khovanov-Jacobsson number is a t = 0 invariant
    code, out, err = run_cli(capsys, "movie", "torus.movie", "--theory", "lee")
    assert code == 2 and not out and err.count("\n") == 1 and "validation error" in err
    # a directory or a file that is not UTF-8 is a parse error, not a traceback
    binary = tmp_path / "binary.pd"
    binary.write_bytes(b"PD[X(1,2,\xff\xfe)]")
    for argv in (["homology", str(tmp_path)], ["movie", str(tmp_path)],
                 ["homology", str(binary)], ["jones", str(binary)], ["movie", str(binary)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and not out and err.count("\n") == 1 and "parse error" in err


def test_too_large_diagram_exits_before_building(tmp_path, capsys):
    path = tmp_path / "T2_21.pd"
    path.write_text(torus_pd(21))
    assert MAX_CROSSINGS < 21
    for argv in (["homology", str(path)], ["homology", str(path), "--theory", "lee",
                 "--ring", "Q"], ["jones", str(path)], ["generators", str(path)]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_TOO_LARGE == 5
        assert not out and err.count("\n") == 1 and "diagram too large" in err


def test_too_large_movie_and_free_loops_exit_before_building(
    tmp_path, capsys, monkeypatch
):
    """Free loops count against the bound with crossings, and a movie, open
    or closed, is refused before any of its frames is built, however late
    the large frame comes."""
    curl = {"type": "r1", "action": "add", "edge": 1, "hand": "left"}
    movie = tmp_path / "curls.movie"
    movie.write_text(json.dumps({"initial": "PD[O]", "moves": [curl] * 13}))
    uncurls = [{"type": "r1", "action": "remove", "edge": e, "hand": "left"}
               for e in range(25, 0, -2)]
    closed = tmp_path / "closed.movie"
    closed.write_text(json.dumps({"initial": "empty", "moves": [
        {"type": "birth"}, *[curl] * 13, *uncurls, {"type": "death", "edge": 2}]}))
    loops = tmp_path / "loops.pd"
    loops.write_text("PD[" + ", ".join(["O"] * 40) + "]")
    built = []
    monkeypatch.setattr(kj.movie, "build_complex", lambda *args: built.append(args))
    for argv in (["movie", str(movie)], ["movie", str(movie), "--theory", "lee"],
                 ["movie", str(closed)], ["homology", str(loops)], ["jones", str(loops)]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_TOO_LARGE
        assert not out and err.count("\n") == 1 and "diagram too large" in err
    assert built == []


def test_lee_rejects_characteristic_two(capsys):
    code, _, err = run_cli(capsys, "homology", "trefoil", "--theory", "lee", "--ring", "Fp:2")
    assert code == 2


def test_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--format", "json", "movie", "torus.movie")
    code2, out2, _ = run_cli(capsys, "--format", "json", "movie", "torus.movie")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1 and payload["n"] == 2


def test_generators_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "generators", "unknot")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis_ok"] and payload["rank"] == 2
    labels = {tuple(g["labels"]) for g in payload["generators"]}
    assert labels == {("a",), ("b",)}


def test_verify_suite_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "euler-oracle")
    assert code == 0
    assert "checks passed" in out


def test_open_movie_prints_matrix(capsys):
    import json as _json
    import tempfile, os

    movie = {"initial": "PD[O]", "moves": [
        {"type": "saddle", "edges": [1, 1]},
        {"type": "saddle", "edges": [1, 2]},
    ]}
    with tempfile.NamedTemporaryFile("w", suffix=".movie", delete=False) as f:
        _json.dump(movie, f)
        path = f.name
    try:
        code, out, _ = run_cli(capsys, "movie", path)
        assert code == 0
        assert "induced map on homology" in out
        assert "euler characteristic: -2" in out
    finally:
        os.unlink(path)


def test_open_movie_that_opens_with_a_removal_prints_every_degree(tmp_path, capsys):
    # frame 0 has chains but no homology in degree -1; the last frame has
    # rank 2 in degree 0
    path = tmp_path / "removal-first.movie"
    path.write_text(json.dumps(REMOVAL_FIRST_MOVIE))
    code, out, _ = run_cli(capsys, "movie", str(path), "--theory", "kh")
    assert code == 0
    assert out.endswith(
        "euler characteristic: -2\n"
        "induced map on homology (t = 0):\n"
        "  degree -1 -> 0: 2x0 matrix\n"
        "  degree 0 -> 1: 0x4 matrix\n"
    )


# -- fuzzed inputs: every bad input ends in a documented exit code ------------

_CLEAN_EXITS = {0, 1, 2, 4, 5}
_SMALL = ("unknot", "unlink2", "curl", "trefoil", "hopf", "r3-unknot")
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20), st.floats(),
    st.sampled_from((float("inf"), float("-inf"), float("nan"))), st.text(max_size=4),
    st.lists(st.integers(-1, 9), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
# any move type with junk fields, or no object at all
_BAD_MOVE = st.one_of(
    st.builds(lambda t, fields: {"type": t, **fields},
              st.sampled_from(("birth", "death", "saddle", "r1", "r2", "r3", "r4")),
              st.dictionaries(st.sampled_from(("edge", "edges", "side", "action", "hand",
                                               "over", "crossings")), _JUNK, max_size=3)),
    _JUNK,
)


def _move(frame, edge):
    """A well-formed move on ``frame``; additions only while it is small, so
    every complex stays quick to build."""
    sides = st.sampled_from(("left", "right"))
    actions = ("add", "remove") if frame.crossing_count <= 4 else ("remove",)
    return st.one_of(
        st.just({"type": "birth"}),
        st.builds(lambda e: {"type": "death", "edge": e}, edge),
        st.builds(lambda a, b, s: {"type": "saddle", "edges": [a, b], "side": s},
                  edge, edge, sides),
        st.builds(lambda a, e, h: {"type": "r1", "action": a, "edge": e, "hand": h},
                  st.sampled_from(actions), edge, sides),
        st.builds(lambda a, b, c, o: {"type": "r2", "action": a, "edges": [b, c], "over": o},
                  st.sampled_from(actions), edge, edge, st.booleans()),
        st.builds(lambda c: {"type": "r3", "crossings": c},
                  st.lists(st.integers(-1, frame.crossing_count), min_size=3, max_size=3)),
    )


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(DIAGRAMS)), data=st.data())
def test_mutated_pd_exits_cleanly(tmp_path_factory, name, data):
    text = DIAGRAMS[name]
    for _ in range(data.draw(st.integers(1, 3))):
        numbers = list(re.finditer(r"\d+", text))
        if numbers and data.draw(st.booleans()):
            m = data.draw(st.sampled_from(numbers))
            new = str(data.draw(st.integers(0, 12)))
            text = text[: m.start()] + new + text[m.end():]
        else:
            at = data.draw(st.integers(0, len(text)))
            ch = data.draw(st.sampled_from(list("PDXO[](),- 0123459x")))
            text = text[:at] + ch + text[at + data.draw(st.integers(0, 1)):]
    path = tmp_path_factory.mktemp("pd") / "fuzz.pd"
    path.write_text(text)
    for argv in (["homology", str(path)], ["jones", str(path)]):
        assert _run_quietly(argv) in _CLEAN_EXITS, (argv[0], text)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(initial=st.sampled_from(("empty",) + _SMALL), data=st.data(),
       theory=st.sampled_from(("kh", "lee")))
def test_fuzzed_movie_json_exits_cleanly(tmp_path_factory, initial, data, theory):
    # moves are drawn on the frame the earlier ones reached, so most are legal
    frame = parse_pd(DIAGRAMS.get(initial, "PD[]"))
    moves = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.integers(0, 5)) == 0:
            moves.append(data.draw(_BAD_MOVE))
            continue
        edges = sorted(frame.edges)
        edge = st.sampled_from(edges + [len(edges) + 1])
        moves.append(data.draw(_move(frame, edge)))
        try:
            frame = apply_move(frame, move_from_json(moves[-1]))[0]
        except (IllegalMoveError, PDSyntaxError):
            pass
    obj = {"initial": "empty" if initial == "empty" else DIAGRAMS[initial], "moves": moves}
    path = tmp_path_factory.mktemp("movie") / "fuzz.movie"
    path.write_text(json.dumps(obj))
    code = _run_quietly(["movie", str(path), "--theory", theory])
    assert code in _CLEAN_EXITS, obj

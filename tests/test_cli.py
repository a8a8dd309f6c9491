import json
import time

import pytest

from kj.cli import EXIT_TOO_LARGE, main
from kj.cube import MAX_CROSSINGS

from diagrams import torus_pd


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

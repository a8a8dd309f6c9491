import hashlib
import importlib.util
import json
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cube_stages_row_on_the_trefoil():
    tool = _tool("cube_stages")
    for _, t, ring in tool.THEORIES:
        row = tool.stages(3, t, ring)
        assert row["generators"] == 30
        assert row["entries"] > 0
        assert row["cube_edges"] == 12 and 0 < row["edge_keys"] <= 12
        assert min(row["complex_s"], row["validate_s"], row["write_s"], row["homology_s"]) >= 0
        assert row["rss_before_mib"] <= row["rss_built_mib"] <= row["rss_homology_mib"] \
            <= row["rss_end_mib"]
        for count in (row["squares_summed"], row["codes_summed"]):
            assert isinstance(count, int) and count >= 0
    assert tool.trace_stages(3)["trace_s"] > 0
    for t in (0, 1):
        row = tool.chain_map_stages(tool.MOVIE, t)
        assert row["maps"] == 8 and row["entries"] > 0 and row["maps_s"] >= 0
    # R1 and R2 removals are chain maps: no homology class on torus-noise
    assert tool.kj_number_stages("torus-noise")["field_builds"] == 0
    row = tool.verify_stages(tool.VERIFY_SEED)
    # the movies of one run share frames: 166 complexes and 49 homologies
    # when each movie builds its own and every frame's homology at once
    assert (row["complex_builds"], row["field_builds"]) == (108, 17)
    assert row["checks"] == 122 and row["run_suite_s"] > 0
    table = tool.main(["3"])
    assert table == 0


def test_answers_digest_on_a_few_invocations(tmp_path, capsys):
    tool = _tool("answers_digest")
    names = [name for name, _ in tool.invocations(tmp_path)]
    assert len(names) == len(set(names))
    assert {"homology T2_11 lee Fp:5 json", "jones trefoil text", "generators T2_3 json",
            "verify all 9 json", "verify proposition 29 text", "movie sphere lee text",
            "movie r3-r2 kh json", "error too-large homology T2_13 text",
            "error usage frobnicate json"} <= set(names)
    first = tool.digest(["jones", "trefoil"])
    assert re.fullmatch("[0-9a-f]{64}", first)
    assert tool.digest(["jones", "trefoil"]) == first
    assert tool.digest(["jones", "hopf"]) != first
    assert tool.main(["jones trefoil", "movie sphere lee"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit("  ", 1)[0] for line in lines] == [
        "jones trefoil text", "jones trefoil json",
        "movie sphere lee text", "movie sphere lee json", "all",
    ]
    assert lines[0] == f"jones trefoil text  {tool.digest(['--format', 'text', 'jones', 'trefoil'])}"


def test_orientation_sweep_values_on_a_few_movies():
    from kj.corpus import MOVIES, load_movie
    from kj.verify import _random_composite_movies

    from diagrams import slide_sweep

    tool = _tool("orientation_sweep")
    # the sphere, a birth and a death: one closed component; the birth gives
    # its loop both orientations, and the death takes each to the empty one
    assert tool.movie_values(load_movie("sphere")) == [
        [[(1, 0)]], True, True, [False, False], [()], [(True,), (False,)], [()], [()],
    ]
    # the bundled movies, the composite movies of seed 0 (five with an outer-
    # face convention flip) and the first slides, which flip the convention
    # at their R2 addition; the digest is the sweep's, on these movies alone
    movies = [load_movie(name) for name in MOVIES] + _random_composite_movies(0) + slide_sweep()[:5]
    values = [tool.movie_values(mv) for mv in movies]
    assert sum(len(v) for v in values) == 298
    assert sum(True in v[3] for v in values) == 10
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    assert digest == "06a694833f610d263646a776c17b9320949ee86cdd7a135367d38f05702e51ec"
    assert tool.answer(lambda: 1 // 0) == "ZeroDivisionError('integer division or modulo by zero')"


def test_known_defects_agree_with_the_suite_and_the_movie_maps():
    from kj.errors import InternalInvariantError
    from kj.movie import MovieMaps
    from kj.verify import proposition_suite

    from diagrams import slide_sweep

    tool = _tool("known_defects")
    reports = proposition_suite(8)
    assert tool.proposition_failures(8) == ([r.name for r in reports if not r.ok], len(reports))
    movies = slide_sweep()[:5]
    for t in (0, 1):
        expected = []
        for k, movie in enumerate(movies):
            try:
                MovieMaps(movie, t=t)
            except InternalInvariantError as exc:
                expected.append((k, str(exc)))
        assert tool.slide_failures(movies, t) == expected


def _package(root: Path, modules: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in modules.items():
        (root / name).write_text(text)
    return root


def test_code_lines_of_one_package(tmp_path, capsys):
    tool = _tool("code_lines")
    pkg = _package(tmp_path / "pkg", {
        "a.py": '"""Doc."""\n\nx = 1  # note\n# comment\ny = (\n    2)\n',
        "bb.py": "def f():\n    \"\"\"Doc\n    more.\"\"\"\n    return 1\n",
    })
    assert tool.main([str(pkg)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.py        3",
        "bb.py       2",
        "total       5",
    ]


def test_code_lines_before_and_after(tmp_path, capsys):
    tool = _tool("code_lines")
    before = _package(tmp_path / "before", {"a.py": "x = 1\ny = 2\n", "gone.py": "z = 3\n"})
    after = _package(tmp_path / "after", {"a.py": "x = 1\n", "new.py": "w = 4\nv = 5\n"})
    assert tool.main([str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.py          2 →      1",
        "gone.py       1 →      -",
        "new.py        - →      2",
        "total         3 →      3",
    ]

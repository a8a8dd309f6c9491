"""A movie builds each distinct frame once: frames with equal diagrams
share one complex and one ``FieldHomology``, within one ``MovieMaps`` only.
The state-sum oracle reads the circle counts of the complex it is checked
against, so ``kj jones`` and the euler-oracle suite trace each resolution
once. A complex writes d on its first read, so ``kj jones`` writes none,
and ``kj homology``, which cuts its blocks from the cube edges, none
either."""

import itertools
import sys
from collections import Counter

import pytest

import kj.cube
import kj.movie
import kj.verify as verify
from kj.cli import main
from kj.corpus import DIAGRAMS, MOVIES, load_movie
from kj.diagram import parse_pd
from kj.movie import MovieMaps, kj_number

from diagrams import torus_pd

FieldHomology = sys.modules["kj.homology"].FieldHomology

DISTINCT_FRAMES = {"sphere": 2, "torus": 3, "genus2": 3, "torus-noise": 7}
KJ_NUMBERS = {"sphere": 0, "torus": 2, "genus2": 0, "torus-noise": 2}


def _count_builds(monkeypatch):
    """Count the frame complexes and the FieldHomology builds."""
    counts = Counter()
    build, fh_init = kj.movie.build_complex, FieldHomology.__init__

    def counted_build(*args, **kwargs):
        counts["complexes"] += 1
        return build(*args, **kwargs)

    def counted_fh(self, *args, **kwargs):
        counts["homologies"] += 1
        fh_init(self, *args, **kwargs)

    monkeypatch.setattr(kj.movie, "build_complex", counted_build)
    monkeypatch.setattr(FieldHomology, "__init__", counted_fh)
    return counts


@pytest.mark.parametrize("t", (0, 1))
@pytest.mark.parametrize("name", MOVIES)
def test_each_distinct_frame_is_built_once(monkeypatch, name, t):
    counts = _count_builds(monkeypatch)
    movie = load_movie(name)
    maps = MovieMaps(movie, t)
    homologies = maps.homologies
    distinct = DISTINCT_FRAMES[name]
    assert counts == {"complexes": distinct, "homologies": distinct}
    frames = movie.frames
    assert len(set(frames)) == distinct
    for a, b in itertools.product(range(len(frames)), repeat=2):
        same = frames[a] == frames[b]
        assert (maps.complexes[a] is maps.complexes[b]) == same, (a, b)
        assert (homologies[a] is homologies[b]) == same, (a, b)
    # the table of distinct frames lives in one instance only
    again = MovieMaps(movie, t)
    assert not {id(c) for c in maps.complexes} & {id(c) for c in again.complexes}
    assert not {id(h) for h in homologies} & {id(h) for h in again.homologies}
    assert kj_number(movie) == KJ_NUMBERS[name]


def _count_resolves(monkeypatch):
    """Count the resolutions ``kj.cube`` traces, by (diagram, bit vector)."""
    traced = Counter()
    resolve = kj.cube.resolve

    def counted(d, bits):
        traced[d, tuple(bits)] += 1
        return resolve(d, bits)

    monkeypatch.setattr(kj.cube, "resolve", counted)
    return traced


def test_jones_traces_each_resolution_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "T2_5.pd"
    path.write_text(DIAGRAMS["cinquefoil"])
    traced = _count_resolves(monkeypatch)
    assert main(["jones", str(path)]) == 0
    assert "oracle agreement:     yes" in capsys.readouterr().out
    assert sum(traced.values()) == len(traced) == 2**5


def test_euler_oracle_traces_each_cube_once(monkeypatch):
    traced = _count_resolves(monkeypatch)
    reports = verify.euler_oracle_suite()
    assert reports and all(r.ok for r in reports)
    diagrams = [parse_pd(text) for text in DIAGRAMS.values()]
    assert sum(traced.values()) == len(traced)
    assert len(traced) == sum(2**d.crossing_count for d in diagrams)


def test_jones_and_homology_write_no_differential(monkeypatch, tmp_path, capsys):
    path = tmp_path / "T2_7.pd"
    path.write_text(torus_pd(7))
    fills, built = Counter(), []
    fill, init = kj.cube.LocalTables.fill, kj.cube.ChainComplex.__init__

    def counted_fill(*args):
        fills["fill"] += 1
        fill(*args)

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(kj.cube.LocalTables, "fill", staticmethod(counted_fill))
    monkeypatch.setattr(kj.cube.ChainComplex, "__init__", kept)
    assert main(["jones", str(path)]) == 0
    assert "oracle agreement:     yes" in capsys.readouterr().out
    assert len(built) == 1 and fills["fill"] == 0
    built.clear()
    assert main(["homology", str(path)]) == 0
    assert "rank" in capsys.readouterr().out
    [c] = built
    # homology cuts its blocks from the cube edges; d is written on a first read
    assert fills["fill"] == 0
    assert len(c.values) > 0 and c.diff
    # one call per resolution with edges out: every one but the all-1
    assert fills["fill"] == len(c._edge_shapes) == 2**7 - 1


def test_no_command_writes_the_generator_list(monkeypatch, tmp_path, capsys):
    path = tmp_path / "T2_7.pd"
    path.write_text(torus_pd(7))
    built, init = [], kj.cube.ChainComplex.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(kj.cube.ChainComplex, "__init__", kept)
    for argv in (["jones", str(path)],
                 ["homology", str(path), "--theory", "kh", "--ring", "Z"],
                 ["homology", str(path), "--theory", "lee", "--ring", "Q"],
                 ["movie", "torus-noise.movie"],
                 ["verify", "rmoves", "--seed", "8"]):
        built.clear()
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert built, argv
        assert all("bases" not in c.__dict__ for c in built), argv


@pytest.mark.parametrize("theory, ring", [
    ("kh", "Z"), ("kh", "Q"), ("kh", "Qsqrt2"), ("kh", "Fp:5"),
    ("lee", "Q"), ("lee", "Qsqrt2"), ("lee", "Fp:5"),
])
def test_homology_leaves_the_differential_unwritten(monkeypatch, tmp_path, capsys, theory,
                                                    ring):
    path = tmp_path / "T2_5.pd"
    path.write_text(torus_pd(5))
    built, init = [], kj.cube.ChainComplex.__init__

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(kj.cube.ChainComplex, "__init__", kept)
    assert main(["homology", str(path), "--theory", theory, "--ring", ring]) == 0
    assert "rank" in capsys.readouterr().out
    [c] = built
    assert not {"ptr", "targets", "values"} & c.__dict__.keys()

"""The verify suites build each movie's maps once, keep none of them past
their movie, and read chain-level checks without building a homology
class, and neither does ``kj_number`` on a closed movie with no slide;
``MovieMaps`` builds classes only when asked for them, one
frame at a time. One run's movies share frames through one
``FrameTable``, which holds only the last movie's frames, changes no
report and keeps no complex past the run. Cancelling insertions let R1
pairs through."""

import gc
import importlib.util
import inspect
import json
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import kj.verify as verify
from kj.corpus import DIAGRAMS, load_movie
from kj.cube import ChainComplex
from kj.diagram import parse_pd
from kj.moves import Birth
from kj.movie import FrameTable, Movie, MovieMaps, kj_number
from kj.rings import ZZ

FieldHomology = sys.modules["kj.homology"].FieldHomology
ROOT = Path(__file__).resolve().parent.parent

SUITES = ("euler-oracle", "rmoves", "proposition", "corollary", "leading-order")


def _count_builds(monkeypatch):
    """Record (movie JSON, t) of every MovieMaps build and count the
    FieldHomology builds."""
    builds, classes = [], Counter()
    maps_init, fh_init = MovieMaps.__init__, FieldHomology.__init__

    def counted_maps(self, movie, t, ring=None, table=None):
        builds.append((json.dumps(movie.to_json(), sort_keys=True), t))
        maps_init(self, movie, t, ring, table)

    def counted_fh(self, *args, **kwargs):
        classes["built"] += 1
        fh_init(self, *args, **kwargs)

    monkeypatch.setattr(MovieMaps, "__init__", counted_maps)
    monkeypatch.setattr(FieldHomology, "__init__", counted_fh)
    return builds, classes


def test_each_suite_builds_each_movie_once(monkeypatch):
    builds, classes = _count_builds(monkeypatch)
    fields = {}
    for suite in SUITES:
        builds.clear()
        classes.clear()
        verify.run_suite(suite, 8)
        repeated = [key for key, n in Counter(builds).items() if n > 1]
        assert repeated == [], (suite, repeated)
        fields[suite] = classes["built"]
    assert fields["proposition"] <= 30
    assert fields["leading-order"] == 0


def test_every_suite_is_a_module_function_of_seed_and_table():
    # run_suite calls each suite as suite(seed, table), and the benchmark's
    # tracer wraps each value of SUITES by name
    assert tuple(verify.SUITES) == SUITES
    for key, suite in verify.SUITES.items():
        assert inspect.isfunction(suite) and suite.__module__ == "kj.verify", key
        assert getattr(verify, suite.__name__) is suite, key
        assert list(inspect.signature(suite).parameters) == ["seed", "table"], key


def test_no_maps_outlive_their_movie(monkeypatch):
    refs = []
    maps_init = MovieMaps.__init__

    def tracked(self, movie, t, ring=None, table=None):
        refs.append(weakref.ref(self))
        maps_init(self, movie, t, ring, table)

    monkeypatch.setattr(MovieMaps, "__init__", tracked)
    first = [r.to_json() for r in verify.run_suite("all", 8)]
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
    assert [r.to_json() for r in verify.run_suite("all", 8)] == first


def test_chain_path_builds_no_class(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a homology class was built")

    monkeypatch.setattr(FieldHomology, "__init__", refuse)
    kinds = set()
    for label, movie, orientations in verify._elementary_morse_instances():
        for report in verify._proposition_reports(movie, orientations):
            assert report.ok and report.details["level"] == "chain", report.line()
        kinds.add(label.split("-")[0])
    assert kinds == {"birth", "death", "saddle"}
    report = verify.verify_corollary(verify._genus_movie(1))
    assert report.ok and report.details["level"] == "chain", report.line()


def test_kj_number_builds_no_class_without_removals_or_slides(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a homology class was built")

    monkeypatch.setattr(FieldHomology, "__init__", refuse)
    assert [kj_number(load_movie(name)) for name in ("sphere", "torus", "genus2")] == [0, 2, 0]


def _movie_noisy_movies() -> list[tuple[Movie, int]]:
    """The closed movies of the benchmark's movie-noisy workload, each with
    its n: the bundled ones and the R1/R2-decorated ones that
    ``perfbench/workloads.py`` writes, at one seed."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(workloads)
    rng = random.Random(0)
    out = [(load_movie(base), n) for base, (_, n) in workloads.SURFACES.items()]
    for base, groups in zip(workloads.GENERATED_BASES, workloads.decoration_pool()):
        movie = Movie.from_json(json.dumps(workloads.decorated_movie(base, groups, rng)))
        out.append((movie, workloads.SURFACES[base][1]))
    return out


def test_kj_number_builds_no_class_on_removals(monkeypatch):
    # R1 and R2 removals are chain maps, so a closed movie with no slide is
    # mapped with no homology class, over Z as well as over Q
    cases = _movie_noisy_movies()
    rng = random.Random(4)
    cases += [(verify.random_cancelling_insertion(movie, rng), n) for movie, n in cases[:4] * 3]
    assert sum(rec.kind.endswith("_remove") for movie, _ in cases for rec in movie.records) > 50

    def refuse(self, *args, **kwargs):
        raise AssertionError("a homology class was built")

    monkeypatch.setattr(FieldHomology, "__init__", refuse)
    for movie, n in cases:
        assert kj_number(movie) == n
        i, image = MovieMaps(movie, 0, ZZ).push(0, {0: 1})
        assert i == 0 and abs(image.get(0, 0)) == n


def _count_complexes(monkeypatch):
    """Weak references to every ChainComplex built."""
    refs, init = [], ChainComplex.__init__

    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChainComplex, "__init__", tracked)
    return refs


def test_a_run_shares_frames_and_keeps_no_complex(monkeypatch):
    refs = _count_complexes(monkeypatch)
    verify.run_suite("all", 8)
    assert 0 < len(refs) <= 110  # 166 when every movie builds its own frames
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_a_table_holds_the_last_movie_only():
    table = FrameTable()
    trefoil = parse_pd(DIAGRAMS["trefoil"])
    first = MovieMaps(Movie(trefoil, [Birth()]), 1, table=table)
    shared, dropped = weakref.ref(first.complexes[0]), weakref.ref(first.complexes[1])
    second = MovieMaps(Movie(trefoil, []), 1, table=table)
    assert second.complexes[0] is first.complexes[0]
    del first
    gc.collect()
    assert shared() is not None and dropped() is None


def test_shared_frames_change_no_report(monkeypatch):
    refs = _count_complexes(monkeypatch)
    shared = {s: [r.to_json() for r in verify.run_suite("all", s)] for s in (0, 7, 8)}
    built = len(refs)
    take = FrameTable.take

    def take_nothing(self, frames, t, ring):
        self._last.clear()  # each movie builds its frames on new local tables
        return take(self, frames, t, ring)

    monkeypatch.setattr(FrameTable, "take", take_nothing)
    for s, reports in shared.items():
        assert [r.to_json() for r in verify.run_suite("all", s)] == reports, s
    assert len(refs) - built > built


def test_cancelling_insertions_include_r1_pairs():
    # the insertions of criterion 1: the same seed, movie and count
    rng = random.Random(2026)
    base = load_movie("torus")
    added = []
    for _ in range(20):
        noisy = verify.random_cancelling_insertion(base, rng)
        added.extend(r.kind for r in noisy.records if r.kind.endswith("_add"))
        assert kj_number(noisy) == 2
    assert "r1_add" in added and "r2_add" in added


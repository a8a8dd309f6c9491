"""The verify suites build each movie's maps once, keep none of them past
their movie, and read chain-level checks without building a homology
class, and neither does ``kj_number`` on a closed movie with no removal
and no slide; ``MovieMaps`` builds classes only when asked for them.
Cancelling insertions let R1 pairs through."""

import gc
import json
import random
import sys
import weakref
from collections import Counter

import kj.verify as verify
from kj.corpus import load_movie
from kj.movie import MovieMaps, kj_number

FieldHomology = sys.modules["kj.homology"].FieldHomology

SUITES = ("euler-oracle", "rmoves", "proposition", "corollary", "leading-order")


def _count_builds(monkeypatch):
    """Record (movie JSON, t) of every MovieMaps build and count the
    FieldHomology builds."""
    builds, classes = [], Counter()
    maps_init, fh_init = MovieMaps.__init__, FieldHomology.__init__

    def counted_maps(self, movie, t, ring=None):
        builds.append((json.dumps(movie.to_json(), sort_keys=True), t))
        maps_init(self, movie, t, ring)

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


def test_no_maps_outlive_their_movie(monkeypatch):
    refs = []
    maps_init = MovieMaps.__init__

    def tracked(self, movie, t, ring=None):
        refs.append(weakref.ref(self))
        maps_init(self, movie, t, ring)

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


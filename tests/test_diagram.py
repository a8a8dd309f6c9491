import itertools
import random

import pytest

from kj.diagram import (
    PlanarDiagram,
    all_orientations,
    crossing_sign,
    edge_color,
    joining_bit,
    oriented_resolution,
    parse_pd,
    render_pd,
    resolve,
    smoothing_partner,
    writhe,
)
from kj.corpus import DIAGRAMS, MOVIES, load_movie
from kj.errors import InternalInvariantError, PDSyntaxError, PDValidationError

from diagrams import CURL, FIG8, HOPF, MIRROR_TREFOIL, TREFOIL, slide_sweep, torus_pd


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert d.crossing_count == 3
    assert len(d.edges) == 6
    assert d.component_count == 1


def test_parse_empty_and_unknot():
    assert parse_pd("PD[]").is_empty()
    u = parse_pd("PD[O]")
    assert u.component_count == 1 and u.crossing_count == 0
    uu = parse_pd("PD[O,O]")
    assert uu.component_count == 2 and uu.loops == (1, 2)


def test_parse_curl():
    d = parse_pd(CURL)
    assert d.crossing_count == 1 and d.component_count == 1
    d.validate()


def test_parse_errors():
    with pytest.raises(PDSyntaxError):
        parse_pd("PD[X(1,2,3)]")
    with pytest.raises(PDSyntaxError):
        parse_pd("X(1,2,3,4)")
    with pytest.raises(PDValidationError):
        parse_pd("PD[X(1,1,1,2)]")  # edge 1 used three times
    with pytest.raises(PDValidationError):
        # connected sum of occurrences that cannot embed in the plane
        parse_pd("PD[X(1,2,1,2)]")


def test_whitespace_insensitive():
    d = parse_pd(" PD[ X( 1, 5 ,2,4),X(3,1,4,6)  , X(5,3,6,2) ] ")
    assert d.crossing_count == 3


def test_roundtrip():
    for text in (TREFOIL, MIRROR_TREFOIL, CURL, HOPF, FIG8, "PD[]", "PD[O,O]"):
        d = parse_pd(text)
        d2 = parse_pd(render_pd(d))
        assert sorted(d.crossings) == sorted(d2.crossings)
        assert len(d.loops) == len(d2.loops)


def test_writhe_values():
    assert writhe(parse_pd(TREFOIL)) == 3
    assert writhe(parse_pd(MIRROR_TREFOIL)) == -3
    assert writhe(parse_pd("PD[]")) == 0
    assert writhe(parse_pd(CURL)) == 1


def test_writhe_orientation_behavior():
    tre = parse_pd(TREFOIL)
    for o in all_orientations(tre):
        assert writhe(tre, o) == 3
    hopf = parse_pd(HOPF)
    assert writhe(hopf, (True, True)) == 2
    assert writhe(hopf, (True, False)) == -2
    assert writhe(hopf, (False, False)) == 2  # reversing everything preserves signs


def test_crossing_signs_reference():
    tre = parse_pd(TREFOIL)
    o = tuple([True])
    assert [crossing_sign(tre, o, c) for c in range(3)] == [1, 1, 1]
    mir = parse_pd(MIRROR_TREFOIL)
    assert [crossing_sign(mir, o, c) for c in range(3)] == [-1, -1, -1]


def test_resolve_circle_counts():
    tre = parse_pd(TREFOIL)
    assert resolve(tre, (0, 0, 0)).circle_count == 2
    assert resolve(tre, (1, 1, 1)).circle_count == 3
    assert resolve(parse_pd("PD[O]"), ()).circle_count == 1
    with pytest.raises(PDValidationError):
        resolve(tre, (0, 0))


def test_single_bit_flip_changes_circles_by_one():
    diagrams = [parse_pd(t) for t in (TREFOIL, MIRROR_TREFOIL, CURL, HOPF, FIG8)]
    for d in diagrams:
        n = d.crossing_count
        for bits in itertools.product((0, 1), repeat=n):
            k = resolve(d, bits).circle_count
            for j in range(n):
                flipped = list(bits)
                flipped[j] ^= 1
                k2 = resolve(d, tuple(flipped)).circle_count
                assert abs(k - k2) == 1


def test_joining_bit_joins_the_two_slots():
    texts = [*DIAGRAMS.values(), *(torus_pd(n) for n in (3, 5, 7))]
    pairs = 0
    for d in map(parse_pd, texts):
        for c, crossing in enumerate(d.crossings):
            once = [e for e in crossing if crossing.count(e) == 1]
            for a, b in itertools.permutations(once, 2):
                if d.slot(a, c) % 2 == d.slot(b, c) % 2:
                    continue  # opposite slots: no smoothing arc joins them
                bit = joining_bit(d, c, a, b)
                assert smoothing_partner(d.slot(a, c), bit) == d.slot(b, c)
                assert joining_bit(d, c, b, a) == bit
                pairs += 1
    assert pairs > 100


def test_oriented_resolution():
    tre = parse_pd(TREFOIL)
    assert oriented_resolution(tre, (True,)) == (0, 0, 0)
    mir = parse_pd(MIRROR_TREFOIL)
    assert oriented_resolution(mir, (True,)) == (1, 1, 1)
    assert oriented_resolution(parse_pd("PD[]"), ()) == ()
    assert oriented_resolution(parse_pd(CURL), (True,)) == (0,)


def test_oriented_resolution_circle_counts():
    # circle counts k(o) used by the rescaling exponents
    assert resolve(parse_pd(TREFOIL), (0, 0, 0)).circle_count == 2
    fig8 = parse_pd(FIG8)
    assert writhe(fig8) == 0
    bits = oriented_resolution(fig8, (True,))
    assert resolve(fig8, bits).circle_count == 3


def test_checkerboard_two_coloring_is_consistent():
    # one coloring per diagram: the two sides of every circle of every
    # resolution differ, wherever the circle passes, and each piece's outer
    # face is 0
    rng = random.Random(3)
    for text in (TREFOIL, MIRROR_TREFOIL, HOPF, FIG8, CURL):
        d = parse_pd(text)
        assert {d.face_colors[d.face_of_sector[x]] for x in d.outer_sectors} == {0}
        for _ in range(4):
            bits = tuple(rng.randint(0, 1) for _ in range(d.crossing_count))
            for circ in resolve(d, bits).circles:
                for c, s in circ.trace:
                    right = d.face_colors[d.face_of_sector[c, s]]
                    assert d.color_left_of((c, s)) != right


def test_coherence_guard_of_oriented_color():
    # the trefoil's oriented resolution is (0, 0, 0); at (1, 1, 1) each of
    # its three circles runs along the orientation on one edge and against
    # it on the other
    tre = parse_pd(TREFOIL)
    res = resolve(tre, (1, 1, 1))
    assert [c.edges for c in res.circles] == [(1, 4), (2, 5), (3, 6)]
    for i in range(3):
        with pytest.raises(InternalInvariantError, match="not coherently oriented"):
            res.oriented_color(i, (True,))


def test_euler_formula_all_resolutions_valid():
    for text in (TREFOIL, MIRROR_TREFOIL, CURL, HOPF, FIG8):
        parse_pd(text).validate()


def test_component_map_consistency():
    hopf = parse_pd(HOPF)
    cm = hopf.component_map
    assert cm[1] == cm[2] and cm[3] == cm[4] and cm[1] != cm[3]


def test_writhe_sign_count_consistency():
    from diagrams import CINQUEFOIL

    for text in (TREFOIL, MIRROR_TREFOIL, HOPF, FIG8, CURL, CINQUEFOIL):
        d = parse_pd(text)
        for o in all_orientations(d):
            signs = [crossing_sign(d, o, c) for c in range(d.crossing_count)]
            n_plus = signs.count(1)
            n_minus = signs.count(-1)
            assert n_plus + n_minus == d.crossing_count
            assert writhe(d, o) == n_plus - n_minus


def _reference_circles(d: PlanarDiagram, bits) -> list[frozenset]:
    """The edge sets of the circles of a resolution, by union-find over the
    darts: the two ends of every edge and the two ends of every smoothing
    arc are joined. Ordered by lowest edge; a free loop is a circle of its
    own."""
    parent = {(c, s): (c, s) for c in range(d.crossing_count) for s in range(4)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(a, b):
        parent[find(a)] = find(b)

    for e in d.crossing_edges:
        join(*d.occurrences[e])
    for c, b in enumerate(bits):
        # the 0-smoothing joins slots (0,1) and (2,3), the 1-smoothing (0,3) and (1,2)
        for s, t in ((0, 1), (2, 3)) if b == 0 else ((0, 3), (1, 2)):
            join((c, s), (c, t))
    classes: dict = {}
    for (c, s) in parent:
        classes.setdefault(find((c, s)), set()).add(d.crossings[c][s])
    return sorted([*map(frozenset, classes.values()), *({e} for e in d.loops)], key=min)


def _resolution_cases():
    texts = [*DIAGRAMS.values(), *(torus_pd(n) for n in (3, 5, 7, 9))]
    frames = [f for name in MOVIES for f in load_movie(name).frames]
    return [*map(parse_pd, texts), *dict.fromkeys(frames)]


def test_traced_circles_match_a_union_find_reference():
    cases = 0
    for d in _resolution_cases():
        for bits in itertools.product((0, 1), repeat=d.crossing_count):
            res = resolve(d, bits)
            ref = _reference_circles(d, bits)
            assert [frozenset(c.edges) for c in res.circles] == ref
            on_edge = {e: i for i, es in enumerate(ref) for e in es}
            assert res.circle_of_edge == on_edge
            assert res.circle_count == len(ref)
            for e, i in on_edge.items():
                assert res.circle_index_of_edge(e) == i
            with pytest.raises(KeyError):
                res.circle_index_of_edge(max(d.edges, default=0) + 1)
            for circ in res.circles:
                if circ.is_free_loop:
                    assert circ.trace == () and len(circ.edges) == 1
                    continue
                # the trace starts at the lowest end of the lowest edge and
                # goes from each arrival dart along its smoothing arc, then
                # along the edge there to the next arrival dart
                assert circ.trace[0] == min(d.occurrences[min(circ.edges)])
                assert circ.edges == tuple(d.edge_at(x) for x in circ.trace)
                assert len(set(circ.edges)) == len(circ.edges)
                for (c, s), nxt in zip(circ.trace, circ.trace[1:] + circ.trace[:1]):
                    exit_dart = (c, 3 - s if bits[c] else s ^ 1)
                    assert d.other_end(d.edge_at(exit_dart), exit_dart) == nxt
            cases += 1
    assert cases > 700


def _reference_side_colors(d: PlanarDiagram, bits) -> list:
    """Per circle of a resolution, the colors of the regions left and right
    of it along its trace, by a coloring of the resolution's own: the faces
    of the diagram merged across the smoothing arcs by union-find, the
    merged faces two-colored by a search across the circles from each
    piece's outer face (color 0). None for a free loop."""
    face = d.face_of_sector
    parent = list(range(len(d.faces)))

    def find(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    for c, b in enumerate(bits):
        # the arcs hug sectors 0 and 2 at bit 0, 1 and 3 at bit 1, and join the other two
        parent[find(face[c, 1 - b])] = find(face[c, 3 - b])
    sides = []
    for circ in resolve(d, bits).circles:
        if circ.is_free_loop:
            sides.append(None)
            continue
        c, s = circ.trace[0]
        sides.append((find(face[c, (s - 1) % 4]), find(face[c, s])))
    neighbours: dict = {}
    for side in filter(None, sides):
        neighbours.setdefault(side[0], set()).add(side[1])
        neighbours.setdefault(side[1], set()).add(side[0])
    color = {}
    for sector in d.outer_sectors:
        stack = [find(face[sector])]
        color[stack[0]] = 0
        while stack:
            f = stack.pop()
            for g in neighbours.get(f, ()):
                if g not in color:
                    color[g] = 1 - color[f]
                    stack.append(g)
                assert color[g] != color[f]
    return [None if side is None else (color[side[0]], color[side[1]]) for side in sides]


def test_diagram_coloring_matches_a_merged_face_reference():
    # the regions of every resolution take the diagram's coloring: on the
    # corpus, T(2,3/5/7/9), every frame of the bundled movies and of the
    # slide sweep, every circle of every resolution has the reference's
    # colors on its two sides, and in the oriented resolution of every
    # orientation each edge's color is its circle's
    frames = [f for mv in slide_sweep() for f in mv.frames]
    circles = edges = 0
    for d in dict.fromkeys([*_resolution_cases(), *frames]):
        for bits in itertools.product((0, 1), repeat=d.crossing_count):
            res = resolve(d, bits)
            for circ, sides in zip(res.circles, _reference_side_colors(d, bits)):
                if sides is None:
                    continue
                for c, s in circ.trace:
                    assert d.color_left_of((c, s)) == sides[0]
                    assert d.face_colors[d.face_of_sector[c, s]] == sides[1]
                circles += 1
        for o in all_orientations(d):
            bits = oriented_resolution(d, o)
            res = resolve(d, bits)
            sides = _reference_side_colors(d, bits)
            for i, circ in enumerate(res.circles):
                color = res.oriented_color(i, o)
                if circ.is_free_loop:
                    assert color == o[d.component_map[circ.edges[0]]]
                else:
                    # the trace runs along the orientation or against it throughout
                    start, e = circ.trace[0], circ.edges[0]
                    along = (d.edge_head[e] == start) == o[d.component_map[e]]
                    assert color == sides[i][0 if along else 1]
                for e in circ.edges:
                    assert edge_color(d, e, o) == color
                    edges += 1
    assert circles > 13000 and edges > 2500

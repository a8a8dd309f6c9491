"""Movies of elementary moves and the maps they induce.

A movie is an initial diagram plus a sequence of moves; its frames are the
successive diagrams. Every move induces a map between the homologies of
its frames (for both t = 0 and t = 1):

* Morse moves and R1/R2 moves are honest chain maps, machine checked to
  commute with the differentials. Each is a table on the labels of the
  circles the move consumes and creates, and the identity on every other
  circle, written one source resolution at a time by
  ``cube.LocalTables``, the routine and table format d is written with,
  into a ``cube.ChainMap``, stored in the one form d is stored in (its
  ``mats`` is a view kept for tests and tools). One driver, ``_chain_map``,
  fills and checks every such map from a rule giving its pieces out of
  each source resolution. An R1 or R2 move carries each resolution by one
  rule, ``_insertion_map``: one embedding between the small frame's
  resolutions and the big frame's with the new crossings' bits set, one
  placement of circles by the anchors, and one ``_change_twist`` of
  clearing the new crossings; each builder keeps only its table choice. An
  addition runs from the small frame, a removal from the big one, as the
  addition's inverse up to homotopy (Bar-Natan, arXiv:math/0410495 4.3).
  The R2 addition is the inclusion plus a ``_fold`` table, the contraction
  through the circle part, and its removal the identity plus ``_unfold``,
  the fold mirrored. Every piece's sign is one ``_change_twist`` of the
  bits it sets and clears;
* R3 acts at homology level. Its pieces are tables on every generator: the
  two resolution identifications of the slide and a ``_fold`` on each
  side. Each cycle is decomposed, modulo boundaries, through its degree's
  echelon form and carried by those tables.

A slide, the one move with no chain map, has a ``StepMap``, a matrix per
degree between the homologies of its frames, and ``StepMap.of`` is the one
loop that writes such matrices, from the images of the source frame's
representatives. ``MovieMaps.steps`` holds one step per move, a chain map
or a ``StepMap``, and both carry a cycle by ``apply(i, vec)``. The
cobordism-induced map is read one way, by ``MovieMaps.push``: a cycle of
the first frame is carried through the steps one at a time; a ``StepMap``
reduces it to its class, sends the class by its matrix and lifts it back
to a cycle. For a closed movie (empty diagram to empty diagram) at t = 0
the image of the generator is the Khovanov-Jacobsson number up to sign.
For an open movie, ``MovieMaps.induced_map`` writes the movie's own
``StepMap`` by ``StepMap.of`` over ``push``, one push per leftover
representative of the first frame, and rewrites it on the greedy bases.

One strand correspondence per move says which link component continues
which: ``strand_links`` lists, for each component of the later frame, the
components of the earlier frame it continues, each with whether its
direction reverses, best evidence first, and ``Movie.links`` keeps it per
move. The surface's components join every link; an orientation is carried
by the first link whose reversal is decided, else it branches at a birth or
takes the colour of a saddle's fresh loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cube import (
    ChainComplex,
    ChainMap,
    LocalTables,
    _admit,
    build_complex,
    carry_labels,
)
from .diagram import (
    PlanarDiagram,
    all_orientations,
    edge_color,
    joining_bit,
    parse_pd,
    render_pd,
    union_classes,
)
from .errors import IllegalMoveError, InternalInvariantError, PDSyntaxError
from .homology import FieldHomology
from .moves import (
    Move,
    MoveRecord,
    apply_move,
    move_from_json,
    move_to_json,
)
from .rings import QQ, Ring
from .sparse import SparseMatrix, _Echelon, vec_add, vec_scale

__all__ = ["Movie", "FrameTable", "MovieMaps", "kj_number", "compatible_orientations"]


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


def _chain_map(c1: ChainComplex, c2: ChainComplex, shift: int, pieces_of) -> ChainMap:
    """The checked chain map from ``c1`` to ``c2`` that shifts degrees by
    ``shift``, whose pieces out of each source resolution are
    ``pieces_of(cm, bits, res)``, as ``ChainMap.piece`` gives them."""
    cm = ChainMap(c1, c2, shift)
    cm.fill({bits: pieces_of(cm, bits, res) for bits, res in c1.resolutions.items()})
    cm.verify()
    return cm


def morse_chain_map(rec: MoveRecord, c1: ChainComplex, c2: ChainComplex) -> ChainMap:
    """Chain map of a birth, death, or saddle (same crossing set)."""
    loop = rec.data.get("loop")

    def pieces(cm, bits, res1):
        res2 = c2.resolutions[bits]
        if rec.kind == "birth":
            return [cm.piece(bits, bits, (), (res2.circle_index_of_edge(loop),), "birth")]
        if rec.kind == "death":
            return [cm.piece(bits, bits, (res1.circle_index_of_edge(loop),), (), "death")]
        i1, i2 = map(res1.circle_index_of_edge, rec.data["feet"])
        if i1 != i2:
            return [cm.piece(bits, bits, (i1, i2), _saddle_targets(rec, res2, 1), "merge")]
        return [cm.piece(bits, bits, (i1,), _saddle_targets(rec, res2, 2), "split")]

    # a reconnection can change reference crossing signs, shifting degrees
    return _chain_map(c1, c2, c1.n_minus - c2.n_minus, pieces)


def elementary_chain_map(rec: MoveRecord, c1: ChainComplex, c2: ChainComplex) -> ChainMap:
    """The checked chain map of a move other than a slide, from the complex
    ``c1`` of its first frame to ``c2`` of its second."""
    kind = rec.kind
    if kind in ("birth", "death") or kind.startswith("saddle"):
        return morse_chain_map(rec, c1, c2)
    if kind not in ("r1_add", "r2_add", "r1_remove", "r2_remove"):
        raise InternalInvariantError(f"no chain map for record kind {kind}")
    build = r1_chain_map if kind[:2] == "r1" else r2_chain_map
    return build(rec.data, c1, c2, dict(rec.crossing_map))


def _saddle_targets(rec: MoveRecord, res2, count: int) -> tuple[int, ...]:
    """The ``count`` target circles a saddle creates, 1 for a merge and 2
    for a split: those of (kept edge, new loop) from the end when the saddle
    makes a free loop, else those of its feet from the start."""
    data = rec.data
    e1, e2 = data["feet"]
    if "new_loop" in data:
        edges = (data.get("kept", e1), data["new_loop"])[-count:]
    else:
        edges = (e1, e2)[:count]
    return tuple(map(res2.circle_index_of_edge, edges))


def _change_twist(bits, changes: dict[int, int]) -> int:
    """Sign making a bit-substitution commute with the other cube edges.

    For each changed position x with old bit != new bit, every 1-bit above x
    contributes a flip.
    """
    parity = 0
    for x, new in changes.items():
        if bits[x] != new:
            for u, b in enumerate(bits):
                if u > x and u not in changes and b:
                    parity ^= 1
    return -1 if parity else 1


def _insertion_map(rec_data, c1, c2, cross_map, new: dict[int, int], pieces_of):
    """The checked map from ``c1`` to ``c2`` of an R1 or R2 move: an
    addition if ``c2`` has the more crossings, else a removal.

    Each resolution of ``c1`` goes to the one of ``c2`` its bits embed in by
    ``cross_map``, with an addition's ``new`` crossings' bits set; the
    anchors (``c1`` edge -> ``c2`` edge) place its circles; and its sign is
    one ``_change_twist`` of clearing the new crossings of the big
    resolution. Its pieces are ``pieces_of(cm, bits, tbits, placed, sign)``,
    tbits the target's bits and placed the anchored circles.
    """
    adding = c2.diagram.crossing_count > c1.diagram.crossing_count
    n2 = c2.diagram.crossing_count

    def pieces(cm, bits, res1):
        tbits = _embed_bits(bits, cross_map, n2, new if adding else {})
        res2 = c2.resolutions[tbits]
        placed = {res1.circle_index_of_edge(e1): res2.circle_index_of_edge(e2)
                  for e1, e2 in rec_data["anchors"].items()}
        sign = _change_twist(tbits if adding else bits, dict.fromkeys(new, 0))
        return pieces_of(cm, bits, tbits, placed, sign)

    return _chain_map(c1, c2, 0, pieces)


def r1_chain_map(rec_data: dict, c1: ChainComplex, c2: ChainComplex, cross_map) -> ChainMap:
    """The map of a curl move from ``c1`` to ``c2`` (``_insertion_map``); the
    curl crossing sits at rec_data["crossing"] in the big diagram.

    An addition is a birth of the loop for a right curl and split_minus_2x
    at the host for a left one. A removal is their inverse up to homotopy,
    out of the big resolutions whose curl bit makes the loop a circle of
    its own: a death of the loop, or merge_antipode of host and loop.
    """
    left = rec_data["hand"] == "left"
    cstar, f1 = rec_data["crossing"], rec_data["loop_edge"]
    new = {cstar: 0 if left else 1}

    def pieces(cm, bits, tbits, placed, sign):
        ((host, target),) = placed.items()
        if len(tbits) > len(bits):
            loop = cm.dst.resolutions[tbits].circle_index_of_edge(f1)
            if left:
                return [cm.piece(bits, tbits, (host,), (target, loop), "split_minus_2x", sign)]
            return [cm.piece(bits, tbits, (), (loop,), "birth", sign, placed)]
        if bits[cstar] != new[cstar]:
            return []
        loop = cm.src.resolutions[bits].circle_index_of_edge(f1)
        if left:
            return [cm.piece(bits, tbits, (loop,), (), "death", sign, placed)]
        return [cm.piece(bits, tbits, (host, loop), (target,), "merge_antipode", sign)]

    return _insertion_map(rec_data, c1, c2, cross_map, new, pieces)


def _embed_bits(bits, cross_map, count: int, extra: dict[int, int]):
    """The ``count`` bits whose crossing ``cross_map[x]`` takes ``bits[x]``,
    and each of the ``extra`` crossings its own bit."""
    out = [None] * count
    for x, y in cross_map.items():
        out[y] = bits[x]
    for pos, b in extra.items():
        out[pos] = b
    if any(x is None for x in out):
        raise InternalInvariantError("crossing embedding left a gap")
    return tuple(out)


def r2_chain_map(rec_data: dict, c1: ChainComplex, c2: ChainComplex, cross_map) -> ChainMap:
    """The map of a poke from ``c1`` to ``c2`` (``_insertion_map``). k1 is
    the crossing whose 1-smoothing joins the middle edges (per
    ``detect_r2_pattern``), so the parallel part is where (k1, k2) = (0, 1).

    An addition is the inclusion into the parallel part plus the
    contraction through the circle part (``_fold``). A removal is its
    inverse up to homotopy: the identity out of the parallel part plus,
    out of (k1, k2) = (1, 0), ``_unfold``.
    """
    k1, k2 = rec_data["k1"], rec_data["k2"]
    local = frozenset((rec_data["m1"], rec_data["m2"]))

    def pieces(cm, bits, tbits, placed, sign):
        if len(tbits) > len(bits):
            return [cm.piece(bits, tbits, (), (), "identity", sign, placed),
                    _fold(cm, bits, tbits, k1, k2, local, sign, placed)]
        if (bits[k1], bits[k2]) == (0, 1):
            return [cm.piece(bits, tbits, (), (), "identity", sign, placed)]
        if (bits[k1], bits[k2]) == (1, 0):
            return [_unfold(cm, bits, tbits, k1, k2, local, sign, rec_data["anchors"])]
        return []

    return _insertion_map(rec_data, c1, c2, cross_map, {k1: 0, k2: 1}, pieces)


def _fold(cm: ChainMap, bits, tbits, flip, other, local, sign=1, placed=None):
    """The piece of ``cm`` out of resolution ``bits`` of its source that is
    the contraction through ``tbits`` of its target, into which ``placed``
    sends source circles as in ``ChainMap.piece``: the cube edge at
    ``flip``, then the fold at ``other``, identified with the unfolded
    resolution plus the small circle of the ``local`` edges, born v+. The
    pair sets the bit at ``flip`` and clears the one at ``other``, so its
    sign is ``sign`` times the one ``_change_twist`` of those two changes."""
    dst, src = cm.dst, cm.src.resolutions[bits]
    res = dst.resolutions[tbits]
    mid = tbits[:flip] + (1,) + tbits[flip + 1 :]
    if mid[other] != 1:
        raise InternalInvariantError("identification expects the folded position")
    mres = dst.resolutions[mid]
    fbits = mid[:other] + (0,) + mid[other + 1 :]
    fres = dst.resolutions[fbits]
    small = next((i for i, es in enumerate(fres.circle_edge_sets) if es <= local), None)
    if small is None:
        raise InternalInvariantError("no local circle at the folded position")
    # the source circle on each circle of tbits, and the mid circle, numbered
    # from 1, on each unfolded one but the small circle, which reads 0
    on_t = carry_labels(src, res, tuple(range(src.circle_count)), placed or {})
    on_f = carry_labels(mres, fres, range(1, mres.circle_count + 1), fixed={small: 0}, skip=local)
    folded = {m - 1: fi for fi, m in enumerate(on_f) if m}
    # two ends for a merge, two new circles for a split: those of the edges
    # at slots 0 and 2, which lie on the two smoothing arcs of either bit
    e1, _, e2, _ = dst.diagram.crossings[flip]
    ends = tuple(dict.fromkeys((res.circle_of_edge[e1], res.circle_of_edge[e2])))
    news = tuple(dict.fromkeys((mres.circle_of_edge[e1], mres.circle_of_edge[e2])))
    carried = {
        on_t[res.circle_of_edge_set[mres.circle_edge_sets[m]]]: fi
        for m, fi in folded.items()
        if m not in news
    }
    sign *= _change_twist(tbits, {flip: 1, other: 0})
    # the small circle, created last, is born v+
    return cm.piece(
        bits, fbits, tuple(on_t[c] for c in ends), tuple(folded[m] for m in news) + (small,),
        "merge" if len(ends) == 2 else "split", sign, carried,
    )


def _unfold(cm: ChainMap, bits, tbits, flip, other, local, sign, anchors):
    """``_fold`` mirrored: the piece of ``cm`` out of resolution ``bits`` of
    its source (the big frame, 1 at ``flip`` and 0 at ``other``) into
    ``tbits`` of its target. The counit takes the small circle of the
    ``local`` edges; the other circles are identified with the resolution
    whose bit at ``flip`` is 0; then the cube edge at ``other``, whose
    target the ``anchors`` (big edge -> small edge) identify with ``tbits``.
    Its sign is minus ``sign`` times the one ``_change_twist`` of setting
    both bits where both are 0."""
    big, res = cm.src, cm.src.resolutions[bits]
    zbits = bits[:flip] + (0,) + bits[flip + 1 :]
    pbits = zbits[:other] + (1,) + zbits[other + 1 :]
    zres, pres, tres = big.resolutions[zbits], big.resolutions[pbits], cm.dst.resolutions[tbits]
    small = next((i for i, es in enumerate(res.circle_edge_sets) if es <= local), None)
    if small is None:
        raise InternalInvariantError("no local circle at the folded position")
    # each circle of the later resolutions, labelled by the source circle it
    # carries, or by -1 if the cube edge creates it
    e1, _, e2, _ = big.diagram.crossings[other]
    ends = tuple(dict.fromkeys((zres.circle_of_edge[e1], zres.circle_of_edge[e2])))
    news = dict.fromkeys((pres.circle_of_edge[e1], pres.circle_of_edge[e2]), -1)
    on_z = carry_labels(res, zres, tuple(range(res.circle_count)), {small: None}, skip=local)
    on_p = carry_labels(zres, pres, on_z, dict.fromkeys(ends), news)
    on_t = carry_labels(pres, tres, on_p, {pres.circle_of_edge[a]: tres.circle_of_edge[b]
                                           for a, b in anchors.items()})
    consumed = (small, *(on_z[z] for z in ends))
    created = tuple(i for i, s in enumerate(on_t) if s < 0)
    sign *= -_change_twist(zbits, {flip: 1, other: 1})
    return cm.piece(bits, tbits, consumed, created,
                    "death_merge" if len(ends) == 2 else "death_split",
                    sign, {s: i for i, s in enumerate(on_t) if s >= 0})


# ---------------------------------------------------------------------------
# movies
# ---------------------------------------------------------------------------


@dataclass
class Movie:
    """An initial diagram and a sequence of moves, with derived frames."""

    initial: PlanarDiagram
    moves: list[Move]
    frames: list[PlanarDiagram] = field(init=False)
    records: list[MoveRecord] = field(init=False)

    def __post_init__(self):
        self.frames = [self.initial]
        self.records = []
        for idx, mv in enumerate(self.moves):
            try:
                nxt, rec = apply_move(self.frames[-1], mv)
            except IllegalMoveError as exc:
                raise IllegalMoveError(f"move {idx} ({mv.kind}): {exc}") from exc
            self.frames.append(nxt)
            self.records.append(rec)

    @staticmethod
    def from_json(text: str) -> "Movie":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PDSyntaxError(f"movie is not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise PDSyntaxError("a movie must be a JSON object")
        for key in obj:
            if key not in ("initial", "moves"):
                raise PDSyntaxError(
                    f"unknown movie key {key!r}: a movie has only initial and moves"
                )
        init = obj.get("initial", "empty")
        moves = obj.get("moves", [])
        if not isinstance(init, str) or not isinstance(moves, list):
            raise PDSyntaxError(
                "a movie's initial must be PD text and its moves a list"
            )
        d = PlanarDiagram() if init == "empty" else parse_pd(init)
        return Movie(d, [move_from_json(m) for m in moves])

    def to_json(self) -> dict:
        init = "empty" if self.initial.is_empty() else render_pd(self.initial)
        return {"initial": init, "moves": [move_to_json(m) for m in self.moves]}

    @property
    def euler_characteristic(self) -> int:
        return sum(rec.chi for rec in self.records)

    @property
    def is_closed(self) -> bool:
        return self.frames[0].is_empty() and self.frames[-1].is_empty()

    @cached_property
    def links(self) -> list[list[list[tuple[int, bool | None]]]]:
        """``strand_links`` of every move, computed once."""
        return [
            strand_links(d1, d2, rec)
            for d1, d2, rec in zip(self.frames, self.frames[1:], self.records)
        ]

    def surface_components(self):
        """Classes of (frame, component) nodes joined by every strand link;
        a class not meeting either boundary frame is a closed component."""
        nodes = [
            (k, c) for k, f in enumerate(self.frames) for c in range(f.component_count)
        ]
        pairs = (
            ((k, oc), (k + 1, nc))
            for k, move in enumerate(self.links)
            for nc, cands in enumerate(move)
            for oc, _ in cands
        )
        return [set(cls) for cls in union_classes(nodes, pairs)]

    def has_closed_component(self) -> bool:
        last = len(self.frames) - 1
        for cls in self.surface_components():
            if not any(k in (0, last) for k, _ in cls):
                return True
        return False

    def is_connected_surface(self) -> bool:
        return len(self.surface_components()) <= 1


def _direction_flip(d1: PlanarDiagram, d2: PlanarDiagram, rec: MoveRecord, e: int):
    """Whether edge e's reference direction flips across the move; None when
    undecidable from this edge."""
    if e in d1.loops or e in d2.loops:
        return False if (e in d1.loops) == (e in d2.loops) else None
    cmap = rec.crossing_map

    def mapped(dart):
        c, s = dart
        if c not in cmap:
            return None
        return (cmap[c], s)

    t1, h1 = mapped(d1.edge_tail[e]), mapped(d1.edge_head[e])
    t2, h2 = d2.edge_tail[e], d2.edge_head[e]
    same = (t1 is not None and t1 == t2) or (h1 is not None and h1 == h2)
    flip = (t1 is not None and t1 == h2) or (h1 is not None and h1 == t2)
    if same and not flip:
        return False
    if flip and not same:
        return True
    return None


def strand_links(
    d1: PlanarDiagram, d2: PlanarDiagram, rec: MoveRecord
) -> list[list[tuple[int, bool | None]]]:
    """Per component of d2, the components of d1 it continues across the
    move, as (old component, flip) in order of preference: an old component
    sharing an edge whose ``_direction_flip`` is decided, with that flip (a
    label that the anchors send to another edge is not shared: the move
    gave it to a new strand);
    the old end of an anchor, flipped when ``flip_components`` names it; an
    old component sharing only undecided edges (all their ends moved, but
    the strand keeps its course), not flipped; a saddle's foot, whose flip
    is None (the move alone does not fix it)."""
    cmap1, cmap2 = d1.component_map, d2.component_map
    flip_set = set(rec.data.get("flip_components", ()))
    anchors = rec.data.get("anchors", {})
    out: list[list[tuple[int, bool | None]]] = []
    for new_comp in d2.components:
        shared: dict[int, list[int]] = {}
        for e in sorted(new_comp):
            # a label the anchors send to another edge names a new strand
            if e in cmap1 and anchors.get(e, e) == e:
                shared.setdefault(cmap1[e], []).append(e)
        decided, undecided = [], []
        for oc, edges in sorted(shared.items()):
            flips = (_direction_flip(d1, d2, rec, e) for e in edges)
            flip = next((f for f in flips if f is not None), None)
            (undecided if flip is None else decided).append((oc, bool(flip)))
        anchored = [
            (cmap1[a], a in flip_set or b in flip_set)
            for a, b in anchors.items()
            if b in new_comp and a in cmap1
        ]
        out.append(decided + anchored + undecided)
    feet = rec.data.get("feet", ())
    if rec.kind == "saddle_merge":
        target = rec.data.get("new_loop", feet[0])
        nc = cmap2[target if target in cmap2 else feet[0]]
        out[nc] += [(cmap1[e], None) for e in feet]
    elif rec.kind == "saddle_split" and "new_loop" in rec.data:
        out[cmap2[rec.data["new_loop"]]].append((cmap1[feet[0]], None))
    elif rec.kind == "saddle_reconnect":
        for e in feet:
            out[cmap2[e]] += [(cmap1[e_old], None) for e_old in feet]
    return out


def propagate_orientation(
    d1: PlanarDiagram, d2: PlanarDiagram, rec: MoveRecord, links, o: tuple[bool, ...]
) -> list[tuple[bool, ...]]:
    """Orientations on d2 induced by o across the move, whose
    ``strand_links`` are ``links``; empty when the move is not
    orientation-compatible, two entries after a birth."""
    if rec.kind in ("saddle_merge", "saddle_split", "saddle_reconnect"):
        e1, e2 = rec.data["feet"]
        # a merge of two Seifert circles survives only when their labels
        # agree, i.e. when their left colors coincide; two feet on one circle
        # always do
        if edge_color(d1, e1, o) != edge_color(d1, e2, o):
            return []
    out: list[bool | None] = []
    branch_at = None
    born = d2.component_map[rec.data["loop"]] if rec.kind == "birth" else None
    for nc, cands in enumerate(links):
        val = next((o[oc] != flip for oc, flip in cands if flip is not None), None)
        if val is None and nc == born:
            branch_at = nc
        if val is None and rec.kind in ("saddle_merge", "saddle_split"):
            # a fresh loop carries its circle's color across the saddle: the
            # canonical label is preserved by merges and squared by splits,
            # and for a free loop color 1 means the reference sense
            val = edge_color(d1, rec.data["feet"][0], o) == 1
        out.append(val)
    outs = [out]
    if branch_at is not None:
        outs = [out[:branch_at] + [b] + out[branch_at + 1 :] for b in (True, False)]
    if any(v is None for cand in outs for v in cand):
        raise InternalInvariantError("orientation transport left a component")
    return [tuple(cand) for cand in outs]


def compatible_orientations(movie: Movie, o_in) -> set[tuple[bool, ...]]:
    """All orientations of the final frame compatible with o_in through the
    movie's cobordism."""
    states = {tuple(o_in)}
    for k, links in enumerate(movie.links):
        d1, d2, rec = movie.frames[k], movie.frames[k + 1], movie.records[k]
        states = {
            o2 for o in states for o2 in propagate_orientation(d1, d2, rec, links, o)
        }
    return states


# ---------------------------------------------------------------------------
# homology-level steps
# ---------------------------------------------------------------------------


class StepMap:
    """Homology-level map of a slide, the one move with no chain map, or of
    an open movie: matrices keyed by source degree, mapping into degree
    i + shift of the target. ``apply`` carries a cycle as ``ChainMap.apply``
    does, so a movie's steps are read by one loop."""

    def __init__(self, fh_src: FieldHomology, fh_dst: FieldHomology, mats, shift: int = 0):
        self.fh_src = fh_src
        self.fh_dst = fh_dst
        self.mats = mats  # dict source degree -> SparseMatrix
        self.shift = shift

    @staticmethod
    def of(carry, fh_src: FieldHomology, fh_dst: FieldHomology, shift: int = 0) -> "StepMap":
        """The class map whose column for each representative of
        ``fh_src.reps[i]`` is the class on ``fh_dst`` of ``carry(i, rep)``,
        a cycle of degree i + shift."""
        ring = fh_src.complex.ring
        mats = {}
        for i in sorted(fh_src.reps):
            m = mats[i] = SparseMatrix(fh_dst.rank(i + shift), fh_src.rank(i), ring)
            for col, rep in enumerate(fh_src.reps[i]):
                for r, v in fh_dst.reduce(i + shift, carry(i, rep)).items():
                    m.set(r, col, v)
        return StepMap(fh_src, fh_dst, mats, shift)

    @staticmethod
    def from_chain_map(cm: ChainMap, fh_src, fh_dst) -> "StepMap":
        return StepMap.of(cm.apply, fh_src, fh_dst, cm.shift)

    def apply(self, i: int, vec: dict) -> dict:
        """A degree-i cycle of the source frame carried to degree i + shift
        of the target: reduced to its class, sent by the matrix and lifted
        by the target frame's ``reps``."""
        ring, m = self.fh_src.complex.ring, self.mats.get(i)
        coords = m.apply(self.fh_src.reduce(i, vec)) if m else {}
        out: dict = {}
        for r, x in coords.items():
            out = vec_add(ring, out, vec_scale(ring, x, self.fh_dst.reps[i + self.shift][r]))
        return out

    def inverse(self) -> "StepMap":
        """The inverse map; raises unless every matrix is invertible."""
        mats = {}
        for i, m in self.mats.items():
            if m.rows != m.cols:
                raise InternalInvariantError(
                    f"induced map at degree {i} is not square ({m.rows}x{m.cols})"
                )
            ech = _Echelon(m.ring)
            for j, col in enumerate(m.columns()):
                ech.insert(col, label=j)
            inv = mats[i + self.shift] = SparseMatrix(m.cols, m.rows, m.ring)
            for col in range(m.rows):
                sol = ech.membership({col: m.ring.one})
                if sol is None:
                    raise InternalInvariantError(
                        f"induced map at degree {i} is not invertible"
                    )
                for r, v in sol.items():
                    inv.set(r, col, v)
        return StepMap(self.fh_dst, self.fh_src, mats, -self.shift)

    def compose_after(self, earlier: "StepMap") -> "StepMap":
        # only push's reference test calls this; the benchmark tracer names it
        mats = {}
        for i, m in earlier.mats.items():
            j = i + earlier.shift
            if j in self.mats:
                mats[i] = self.mats[j] * m
            else:
                mats[i] = SparseMatrix(0, m.cols, m.ring)
        return StepMap(
            earlier.fh_src, self.fh_dst, mats, earlier.shift + self.shift
        )


# -- R3 transport ---------------------------------------------------------------


class _R3Transport:
    """Homology map of a slide move, read off tables on every generator.

    Where the middle crossing keeps the triangle open, generators are
    carried across the resolution identification. The rest is rewritten,
    modulo boundaries, into the straight section x + h(x) of the folded
    part, h the poke contraction, and carried across the matching
    identification, followed by the contraction on the other side. Each
    side's bits are read by ``joining_bit``, and each table's sign is one
    ``_change_twist`` of the bits it changes.
    """

    def __init__(self, rec: MoveRecord, c1: ChainComplex, c2: ChainComplex):
        self.c1 = c1
        self.c2 = c2
        data = rec.data
        self.p, self.q, self.r = data["p"], data["q"], data["r"]
        self.sides1 = (data["t"], data["m"], data["b"])
        self.sides2 = (data["t2"], data["m2"], data["b2"])
        self.sigma1, self.x1 = self._bits(c1.diagram, *self.sides1)
        self.sigma2, self.x2 = self._bits(c2.diagram, *self.sides2)
        self.fold1 = self._contraction(c1, self.x1, self.sides1)
        self.fold2 = self._contraction(c2, self.x2, self.sides2)
        # the identifications: on the open half p and q swap and r opens, on
        # the straight section the pattern of one side becomes the other's;
        # labels follow circles matched by edges away from the triangle sides
        self.ident = ChainMap(c1, c2)
        skip = frozenset(self.sides1 + self.sides2)
        pieces = {}
        for bits in c1.resolutions:
            if bits[self.r] == self.sigma1:
                changes = {self.p: bits[self.q], self.q: bits[self.p], self.r: self.sigma2}
            elif _matches(bits, self.x1):
                changes = self.x2
            else:
                continue
            tbits = tuple(changes.get(u, b) for u, b in enumerate(bits))
            sign = _change_twist(bits, changes)
            pieces[bits] = [self.ident.piece(bits, tbits, (), (), "identity", sign, skip=skip)]
        self.ident.fill(pieces)
        self._echelons: dict[int, _Echelon] = {}  # by degree, on first use

    def _bits(self, d, t, m, b):
        """(sigma, x) of one side: sigma is the bit of the middle crossing
        that does not glue the sides m and b to each other, and x the (p, q,
        r) bits of the straight section of the folded part, which glue t to
        neither m at p nor b at q, and glue m to b at r."""
        glued = joining_bit(d, self.r, m, b)
        x = {self.p: 1 - joining_bit(d, self.p, t, m), self.q: 1 - joining_bit(d, self.q, t, b),
             self.r: glued}
        return 1 - glued, x

    def _contraction(self, c: ChainComplex, xpat, sides) -> ChainMap:
        """The poke contraction of the folded part of one diagram, on its
        straight section ``xpat``: the edge at the corner whose bit is 0,
        then the fold at the other corner."""
        if xpat[self.p] == xpat[self.q]:
            raise InternalInvariantError("slide fold admits no contraction corner")
        flip, other = (self.p, self.q) if xpat[self.p] == 0 else (self.q, self.p)
        cm = ChainMap(c, c)
        cm.fill({bits: [_fold(cm, bits, bits, flip, other, frozenset(sides))]
                 for bits in c.resolutions if _matches(bits, xpat)})
        return cm

    def class_map(self, fh1: FieldHomology, fh2: FieldHomology) -> StepMap:
        """The slide's ``StepMap``, written by ``StepMap.of`` from ``_carry``."""
        return StepMap.of(self._carry, fh1, fh2)

    def _carry(self, i: int, rep: dict) -> dict:
        """A degree-i cycle of the first frame decomposed as rep + d(w) =
        v_sigma + y + h(y), read by the coefficients of the sigma and section
        generators, and carried across the identification and the other
        side's contraction, which vanishes off its section."""
        ring = self.c1.ring
        if i not in self._echelons:
            ech = self._echelons[i] = _Echelon(ring)
            for col in self.c1.columns(i - 1):
                ech.insert(col)
            # each degree-i resolution's bits and positions, in position order
            spans = [(bits, range(offset, offset + len(codes)))
                     for bits, (j, offset, codes) in self.c1._where.items() if j == i]
            fold = self.fold1.columns(i)
            for bits, positions in spans:
                if _matches(bits, self.x1):
                    for pos in positions:
                        ech.insert({pos: ring.one, **fold[pos]}, label=pos)
            for bits, positions in spans:
                if bits[self.r] == self.sigma1:
                    for pos in positions:
                        ech.insert({pos: ring.one}, label=pos)
        sol = self._echelons[i].membership(rep)
        if sol is None:
            raise InternalInvariantError(
                "slide transport: no representative in the standard section"
            )
        moved = self.ident.apply(i, sol)
        image = vec_add(ring, moved, self.fold2.apply(i, moved))
        # the transported representative must again be a cycle
        if self.c2.apply(i, image):
            raise InternalInvariantError("slide transport broke the cycle")
        return image


def _matches(bits, pattern: dict[int, int]) -> bool:
    return all(bits[pos] == b for pos, b in pattern.items())


# ---------------------------------------------------------------------------
# the full movie pipeline
# ---------------------------------------------------------------------------


class FrameTable:
    """The frames that the successive movies of one run share, such as the
    movies of one ``verify.run_suite`` call. For each (t, ring) it holds one
    ``LocalTables`` for the whole run, and the complexes of the last movie
    it served there, by diagram. A movie takes the frames it shares with
    that last movie, builds the rest through the shared ``LocalTables`` and
    becomes the last movie itself; the frames it does not share are
    dropped. So the table never holds more than one movie's frames per
    (t, ring)."""

    def __init__(self):
        # (t, ring) -> (local tables, complexes by diagram)
        self._last: dict[tuple[int, Ring], tuple[LocalTables, dict]] = {}

    def take(self, frames, t: int, ring: Ring) -> dict:
        """The complexes of the distinct diagrams ``frames`` at t over
        ``ring``, by diagram."""
        local, complexes = self._last.get((t, ring)) or (LocalTables(t, ring), {})
        built = {f: complexes[f] if f in complexes else build_complex(f, t, ring, local)
                 for f in frames}
        self._last[t, ring] = local, built
        return built


class MovieMaps:
    """Per-frame complexes and the induced maps of every move, at one t,
    over Q unless ``ring`` names another.

    ``complexes`` and ``homologies`` hold one entry per frame, but frames
    with equal diagrams share one object: each distinct frame's complex is
    built and its d^2 = 0 checked once, and its ``FieldHomology`` built
    once, on first use (``homology``). The table of distinct frames lives
    in this instance only, unless ``table`` is given: then the movie takes
    from that ``FrameTable`` the frames it shares with the last movie the
    table served at this t and ring.

    ``steps`` holds one step per move, built and checked here: the move's
    chain map, or for a slide, which has none, its ``StepMap`` on its two
    frames' homologies, checked to be invertible. ``push`` carries a vector
    of the first frame through every step, and is how every reader reads
    the movie's map, so a movie with no slide builds no homology unless a
    reader asks for a class, and its map runs over any ring, Z included."""

    def __init__(self, movie: Movie, t: int, ring: Ring | None = None,
                 table: FrameTable | None = None):
        self.movie = movie
        self.t = t
        self.ring = ring or QQ
        # distinct frames in order of first appearance, all admitted before
        # any is built
        distinct = dict.fromkeys(movie.frames)
        for f in distinct:
            _admit(f)
        # one set of local tables for every frame and chain map, so that a
        # cube square or edge shape is coded and checked once per movie, or
        # once per run of movies that share ``table``
        if table is None:
            table = FrameTable()
        built = table.take(distinct, t, self.ring)
        self.complexes = [built[f] for f in movie.frames]
        self._homologies: dict[PlanarDiagram, FieldHomology] = {}
        self.steps = [self._build_step(k, rec) for k, rec in enumerate(movie.records)]

    def homology(self, k: int) -> FieldHomology:
        """Frame k's ``FieldHomology``, built on first use."""
        f = self.movie.frames[k]
        if f not in self._homologies:
            self._homologies[f] = FieldHomology(self.complexes[k])
        return self._homologies[f]

    @property
    def homologies(self) -> list[FieldHomology]:
        """Every frame's ``FieldHomology``, each built on first use."""
        return [self.homology(k) for k in range(len(self.complexes))]

    @property
    def chain_level(self) -> bool:
        """Whether the movie has a move and every step is a chain map."""
        return bool(self.steps) and all(type(step) is ChainMap for step in self.steps)

    def _build_step(self, k: int, rec: MoveRecord) -> ChainMap | StepMap:
        """The step of move k: its chain map, or the class map of a slide,
        checked to be invertible."""
        c1, c2 = self.complexes[k], self.complexes[k + 1]
        if rec.kind != "r3":
            return elementary_chain_map(rec, c1, c2)
        step = _R3Transport(rec, c1, c2).class_map(self.homology(k), self.homology(k + 1))
        step.inverse()  # must be an isomorphism
        return step

    # -- reading the movie's map ---------------------------------------------

    def push(self, i: int, vec: dict) -> tuple[int, dict]:
        """A degree-i vector of the first frame's complex carried to the last
        frame, as (degree, vector): each step, a chain map or a ``StepMap``,
        applies itself in turn."""
        for step in self.steps:
            vec, i = step.apply(i, vec), i + step.shift
        return i, vec

    def induced_map(self) -> tuple[int, dict[int, SparseMatrix]]:
        """The map on homology from the first frame to the last, as (shift,
        {degree i: matrix into degree i + shift}) for every degree of the
        first frame's complex, on the greedy bases of both ends
        (``FieldHomology.greedy_coordinates``), as ``kj movie`` prints it.

        The movie's ``StepMap`` is written by ``StepMap.of`` over ``push``,
        so each leftover representative of the first frame is pushed once;
        each nonzero degree is then rewritten on the greedy bases, and a
        degree that maps to zero builds no greedy basis. Push carries
        cycles to cycles and boundaries to boundaries, so a pushed cycle's
        class depends only on its own class, and the rewrite holds the
        pushed classes of the greedy representatives."""
        fh0, fh1 = self.homology(0), self.homology(-1)
        shift = sum(step.shift for step in self.steps)
        mats = StepMap.of(lambda i, rep: self.push(i, rep)[1], fh0, fh1, shift).mats
        for i, m in mats.items():
            if not m.is_zero():
                greedy = mats[i] = SparseMatrix(m.rows, m.cols, self.ring)
                for col, rep in enumerate(fh0.greedy_reps(i)):
                    coords = fh1.greedy_coordinates(i + shift, m.apply(fh0.reduce(i, rep)))
                    for r, v in coords.items():
                        greedy.set(r, col, v)
        return shift, mats

    def chain_composite(self) -> ChainMap | None:
        if not self.chain_level:
            return None
        total = self.steps[0]
        for cm in self.steps[1:]:
            total = cm.compose(total)
        return total


def kj_number(movie: Movie) -> int:
    """|image of the generator| for a closed movie at t = 0."""
    if not movie.is_closed:
        raise IllegalMoveError("the movie is not closed (empty to empty)")
    maps = MovieMaps(movie, t=0)
    i, image = maps.push(0, {0: maps.ring.one})
    if i != 0:
        raise InternalInvariantError(f"the generator maps into degree {i}, not 0")
    frac = Fraction(image.get(0, 0))
    if frac.denominator != 1:
        raise InternalInvariantError(f"induced map is not integral: {frac}")
    return abs(frac.numerator)


# ---------------------------------------------------------------------------
# coloring convention tracking
# ---------------------------------------------------------------------------


def coloring_flip(d1: PlanarDiagram, d2: PlanarDiagram, rec: MoveRecord, links) -> bool:
    """Whether the outer-face convention flips across a move.

    The checkerboard color to the left of a strand is preserved by every
    elementary map on the compatible canonical labels, so comparing it on a
    surviving edge detects a change of declared outer face; such a change
    swaps every label of every canonical generator. Moves with no surviving
    comparable edge keep the convention by definition (their transported
    orientations are pinned directly instead).
    """
    shared = sorted(set(d1.crossing_edges) & set(d2.crossing_edges))
    if not shared:
        return False
    for o1 in all_orientations(d1):
        outs = propagate_orientation(d1, d2, rec, links, o1)
        if not outs:
            continue
        o2 = outs[0]
        for e in shared:
            if _direction_flip(d1, d2, rec, e) is None:
                continue
            return edge_color(d1, e, o1) != edge_color(d2, e, o2)
    return False


def movie_convention_flips(movie: Movie) -> list[bool]:
    """Per-move outer-face convention flips along the movie."""
    return [
        coloring_flip(movie.frames[k], movie.frames[k + 1], movie.records[k], links)
        for k, links in enumerate(movie.links)
    ]


def movie_total_flip(movie: Movie) -> bool:
    return sum(movie_convention_flips(movie)) % 2 == 1


def effective_orientation(o, flip: bool):
    """The orientation whose canonical generator matches across a
    convention flip: the total reversal when flipped."""
    return tuple(not b for b in o) if flip else tuple(o)

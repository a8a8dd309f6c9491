"""Movies of elementary moves and the maps they induce.

A movie is an initial diagram plus a sequence of moves; its frames are the
successive diagrams. Every move induces a map between the homologies of
its frames (for both t = 0 and t = 1):

* Morse moves and forward R1/R2 moves are honest chain maps, machine
  checked to commute with the differentials. Each is a table on the labels
  of the circles the move consumes and creates, and the identity on every
  other circle, filled in one source resolution at a time by
  ``cube.LocalTables``, the routine and table format d is written with,
  into a ``cube.ChainMap``, stored in the one form d is stored in (its
  ``mats`` is a view kept for tests and tools); the R2 map is the
  inclusion plus a ``_fold`` table, the contraction through the circle
  part, both pieces written in one call;
* R1/R2 removals invert the homology isomorphism of the matching forward
  move;
* R3 acts at homology level. Its pieces are tables on every generator: the
  two resolution identifications of the slide and a ``_fold`` on each
  side. Each degree's representatives are decomposed, modulo boundaries,
  through one echelon form and carried by those tables.

The cobordism-induced map is read one way, by ``MovieMaps.push``: a cycle
of the first frame is carried through the moves one at a time, by a move's
chain map where it has one, else reduced to its class, sent by the class
map and lifted back to a cycle. For a closed movie (empty diagram to empty
diagram) at t = 0 the image of the generator is the Khovanov-Jacobsson
number up to sign.

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
    Gen,
    LocalTables,
    V_PLUS,
    _admit,
    build_complex,
    carry_labels,
)
from .diagram import (
    PlanarDiagram,
    all_orientations,
    oriented_resolution,
    parse_pd,
    render_pd,
    resolve,
    smoothing_partner,
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

__all__ = ["Movie", "MovieMaps", "kj_number", "compatible_orientations"]


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


def morse_chain_map(rec: MoveRecord, c1: ChainComplex, c2: ChainComplex) -> ChainMap:
    """Chain map of a birth, death, or saddle (same crossing set)."""
    # a reconnection can change reference crossing signs, shifting degrees
    cm = ChainMap(c1, c2, shift=c1.n_minus - c2.n_minus)
    pieces = {}
    for bits, res1 in c1.resolutions.items():
        res2 = c2.resolutions[bits]
        if rec.kind == "birth":
            lidx = res2.circle_index_of_edge(rec.data["loop"])
            piece = cm.piece(bits, bits, (), (lidx,), "birth")
        elif rec.kind == "death":
            lidx = res1.circle_index_of_edge(rec.data["loop"])
            piece = cm.piece(bits, bits, (lidx,), (), "death")
        else:
            i1, i2 = map(res1.circle_index_of_edge, rec.data["feet"])
            if i1 != i2:
                piece = cm.piece(bits, bits, (i1, i2), _saddle_targets(rec, res2, 1), "merge")
            else:
                piece = cm.piece(bits, bits, (i1,), _saddle_targets(rec, res2, 2), "split")
        pieces[bits] = [piece]
    cm.fill(pieces)
    cm.verify()
    return cm


def elementary_chain_map(rec: MoveRecord, c1: ChainComplex, c2: ChainComplex) -> ChainMap:
    """The checked chain map of a move other than a slide, from the complex
    ``c1`` of its first frame to ``c2`` of its second; for an R1 or R2
    removal, that of the matching addition, from ``c2`` to ``c1``."""
    kind = rec.kind
    if kind in ("birth", "death") or kind.startswith("saddle"):
        return morse_chain_map(rec, c1, c2)
    if kind not in ("r1_add", "r2_add", "r1_remove", "r2_remove"):
        raise InternalInvariantError(f"no chain map for record kind {kind}")
    forward = r1_chain_map if kind[:2] == "r1" else r2_chain_map
    if kind.endswith("_remove"):
        return forward(rec.data, c2, c1, {new: old for old, new in rec.crossing_map.items()})
    return forward(rec.data, c1, c2, dict(rec.crossing_map))


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


def r1_chain_map(
    rec_data: dict, c_small: ChainComplex, c_big: ChainComplex, cross_embed
) -> ChainMap:
    """Forward map of a curl addition, built against the big complex as-is.

    cross_embed maps each small crossing index to its big index; the curl
    crossing sits at rec_data["crossing"] in the big diagram.
    """
    hand = rec_data["hand"]
    cstar = rec_data["crossing"]
    f1 = rec_data["loop_edge"]
    ((a_small, a_big),) = rec_data["anchors"].items()
    nbig = c_big.diagram.crossing_count
    # a right curl is a birth of the loop, a left curl split_minus_2x
    cm = ChainMap(c_small, c_big)
    pieces = {}
    for bits, res1 in c_small.resolutions.items():
        host = res1.circle_index_of_edge(a_small)
        tbits = _embed_bits(bits, cross_embed, nbig, {cstar: 0 if hand == "left" else 1})
        res2 = c_big.resolutions[tbits]
        lidx = res2.circle_index_of_edge(f1)
        midx = res2.circle_index_of_edge(a_big)
        if hand == "left":
            piece = cm.piece(bits, tbits, (host,), (midx, lidx), "split_minus_2x")
        else:
            sign = _change_twist(tbits, {cstar: 0})
            piece = cm.piece(bits, tbits, (), (lidx,), "birth", sign, {host: midx})
        pieces[bits] = [piece]
    cm.fill(pieces)
    cm.verify()
    return cm


def _embed_bits(bits, cross_embed, nbig, extra: dict[int, int]):
    out = [None] * nbig
    for small_idx, big_idx in cross_embed.items():
        out[big_idx] = bits[small_idx]
    for pos, b in extra.items():
        out[pos] = b
    if any(x is None for x in out):
        raise InternalInvariantError("crossing embedding left a gap")
    return tuple(out)


def r2_chain_map(
    rec_data: dict, c_small: ChainComplex, c_big: ChainComplex, cross_embed
) -> ChainMap:
    """Forward map of a poke: inclusion into the parallel part plus the
    contraction correction through the circle part."""
    k1 = rec_data["k1"]
    k2 = rec_data["k2"]
    anchors: dict[int, int] = rec_data["anchors"]
    local = frozenset((rec_data["m1"], rec_data["m2"]))
    nbig = c_big.diagram.crossing_count
    # parallel part: k1 -> 0, k2 -> 1 (k1 is the crossing whose 1-smoothing
    # joins the middle edges, per detect_r2_pattern)
    cm = ChainMap(c_small, c_big)
    pieces = {}
    for bits, res1 in c_small.resolutions.items():
        tbits = _embed_bits(bits, cross_embed, nbig, {k1: 0, k2: 1})
        res2 = c_big.resolutions[tbits]
        placed = {
            res1.circle_index_of_edge(small_edge): res2.circle_index_of_edge(big_edge)
            for small_edge, big_edge in anchors.items()
        }
        sign = _change_twist(tbits, {k2: 0})
        # the inclusion lands where k2 = 1, the correction where k2 = 0
        pieces[bits] = [cm.piece(bits, tbits, (), (), "identity", sign, placed),
                        _fold(cm, bits, tbits, k1, k2, local, sign, placed)]
    cm.fill(pieces)
    cm.verify()
    return cm


def _spectator_parity_sign(bits, pattern_positions) -> int:
    """Cube-edge components at distinct positions anticommute, so the
    correction term carries the parity of all 1-bits away from the pattern."""
    parity = sum(b for u, b in enumerate(bits) if u not in pattern_positions) % 2
    return -1 if parity else 1


def _fold(cm: ChainMap, bits, tbits, flip, other, local, sign=1, placed=None):
    """The piece of ``cm`` out of resolution ``bits`` of its source that is
    the contraction through ``tbits`` of its target, into which ``placed``
    sends source circles as in ``ChainMap.piece``: the cube edge at
    ``flip``, then the fold at ``other``, identified with the unfolded
    resolution plus the small circle of the ``local`` edges, born v+. The
    pair has one sign: ``sign`` times the edge's, the identification's and
    the parity of the other 1-bits."""
    dst, src = cm.dst, cm.src.resolutions[bits]
    res = dst.resolutions[tbits]
    mid = tbits[:flip] + (1,) + tbits[flip + 1 :]
    mres = dst.resolutions[mid]
    # the source circle on each circle of tbits, and the mid circle, numbered
    # from 1, on each folded one: the small circle reads V_PLUS = 0 (the
    # identification's sign enters below as an int)
    on_t = carry_labels(src, res, tuple(range(src.circle_count)), placed or {})
    (fbits, on_f), _ = _identify_with_local_circle(
        dst, (mid, tuple(range(1, mres.circle_count + 1))), other, local
    )
    folded = {m - 1: fi for fi, m in enumerate(on_f) if m}
    # two ends for a merge, two new circles for a split
    ends = tuple(dict.fromkeys(res.circle_of_dart[flip, s] for s in (0, 2)))
    news = tuple(dict.fromkeys(mres.circle_of_dart[flip, s] for s in (0, 2)))
    carried = {
        on_t[res.circle_of_edge_set[mres.circle_edge_sets[m]]]: fi
        for m, fi in folded.items()
        if m not in news
    }
    sign *= (
        (-1) ** sum(tbits[:flip])
        * _change_twist(mid, {other: 0})
        * _spectator_parity_sign(tbits, {flip, other})
    )
    # the small circle, created last, is born v+
    return cm.piece(
        bits, fbits, tuple(on_t[c] for c in ends),
        tuple(folded[m] for m in news) + (on_f.index(V_PLUS),),
        "merge" if len(ends) == 2 else "split", sign, carried,
    )


# ---------------------------------------------------------------------------
# movies
# ---------------------------------------------------------------------------


@dataclass
class Movie:
    """An initial diagram and a sequence of moves, with derived frames."""

    initial: PlanarDiagram
    moves: list[Move]
    frames: list[PlanarDiagram] = field(default_factory=list)
    records: list[MoveRecord] = field(default_factory=list)

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


def _oriented_circle_color(d: PlanarDiagram, o, edge: int) -> int:
    """Color left of the oriented-resolution circle through ``edge``, along
    the direction the orientation induces on it."""
    res = resolve(d, oriented_resolution(d, o))
    return res.oriented_color(res.circle_index_of_edge(edge), o)


def propagate_orientation(
    d1: PlanarDiagram, d2: PlanarDiagram, rec: MoveRecord, links, o: tuple[bool, ...]
) -> list[tuple[bool, ...]]:
    """Orientations on d2 induced by o across the move, whose
    ``strand_links`` are ``links``; empty when the move is not
    orientation-compatible, two entries after a birth."""
    if rec.kind in ("saddle_merge", "saddle_split", "saddle_reconnect"):
        e1, e2 = rec.data["feet"]
        res = resolve(d1, oriented_resolution(d1, o))
        i1 = res.circle_index_of_edge(e1)
        i2 = res.circle_index_of_edge(e2)
        # a merge of two circles survives only when their labels agree,
        # i.e. when their left colors coincide
        if i1 != i2 and res.oriented_color(i1, o) != res.oriented_color(i2, o):
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
            val = _oriented_circle_color(d1, o, rec.data["feet"][0]) == 1
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
    """Homology-level map of one move with no chain map (an R1/R2 removal or
    an R3): matrices keyed by source degree, mapping into degree i + shift
    of the target."""

    def __init__(self, fh_src: FieldHomology, fh_dst: FieldHomology, mats, shift: int = 0):
        self.fh_src = fh_src
        self.fh_dst = fh_dst
        self.mats = mats  # dict source degree -> SparseMatrix
        self.shift = shift

    @staticmethod
    def from_chain_map(cm: ChainMap, fh_src, fh_dst) -> "StepMap":
        mats = {}
        for i in sorted(fh_src.reps):
            m = mats[i] = SparseMatrix(fh_dst.rank(i + cm.shift), fh_src.rank(i), cm.src.ring)
            for col, rep in enumerate(fh_src.reps[i]):
                img = cm.apply(i, rep)
                if img:
                    for r, v in fh_dst.reduce(i + cm.shift, img).items():
                        m.set(r, col, v)
        return StepMap(fh_src, fh_dst, mats, cm.shift)

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
    identification, followed by the contraction on the other side.
    """

    def __init__(self, rec: MoveRecord, c1: ChainComplex, c2: ChainComplex):
        self.c1 = c1
        self.c2 = c2
        data = rec.data
        self.p, self.q, self.r = data["p"], data["q"], data["r"]
        self.sides1 = (data["t"], data["m"], data["b"])
        self.sides2 = (data["t2"], data["m2"], data["b2"])
        self.sigma1 = self._open_bit(c1.diagram, *self.sides1)
        self.sigma2 = self._open_bit(c2.diagram, *self.sides2)
        self.beta1 = self._glue_bits(c1.diagram, *self.sides1)
        self.beta2 = self._glue_bits(c2.diagram, *self.sides2)
        self.x1, self.x2 = self._x_pattern(1), self._x_pattern(2)
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

    def _open_bit(self, d, t, m, b):
        """Bit of the middle crossing that does not glue the two triangle
        sides to each other."""
        sm, sb = d.slot(m, self.r), d.slot(b, self.r)
        closed = 0 if smoothing_partner(sm, 0) == sb else 1
        return 1 - closed

    def _glue_bits(self, d, t, m, b):
        """(beta_p, beta_q): bits gluing t to the other side at p and q."""
        st_p, sm_p = d.slot(t, self.p), d.slot(m, self.p)
        st_q, sb_q = d.slot(t, self.q), d.slot(b, self.q)
        bp = 0 if smoothing_partner(st_p, 0) == sm_p else 1
        bq = 0 if smoothing_partner(st_q, 0) == sb_q else 1
        return bp, bq

    def _x_pattern(self, which: int):
        """(p, q, r) bits of the straight section of the folded part."""
        beta = self.beta1 if which == 1 else self.beta2
        sigma = self.sigma1 if which == 1 else self.sigma2
        return {self.p: 1 - beta[0], self.q: 1 - beta[1], self.r: 1 - sigma}

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

    def class_map(self, fh1: FieldHomology, fh2: FieldHomology):
        ring = self.c1.ring
        mats = {}
        for i in sorted(fh1.reps):
            src = fh1.reps[i]
            m = mats[i] = SparseMatrix(fh2.rank(i), len(src), ring)
            if not src:
                continue
            # decompose: rep + d(w) = v_sigma + y + h(y), reading the
            # coefficients of the sigma and section generators, by position
            ech = _Echelon(ring)
            for col in self.c1.columns(i - 1):
                ech.insert(col)
            basis = self.c1.bases[i]
            fold = self.fold1.columns(i)
            for pos, (bits, _) in enumerate(basis):
                if _matches(bits, self.x1):
                    ech.insert({pos: ring.one, **fold[pos]}, label=pos)
            for pos, (bits, _) in enumerate(basis):
                if bits[self.r] == self.sigma1:
                    ech.insert({pos: ring.one}, label=pos)
            for col, rep in enumerate(src):
                sol = ech.membership(rep)
                if sol is None:
                    raise InternalInvariantError(
                        "slide transport: no representative in the standard section"
                    )
                # the contraction of the other side vanishes off its section
                moved = self.ident.apply(i, sol)
                image = vec_add(ring, moved, self.fold2.apply(i, moved))
                if not image:
                    continue
                # the transported representative must again be a cycle
                if self.c2.apply(i, image):
                    raise InternalInvariantError("slide transport broke the cycle")
                for r, v in fh2.reduce(i, image).items():
                    m.set(r, col, v)
        return mats


def _matches(bits, pattern: dict[int, int]) -> bool:
    return all(bits[pos] == b for pos, b in pattern.items())


def _identify_with_local_circle(complex_: ChainComplex, gen: Gen, pos, local_edges):
    """Identify the folded position (bit 1 at ``pos``) with the unfolded
    position plus the small circle made of local edges, born with v+; every
    other circle keeps its edges outside the local ones."""
    bits, labels = gen
    if bits[pos] != 1:
        raise InternalInvariantError("identification expects the folded position")
    tbits = bits[:pos] + (0,) + bits[pos + 1 :]
    res_circ = complex_.resolutions[tbits]
    circle_idx = next(
        (i for i, es in enumerate(res_circ.circle_edge_sets) if es <= local_edges),
        None,
    )
    if circle_idx is None:
        raise InternalInvariantError("no local circle at the folded position")
    tlabels = carry_labels(
        complex_.resolutions[bits],
        res_circ,
        labels,
        fixed={circle_idx: V_PLUS},
        skip=local_edges,
    )
    sign = _change_twist(bits, {pos: 0})
    return (tbits, tlabels), complex_.ring.from_int(sign)


# ---------------------------------------------------------------------------
# the full movie pipeline
# ---------------------------------------------------------------------------


class MovieMaps:
    """Per-frame complexes and the induced maps of every move, at one t,
    over Q unless ``ring`` names another field.

    ``complexes`` and ``homologies`` hold one entry per frame, but frames
    with equal diagrams share one object: each distinct frame's complex is
    built and its d^2 = 0 checked once, and its ``FieldHomology`` built
    once. The table of distinct frames lives in this instance only.

    The chain maps, one per move, are built and checked here. A slide or a
    removal has no chain map: its class map is built here, on the frames'
    homologies, and checked to be invertible. ``homologies`` is otherwise
    built on first use. ``push`` carries a vector of the first frame through
    every move, and is how every reader reads the movie's map, so a movie of
    chain maps alone builds no homology unless a reader asks for a class."""

    def __init__(self, movie: Movie, t: int, ring: Ring | None = None):
        self.movie = movie
        self.t = t
        self.ring = ring or QQ
        # distinct frames in order of first appearance, all admitted before
        # any is built
        distinct = dict.fromkeys(movie.frames)
        for f in distinct:
            _admit(f)
        # one set of local tables for every frame and chain map, so that a
        # cube square or edge shape is coded and checked once per movie
        local = LocalTables(t, self.ring)
        built = {f: build_complex(f, t, self.ring, local) for f in distinct}
        self.complexes = [built[f] for f in movie.frames]
        self.chain_steps: list[ChainMap | None] = []
        self._class_steps: dict[int, StepMap] = {}
        for k, rec in enumerate(movie.records):
            self.chain_steps.append(self._build_step(k, rec))

    @cached_property
    def homologies(self) -> list[FieldHomology]:
        built = {c: FieldHomology(c) for c in dict.fromkeys(self.complexes)}
        return [built[c] for c in self.complexes]

    @property
    def chain_level(self) -> bool:
        """Whether the movie has a move and every move a chain map."""
        return bool(self.chain_steps) and None not in self.chain_steps

    def _build_step(self, k: int, rec: MoveRecord) -> ChainMap | None:
        """The chain map of move k, or None when the move has only a class
        map, which goes to ``_class_steps``."""
        c1, c2 = self.complexes[k], self.complexes[k + 1]
        kind = rec.kind
        if kind == "r3":
            fh1, fh2 = self.homologies[k], self.homologies[k + 1]
            step = StepMap(fh1, fh2, _R3Transport(rec, c1, c2).class_map(fh1, fh2))
            step.inverse()  # must be an isomorphism
            self._class_steps[k] = step
            return None
        cm = elementary_chain_map(rec, c1, c2)
        if kind in ("r1_remove", "r2_remove"):
            # the inverse of the induced map of the matching addition
            fh1, fh2 = self.homologies[k], self.homologies[k + 1]
            self._class_steps[k] = StepMap.from_chain_map(cm, fh2, fh1).inverse()
            return None
        return cm

    # -- reading the movie's map ---------------------------------------------

    def push(self, i: int, vec: dict) -> tuple[int, dict]:
        """A degree-i vector of the first frame's complex carried to the last
        frame, as (degree, vector). A move with a chain map applies it; a move
        with only a class map reduces the cycle on its source frame, applies
        its matrix and lifts the class by the target frame's ``reps``."""
        ring = self.ring
        for k, cm in enumerate(self.chain_steps):
            if cm is not None:
                vec, i = cm.apply(i, vec), i + cm.shift
                continue
            step = self._class_steps[k]
            m = step.mats.get(i)
            coords = m.apply(step.fh_src.reduce(i, vec)) if vec and m else {}
            i += step.shift
            vec = {}
            for r, x in coords.items():
                vec = vec_add(ring, vec, vec_scale(ring, x, step.fh_dst.reps[i][r]))
        return i, vec

    def induced_map(self) -> tuple[int, dict[int, SparseMatrix]]:
        """The map on homology from the first frame to the last, as (shift,
        {degree i: matrix into degree i + shift}) for every degree of the
        first frame's complex, on the greedy bases of both ends
        (``FieldHomology.greedy_coordinates``), as ``kj movie`` prints it. A
        degree whose leftover representatives all map to zero builds no
        greedy basis."""
        fh0, fh1 = self.homologies[0], self.homologies[-1]
        shift = self.push(0, {})[0]  # the zero vector carries only its degree

        def image(i, rep):
            j, vec = self.push(i, rep)
            return fh1.reduce(j, vec) if vec else {}

        mats = {}
        for i in sorted(fh0.reps):
            m = mats[i] = SparseMatrix(fh1.rank(i + shift), fh0.rank(i), self.ring)
            if any(image(i, rep) for rep in fh0.reps[i]):
                for col, rep in enumerate(fh0.greedy_reps(i)):
                    for r, v in fh1.greedy_coordinates(i + shift, image(i, rep)).items():
                        m.set(r, col, v)
        return shift, mats

    def chain_composite(self) -> ChainMap | None:
        if not self.chain_level:
            return None
        total = self.chain_steps[0]
        for cm in self.chain_steps[1:]:
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
            return _oriented_circle_color(d1, o1, e) != _oriented_circle_color(
                d2, o2, e
            )
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

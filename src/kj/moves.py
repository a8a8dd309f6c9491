"""Elementary movie moves: birth, death, saddle, and Reidemeister rewrites.

``apply_move`` rewrites a PD code and returns the new diagram together with
a MoveRecord describing exactly which edges and crossings were touched; the
induced-map builders consume the record rather than re-deriving locations.
Fresh edges always take the lowest unused identifiers, in a fixed per-move
order, so frames are reproducible. New crossings append to the end of the
crossing list (this keeps the cube signs of untouched crossings stable).

Free loops live side by side in the unbounded region: a death or a saddle
foot on a loop is legal there, and a saddle or poke between a loop and a
crossing edge requires that edge to border the outer face.

An R1 or R2 addition cuts each strand it touches into a tail piece and a
head piece. A crossing edge keeps its id on the tail piece and gives its
head occurrence to a fresh head piece. A free loop becomes one fresh piece,
which is both tail and head. A strand poked across itself shares its middle
piece: the under head is the over tail. A curl on e is X(f1, f1, f2, e_in)
(left) or X(e_in, f1, f1, f2) (right), with f1 its loop edge, f2 the head
piece and e_in the tail piece: e on an edge, f2 on a loop.

The two crossings of a poke are wired from the under strand's pieces ut and
uh, the over strand's ot and oh, and the fresh middles m1 (under) and m2
(over). The wiring is keyed by whether the region the strands share lies
left of the under and of the over strand's reference direction (always so
for a loop); that region is a face both border when they are crossing edges
of one crossing component, and the outer region otherwise:

    (T, T): K1 = X(ut, m2, m1, oh),  K2 = X(m1, m2, uh, ot)
    (T, F): K1 = X(ut, m2, m1, ot),  K2 = X(m1, m2, uh, oh)
    (F, T): K1 = X(ut, ot, m1, m2),  K2 = X(m1, oh, uh, m2)
    (F, F): K1 = X(ut, oh, m1, m2),  K2 = X(m1, ot, uh, m2)

A poke's four fresh ids are drawn from the diagram without its poked loops,
in the order (uh, m1, m2, oh) with one loop or none, (ut, ot, m1, m2) for
two loops, (ut, m1, m2, uh) for a loop poked across itself and
(m1, m2, uh, oh) for an edge folded across itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import Dart, PlanarDiagram, joining_bit, smoothing_partner
from .errors import IllegalMoveError, PDSyntaxError, PDValidationError

__all__ = [
    "Birth",
    "Death",
    "Saddle",
    "R1Move",
    "R2Move",
    "R3Move",
    "Move",
    "MOVE_JSON",
    "MoveRecord",
    "apply_move",
    "move_from_json",
    "move_to_json",
    "detect_curl",
    "detect_r2_pattern",
    "find_triangle",
]


@dataclass(frozen=True)
class Birth:
    kind: str = field(default="birth", init=False)


@dataclass(frozen=True)
class Death:
    edge: int
    kind: str = field(default="death", init=False)


@dataclass(frozen=True)
class Saddle:
    edges: tuple[int, int]
    side: str = "left"  # which side of the first edge the band leaves from
    kind: str = field(default="saddle", init=False)


@dataclass(frozen=True)
class R1Move:
    action: str  # add | remove
    edge: int  # add: host edge or loop; remove: the curl's loop edge
    hand: str = "left"  # left = positive curl, right = negative curl
    kind: str = field(default="r1", init=False)


@dataclass(frozen=True)
class R2Move:
    action: str  # add | remove
    edges: tuple[int, int]  # add: the two strands; remove: the bigon edges
    over: bool = False  # add only: first strand passes over the second
    kind: str = field(default="r2", init=False)


@dataclass(frozen=True)
class R3Move:
    crossings: tuple[int, int, int]
    kind: str = field(default="r3", init=False)


Move = Birth | Death | Saddle | R1Move | R2Move | R3Move

# Each move type's class and JSON keys with their JSON types; a tuple of
# types is a list of that many entries. A key is optional when its field has
# a default, and a key the table does not list is an error.
MOVE_JSON = {
    "birth": (Birth, {}),
    "death": (Death, {"edge": int}),
    "saddle": (Saddle, {"edges": (int, int), "side": str}),
    "r1": (R1Move, {"action": str, "edge": int, "hand": str}),
    "r2": (R2Move, {"action": str, "edges": (int, int), "over": bool}),
    "r3": (R3Move, {"crossings": (int, int, int)}),
}


def _from_json(x, kind):
    """``x`` if its type is exactly ``kind``: a JSON integer for an edge or
    a crossing (not a float, a string or a bool), a JSON bool for a flag; a
    tuple of types is a list of that many entries."""
    if isinstance(kind, tuple):
        x = tuple(x)
        if len(x) != len(kind):
            raise ValueError(f"{x!r} does not have {len(kind)} entries")
        return tuple(map(_from_json, x, kind))
    if type(x) is not kind:
        raise TypeError(f"{x!r} is not a {kind.__name__}")
    return x


def move_from_json(obj: dict) -> Move:
    if not isinstance(obj, dict):
        raise PDSyntaxError(f"a move must be a JSON object, not {obj!r}")
    t = obj.get("type")
    if not isinstance(t, str) or t not in MOVE_JSON:
        raise IllegalMoveError(f"unknown move type {t!r}")
    cls, keys = MOVE_JSON[t]
    for key in obj:
        if key != "type" and key not in keys:
            raise PDSyntaxError(f"malformed {t} move {obj}: unknown key {key!r}")
    try:
        return cls(**{key: _from_json(obj[key], kind) for key, kind in keys.items() if key in obj})
    except (TypeError, ValueError) as exc:
        raise PDSyntaxError(f"malformed {t} move {obj}") from exc


def move_to_json(m: Move) -> dict:
    for t, (cls, keys) in MOVE_JSON.items():
        if isinstance(m, cls):
            out = {"type": t}
            for key in keys:
                value = getattr(m, key)
                out[key] = list(value) if isinstance(value, tuple) else value
            if t == "r2" and m.action != "add":
                del out["over"]
            return out
    raise IllegalMoveError(f"unknown move {m!r}")


@dataclass
class MoveRecord:
    """What a move actually did, for map builders and orientation tracking.

    kind: birth, death, saddle_merge, saddle_split, saddle_reconnect,
          r1_add, r1_remove, r2_add, r2_remove, r3.
    crossing_map: surviving old crossing index -> new index.
    data: per-kind location details (see the builders in movie.py); an R1
          or R2 record's "anchors" send each old strand edge to a new edge
          of the same strand.
    """

    kind: str
    crossing_map: dict[int, int] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    @property
    def chi(self) -> int:
        """Euler characteristic of the move's cobordism: +1 for a birth or
        a death, -1 for a saddle, 0 for a Reidemeister move."""
        if self.kind.startswith("saddle"):
            return -1
        return 1 if self.kind in ("birth", "death") else 0


# -- shared helpers -------------------------------------------------------------


def _replace_occurrence(crossings: list[list[int]], dart: Dart, new_edge: int):
    c, s = dart
    crossings[c][s] = new_edge


def _edge_side_face(d: PlanarDiagram, edge: int, side: str) -> int:
    """Face on the given side of a crossing edge (sides relative to the
    reference direction)."""
    c, s = d.edge_head[edge]
    if side == "left":
        return d.face_of_sector[(c, (s - 1) % 4)]
    return d.face_of_sector[(c, s)]


def _directed_occurrences(d: PlanarDiagram, edge: int, face: int):
    """(tail dart, head dart, along_reference) of ``edge`` directed with
    ``face`` on its left; None if the edge does not border the face."""
    tail, head = d.edge_tail[edge], d.edge_head[edge]
    c, s = head
    if d.face_of_sector[(c, (s - 1) % 4)] == face:
        return tail, head, True
    if d.face_of_sector[(c, s)] == face:
        return head, tail, False
    return None


def _outer_directed(d: PlanarDiagram, edge: int):
    """Directed occurrence of ``edge`` with the outer region on its left."""
    outer = {d.face_of_sector[sector] for sector in d.outer_sectors}
    for side in ("left", "right"):
        f = _edge_side_face(d, edge, side)
        if f in outer:
            return _directed_occurrences(d, edge, f)
    return None


def _crossing_component_of_edge(d: PlanarDiagram, e: int) -> int:
    c = d.occurrences[e][0][0]
    for i, comp in enumerate(d.crossing_components):
        if c in comp:
            return i
    raise KeyError(e)


def _shared_region(d: PlanarDiagram, a: int, b: int, sides=("left", "right"), where=""):
    """Edges ``a`` and ``b`` directed with one region on their left, as
    ``_directed_occurrences`` gives them; a free loop, which lies in the
    outer region, is (None, None, True). The region is a face both border,
    tried on ``sides`` of ``a``, when they are crossing edges of one
    crossing component, and the outer region otherwise."""
    if a in d.loops or b in d.loops:
        got = [(None, None, True) if e in d.loops else _outer_directed(d, e) for e in (a, b)]
        for e, g in zip((a, b), got):
            if g is None:
                raise IllegalMoveError(f"edge {e} does not border the outer region")
        return got
    if _crossing_component_of_edge(d, a) == _crossing_component_of_edge(d, b):
        for side in sides:
            face = _edge_side_face(d, a, side)
            got_b = _directed_occurrences(d, b, face)
            if got_b is not None:
                return _directed_occurrences(d, a, face), got_b
        raise IllegalMoveError(f"edges {a} and {b} do not border a common face{where}")
    got = _outer_directed(d, a), _outer_directed(d, b)
    if None in got:
        raise IllegalMoveError(
            f"edges {a} and {b} lie in different pieces and do not both "
            "border the outer region"
        )
    return got


def _without_loops(d: PlanarDiagram, edges) -> PlanarDiagram:
    """``d`` with the free loops among ``edges`` taken out."""
    return PlanarDiagram(d.crossings, tuple(e for e in d.loops if e not in edges))


def _cut(d: PlanarDiagram, heads: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """The crossings of ``d`` with the head occurrence of each crossing edge
    in ``heads`` handed to its head piece ``heads[e]``."""
    crossings = [list(t) for t in d.crossings]
    for e, piece in heads.items():
        if e not in d.loops:
            _replace_occurrence(crossings, d.edge_head[e], piece)
    return tuple(map(tuple, crossings))


def _identity_map(d: PlanarDiagram) -> dict[int, int]:
    return {c: c for c in range(d.crossing_count)}


def apply_move(d: PlanarDiagram, move: Move) -> tuple[PlanarDiagram, MoveRecord]:
    """Apply one move, validating legality. Raises IllegalMoveError."""
    if isinstance(move, Birth):
        return _birth(d)
    if isinstance(move, Death):
        return _death(d, move)
    if isinstance(move, Saddle):
        return _saddle(d, move)
    if isinstance(move, R1Move):
        if move.action == "add":
            return _r1_add(d, move)
        if move.action == "remove":
            return _r1_remove(d, move)
        raise IllegalMoveError(f"unknown r1 action {move.action!r}")
    if isinstance(move, R2Move):
        if move.action == "add":
            return _r2_add(d, move)
        if move.action == "remove":
            return _r2_remove(d, move)
        raise IllegalMoveError(f"unknown r2 action {move.action!r}")
    if isinstance(move, R3Move):
        return _r3(d, move)
    raise IllegalMoveError(f"unknown move {move!r}")


# -- Morse moves ----------------------------------------------------------------


def _birth(d: PlanarDiagram):
    (loop,) = d.fresh_edges(1)
    d2 = PlanarDiagram(d.crossings, d.loops + (loop,))
    rec = MoveRecord("birth", _identity_map(d), {"loop": loop})
    return d2, rec


def _death(d: PlanarDiagram, move: Death):
    if move.edge not in d.loops:
        raise IllegalMoveError(
            f"death needs a crossingless circle; edge {move.edge} is not one"
        )
    rec = MoveRecord("death", _identity_map(d), {"loop": move.edge})
    return _without_loops(d, (move.edge,)), rec


def _saddle(d: PlanarDiagram, move: Saddle):
    e1, e2 = move.edges
    if e1 not in d.occurrences or e2 not in d.occurrences:
        raise IllegalMoveError(f"saddle edges {move.edges} not in the diagram")
    if move.side not in ("left", "right"):
        raise IllegalMoveError(f"unknown saddle side {move.side!r}")
    ident = _identity_map(d)

    if e1 == e2:
        # both feet on one free loop or one edge, same side: split off a
        # fresh loop
        (new,) = d.fresh_edges(1)
        d2 = PlanarDiagram(d.crossings, d.loops + (new,))
        rec = MoveRecord(
            "saddle_split", ident, {"feet": (e1, e2), "kept": e1, "new_loop": new}
        )
        return d2, rec

    (tail1, head1, _), (tail2, head2, _) = _shared_region(
        d, e1, e2, (move.side,), f" (side {move.side} of {e1})"
    )
    if e1 in d.loops and e2 in d.loops:
        # merge two side-by-side loops through the outer region; the band
        # face lies left of each loop traversed clockwise
        base = _without_loops(d, (e1, e2))
        (new,) = base.fresh_edges(1)
        d2 = PlanarDiagram(d.crossings, base.loops + (new,))
        rec = MoveRecord("saddle_merge", ident, {"feet": (e1, e2), "new_loop": new})
        return d2, rec
    if e1 in d.loops or e2 in d.loops:
        # merge a free loop into a strand bordering the outer region
        loop, edge = (e1, e2) if e1 in d.loops else (e2, e1)
        rec = MoveRecord("saddle_merge", ident, {"feet": (edge, loop)})
        return _without_loops(d, (loop,)), rec

    # both feet on crossing edges; reconnect: e1 runs tail1 -> head2, e2
    # runs tail2 -> head1
    crossings = [list(t) for t in d.crossings]
    _replace_occurrence(crossings, head2, e1)
    _replace_occurrence(crossings, head1, e2)
    d2 = PlanarDiagram(tuple(tuple(t) for t in crossings), d.loops)
    try:
        d2.validate()
    except PDValidationError as exc:
        raise IllegalMoveError(f"saddle produced an invalid diagram: {exc}")
    rec = MoveRecord("saddle_reconnect", ident, {"feet": (e1, e2)})
    return d2, rec


# -- Reidemeister I ---------------------------------------------------------------


def _r1_add(d: PlanarDiagram, move: R1Move):
    if move.hand not in ("left", "right"):
        raise IllegalMoveError(f"unknown curl handedness {move.hand!r}")
    e = move.edge
    if e not in d.occurrences:
        raise IllegalMoveError(f"r1 add: edge {e} not in the diagram")
    base = _without_loops(d, (e,))
    f1, f2 = base.fresh_edges(2)
    e_in = f2 if e in d.loops else e
    # left curl: X(f1, f1, e_out, e_in); right curl: X(e_in, f1, f1, e_out)
    cross = (f1, f1, f2, e_in) if move.hand == "left" else (e_in, f1, f1, f2)
    d2 = PlanarDiagram(_cut(d, {e: f2}) + (cross,), base.loops)
    d2.validate()
    rec = MoveRecord(
        "r1_add",
        _identity_map(d),
        {"hand": move.hand, "crossing": d.crossing_count, "loop_edge": f1,
         "anchors": {e: e_in}},
    )
    return d2, rec


def detect_curl(d: PlanarDiagram, loop_edge: int):
    """Identify the curl crossing carrying ``loop_edge`` twice.

    Returns (crossing, hand, e_in, e_out): the strand enters at e_in and
    leaves at e_out; hand left means the positive curl (its 0-smoothing
    splits the small circle off).
    """
    occ = d.occurrences.get(loop_edge)
    if not occ or len(occ) != 2 or occ[0][0] != occ[1][0]:
        raise IllegalMoveError(f"edge {loop_edge} is not a curl loop")
    c = occ[0][0]
    slots = {occ[0][1], occ[1][1]}
    tup = d.crossings[c]
    if slots == {0, 1}:
        hand, e_in, e_out = "left", tup[3], tup[2]
    elif slots == {2, 3}:
        hand, e_in, e_out = "left", tup[0], tup[1]
    elif slots == {1, 2}:
        hand, e_in, e_out = "right", tup[0], tup[3]
    elif slots == {0, 3}:
        hand, e_in, e_out = "right", tup[1], tup[2]
    else:
        raise IllegalMoveError(f"edge {loop_edge} is not a curl loop")
    return c, hand, e_in, e_out


def _splice(d: PlanarDiagram, removed: set[int], glue_pairs):
    """Remove crossings and reglue the strands across them.

    ``glue_pairs`` lists pairs of darts at removed crossings whose edges are
    to be joined end to end. Returns (crossings, crossing_map, new_loops,
    merged) where merged maps each involved old edge to its new identifier
    (chains keep the least id; closed chains become free loops).
    """
    crossing_map = {
        i: i - sum(1 for r in removed if r < i)
        for i in range(d.crossing_count)
        if i not in removed
    }
    crossings = [list(t) for i, t in enumerate(d.crossings) if i not in removed]
    glue: dict[Dart, Dart] = {}
    for a, b in glue_pairs:
        if a in glue or b in glue:
            raise IllegalMoveError("conflicting strand gluings")
        glue[a] = b
        glue[b] = a
    involved = sorted({d.edge_at(a) for a in glue})

    def walk(edge: int, out_dart: Dart):
        """Follow gluings away from ``edge`` through its end ``out_dart``.
        Returns (chain, terminal dart), terminal None when the chain closes
        back onto ``edge``."""
        chain = []
        cur = out_dart
        while cur in glue:
            nxt = glue[cur]
            e = d.edge_at(nxt)
            if e == edge:
                return chain, None
            chain.append(e)
            cur = d.other_end(e, nxt)
        return chain, cur

    merged: dict[int, int] = {}
    new_loops: list[int] = []
    done: set[int] = set()
    for e in involved:
        if e in done:
            continue
        occ1, occ2 = d.occurrences[e]
        right, term_r = walk(e, occ2)
        if term_r is None:
            cycle = [e] + right
            new_id = min(cycle)
            for x in cycle:
                merged[x] = new_id
                done.add(x)
            new_loops.append(new_id)
            continue
        left, term_l = walk(e, occ1)
        chain = list(reversed(left)) + [e] + right
        new_id = min(chain)
        for x in chain:
            merged[x] = new_id
            done.add(x)
        for term in (term_l, term_r):
            c, s = term
            if c in removed:
                raise IllegalMoveError("strand terminates at a removed crossing")
            crossings[crossing_map[c]][s] = new_id
    return crossings, crossing_map, new_loops, merged


def _r1_remove(d: PlanarDiagram, move: R1Move):
    c, hand, e_in, e_out = detect_curl(d, move.edge)
    occ_in = [o for o in d.occurrences[e_in] if o[0] == c]
    occ_out = [o for o in d.occurrences[e_out] if o[0] == c]
    if e_in == e_out:
        pair = (occ_in[0], occ_in[1])
    else:
        pair = (occ_in[0], occ_out[0])
    crossings, crossing_map, new_loops, merged = _splice(d, {c}, [pair])
    d2 = PlanarDiagram(
        tuple(tuple(t) for t in crossings), d.loops + tuple(new_loops)
    )
    d2.validate()
    keep = merged[e_in]
    rec = MoveRecord(
        "r1_remove",
        crossing_map,
        {"hand": hand, "crossing": c, "loop_edge": move.edge, "anchors": {keep: keep}},
    )
    return d2, rec


# -- Reidemeister II --------------------------------------------------------------


def _r2_add(d: PlanarDiagram, move: R2Move):
    """Poke one strand across another.

    u is the strand passing under at both new crossings and o the one
    passing over. Each is cut into a tail piece (ut, ot) and a head piece
    (uh, oh): a crossing edge keeps its id on the tail piece, a free loop is
    one fresh piece serving as both, and a strand poked across itself shares
    its middle piece (uh = ot). With m1 the under middle and m2 the over
    middle, the wiring is keyed by whether the shared region lies left of
    u and of o along their reference directions (always so for a loop):

        (T, T): K1 = X(ut, m2, m1, oh),  K2 = X(m1, m2, uh, ot)
        (T, F): K1 = X(ut, m2, m1, ot),  K2 = X(m1, m2, uh, oh)
        (F, T): K1 = X(ut, ot, m1, m2),  K2 = X(m1, oh, uh, m2)
        (F, F): K1 = X(ut, oh, m1, m2),  K2 = X(m1, ot, uh, m2)

    The fresh ids come from the diagram without the poked loops, in the
    order (uh, m1, m2, oh) with one loop or none, (ut, ot, m1, m2) for two
    loops, (ut, m1, m2, uh) for a loop poked across itself and
    (m1, m2, uh, oh) for an edge folded across itself.
    """
    e1, e2 = move.edges
    if e1 not in d.occurrences or e2 not in d.occurrences:
        raise IllegalMoveError(f"r2 add: edges {move.edges} not in the diagram")
    under, over = (e2, e1) if move.over else (e1, e2)
    (_, _, fu), (_, _, fo) = _shared_region(d, under, over)
    u_loop, o_loop = under in d.loops, over in d.loops
    base = _without_loops(d, (under, over))
    fresh = base.fresh_edges(4)
    if under == over and u_loop:
        oh, m1, m2, uh = fresh
    elif under == over:
        m1, m2, uh, oh = fresh
    elif u_loop and o_loop:
        uh, oh, m1, m2 = fresh
    else:
        uh, m1, m2, oh = fresh
    # a loop's one piece is its tail and its head; a strand poked across
    # itself runs ut -> uh = ot -> oh
    ut = under if not u_loop else oh if under == over else uh
    ot = uh if under == over else oh if o_loop else over
    k1, k2 = {
        (True, True): ((ut, m2, m1, oh), (m1, m2, uh, ot)),
        (True, False): ((ut, m2, m1, ot), (m1, m2, uh, oh)),
        (False, True): ((ut, ot, m1, m2), (m1, oh, uh, m2)),
        (False, False): ((ut, oh, m1, m2), (m1, ot, uh, m2)),
    }[fu, fo]
    # a strand poked across itself hands its head occurrence to oh
    d2 = PlanarDiagram(_cut(d, {under: uh, over: oh}) + (k1, k2), base.loops)
    d2.validate()
    nk1, nk2, nm1, nm2 = detect_r2_pattern(d2, (m1, m2))
    anchors = {under: ut}
    anchors.setdefault(over, ot)  # a strand poked across itself: its tail
    data = {"k1": nk1, "k2": nk2, "m1": nm1, "m2": nm2, "anchors": anchors}
    if u_loop and o_loop:
        data["flip_components"] = list(anchors)
    return d2, MoveRecord("r2_add", _identity_map(d), data)


def detect_r2_pattern(d: PlanarDiagram, m_edges: tuple[int, int]):
    """Identify an R2 bigon from its two middle edges.

    Returns (k1, k2, m1, m2): m1 is the all-under middle, m2 the all-over
    one; k1 is the crossing whose middle slots are joined by its
    1-smoothing (the bit that flips first along the contraction).
    """
    ma, mb = m_edges
    for e in (ma, mb):
        if e not in d.occurrences or len(d.occurrences[e]) != 2:
            raise IllegalMoveError(f"r2 remove: edge {e} is not a strand edge")
    ca = tuple(sorted({o[0] for o in d.occurrences[ma]}))
    cb = tuple(sorted({o[0] for o in d.occurrences[mb]}))
    if len(ca) != 2 or ca != cb:
        raise IllegalMoveError(
            f"edges {m_edges} do not join one pair of crossings"
        )
    k_first, k_second = ca
    roles = {}
    for e in (ma, mb):
        r1, r2 = d.slot(e, k_first) % 2, d.slot(e, k_second) % 2
        if r1 != r2:
            raise IllegalMoveError(
                f"edge {e} changes over/under role; not an R2 bigon"
            )
        roles[e] = r1  # 0 under strand material, 1 over
    if sorted(roles.values()) != [0, 1]:
        raise IllegalMoveError("the two middle edges are on the same strand")
    m1 = ma if roles[ma] == 0 else mb
    m2 = mb if m1 is ma else ma

    # the bit whose smoothing glues the two middle slots to each other
    bits = {c: joining_bit(d, c, m1, m2) for c in (k_first, k_second)}
    ones = [c for c in (k_first, k_second) if bits[c] == 1]
    if len(ones) != 1:
        raise IllegalMoveError(
            "bigon smoothing pattern is not a Reidemeister II pattern"
        )
    k1 = ones[0]
    k2 = k_second if k1 == k_first else k_first
    # sanity: middle slots must be adjacent at both crossings
    for c in (k_first, k_second):
        if d.slot(m1, c) not in (
            smoothing_partner(d.slot(m2, c), 0),
            smoothing_partner(d.slot(m2, c), 1),
        ):
            raise IllegalMoveError("middle edges are not adjacent at a crossing")
    return k1, k2, m1, m2


def _r2_remove(d: PlanarDiagram, move: R2Move):
    k1, k2, m1, m2 = detect_r2_pattern(d, move.edges)
    removed = {k1, k2}

    def outer_dart(e, c):
        return (c, (d.slot(e, c) + 2) % 4)

    pairs = [
        (outer_dart(m1, k1), outer_dart(m1, k2)),
        (outer_dart(m2, k1), outer_dart(m2, k2)),
    ]
    crossings, crossing_map, new_loops, merged = _splice(d, removed, pairs)
    d2 = PlanarDiagram(
        tuple(tuple(t) for t in crossings), d.loops + tuple(new_loops)
    )
    d2.validate()
    under_kept = merged[d.edge_at(outer_dart(m1, k1))]
    over_kept = merged[d.edge_at(outer_dart(m2, k1))]
    rec = MoveRecord(
        "r2_remove",
        crossing_map,
        {"k1": k1, "k2": k2, "m1": m1, "m2": m2,
         "anchors": {under_kept: under_kept, over_kept: over_kept},
         "flip_components": [e for e in (under_kept, over_kept) if e in new_loops]},
    )
    return d2, rec


# -- Reidemeister III -------------------------------------------------------------


def find_triangle(d: PlanarDiagram, crossings: tuple[int, int, int]):
    """A face bounded by exactly the three given crossings, as its dart orbit."""
    want = set(crossings)
    if len(want) != 3 or any(not (0 <= c < d.crossing_count) for c in want):
        raise IllegalMoveError(f"bad crossing triple {crossings}")
    for orbit in d.faces:
        if len(orbit) == 3 and {c for c, _ in orbit} == want:
            return orbit
    raise IllegalMoveError(f"crossings {crossings} do not bound a triangle")


def _r3(d: PlanarDiagram, move: R3Move):
    orbit = find_triangle(d, move.crossings)
    side_edges = set()
    for (c, s) in orbit:
        side_edges.add(d.edge_at((c, (s - 1) % 4)))
    if len(side_edges) != 3:
        raise IllegalMoveError("triangle sides are degenerate")

    def profile(e):
        roles = sorted(s % 2 for (_, s) in d.occurrences[e])
        return {(1, 1): "over", (0, 0): "under"}.get(tuple(roles), "mixed")

    movable = sorted(e for e in side_edges if profile(e) == "over")
    if not movable:
        movable = sorted(e for e in side_edges if profile(e) == "under")
    if not movable:
        raise IllegalMoveError(
            f"triangle {move.crossings} has no strand passing over or under "
            "both others; not a slide triangle"
        )
    t_edge = movable[0]
    t_crossings = sorted({c for c, _ in d.occurrences[t_edge]})
    if len(t_crossings) != 2:
        raise IllegalMoveError("movable side is degenerate")
    (r,) = [c for c in move.crossings if c not in t_crossings]
    other_sides = [e for e in sorted(side_edges) if e != t_edge]

    def crossings_of(e):
        return {c for c, _ in d.occurrences[e]}

    p = q = m_edge = b_edge = None
    for first, second in ((other_sides[0], other_sides[1]),
                          (other_sides[1], other_sides[0])):
        pc = crossings_of(first) - {r}
        qc = crossings_of(second) - {r}
        if (
            len(pc) == 1
            and len(qc) == 1
            and r in crossings_of(first)
            and r in crossings_of(second)
            and pc | qc == set(t_crossings)
        ):
            p, q = pc.pop(), qc.pop()
            m_edge, b_edge = first, second
            break
    if p is None:
        raise IllegalMoveError("triangle sides do not close up")

    def opp_edge(e, c):
        return d.crossings[c][(d.slot(e, c) + 2) % 4]

    m_outer_p = opp_edge(m_edge, p)   # strand M beyond P
    m_outer_r = opp_edge(m_edge, r)   # strand M beyond R
    b_outer_q = opp_edge(b_edge, q)
    b_outer_r = opp_edge(b_edge, r)
    t_outer_p = opp_edge(t_edge, p)
    t_outer_q = opp_edge(t_edge, q)

    t2, m2, b2 = d.fresh_edges(3)
    crossings = [list(t) for t in d.crossings]
    # the crossing P slides along strand M past R; Q slides along B past R;
    # each physical slot keeps its role, only the incident edge changes
    crossings[p][d.slot(m_edge, p)] = m_outer_r
    crossings[p][(d.slot(m_edge, p) + 2) % 4] = m2
    crossings[p][d.slot(t_edge, p)] = t_outer_q
    crossings[p][(d.slot(t_edge, p) + 2) % 4] = t2
    crossings[q][d.slot(b_edge, q)] = b_outer_r
    crossings[q][(d.slot(b_edge, q) + 2) % 4] = b2
    crossings[q][d.slot(t_edge, q)] = t_outer_p
    crossings[q][(d.slot(t_edge, q) + 2) % 4] = t2
    crossings[r][d.slot(m_edge, r)] = m_outer_p
    crossings[r][(d.slot(m_edge, r) + 2) % 4] = m2
    crossings[r][d.slot(b_edge, r)] = b_outer_q
    crossings[r][(d.slot(b_edge, r) + 2) % 4] = b2
    d2 = PlanarDiagram(tuple(tuple(t) for t in crossings), d.loops)
    try:
        d2.validate()
    except PDValidationError as exc:
        raise IllegalMoveError(f"r3 produced an invalid diagram: {exc}")
    rec = MoveRecord(
        "r3",
        _identity_map(d),
        {"p": p, "q": q, "r": r,
         "t": t_edge, "m": m_edge, "b": b_edge,
         "t2": t2, "m2": m2, "b2": b2},
    )
    return d2, rec

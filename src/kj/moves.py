"""Elementary movie moves: birth, death, saddle, and Reidemeister rewrites.

``apply_move`` rewrites a PD code and returns the new diagram together with
a MoveRecord describing exactly which edges and crossings were touched; the
induced-map builders consume the record rather than re-deriving locations.
Each move's rewrite is one entry of a table keyed by the move's kind and,
for R1 and R2, its action; a rewrite that changes crossings validates its
frame before it returns.
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

A curl's loop edge holds two adjacent slots of its crossing. That slot pair
gives the curl's hand and the slots where the strand enters (e_in) and
leaves (e_out); a removal glues those two darts:

    loop at (0, 1): left,  e_in at 3, e_out at 2
    loop at (2, 3): left,  e_in at 0, e_out at 1
    loop at (1, 2): right, e_in at 0, e_out at 3
    loop at (0, 3): right, e_in at 1, e_out at 2

An R2 removal glues, for each middle edge, its strand's darts beyond the
two bigon crossings.

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

An R3 slides the triangle's side t across its opposite crossing r: t is the
least side passing over both others, else the least passing under both.
Of the other two sides, m is the lesser: m joins p and r, t joins p and q,
and b joins q and r. The crossings keep their slots, and each side takes a
fresh middle edge, in the order (t2, m2, b2). At each of its two crossings,
the side's slot takes the edge beyond its other crossing, and the opposite
slot takes its middle edge.
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


def _validated(crossings, loops, move: str | None = None) -> PlanarDiagram:
    """The diagram on ``crossings`` and ``loops``, validated. A failure is
    the ``move``'s IllegalMoveError when one is named."""
    d = PlanarDiagram(tuple(map(tuple, crossings)), loops)
    try:
        d.validate()
    except PDValidationError as exc:
        if move is None:
            raise
        raise IllegalMoveError(f"{move} produced an invalid diagram: {exc}")
    return d


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


def _shared_region(d: PlanarDiagram, a: int, b: int, sides=("left", "right"), where=""):
    """Edges ``a`` and ``b`` directed with one region on their left, as
    ``_directed_occurrences`` gives them; a free loop, which lies in the
    outer region, is (None, None, True). The region is a face both border,
    tried on ``sides`` of ``a``, when they are crossing edges of one
    crossing component, and the outer region otherwise."""
    loop = a in d.loops or b in d.loops
    if not loop and any({d.occurrences[a][0][0], d.occurrences[b][0][0]} <= set(comp)
                        for comp in d.crossing_components):
        c, s = d.edge_head[a]
        for side in sides:
            face = d.face_of_sector[(c, (s - (side == "left")) % 4)]
            got_b = _directed_occurrences(d, b, face)
            if got_b is not None:
                return _directed_occurrences(d, a, face), got_b
        raise IllegalMoveError(f"edges {a} and {b} do not border a common face{where}")
    outer = {d.face_of_sector[sector] for sector in d.outer_sectors}
    got = [(None, None, True) if e in d.loops
           else next(filter(None, (_directed_occurrences(d, e, f) for f in outer)), None)
           for e in (a, b)]
    for e, g in zip((a, b), got):
        if g is None:
            raise IllegalMoveError(
                f"edge {e} does not border the outer region" if loop else
                f"edges {a} and {b} lie in different pieces and do not both "
                "border the outer region"
            )
    return got


def _without_loops(d: PlanarDiagram, edges) -> PlanarDiagram:
    """``d`` with the free loops among ``edges`` taken out."""
    return PlanarDiagram(d.crossings, tuple(e for e in d.loops if e not in edges))


def _cut(d: PlanarDiagram, heads: dict[int, int]) -> list[list[int]]:
    """The crossings of ``d`` with the head occurrence of each crossing edge
    in ``heads`` handed to its head piece ``heads[e]``."""
    crossings = [list(t) for t in d.crossings]
    for e, piece in heads.items():
        if e not in d.loops:
            c, s = d.edge_head[e]
            crossings[c][s] = piece
    return crossings


def _identity_map(d: PlanarDiagram) -> dict[int, int]:
    return {c: c for c in range(d.crossing_count)}


def apply_move(d: PlanarDiagram, move: Move) -> tuple[PlanarDiagram, MoveRecord]:
    """Apply one move, validating legality. Raises IllegalMoveError."""
    if not isinstance(move, Move):
        raise IllegalMoveError(f"unknown move {move!r}")
    rule = _RULES.get((move.kind, getattr(move, "action", None)))
    if rule is None:
        raise IllegalMoveError(f"unknown {move.kind} action {move.action!r}")
    return rule(d, move)


# -- Morse moves ----------------------------------------------------------------


def _birth(d: PlanarDiagram, move: Birth):
    (loop,) = d.fresh_edges(1)
    d2 = PlanarDiagram(d.crossings, d.loops + (loop,))
    return d2, MoveRecord("birth", _identity_map(d), {"loop": loop})


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
    for (c, s), e in ((head2, e1), (head1, e2)):
        crossings[c][s] = e
    d2 = _validated(crossings, d.loops, "saddle")
    return d2, MoveRecord("saddle_reconnect", ident, {"feet": (e1, e2)})


# -- Reidemeister I ---------------------------------------------------------------

# the curl table of the module docstring: the loop edge's slots -> (hand,
# slot of e_in, slot of e_out)
_CURLS = {
    (0, 1): ("left", 3, 2),
    (2, 3): ("left", 0, 1),
    (1, 2): ("right", 0, 3),
    (0, 3): ("right", 1, 2),
}


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
    d2 = _validated(_cut(d, {e: f2}) + [cross], base.loops)
    rec = MoveRecord(
        "r1_add",
        _identity_map(d),
        {"hand": move.hand, "crossing": d.crossing_count, "loop_edge": f1,
         "anchors": {e: e_in}},
    )
    return d2, rec


def _curl(d: PlanarDiagram, loop_edge: int):
    """(crossing, hand, slot of e_in, slot of e_out) of the curl that
    carries ``loop_edge`` twice."""
    occ = d.occurrences.get(loop_edge, ())
    if len(occ) == 2 and occ[0][0] == occ[1][0] and (occ[0][1], occ[1][1]) in _CURLS:
        return occ[0][0], *_CURLS[occ[0][1], occ[1][1]]
    raise IllegalMoveError(f"edge {loop_edge} is not a curl loop")


def _splice(d: PlanarDiagram, removed: set[int], glue_pairs):
    """Remove crossings and reglue the strands across them.

    ``glue_pairs`` lists pairs of darts at removed crossings whose edges are
    to be joined end to end. Returns (diagram, crossing_map, merged), the
    diagram validated, where merged maps each involved old edge to its new
    identifier (chains keep the least id; closed chains become free loops,
    appended to the loops of ``d``).
    """
    kept = [i for i in range(d.crossing_count) if i not in removed]
    crossing_map = {i: j for j, i in enumerate(kept)}
    crossings = [list(d.crossings[i]) for i in kept]
    glue: dict[Dart, Dart] = {}
    for a, b in glue_pairs:
        if a in glue or b in glue:
            raise IllegalMoveError("conflicting strand gluings")
        glue[a] = b
        glue[b] = a

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
    for e in sorted({d.edge_at(a) for a in glue}):
        if e in merged:
            continue
        occ1, occ2 = d.occurrences[e]
        right, term_r = walk(e, occ2)
        if term_r is None:
            chain, ends = [e] + right, ()
        else:
            left, term_l = walk(e, occ1)
            chain, ends = left[::-1] + [e] + right, (term_l, term_r)
        new_id = min(chain)
        merged.update(dict.fromkeys(chain, new_id))
        if not ends:
            new_loops.append(new_id)
        for c, s in ends:
            if c in removed:
                raise IllegalMoveError("strand terminates at a removed crossing")
            crossings[crossing_map[c]][s] = new_id
    return _validated(crossings, d.loops + tuple(new_loops)), crossing_map, merged


def _r1_remove(d: PlanarDiagram, move: R1Move):
    c, hand, s_in, s_out = _curl(d, move.edge)
    d2, crossing_map, merged = _splice(d, {c}, [((c, s_in), (c, s_out))])
    keep = merged[d.crossings[c][s_in]]
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
    d2 = _validated(_cut(d, {under: uh, over: oh}) + [k1, k2], base.loops)
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
    # each middle's strand is glued from its dart beyond k1 to its dart
    # beyond k2
    beyond = [[(c, (d.slot(m, c) + 2) % 4) for c in (k1, k2)] for m in (m1, m2)]
    d2, crossing_map, merged = _splice(d, {k1, k2}, beyond)
    under_kept, over_kept = (merged[d.edge_at(darts[0])] for darts in beyond)
    rec = MoveRecord(
        "r2_remove",
        crossing_map,
        {"k1": k1, "k2": k2, "m1": m1, "m2": m2,
         "anchors": {under_kept: under_kept, over_kept: over_kept},
         "flip_components": [e for e in (under_kept, over_kept) if e in d2.loops]},
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
    # the triangle's sides, each joining two of its three crossings
    sides = sorted(d.edge_at((c, (s - 1) % 4)) for c, s in find_triangle(d, move.crossings))
    ends = {e: {c for c, _ in d.occurrences[e]} for e in sides}
    parities = {e: {s % 2 for _, s in d.occurrences[e]} for e in sides}
    movable = [e for e in sides if parities[e] == {1}] or [e for e in sides if parities[e] == {0}]
    if not movable:
        raise IllegalMoveError(
            f"triangle {move.crossings} has no strand passing over or under "
            "both others; not a slide triangle"
        )
    t = movable[0]
    m, b = (e for e in sides if e != t)
    (p,), (q,), (r,) = ends[m] - ends[b], ends[b] - ends[m], ends[m] & ends[b]
    t2, m2, b2 = d.fresh_edges(3)
    crossings = [list(x) for x in d.crossings]
    for side, middle, (here, there) in ((m, m2, (p, r)), (t, t2, (p, q)), (b, b2, (q, r))):
        for c, beyond in ((here, there), (there, here)):
            s = d.slot(side, c)
            crossings[c][s] = d.crossings[beyond][(d.slot(side, beyond) + 2) % 4]
            crossings[c][(s + 2) % 4] = middle
    d2 = _validated(crossings, d.loops, "r3")
    rec = MoveRecord(
        "r3",
        _identity_map(d),
        {"p": p, "q": q, "r": r, "t": t, "m": m, "b": b, "t2": t2, "m2": m2, "b2": b2},
    )
    return d2, rec


# each move's rewrite, by the move's kind and, for R1 and R2, its action
_RULES = {
    ("birth", None): _birth,
    ("death", None): _death,
    ("saddle", None): _saddle,
    ("r1", "add"): _r1_add,
    ("r1", "remove"): _r1_remove,
    ("r2", "add"): _r2_add,
    ("r2", "remove"): _r2_remove,
    ("r3", None): _r3,
}

"""Planar link diagrams from PD codes.

A crossing X(a, b, c, d) lists its four incident edges counterclockwise,
with the understrand entering at a and leaving at c. Slots are numbered
0..3 in tuple order; the overstrand occupies slots 1 and 3. Crossingless
components ("free loops", the O token) carry an edge identifier of their
own and are placed side by side in the unbounded region.

Everything downstream (resolutions, gradings, induced maps) reduces to
three traced structures computed here:

* strand directions, giving each edge a tail and head occurrence;
* faces of the four-valent map, via the counterclockwise rotation system,
  with the Euler count V - E + F = 2 per connected piece as the
  realizability check, and their checkerboard coloring (outer face of each
  piece color 0);
* circles of a complete resolution.

A smoothing only joins opposite sectors of a crossing, which have the same
color, and every circle runs along edges, so the regions of every
resolution take the diagram's coloring: the color beside a circle is the
color beside any of its edges (``edge_color``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import getitem

from .errors import InternalInvariantError, PDSyntaxError, PDValidationError

__all__ = [
    "PlanarDiagram",
    "Resolution",
    "Circle",
    "parse_pd",
    "render_pd",
    "crossing_sign",
    "writhe",
    "oriented_resolution",
    "resolve",
    "edge_color",
    "all_orientations",
]

# A dart is an (crossing index, slot) pair naming one edge end.
Dart = tuple[int, int]


@dataclass(frozen=True)
class PlanarDiagram:
    """Immutable planar diagram: crossing tuples plus free-loop edge ids."""

    crossings: tuple[tuple[int, int, int, int], ...] = ()
    loops: tuple[int, ...] = ()

    # -- raw incidence ----------------------------------------------------

    @cached_property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @cached_property
    def occurrences(self) -> dict[int, tuple[Dart, ...]]:
        """Edge id -> the darts where it meets crossings (free loops: ())."""
        occ: dict[int, list[Dart]] = {e: [] for e in self.loops}
        for c, tup in enumerate(self.crossings):
            for s, e in enumerate(tup):
                occ.setdefault(e, []).append((c, s))
        return {e: tuple(v) for e, v in occ.items()}

    @cached_property
    def edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.occurrences))

    @cached_property
    def crossing_edges(self) -> tuple[int, ...]:
        return tuple(e for e in self.edges if e not in self.loops)

    def edge_at(self, dart: Dart) -> int:
        return self.crossings[dart[0]][dart[1]]

    def other_end(self, edge: int, dart: Dart) -> Dart:
        a, b = self.occurrences[edge]
        return b if dart == a else a

    def slot(self, edge: int, crossing: int) -> int:
        """The slot of ``crossing`` that ``edge`` occupies; the edge must meet
        the crossing exactly once."""
        (s,) = [s for c, s in self.occurrences[edge] if c == crossing]
        return s

    # -- strand structure --------------------------------------------------

    @cached_property
    def _strands(self):
        """Directions and components from walking strands through crossings.

        Returns (tail, head, components): tail/head map each crossing edge to
        its departure/arrival dart; components is a tuple of sorted edge
        tuples, free loops included as singletons.
        """
        tail: dict[int, Dart] = {}
        head: dict[int, Dart] = {}
        comps: list[tuple[int, ...]] = []
        visited_departures: set[Dart] = set()

        def walk(start: Dart):
            comp_edges = set()
            dep = start
            while True:
                if dep in visited_departures:
                    raise PDValidationError(
                        f"inconsistent strand directions at crossing {dep[0]}"
                    )
                visited_departures.add(dep)
                e = self.edge_at(dep)
                if e in tail:
                    raise PDValidationError(f"edge {e} departs twice")
                tail[e] = dep
                arr = self.other_end(e, dep)
                if arr == dep:
                    raise PDValidationError(f"edge {e} has a single end")
                head[e] = arr
                comp_edges.add(e)
                c, s = arr
                if s == 0:
                    nxt = (c, 2)
                elif s in (1, 3):
                    nxt = (c, 4 - s)
                else:  # s == 2: arriving at an understrand exit slot
                    raise PDValidationError(
                        f"edge {e} enters crossing {c} at its understrand exit"
                    )
                if nxt == start:
                    break
                dep = nxt
            return tuple(sorted(comp_edges))

        # understrand exits force directions; walk those strands first
        for c in range(self.crossing_count):
            dep = (c, 2)
            if dep not in visited_departures:
                comps.append(walk(dep))
        # components passing over everywhere get a deterministic direction
        remaining = sorted(e for e in self.crossing_edges if e not in tail)
        for e in remaining:
            if e in tail:
                continue
            comps.append(walk(self.occurrences[e][0]))
        for e in self.loops:
            comps.append((e,))
        # sanity: every occurrence is exactly one tail and one head
        for e in self.crossing_edges:
            if e not in tail or e not in head or tail[e] == head[e]:
                raise PDValidationError(f"edge {e} has no consistent direction")
        comps.sort(key=lambda t: t[0])
        return tail, head, tuple(comps)

    @cached_property
    def edge_tail(self) -> dict[int, Dart]:
        return self._strands[0]

    @cached_property
    def edge_head(self) -> dict[int, Dart]:
        return self._strands[1]

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return self._strands[2]

    @cached_property
    def component_map(self) -> dict[int, int]:
        return {e: i for i, comp in enumerate(self.components) for e in comp}

    @cached_property
    def component_count(self) -> int:
        return len(self.components)

    # -- faces of the four-valent map ---------------------------------------

    @cached_property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face orbits of the rotation system, as tuples of arrival darts.

        Walking into dart (c, s) with the face on the left, the walk leaves
        along slot s-1; the face holds the sector between slots s-1 and s.
        """
        todo = {(c, s) for c in range(self.crossing_count) for s in range(4)}
        orbits = []
        while todo:
            start = min(todo)
            orbit = []
            cur = start
            while True:
                orbit.append(cur)
                todo.discard(cur)
                c, s = cur
                exit_dart = (c, (s - 1) % 4)
                cur = self.other_end(self.edge_at(exit_dart), exit_dart)
                if cur == start:
                    break
            orbits.append(tuple(orbit))
        return tuple(orbits)

    @cached_property
    def face_of_sector(self) -> dict[Dart, int]:
        """Sector (c, i), between slots i and i+1, -> index into faces."""
        out = {}
        for fi, orbit in enumerate(self.faces):
            for (c, s) in orbit:
                out[(c, (s - 1) % 4)] = fi
        return out

    @cached_property
    def face_colors(self) -> tuple[int, ...]:
        """Checkerboard color of each face: the two faces beside an edge
        differ, and the outer face of each piece (``outer_sectors``) is 0."""
        face = self.face_of_sector
        color: dict[int, int] = {}
        for sector in self.outer_sectors:
            stack = [face[sector]]
            color[stack[0]] = 0
            while stack:
                f = stack.pop()
                for c, s in self.faces[f]:
                    g = face[c, s]  # across the edge arriving at (c, s)
                    if g not in color:
                        color[g] = 1 - color[f]
                        stack.append(g)
                    elif color[g] == color[f]:
                        raise InternalInvariantError("diagram faces are not two-colorable")
        return tuple(color[f] for f in range(len(self.faces)))

    def color_left_of(self, dart: Dart) -> int:
        """Color of the face left of the edge that arrives at ``dart``."""
        c, s = dart
        return self.face_colors[self.face_of_sector[c, (s - 1) % 4]]

    @cached_property
    def _dart_tables(self):
        """What ``Resolution.circles`` walks, a dart (c, s) read as the int
        4c + s: the edge at each dart; each dart as its (c, s) pair; by
        crossing, then smoothing bit, then slot, the arrival dart reached
        from that slot along the smoothing arc and then along the edge at
        the arc's other end; every edge, in order, with its lowest dart (a
        free loop: None); and a memo of the circles traced so far by their
        trace, and of each free loop's circle by its edge, so that
        resolutions share the circles they trace alike."""
        darts = [(c, s) for c in range(self.crossing_count) for s in range(4)]
        edge_at = [self.edge_at(x) for x in darts]
        # the other end of the edge at each dart
        other = [4 * c + s for x, e in zip(darts, edge_at) for c, s in [self.other_end(e, x)]]
        hops = [tuple(tuple(other[4 * c + p] for p in partners) for partners in _PARTNERS)
                for c in range(self.crossing_count)]
        starts = [(e, min((4 * c + s for c, s in self.occurrences[e]), default=None))
                  for e in self.edges]
        loops = {e: Circle((e,), (), is_free_loop=True) for e in self.loops}
        return edge_at, darts, hops, starts, loops

    @cached_property
    def crossing_components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the four-valent graph (crossing indices)."""
        occ = self.occurrences
        ends = ((occ[e][0][0], occ[e][1][0]) for e in self.crossing_edges)
        classes = union_classes(range(self.crossing_count), ends)
        return tuple(map(tuple, sorted(classes)))

    @cached_property
    def outer_sectors(self) -> tuple[Dart, ...]:
        """Per crossing component, a sector of its declared outer face: the
        left side of its lowest edge at that edge's first crossing."""
        out = []
        for comp in self.crossing_components:
            cset = set(comp)
            e0 = min(e for e in self.crossing_edges if self.occurrences[e][0][0] in cset)
            c, s = min(self.occurrences[e0])
            out.append((c, (s - 1) % 4))
        return tuple(out)

    def validate(self) -> None:
        """Check all structural invariants, raising PDValidationError."""
        for e, occ in self.occurrences.items():
            if e <= 0:
                raise PDValidationError(f"edge identifiers must be positive: {e}")
            expected = 0 if e in self.loops else 2
            if len(occ) != expected:
                raise PDValidationError(
                    f"edge {e} occurs {len(occ)} times (expected {expected})"
                )
        _ = self.components  # forces direction consistency checks
        # Euler formula per connected piece of the four-valent map: each
        # crossing edge occurs twice, both ends in one piece, so a piece of
        # v crossings has 2v edges and V - E + F = F - V; a face lies in the
        # piece of the first crossing its orbit meets
        comps = self.crossing_components
        piece = {c: i for i, comp in enumerate(comps) for c in comp}
        faces = [0] * len(comps)
        for orbit in self.faces:
            faces[piece[orbit[0][0]]] += 1
        for comp, f in zip(comps, faces):
            if f - len(comp) != 2:
                raise PDValidationError(
                    f"crossings {comp} do not embed in the plane (V-E+F = {f - len(comp)})"
                )

    # -- conveniences --------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.crossings and not self.loops

    def fresh_edges(self, n: int) -> list[int]:
        """The n lowest unused positive edge identifiers."""
        used = set(self.occurrences)
        out: list[int] = []
        e = 1
        while len(out) < n:
            if e not in used:
                out.append(e)
            e += 1
        return out

    def __repr__(self):
        return render_pd(self)


# -- PD text grammar ----------------------------------------------------------

_TOKEN_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)|O")


def parse_pd(text: str) -> PlanarDiagram:
    """Parse ``PD[X(a,b,c,d), ..., O]`` text into a validated diagram.

    Whitespace-insensitive. ``PD[]`` is the empty diagram, ``O`` a
    crossingless unknot component (free loops receive the lowest edge ids
    unused by crossings, in token order).
    """
    s = "".join(text.split())
    if not s.startswith("PD[") or not s.endswith("]"):
        raise PDSyntaxError("PD code must have the form PD[...]")
    body = s[3:-1]
    crossings: list[tuple[int, int, int, int]] = []
    loop_count = 0
    if body:
        pos = 0
        while pos < len(body):
            m = _TOKEN_RE.match(body, pos)
            if m is None:
                raise PDSyntaxError(f"bad token at {body[pos:pos + 20]!r}")
            if m.group(0) == "O":
                loop_count += 1
            else:
                crossings.append(tuple(int(g) for g in m.groups()))  # type: ignore[arg-type]
            pos = m.end()
            if pos < len(body):
                if body[pos] != ",":
                    raise PDSyntaxError(f"expected ',' at {body[pos:pos + 20]!r}")
                pos += 1
                if pos == len(body):
                    raise PDSyntaxError("trailing comma")
    d = PlanarDiagram(tuple(crossings), ())
    if loop_count:
        d = PlanarDiagram(d.crossings, tuple(d.fresh_edges(loop_count)))
    d.validate()
    return d


def render_pd(d: PlanarDiagram) -> str:
    parts = [f"X({a},{b},{c},{e})" for (a, b, c, e) in d.crossings]
    parts.extend("O" for _ in d.loops)
    return "PD[" + ", ".join(parts) + "]"


def union_classes(nodes, pairs) -> list[list]:
    """Classes of ``nodes`` under the equivalence the ``pairs`` generate,
    each listing its members in node order, in order of first member."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    classes: dict = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


# -- orientations and crossing signs ------------------------------------------

def all_orientations(d: PlanarDiagram) -> list[tuple[bool, ...]]:
    """All 2^l orientations; True keeps a component's reference direction."""
    out = [()]
    for _ in range(d.component_count):
        out = [o + (b,) for o in out for b in (True, False)]
    return [tuple(o) for o in out]


def _check_orientation(d: PlanarDiagram, orientation) -> tuple[bool, ...]:
    o = tuple(orientation)
    if len(o) != d.component_count:
        raise PDValidationError(
            f"orientation length {len(o)} != component count {d.component_count}"
        )
    return o


def crossing_sign(d: PlanarDiagram, orientation, c: int) -> int:
    """Sign of crossing c: +1 when the overstrand runs slot 3 -> slot 1
    under the given orientation, -1 otherwise."""
    o = _check_orientation(d, orientation)
    over_edge = d.crossings[c][1]
    under_edge = d.crossings[c][0]
    sign = 1 if d.edge_tail[over_edge] == (c, 1) else -1
    if not o[d.component_map[under_edge]]:
        sign = -sign
    if not o[d.component_map[over_edge]]:
        sign = -sign
    return sign


def writhe(d: PlanarDiagram, orientation=None) -> int:
    """Sum of crossing signs. Defaults to the reference orientation."""
    o = (
        tuple([True] * d.component_count)
        if orientation is None
        else _check_orientation(d, orientation)
    )
    return sum(crossing_sign(d, o, c) for c in range(d.crossing_count))


def oriented_resolution(d: PlanarDiagram, orientation) -> tuple[int, ...]:
    """Bit per crossing: 0 at positive crossings, 1 at negative ones."""
    o = _check_orientation(d, orientation)
    return tuple(
        0 if crossing_sign(d, o, c) == 1 else 1 for c in range(d.crossing_count)
    )


# -- complete resolutions ------------------------------------------------------

def smoothing_partner(slot: int, bit: int) -> int:
    """Slot joined to ``slot`` by the smoothing arc: the 0-smoothing pairs
    (0,1) and (2,3), the 1-smoothing pairs (0,3) and (1,2)."""
    if bit == 0:
        return slot ^ 1
    return 3 - slot


def joining_bit(d: PlanarDiagram, c: int, a: int, b: int) -> int:
    """The smoothing bit at crossing ``c`` whose arc joins the slots of the
    edges ``a`` and ``b``, which meet ``c`` once each at adjacent slots."""
    return 0 if smoothing_partner(d.slot(a, c), 0) == d.slot(b, c) else 1


# smoothing_partner as a table, by bit and then slot
_PARTNERS = tuple(tuple(smoothing_partner(s, b) for s in range(4)) for b in (0, 1))


@dataclass(frozen=True)
class Circle:
    """One circle of a complete resolution.

    For crossing circles, ``trace`` lists the arrival darts visited by the
    canonical traversal (started at the lowest edge's lowest occurrence);
    ``edges`` follows the same order. Free loops have an empty trace and the
    counterclockwise reference direction by convention.
    """

    edges: tuple[int, ...]
    trace: tuple[Dart, ...]
    is_free_loop: bool = False


@dataclass(frozen=True)
class Resolution:
    """A complete resolution: the smoothing choice and its circles."""

    diagram: PlanarDiagram
    bits: tuple[int, ...]

    @cached_property
    def circles(self) -> tuple[Circle, ...]:
        """The circles, traced in one walk over the diagram's flat dart
        tables that also sets ``circle_of_edge`` and ``circle_count``. Each
        crossing circle starts at the lowest dart of its lowest edge, and
        each free loop at its own edge, so they come out ordered by lowest
        edge."""
        edge_at, darts, hops, starts, traced = self.diagram._dart_tables
        following = [dart for hop in map(getitem, hops, self.bits) for dart in hop]
        circles: list[Circle] = []
        circle_of_edge: dict[int, int] = {}
        for e, start in starts:
            if e in circle_of_edge:
                continue
            if start is None:
                circle = traced[e]  # a free loop
            else:
                trace = [start]  # arrival darts
                cur = following[start]
                while cur != start:
                    trace.append(cur)
                    cur = following[cur]
                key = tuple(trace)
                circle = traced.get(key)
                if circle is None:
                    circle = traced[key] = Circle(tuple(map(edge_at.__getitem__, trace)),
                                                  tuple(map(darts.__getitem__, trace)))
            circle_of_edge.update(zip(circle.edges, repeat(len(circles))))
            circles.append(circle)
        # one cached_property fills all three
        self.__dict__.update(circle_of_edge=circle_of_edge, circle_count=len(circles))
        return tuple(circles)

    @cached_property
    def circle_of_edge(self) -> dict[int, int]:
        """Edge -> the index of the circle that runs along it."""
        self.circles  # noqa: B018 -- tracing sets it
        return self.__dict__["circle_of_edge"]

    @cached_property
    def circle_count(self) -> int:
        return len(self.circles)

    def circle_index_of_edge(self, edge: int) -> int:
        return self.circle_of_edge[edge]

    @cached_property
    def circle_edge_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(c.edges) for c in self.circles)

    @cached_property
    def circle_of_edge_set(self) -> dict[frozenset, int]:
        return {es: i for i, es in enumerate(self.circle_edge_sets)}

    def oriented_color(self, i: int, orientation) -> int:
        """Color on the left of circle i traversed along the direction the
        link orientation induces on its edges (``edge_color`` of any of
        them). Raises if the circle's edges are not coherently oriented
        (never so in the oriented resolution)."""
        d = self.diagram
        o = _check_orientation(d, orientation)
        circ = self.circles[i]
        votes = set()
        for dart in circ.trace:
            e = d.edge_at(dart)
            forward = d.edge_head[e] == dart  # trace arrives where edge arrives
            votes.add(forward == o[d.component_map[e]])
        if len(votes) > 1:
            raise InternalInvariantError(
                "circle is not coherently oriented by the link orientation"
            )
        return edge_color(d, circ.edges[0], o)


def resolve(d: PlanarDiagram, bits) -> Resolution:
    """Resolve every crossing (bit 0 or 1) and trace the resulting circles."""
    b = tuple(map(int, bits))
    if len(b) != d.crossing_count:
        raise PDValidationError(
            f"bitvector length {len(b)} != crossing count {d.crossing_count}"
        )
    if not {0, 1}.issuperset(b):
        raise PDValidationError("bits must be 0 or 1")
    return Resolution(d, b)


def edge_color(d: PlanarDiagram, edge: int, orientation) -> int:
    """Color on the left of ``edge`` along the direction the orientation
    gives it; in the oriented resolution, the color of the circle through
    the edge. A free loop runs counterclockwise in its reference direction,
    with the bounded interior (color 1) on the left."""
    o = _check_orientation(d, orientation)
    forward = o[d.component_map[edge]]
    if edge in d.loops:
        return int(forward)
    return d.color_left_of((d.edge_head if forward else d.edge_tail)[edge])

"""The cube of resolutions and its chain complexes.

Both theories use the rank-2 Frobenius algebra R[X]/(X^2 - t) on basis
{v+, v-} with deg v+ = +1, deg v- = -1; t = 0 is the graded theory, t = 1
the filtered deformation. A generator of the complex is a resolution
bitvector together with a circle labeling; gradings are

    i = |v| - n_minus,      q = (sum of label degrees) + |v| + n_plus - 2 n_minus.

Cube edges flip one bit 0 -> 1 and apply merge or split on the affected
circles with the sign (-1)^(number of 1 bits below the flipped index).

A complex numbers its generators degree by degree, each resolution's
together in code order, and keeps only each resolution's offset and each
degree's count. ``ChainComplex.bases``, the list of (bits, labels) tuples
in that order, is written on its first read; ``qs[i]`` follows the same
order.

``LocalTables`` writes every map on the cube of resolutions: d, one cube
edge key at a time, and every chain map of a movie, one resolution pair at
a time. Both share one table format (an entry per labeling of the consumed
circles) and one routine that appends a map's columns from those tables,
and one stored form: a column-major triple over generator ids, which
``columns`` and ``apply`` read in place. ``ChainComplex.diff`` and
``ChainMap.mats`` build ``SparseMatrix`` views of it, kept for tests and
tools. Homology never reads d's triple: ``ChainComplex.blocks`` cuts each
q-block of d straight from the edge list, as the rows Gaussian
elimination works on, so ``kj homology`` writes no d.

Khovanov proves d^2 = 0 one square of the cube at a time, and
``ChainComplex.validate`` checks it that way. Relative to the offsets of
its two resolutions, a cube edge's entries are fixed by its shape (the
weights that carry the untouched circles, the table entry each source code
reads, and the coded table) and its sign. A square's block of d^2 is the
product of two edge signs times P + s P', where P and P' are its two paths
with every sign +1 and s is the product of its four signs; so it is fixed
by its four shapes and s. Each distinct such key is summed once, and
squares of a key already checked are skipped, also in the other complexes
that share the ``LocalTables``. A cube map acts only on the circles it
consumes (Bar-Natan's locality), so a square is summed only on the source
codes of the circles its first edges consume, whenever
``LocalTables.codes`` finds that both paths carry every other circle
alike, and otherwise on every code. A complex writes d on the first read
of its triple, and ``validate`` compares a d that has been written,
whole, with a fresh write from the edges it checks.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from collections.abc import Iterator, Mapping
from functools import cache, cached_property
from itertools import repeat
from operator import lshift
from types import MappingProxyType

from .diagram import PlanarDiagram, Resolution, crossing_sign, resolve
from .errors import DiagramTooLargeError, InternalInvariantError, PDValidationError
from .laurent import Laurent
from .rings import Ring
from .sparse import SparseMatrix

__all__ = [
    "V_PLUS",
    "V_MINUS",
    "Gen",
    "ChainComplex",
    "ChainMap",
    "build_complex",
    "LocalTables",
    "local_table",
    "filtration_level",
    "graded_euler_characteristic",
    "kauffman_bracket",
    "edge_map_on_chain",
    "carry_labels",
    "carried_weights",
    "subset_sums",
    "MAX_CROSSINGS",
]

# circle labels
V_PLUS = 0
V_MINUS = 1

# Gen = (bits, labels); labels indexed by the resolution's circle order
Gen = tuple[tuple[int, ...], tuple[int, ...]]

_NOTHING: Mapping = MappingProxyType({})

# The largest diagram kj builds a cube of resolutions for. On a 2-core
# machine, building, checking and reducing the complex of T(2,9) (19686
# generators), with its blocks cut from the cube edges and no d written,
# takes 0.11 to 0.14 s and 26 MiB for Khovanov homology over Z, and 0.13 to
# 0.18 s and 31 MiB for Lee homology over Q; on T(2,11) (177150 generators)
# it takes 1.5 to 1.9 s and 78 MiB, and 1.6 to 2.3 s and 147 MiB
# (`tools/cube_stages.py`, three runs). Each further crossing
# roughly triples the generators, and memory grows with them. A free loop
# doubles the generators, so loops count against the bound with crossings.
MAX_CROSSINGS = 12


def merge_products(x: int, y: int, t: int):
    """m(x (x) y) as [(label, coeff)]; v- v- = t v+, v+ is the unit."""
    if x == V_PLUS and y == V_PLUS:
        return [(V_PLUS, 1)]
    if x == V_MINUS and y == V_MINUS:
        return [(V_PLUS, t)] if t else []
    return [(V_MINUS, 1)]


def split_products(x: int, t: int):
    """Delta(x) as [((label1, label2), coeff)]."""
    if x == V_PLUS:
        return [((V_PLUS, V_MINUS), 1), ((V_MINUS, V_PLUS), 1)]
    out = [((V_MINUS, V_MINUS), 1)]
    if t:
        out.append(((V_PLUS, V_PLUS), t))
    return out


def counit(x: int) -> int:
    """epsilon: v- -> 1, v+ -> 0."""
    return 1 if x == V_MINUS else 0


def _labeling_tables(k: int):
    """The code of each of the 2^k labelings of k circles, in code order,
    and the q degree of each (deg v+ = +1, deg v- = -1).

    A labeling's code reads its labels as a binary number, first circle most
    significant (V_PLUS = 0, V_MINUS = 1), so code order is lexicographic.
    """
    labelings = tuple(itertools.product((V_PLUS, V_MINUS), repeat=k))
    codes = {labels: code for code, labels in enumerate(labelings)}
    return codes, tuple(k - 2 * sum(labels) for labels in labelings)


class _Index(Mapping):
    """Generator -> (i, pos), computed from the offset of each resolution in
    its degree and the code of the labels; KeyError for a generator outside
    the complex. It holds only those tables, never the complex."""

    __slots__ = ("_where",)

    def __init__(self, where: dict[tuple[int, ...], tuple[int, int, dict]]):
        self._where = where  # bits -> (i, offset, codes of its labelings)

    def __getitem__(self, gen: Gen) -> tuple[int, int]:
        bits, labels = gen
        try:
            i, offset, codes = self._where[bits]
            return i, offset + codes[labels]
        except KeyError:
            raise KeyError(gen) from None

    def __iter__(self) -> Iterator[Gen]:
        for bits, (_, _, codes) in self._where.items():
            yield from zip(repeat(bits), codes)

    def __len__(self) -> int:
        return sum(len(codes) for _, _, codes in self._where.values())


def local_table(name: str, t: int) -> list:
    """The local table ``name`` at t, indexed by the labels of the circles a
    change consumes read as a code (first circle most significant,
    V_PLUS = 0): entry x lists (labels of the created circles, coeff).
    Merge and split read ``merge_products`` and ``split_products`` here."""
    labels = (V_PLUS, V_MINUS)
    if name == "merge":
        return [[((z,), c) for z, c in merge_products(x, y, t)] for x in labels for y in labels]
    if name == "split":
        return [split_products(x, t) for x in labels]
    if name == "birth":
        return [[((V_PLUS,), 1)]]
    if name == "death":
        return [[((), counit(x))] for x in labels]
    if name == "identity":
        return [[((), 1)]]
    if name == "split_minus_2x":
        # a left curl: the split of the host circle minus
        # 2 X(host) (x) v+(loop), X: v+ -> v-, v- -> t v+
        return [[((V_PLUS, V_MINUS), 1), ((V_MINUS, V_PLUS), -1)],
                [((V_MINUS, V_MINUS), 1), ((V_PLUS, V_PLUS), -t)]]
    if name == "merge_antipode":
        # a right curl's removal: m(host (x) S(loop)), S: v+ -> v+, v- -> -v-
        return [[(z, c * (-1) ** y) for z, c in merge] for merge, y in
                zip(local_table("merge", t), (V_PLUS, V_MINUS) * 2)]
    if name.startswith("death_"):
        # the counit on the first consumed circle, then the named table
        rest = local_table(name[6:], t)
        return [[] for _ in rest] + rest
    raise ValueError(f"no local table named {name!r}")


class LocalTables:
    """The one way kj writes a map on the cube of resolutions: d one cube
    edge key at a time and every chain map of a movie one resolution pair
    at a time, each change by a ``local_table``. Every other circle keeps
    its label, on the target circle ``carried_weights`` finds for it. A
    table is built on first use and coded once per new-circle bits into
    (target code delta, int) pairs, zeros left out, and once more per sign
    into (target code delta, ring element) pairs, so equal entries share
    one object; homology's blocks read the ints per sign instead, reduced
    mod p over F_p (``reduced``).

    Relative to the offsets of its two resolutions, a piece's entries are
    fixed by its shape and its sign. The shape is its carried weights and
    its coded table, read at its consumed circles; each distinct one is
    laid out once, in ``shapes``, where its id is its place.

    A cube edge of d is laid out once per key, in ``cube_edges``: its
    source and target circles on slots 0 and 2 of the flipped crossing and
    the two circle counts. A resolution lists its circles by lowest edge,
    and a flip changes only the circles through its crossing, so every
    other circle keeps its place among the rest, and the key fixes the
    carried weights. Chain maps carry once per resolution pair, since
    frames of different diagrams do not keep that order.

    One instance may serve many complexes and chain maps over one ring at
    one t, such as the frames of a movie: ``ChainComplex.validate`` records
    here the cube squares and edges it has checked, by shape, and skips
    them wherever they recur.

    A cube map acts only on the circles it consumes and carries each other
    one along, so ``validate`` reads an edge, or sums a square, only on the
    source codes whose set bits lie on the circles it touches, whenever
    ``codes`` finds that the other circles are carried alike on every path.
    Nothing is laid out per shape: a check reads the shape's own lists at
    the codes it is given.
    """

    def __init__(self, t: int, ring: Ring):
        self.t = t
        self.ring = ring
        # int -> its ring element (None if zero in the ring)
        self.elements: dict[int, object] = {}
        self._tables: dict[str, list] = {}  # by name, built on first use
        # by (table, new-circle bits): the coded table on ints, the shapes
        # that read it by (carried weights, consumed circles), and the coded
        # table on ring elements by sign
        self._coded: dict[tuple, tuple[list, dict, dict]] = {}
        # by (circle count, consumed): the table entry each source code
        # reads, and the mask of the consumed bits
        self._keys: dict[tuple, tuple[list[int], int]] = {}
        # by shape id: the row of each source code before the new circles,
        # relative to the target's offset; the table entry each reads; the
        # coded table on ints; the id; the coded table on ring elements by
        # sign; the mask of the consumed source bits
        self.shapes: list[tuple[list[int], list[int], list, int, dict, int]] = []
        # the shape id of a cube edge of d by its key (c1, c2, t1, t2, k,
        # tk): its source and target circles on slots 0 and 2 of the
        # flipped crossing and the circle counts of its two resolutions
        self.cube_edges: dict[tuple[int, int, int, int, int, int], int] = {}
        # (4 edge shapes, whether their signs multiply to -1) of the squares
        # that vanish, and (edge shape, q offset) of the edges whose q
        # shifts hold
        self.checked_squares: set[tuple[int, int, int, int, int]] = set()
        self.checked_q: set[tuple[int, int]] = set()
        # by (shape id, sign): the coded table on ints times the sign,
        # reduced mod p over F_p
        self._reduced: dict[tuple[int, int], list] = {}
        # by a mask of source bits: the codes whose set bits lie in it
        self._codes: dict[int, list[int]] = {}

    def element(self, v: int):
        """The shared ring element of the int ``v``, or None if it is zero."""
        if v not in self.elements:
            x = self.ring.from_int(v)
            self.elements[v] = None if self.ring.is_zero(x) else x
        return self.elements[v]

    def piece(self, src, dst, row, consumed, created, table, sign=1, placed=None,
              skip: frozenset = frozenset()):
        """The map from resolution ``src`` into ``dst``, whose all-v+
        generator is row ``row``, by ``table`` on the ``consumed`` and
        ``created`` circles, times ``sign``; ``placed`` and ``skip`` are as in
        ``carry_labels``. Created circles past the labels the table gives
        are born v+, which adds nothing to a code.

        Returns its shape, as in ``shapes``; its coded table on ring
        elements; ``row``; and ``sign``.
        """
        news = tuple([dst.circle_count - 1 - ti for ti in created])  # their bits in a target code
        coded = self._coded.get((table, news))
        if coded is None:
            if table not in self._tables:
                self._tables[table] = local_table(table, self.t)
            ints = [[(sum(map(lshift, labels, news)), coeff)
                     for labels, coeff in terms if self.element(coeff) is not None]
                    for terms in self._tables[table]]
            # ``fill`` appends, so two terms of one entry would both stay
            if any(len({delta for delta, _ in terms}) < len(terms) for terms in ints):
                raise InternalInvariantError("two terms of a cube map landed on one entry")
            coded = self._coded[table, news] = ints, {}, {}
        weights = carried_weights(src, dst, consumed, created, placed, skip)
        shape = coded[1].get((weights, consumed))
        if shape is None:
            k = len(weights)
            keys = self._keys.get((k, consumed))
            if keys is None:
                # source bit p selects bit n of the key for the nth consumed circle
                where = [0] * k
                for n, si in enumerate(consumed):
                    where[k - 1 - si] = 1 << len(consumed) - 1 - n
                keys = self._keys[k, consumed] = subset_sums(0, where), sum(
                    1 << p for p, n in enumerate(where) if n)
            shape = coded[1][weights, consumed] = (
                subset_sums(0, weights), keys[0], coded[0], len(self.shapes), coded[2], keys[1]
            )
            self.shapes.append(shape)
        return shape, self.signed(shape, sign), row, sign

    def signed(self, shape, sign: int) -> list:
        """The coded table of ``shape`` on ring elements times ``sign``,
        made on first use and shared by every piece of that shape and sign."""
        by_sign = shape[4]
        entries = by_sign.get(sign)
        if entries is None:
            entries = by_sign[sign] = [[(delta, self.element(sign * v)) for delta, v in terms]
                                       for terms in shape[2]]
        return entries

    def reduced(self, shape, sign: int) -> list:
        """The coded table of ``shape`` on ints times ``sign``, reduced mod p
        over F_p: what ``ChainComplex.blocks`` reads, made on first use and
        shared as ``signed``'s tables are."""
        entries = self._reduced.get((shape[3], sign))
        if entries is None:
            p = self.ring.characteristic
            entries = self._reduced[shape[3], sign] = [
                [(delta, sign * v % p if p else sign * v) for delta, v in terms]
                for terms in shape[2]]
        return entries

    def terms(self, sid: int, codes=None) -> list[tuple[int, int, int]]:
        """The terms of shape ``sid`` as (source code, row, int), rows
        relative to the target's offset, in the order ``fill`` writes them,
        on the source ``codes`` in order (by default every code)."""
        rows, keys, ints = self.shapes[sid][:3]
        if codes is None:
            codes = range(len(rows))
        return [(c, rows[c] + delta, v) for c in codes for delta, v in ints[keys[c]]]

    def codes(self, first: int, *square: int) -> list[int]:
        """The source codes to check the shape ``first`` on, or, given
        ``square`` = (second, third, fourth), the cube square whose paths
        are ``first`` then second and third then fourth: those whose set
        bits all lie on the bits the first edges consume, if each path
        carries every other bit, past each of its maps, to one nonzero bit,
        and distinct bits to distinct ones; otherwise every code. Each list
        is made once and shared.

        In the first case the image of a source code is the image of its
        part on those bits, shifted by what the other bits are carried to,
        alike on every path, since a map's carried weights are distinct bits
        and none of them a created circle's (``carried_weights``). So an
        edge keeps its q shifts, or a square vanishes, on every code exactly
        when it does on those codes, and the first code where it fails is
        one of them. A sum of distinct bits keeps its bit count: that shows
        the other bits carried to distinct nonzero bits."""
        shapes = self.shapes
        rows1, own1 = shapes[first][0], shapes[first][5]
        every = len(rows1) - 1
        if not square:
            rest = every & ~own1
            mask = own1 if rows1[rest].bit_count() == rest.bit_count() else every
        else:
            second, third, fourth = square
            rows2, own2 = shapes[second][0], shapes[second][5]
            rows3, own3 = shapes[third][0], shapes[third][5]
            rows4, own4 = shapes[fourth][0], shapes[fourth][5]
            mask = own1 | own3
            rest = bits = every & ~mask
            if rows2[rows1[rest]].bit_count() != rest.bit_count():
                mask = every
            while bits and mask != every:  # each other bit on its own
                bit = bits & -bits
                bits ^= bit
                mid1, mid3 = rows1[bit], rows3[bit]
                if mid1 & own2 or mid3 & own4 or rows2[mid1] != rows4[mid3]:
                    mask = every
        codes = self._codes.get(mask)
        if codes is None:
            codes = self._codes[mask] = subset_sums(
                0, [1 << p for p in range(mask.bit_length()) if mask >> p & 1])
        return codes

    @staticmethod
    def fill(ptr, targets, values, size: int, pieces) -> None:
        """Append the ``pieces`` out of one source resolution, one column per
        each of its ``size`` codes, to a map's own column-major triple (as
        ``_Stored`` lays it out): rows to ``targets``, entries to ``values``
        and the end of each column to ``ptr``. In a column the pieces come
        in order, each in table order, at rows from the piece's ``row`` on.
        This is the one writer of d and of every chain map's entries."""
        add_target, add_value, end = targets.append, values.append, ptr.append
        for code in range(size):
            for shape, entries, row, _ in pieces:
                r = row + shape[0][code]
                for delta, x in entries[shape[1][code]]:
                    add_target(r + delta)
                    add_value(x)
            end(len(values))


class _Stored:
    """A map between chain complexes, stored once, column-major, over
    generator ids numbered degree by degree (``first[i]`` is the id of
    degree i's first generator): column g of the source holds rows
    ``targets[ptr[g]:ptr[g + 1]]`` of the target with entries at the same
    places of ``values``, in the order they were appended. ``targets`` and
    ``ptr`` are int arrays and ``values`` a list of shared ring elements,
    about 20 bytes per entry. d and every chain map are stored so: a chain
    map is written when it is made, d on the first read of its triple, by
    ``ChainComplex._write``. Each subclass gives ``_ends()``: its source,
    its target and the degree the map adds."""

    def columns(self, i: int) -> list[dict]:
        """Every column out of degree i as a dict row -> entry, rows counted
        in the target's degree, in the order of the entries; none if the
        source has no degree i."""
        src, dst, step = self._ends()
        g, base = src.first.get(i, 0), dst.first.get(i + step, 0)
        ptr, targets, values = self.ptr, self.targets, self.values
        return [{targets[k] - base: values[k] for k in range(ptr[c], ptr[c + 1])}
                for c in range(g, g + src.dim(i))]

    def apply(self, i: int, vec: dict) -> dict:
        """The map out of degree i times a vector (dict col -> scalar),
        reading only vec's columns."""
        src, dst, step = self._ends()
        g, base = src.first.get(i, 0), dst.first.get(i + step, 0)
        ptr, targets, values, ring = self.ptr, self.targets, self.values, src.ring
        out: dict = {}
        for c in sorted(vec):
            for k in range(ptr[g + c], ptr[g + c + 1]):
                r = targets[k] - base
                out[r] = out.get(r, ring.zero) + values[k] * vec[c]
        return {r: v for r, v in out.items() if not ring.is_zero(v)}

    def _add_times(self, acc: dict, other: "_Stored", g: int, negate: bool = False) -> dict:
        """Add this map times column g of ``other``, a map into this map's
        source, negated if ``negate``, to ``acc`` (a dict row -> entry by
        generator ids), and return it."""
        ptr, targets, values = self.ptr, self.targets, self.values
        for k in range(other.ptr[g], other.ptr[g + 1]):
            r, w = other.targets[k], other.values[k]
            if negate:
                w = -w
            for k2 in range(ptr[r], ptr[r + 1]):
                r2, x = targets[k2], values[k2] * w
                s = acc.get(r2)
                acc[r2] = x if s is None else s + x
        return acc

    def _view(self) -> dict[int, SparseMatrix]:
        """The map out of every degree i of the source as a ``SparseMatrix``,
        built from the arrays, its entries in their order."""
        src, dst, step = self._ends()
        return {i: SparseMatrix(dst.dim(i + step), src.dim(i), src.ring, {
            (r, c): v for c, col in enumerate(self.columns(i)) for r, v in col.items()
        }) for i in src.degrees()}


class ChainComplex(_Stored):
    """Basis-indexed chain groups with sparse differentials d_i: C^i -> C^{i+1}.

    A resolution's generators sit together in its degree, in code order, so
    ``index`` is offset arithmetic rather than a table of generators. The
    build keeps each degree's generator count, which ``dim`` and
    ``degrees`` read; ``bases[i]``, every generator of degree i in that
    order, is written on its first read, which no kj command makes.
    ``qs[i]`` is the q-grading of each generator of degree i, in the same
    order.

    d is stored once in ``ptr``, ``targets`` and ``values``, in the one form
    chain maps share (``_Stored``), in the order ``LocalTables.fill``
    appends it. The build keeps only what d is written from: the shape and
    sign of each cube edge (``_edge_shapes``), the shape found by the
    edge's key in ``local.cube_edges`` and laid out only for a new key
    (T(2,9) has 2,304 cube edges and 45 keys), the place of each resolution
    (``_spans``) and ``first``; ``_write`` writes the triple from them on
    its first read, so a caller that reads only the gradings never writes
    it, and ``validate`` compares a written triple whole with a fresh
    ``_write``. ``blocks`` reads the same edges into d's q-blocks for
    homology, and writes no triple. ``columns`` and
    ``apply`` read d_i in place; ``diff`` builds every d_i as a
    ``SparseMatrix`` on each access, a view kept for tests and tools.

    d is written through ``local``, a ``LocalTables`` at the same t over the
    same ring; complexes that share one, such as a movie's frames, share
    its coded tables, its edge keys and the squares ``validate`` has
    checked.
    """

    def __init__(self, diagram: PlanarDiagram, t: int, ring: Ring,
                 local: LocalTables | None = None):
        self.diagram = diagram
        self.t = t
        self.ring = ring
        self.n_plus, self.n_minus = _sign_counts(diagram)
        self.resolutions: dict[tuple[int, ...], Resolution] = {}
        self._dims: dict[int, int] = {}  # generator count by degree
        self.qs: dict[int, list[int]] = {}
        self._where: dict[tuple[int, ...], tuple[int, int, dict]] = {}
        self.index: Mapping[Gen, tuple[int, int]] = _Index(self._where)
        # every entry of d is one of its shared elements; ``local`` may be
        # shared with other complexes at the same t over the same ring
        if local is None:
            local = LocalTables(t, ring)
        elif local.t != t or local.ring is not ring:
            raise ValueError("shared local tables must have the complex's t and ring")
        self.local = local
        # each cube edge out of a resolution as 2 * (its shape id in
        # ``local.shapes``) + 1 if its sign is -1, in order of the flipped
        # bit, by the resolution's index (its bits read as a binary number),
        # in the order of d's columns
        self._edge_shapes: dict[int, list[int]] = {}
        # (offset, size) of each resolution in its degree, by index
        self._spans: list[tuple[int, int]] = []
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        d = self.diagram
        n = d.crossing_count
        layers: dict[int, list[int]] = {}  # resolution indices by degree
        at: list[Resolution] = []  # by index
        tables: dict[int, tuple] = {}  # shared by every resolution with k circles
        # bits and labels both run in lexicographic order, so each degree's
        # generators are numbered in sorted order
        for index, bits in enumerate(itertools.product((0, 1), repeat=n)):
            res = resolve(d, bits)
            self.resolutions[bits] = res
            weight = sum(bits)
            i = weight - self.n_minus
            k = res.circle_count
            if k not in tables:
                tables[k] = _labeling_tables(k)
            codes, degrees = tables[k]
            offset = self._dims.get(i, 0)
            self._where[bits] = (i, offset, codes)
            at.append(res)
            self._spans.append((offset, len(codes)))
            layers.setdefault(i, []).append(index)
            self._dims[i] = offset + len(codes)
            shift = weight + self.n_plus - 2 * self.n_minus
            self.qs.setdefault(i, []).extend(map(shift.__add__, degrees))
        degrees = self.degrees()
        # degree -> id of its first generator
        self.first = dict(zip(degrees, itertools.accumulate(map(self.dim, degrees), initial=0)))
        for i in degrees[:-1]:  # the top degree has no edges out
            self._differential(layers[i], at)

    def _differential(self, layer: list[int], at: list) -> None:
        """Lay out the cube edges out of the resolutions ``layer`` lists, by
        index (bits read as a binary number), in ``_edge_shapes``, one
        resolution at a time, by flipped bit; ``at`` gives each index's
        resolution. Each cube edge is a merge or a split of ``local``, and
        its shape is fixed by its key in ``local.cube_edges``, so only an
        edge whose key is new is laid out, by ``LocalTables.piece``.

        The key is enough because circles are listed by lowest edge, in
        both resolutions: a flip changes only the circles through slots 0
        and 2 of its crossing (slots 1 and 3 lie on those same circles), so
        every other circle keeps its edges and its order, and the carried
        weights send the source circles but the consumed ones, in order, to
        the target circles but the created ones."""
        crossings = self.diagram.crossings
        n = len(crossings)
        flips = [1 << n - 1 - j for j in range(n)]  # bit j of a resolution index
        known, piece = self.local.cube_edges, self.local.piece
        for index in layer:
            src = at[index]
            on_src, k = src.circle_of_edge, src.circle_count
            ids = []
            ones = 0  # 1 bits below the flipped one
            for j, flip in enumerate(flips):
                if index & flip:
                    ones += 1
                    continue
                tgt = at[index | flip]
                # slots 0 and 2 lie on the two smoothing arcs of either bit
                e1, _, e2, _ = crossings[j]
                on_tgt = tgt.circle_of_edge
                key = on_src[e1], on_src[e2], on_tgt[e1], on_tgt[e2], k, tgt.circle_count
                sid = known.get(key)
                if sid is None:
                    c1, c2, t1, t2 = key[:4]
                    if c1 != c2:
                        # both source circles land on one target circle
                        consumed, created, table = (c1, c2), (t1,), "merge"
                    elif t1 == t2:
                        raise InternalInvariantError("cube edge changed no circle")
                    else:
                        consumed, created, table = (c1,), (t1, t2), "split"
                    sid = known[key] = piece(src, tgt, 0, consumed, created, table)[0][3]
                ids.append(2 * sid + (ones & 1))
            self._edge_shapes[index] = ids

    def _pieces(self, v: int, coded) -> list[tuple]:
        """The cube edges out of resolution ``v`` (by index, as in
        ``_edge_shapes``), by flipped bit, as ``LocalTables.piece`` gave
        them, each at its target's row, with the coded table ``coded`` gives
        for its shape and sign: with ``LocalTables.signed``, what
        ``LocalTables.fill`` writes out of ``v``."""
        n = self.diagram.crossing_count
        shapes, spans = self.local.shapes, self._spans
        top = self.first[v.bit_count() - self.n_minus + 1]
        ups = (v | f for f in (1 << n - 1 - j for j in range(n)) if not v & f)
        pieces = []
        for e, u in zip(self._edge_shapes[v], ups):
            shape, sign = shapes[e >> 1], -1 if e & 1 else 1
            pieces.append((shape, coded(shape, sign), top + spans[u][0], sign))
        return pieces

    def _write(self) -> tuple[array, array, list]:
        """d's ``ptr``, ``targets`` and ``values``, as ``LocalTables.fill``
        writes them from ``_edge_shapes``, one resolution at a time in column
        order."""
        ptr, targets, values = array("l", [0]), array("l"), []
        fill, spans = self.local.fill, self._spans
        for v in self._edge_shapes:
            fill(ptr, targets, values, spans[v][1], self._pieces(v, self.local.signed))
        # the columns of the top degree, which has no edges out
        ptr.extend(repeat(len(values), self.dim(max(self._dims))))
        return ptr, targets, values

    def blocks(self) -> Iterator[tuple[int, dict, dict]]:
        """d split into direct summands by generator label, q at t = 0 and
        q mod 4 at t = 1 (a cube edge keeps q, and t shifts it by 4), in
        label order: each as (label, rows, incoming). ``rows`` maps each of
        the block's generator ids, in order, to {target id: entry} in the
        order of d's entries, and ``incoming`` maps each to the set of
        sources with an entry on it, filled in order of source. Entries are
        ints, as ``LocalTables.reduced`` gives them: the shape's numbers
        times the edge sign, reduced mod p over F_p.

        Each block is cut straight from the edge list when its turn comes,
        a resolution's labelings in it listed by their count of v-, so d is
        never written and a block is cut only once the one before it has
        been handed over."""
        graded, spans, first = self.t == 0, self._spans, self.first
        ids = list(range(sum(self._dims.values())))  # one int object per generator, shared
        # by label: each resolution's index, the id of its all-v+ generator
        # and its codes in the block, in order of id
        spots: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
        for v in sorted(range(len(spans)), key=int.bit_count):
            weight, (offset, size) = v.bit_count(), spans[v]
            k = size.bit_length() - 1
            top_q = weight + self.n_plus - 2 * self.n_minus + k  # q of the all-v+ labeling
            base = first[weight - self.n_minus] + offset
            # labelings whose counts of v- agree mod ``mod`` share a label
            mod = k + 1 if graded else 2
            for m in range(min(k + 1, mod)):
                q = top_q - 2 * m
                spots.setdefault(q if graded else q % 4, []).append(
                    (v, base, _codes_with(k, m, mod)))
        # by resolution index, per cube edge out of it: its target's row,
        # its shape's rows and keys by code, and its table on ints
        reduced = self.local.reduced
        pieces = {v: tuple((row, shape[0], shape[1], table)
                           for shape, table, row, _ in self._pieces(v, reduced))
                  for v in self._edge_shapes}
        for label in sorted(spots):
            rows = {ids[base + c]: {} for _, base, codes in spots[label] for c in codes}
            incoming = {x: set() for x in rows}
            for v, base, codes in spots[label]:
                edges_out = pieces.get(v, ())  # none out of the top degree
                for c in codes:
                    x = ids[base + c]
                    row_x = rows[x]
                    for row, shifts, keys, table in edges_out:
                        r = row + shifts[c]
                        for delta, entry in table[keys[c]]:
                            y = ids[r + delta]
                            row_x[y] = entry
                            incoming[y].add(x)
            yield label, rows, incoming

    @cached_property
    def values(self) -> list:
        """The entries of d, written by ``_write`` on first read, which sets
        ``ptr`` and ``targets`` too."""
        ptr, targets, values = self._write()
        # one cached_property fills all three
        self.__dict__.update(ptr=ptr, targets=targets)
        return values

    @cached_property
    def ptr(self) -> array:
        """The end of each column of d in ``targets`` and ``values``, after
        a 0."""
        self.values  # noqa: B018 -- writing d sets it
        return self.__dict__["ptr"]

    @cached_property
    def targets(self) -> array:
        """The row of each entry of d, by generator id."""
        self.values  # noqa: B018 -- writing d sets it
        return self.__dict__["targets"]

    def _ends(self):
        return self, self, 1

    @property
    def diff(self) -> dict[int, SparseMatrix]:
        """d_i as a ``SparseMatrix`` for every degree i, built on each access."""
        return self._view()

    def gen_differential(self, gen: Gen):
        """Image of a single generator as [(generator, integer coeff)]."""
        bits, labels = gen
        out = []
        for j in range(len(bits)):
            if bits[j]:
                continue
            sign = (-1) ** sum(bits[:j])
            for target, coeff in self.edge_image(gen, j):
                out.append((target, sign * coeff))
        return out

    def edge_image(self, gen: Gen, j: int):
        """Unsigned merge/split across the cube edge flipping bit j, worked
        out on the labels of ``gen`` alone: the reference d is checked
        against."""
        bits, labels = gen
        tbits = bits[:j] + (1,) + bits[j + 1 :]
        src, tgt = self.resolutions[bits], self.resolutions[tbits]
        e1, _, e2, _ = self.diagram.crossings[j]
        c1, c2 = src.circle_of_edge[e1], src.circle_of_edge[e2]
        t1, t2 = tgt.circle_of_edge[e1], tgt.circle_of_edge[e2]
        if c1 != c2:
            products = [((z,), c) for z, c in merge_products(labels[c1], labels[c2], self.t)]
            dropped, created = {c1: None, c2: None}, (t1,)
        else:
            products = split_products(labels[c1], self.t)
            dropped, created = {c1: None}, (t1, t2)
        return [
            ((tbits, carry_labels(src, tgt, labels, dropped, dict(zip(created, new)))), coeff)
            for new, coeff in products
        ]

    # -- gradings -------------------------------------------------------------

    def q_of(self, gen: Gen) -> int:
        i, pos = self.index[gen]
        return self.qs[i][pos]

    def degrees(self) -> list[int]:
        return sorted(self._dims)

    def dim(self, i: int) -> int:
        return self._dims.get(i, 0)

    @cached_property
    def bases(self) -> dict[int, list[Gen]]:
        """Every generator as (bits, labels), by degree, each at its
        position in ``index``: written from the resolutions' offsets and
        codes on first read."""
        bases: dict[int, list[Gen]] = {i: [] for i in self._dims}
        # resolutions run in order of offset within each degree
        for bits, (i, _, codes) in self._where.items():
            bases[i].extend(zip(repeat(bits), codes))
        return bases

    def validate(self) -> None:
        """d^2 = 0, and the q behavior expected of the theory: each cube
        square and edge is checked once per shape, and a written d is
        compared whole with a fresh write.

        ``_write`` is the only writer of d, and it writes each cube edge from
        its piece, as ``_edge_shapes`` records it, on the first read of the
        triple; so a d written after this call comes from the edges it
        checks. A d written before it must equal a fresh ``_write``, every
        entry of every column; the first degree whose columns differ is
        raised before any other check. Relative to the offsets of the
        edge's two resolutions, the piece's entries are fixed by its shape
        (``LocalTables.shapes``) and its sign. The block of
        d_{i+1} d_i on a square v -> v + e_j + e_k is then
        s1 s2 (P12 + s P34): P12 and P34 are its two paths with every sign
        +1, fixed by the shapes of their edges, and s = s1 s2 s3 s4. An
        edge's q shifts are fixed by its shape and the q difference of the
        first generators of its two resolutions. So each (4 edge shapes, s)
        has P12 + s P34 summed, in a dict of the ints the elements stand
        for, and it must vanish over Z, hence in the ring; each (edge shape,
        q offset) has the q shift of its entries checked. Both are read
        only on the source codes ``LocalTables.codes`` gives: those whose
        set bits lie on the circles the first edges consume, when every
        other circle is carried alike on every path, and otherwise every
        code. Those that hold are recorded in ``local`` and skipped
        wherever they recur, in this complex or in another that shares
        ``local``; every call compares all of a written d.

        Of the q and d^2 failures, the one raised is the one a
        column-by-column check in the order of d's columns would meet first,
        a column's q before its d^2: a failing shape is never recorded, so
        it is checked wherever it occurs.
        """
        # a d written later comes from the very edges checked here, so only
        # one written before this call is compared
        if "values" in self.__dict__:
            held, wrote = (self.ptr, self.targets, self.values), self._write()
            if held != wrote:
                # the first degree whose columns differ, or the top one if
                # only what lies past its last column does
                i = next((i for i, g in self.first.items()
                          if _columns(held, g, self.dim(i)) != _columns(wrote, g, self.dim(i))),
                         max(self._dims))
                raise InternalInvariantError(
                    f"d_{i} does not hold the entries its cube edges wrote"
                )
        shifts = {0} if self.t == 0 else {0, 4}
        n = self.diagram.crossing_count
        flips = [1 << n - 1 - j for j in range(n)]  # bit j of a resolution index
        spans, edges, qs, local = self._spans, self._edge_shapes, self.qs, self.local
        shapes, terms, codes = local.shapes, local.terms, local.codes
        checked_q, checked_squares = local.checked_q, local.checked_squares
        for v, ids in edges.items():
            i = v.bit_count() - self.n_minus
            col = spans[v][0]
            q_src, q_tgt = qs[i], qs[i + 1]
            ups = [v | f for f in flips if not v & f]
            bad = None  # (code, message) of the first bad column of v
            rows = [spans[u][0] for u in ups]
            # an edge is 2 * (its shape id) + 1 if its sign is -1
            q_keys = [(e >> 1, q_tgt[row] - q_src[col]) for e, row in zip(ids, rows)]
            if not checked_q.issuperset(q_keys):
                for row, q_key in zip(rows, q_keys):
                    if q_key in checked_q:
                        continue
                    c, dq = next(((c, dq) for c, r, _ in terms(q_key[0], codes(q_key[0]))
                                  if (dq := q_tgt[row + r] - q_src[col + c]) not in shifts),
                                 (None, None))
                    if c is None:
                        checked_q.add(q_key)
                    elif bad is None or c < bad[0]:
                        if self.t == 0:
                            bad = c, "graded differential broke q"
                        else:
                            bad = c, f"filtered differential shifted q by {dq}"
            new, paths = set(), []  # new squares out of v, and both paths of each
            for b in range(1, len(ids)):
                for a in range(b):
                    # v -> ups[a] -> w and v -> ups[b] -> w
                    e1, e2, e3, e4 = ids[a], edges[ups[a]][b - 1], ids[b], edges[ups[b]][a]
                    # the square is s1 s2 (P12 + s1 s2 s3 s4 P34), P the
                    # paths with every sign +1
                    odd = (e1 ^ e2 ^ e3 ^ e4) & 1
                    s1, s2, s3, s4 = e1 >> 1, e2 >> 1, e3 >> 1, e4 >> 1
                    key = s1, s2, s3, s4, odd
                    if key in checked_squares or key in new:
                        continue
                    new.add(key)
                    w, on = spans[ups[a] | ups[b]][0], codes(s1, s2, s3, s4)
                    paths.append((on, shapes[s1], shapes[s2], w, 1))
                    paths.append((on, shapes[s3], shapes[s4], w, -1 if odd else 1))
            if paths:
                fault = _square_fault(paths, len(qs[i + 2]))
                if fault is None:
                    checked_squares |= new
                elif bad is None or fault < bad[0]:
                    bad = fault, f"d^2 != 0 at degree {i}"
            # resolutions come in column order, so the first bad one holds
            # the first bad column
            if bad is not None:
                raise InternalInvariantError(bad[1])

    # -- chains as dicts Gen -> scalar -----------------------------------------

    def chain_degree(self, chain: dict) -> int:
        degs = {self._where[bits][0] for bits, _ in chain}
        if len(degs) != 1:
            raise ValueError(f"chain is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def chain_to_vec(self, chain: dict) -> tuple[int, dict]:
        i = self.chain_degree(chain)
        vec = {}
        for g, coeff in chain.items():
            _, pos = self.index[g]
            vec[pos] = coeff
        return i, vec

    def vec_to_chain(self, i: int, vec: dict) -> dict:
        basis = self.bases[i]
        return {basis[p]: v for p, v in vec.items() if not self.ring.is_zero(v)}


class ChainMap(_Stored):
    """A map of chain complexes, homogeneous of a fixed homological shift,
    stored as d is (``_Stored``): columns over the source's generator ids,
    rows over the target's. Degree i maps into degree i + shift of the
    target (reference orientations of the two diagrams need not assign
    crossings the same signs, so saddles may shift degrees).

    ``fill`` writes it through the source's ``LocalTables``, and
    ``compose`` writes a product; ``mats`` builds every f_i as a
    ``SparseMatrix`` on each access, a view kept for tests and tools.
    """

    def __init__(self, src: ChainComplex, dst: ChainComplex, shift: int = 0):
        self.src, self.dst, self.shift = src, dst, shift
        self.ptr = array("l", [0])
        self.targets = array("l")
        self.values: list = []

    def _ends(self):
        return self.src, self.dst, self.shift

    @property
    def local(self) -> LocalTables:
        """The routine the map is written through, with its memos: the
        source complex's."""
        return self.src.local

    @property
    def mats(self) -> dict[int, SparseMatrix]:
        """f_i as a ``SparseMatrix`` for every source degree i, built on
        each access."""
        return self._view()

    def piece(self, bits, tbits, consumed, created, table, sign=1, placed=None,
              skip: frozenset = frozenset()):
        """The piece from resolution ``bits`` of the source into ``tbits`` of
        the target by the ``local_table`` named ``table`` on the ``consumed``
        source circles and the ``created`` target circles, times ``sign``, as
        ``LocalTables.piece`` describes."""
        i = self.src._where[bits][0]
        j, offset, _ = self.dst._where[tbits]
        if j != i + self.shift:
            raise InternalInvariantError(
                f"chain map entry shifts degree by {j - i}, expected {self.shift}"
            )
        return self.local.piece(
            self.src.resolutions[bits], self.dst.resolutions[tbits],
            self.dst.first[j] + offset, consumed, created, table, sign, placed, skip,
        )

    def fill(self, pieces: Mapping) -> None:
        """Append every column, one source resolution at a time in column
        order, from the pieces (as ``piece`` gives them) that ``pieces``
        lists under the resolution's bits; a resolution it does not list
        gets empty columns."""
        src, fill = self.src, self.local.fill
        for bits in sorted(src.resolutions, key=sum):  # degree by degree
            size = 1 << src.resolutions[bits].circle_count
            fill(self.ptr, self.targets, self.values, size, pieces.get(bits, ()))

    def verify(self) -> None:
        """Commutation with both differentials, exactly, one column at a
        time and by generator ids: for every generator e_g of the source,
        f(d e_g) - d(f e_g) is summed in one dict and must vanish."""
        src, dst = self.src, self.dst
        for i in src.degrees():
            for g in range(src.first[i], src.first[i] + src.dim(i)):
                if any(dst._add_times(self._add_times({}, src, g), self, g, True).values()):
                    raise InternalInvariantError(
                        f"chain map does not commute with d at degree {i}"
                    )

    def compose(self, earlier: "ChainMap") -> "ChainMap":
        """This map after ``earlier``, whose target is this map's source,
        one column of ``earlier`` at a time."""
        if earlier.dst is not self.src:
            raise ValueError("composed chain maps must meet at one complex")
        out = ChainMap(earlier.src, self.dst, earlier.shift + self.shift)
        for g in range(len(earlier.ptr) - 1):
            for r, x in self._add_times({}, earlier, g).items():
                if x:
                    out.targets.append(r)
                    out.values.append(x)
            out.ptr.append(len(out.values))
        return out


def carry_labels(
    src: Resolution,
    dst: Resolution,
    labels: tuple[int, ...],
    placed: Mapping[int, int | None] = _NOTHING,
    fixed: Mapping[int, int] = _NOTHING,
    skip: frozenset = frozenset(),
) -> tuple[int, ...]:
    """Labels of ``dst``'s circles, carried over from ``src``'s circles.

    ``fixed`` sets a target circle's label outright. ``placed`` sends a
    source circle to a named target circle, or drops it with None. Every
    other source circle goes to the target circle that runs along its first
    edge outside ``skip``, which must have the same edges outside ``skip``
    (and there must be such an edge): resolutions of one diagram partition
    the same edges, so a circle that a change leaves alone keeps them. A
    fixed label wins over a carried one, and an earlier source circle over
    a later one.
    """
    out: list[int | None] = [None] * dst.circle_count
    for ti, lab in fixed.items():
        out[ti] = lab
    on_dst, circles = dst.circle_of_edge, dst.circles
    for si, (lab, circle) in enumerate(zip(labels, src.circles)):
        if si in placed:
            ti = placed[si]
            if ti is None:
                continue
        else:
            edges = circle.edges
            first = next((e for e in edges if e not in skip), None) if skip else edges[0]
            ti = on_dst.get(first)
            # the resolutions of one diagram share the circles they trace
            # alike, and those have the same edges
            if ti is None or circles[ti] is not circle and (
                    src.circle_edge_sets[si] - skip != dst.circle_edge_sets[ti] - skip):
                raise InternalInvariantError(
                    f"no circle matches edges {sorted(edges)}"
                )
        if out[ti] is None:
            out[ti] = lab
    if None in out:
        raise InternalInvariantError("circle correspondence left a gap")
    return tuple(out)


def carried_weights(
    src, dst, consumed, created, placed=None, skip: frozenset = frozenset()
) -> tuple[int, ...]:
    """Where each target circle's label comes from, on label codes: entry p
    is what bit p of a source code (circle k - 1 - p) adds to the target
    code, the bit of the target circle ``carry_labels`` carries it to, or 0
    if it is ``consumed`` or loses its target to an earlier circle.
    ``created`` target circles carry no label; ``placed`` and ``skip`` are
    as there."""
    k, tk = src.circle_count, dst.circle_count
    drop = dict.fromkeys(consumed)
    if placed:
        drop = {**placed, **drop}  # a consumed circle goes nowhere
    source = carry_labels(src, dst, tuple(range(k)), drop, dict.fromkeys(created, k), skip)
    weights = [0] * k
    for ti, si in enumerate(source):
        if si < k:
            weights[k - 1 - si] = 1 << tk - 1 - ti
    return tuple(weights)


def _columns(triple, g: int, size: int) -> tuple:
    """The ``size`` columns of a stored triple (as ``_Stored`` lays it out)
    from column g on: the ends in ``ptr`` from g's start, and their rows and
    entries; shorter, never an IndexError, where the triple runs out."""
    ptr, targets, values = triple
    ends = ptr[g:g + size + 1]
    start, end = (ends[0], ends[-1]) if ends else (0, 0)
    return ends, targets[start:end], values[start:end]


def _square_fault(paths, stride: int) -> int | None:
    """The first source code on which the given cube squares out of one
    resolution do not vanish, or None. Each square is its two paths, each
    path the source codes to sum it on, the shapes of its two edges (as in
    ``LocalTables.shapes``), the offset of its last resolution, whose degree
    has ``stride`` generators, and a sign."""
    image: dict[int, int] = {}  # by source code * stride + row in its degree
    for codes, (rows1, keys1, ints1, _, _, _), (rows2, keys2, ints2, _, _, _), w, sign in paths:
        for code in codes:
            at, r1 = code * stride + w, rows1[code]
            for delta1, x in ints1[keys1[code]]:
                r = r1 + delta1  # the code reached in the middle resolution
                x *= sign
                row = at + rows2[r]
                for delta2, y in ints2[keys2[r]]:
                    k = row + delta2
                    image[k] = image.get(k, 0) + x * y
    if any(image.values()):
        return min(k for k, x in image.items() if x) // stride
    return None


@cache
def _codes_with(k: int, m: int, mod: int) -> tuple[int, ...]:
    """The codes of the labelings of k circles whose count of v- is m mod
    ``mod``, in code order."""
    return tuple(c for c in range(1 << k) if c.bit_count() % mod == m)


def subset_sums(start: int, weights) -> list[int]:
    """``start`` plus the weights of the set bits of p, for every p below
    2^len(weights); bit b of p selects weights[b]."""
    out = [start]
    for w in weights:  # from the lowest bit up
        out += [r + w for r in out]
    return out


def build_complex(
    diagram: PlanarDiagram, t: int, ring: Ring, local: LocalTables | None = None
) -> ChainComplex:
    """Build the t = 0 (graded) or t = 1 (filtered) complex over ``ring``,
    and check d^2 = 0 and its q shift; ``local`` is as in ``ChainComplex``."""
    _admit(diagram)
    if t not in (0, 1):
        raise ValueError("t must be 0 or 1")
    if t == 1 and ring.characteristic == 2:
        raise PDValidationError(
            "the filtered theory requires characteristic different from 2"
        )
    c = ChainComplex(diagram, t, ring, local)
    c.validate()
    return c


def _sign_counts(d: PlanarDiagram) -> tuple[int, int]:
    """(n_plus, n_minus): the crossings of sign +1 and -1 when every
    component keeps its reference orientation."""
    ref = (True,) * d.component_count
    n_plus = sum(crossing_sign(d, ref, c) == 1 for c in range(d.crossing_count))
    return n_plus, d.crossing_count - n_plus


def _admit(diagram: PlanarDiagram) -> None:
    """Refuse a diagram whose generators are too many to build: each
    crossing doubles the resolutions, and each free loop the generators of
    every resolution, so both count against ``MAX_CROSSINGS``."""
    n, loops = diagram.crossing_count, len(diagram.loops)
    if n + loops <= MAX_CROSSINGS:
        return
    if not loops:
        raise DiagramTooLargeError(
            f"{n} crossings; kj computes at most {MAX_CROSSINGS}"
        )
    raise DiagramTooLargeError(
        f"{n} crossings and {loops} free loops; kj computes at most {MAX_CROSSINGS}"
        " of the two together"
    )


def filtration_level(complex_: ChainComplex, chain: dict):
    """Minimum q over the support; +infinity for the zero chain."""
    if not chain:
        return float("inf")
    return min(complex_.q_of(g) for g in chain)


def graded_euler_characteristic(complex_: ChainComplex) -> Laurent:
    """Sum of (-1)^i q^(q-grading) over the chain basis (t = 0 only)."""
    if complex_.t != 0:
        raise ValueError("the Euler characteristic oracle is for t = 0")
    tally: Counter = Counter()
    for i, qs in complex_.qs.items():
        for q, count in Counter(qs).items():
            tally[q] += (-1) ** i * count
    return Laurent(tally)


def kauffman_bracket(
    d: PlanarDiagram, resolutions: Mapping[tuple[int, ...], Resolution] | None = None
) -> Laurent:
    """Unnormalized Jones polynomial as a state sum over all resolutions.

    Independent of the homological machinery: only circle counting enters,
    via  sum_v (-1)^(|v| + n-) q^(|v| + n+ - 2 n-) (q + 1/q)^(k(v)).
    The resolutions are tallied by (|v|, k(v)) first, so the polynomial
    arithmetic runs once per distinct pair. ``resolutions``, such as a
    complex's ``resolutions`` of ``d``, gives the traced resolutions by bit
    vector; without it each is traced here.
    """
    _admit(d)
    n_plus, n_minus = _sign_counts(d)
    every = itertools.product((0, 1), repeat=d.crossing_count)
    if resolutions is None:
        pairs = ((bits, resolve(d, bits)) for bits in every)
    else:
        pairs = ((bits, resolutions[bits]) for bits in every)
    tally = Counter((sum(bits), res.circle_count) for bits, res in pairs)
    loop = Laurent({1: 1, -1: 1})
    out = Laurent.zero()
    for (weight, k), count in sorted(tally.items()):
        term = loop ** k * Laurent.q(weight + n_plus - 2 * n_minus)
        out = out + (-1) ** (weight + n_minus) * count * term
    return out


def edge_map_on_chain(complex_: ChainComplex, chain: dict, j: int) -> dict:
    """Apply only the cube-edge component flipping bit j (with its sign)."""
    ring = complex_.ring
    out: dict = {}
    for g, coeff in chain.items():
        bits = g[0]
        if bits[j]:
            continue
        sign = (-1) ** sum(bits[:j])
        for target, c2 in complex_.edge_image(g, j):
            v = out.get(target, ring.zero) + coeff * ring.from_int(sign * c2)
            if ring.is_zero(v):
                out.pop(target, None)
            else:
                out[target] = v
    return out

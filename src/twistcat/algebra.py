"""Finite groups, G-sets, and exact integer linear algebra.

Every table is a flat tuple of Python ints in row-major order next to its
shape: a group stores its multiplication table as ``table_flat``
(``table_flat[i * order + j]`` is i*j) and its inverses as ``inverse_flat``,
a G-set its action as ``action_flat`` (``action_flat[g * size + x]`` is
g.x).  The tables hold at most |G|^2 |X| small ints, so plain loops over
them need no array library.  The public ``table``, ``inverse`` and
``action`` attributes are read-only ndarray views built on first access by
:func:`_array_view`, the package's only use of numpy; constructors take
ndarrays, nested lists and nested tuples alike (:func:`_flatten`).

Orbits have one home: ``GSet.orbit_data``, built on first use and kept,
holds per orbit an :class:`Orbit`: the sorted points (base point first),
the least g reaching each point from the base, and the base's stabilizer.

The Smith normal form drives every linear solve modulo N in the cohomology
layer and every integer lattice computation.  Its one immutable result,
``SNFResult``, keeps U^-1 and V^-1 next to U and V, all four sparse and in
the orientation their readers take, so solutions, lattice bases, lattice
coordinates (``_kernel_mod_coords``) and unimodular inverses are read off
one factorization, in integers only.  The cohomology layer caches it as it
is: one factorization of d1 and one of d2 per (group, carrier) serve the
module-category enumeration and its class lattice, equivalence and
``is_coboundary``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (
    EnumerationBoundExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
)

__all__ = [
    "FiniteGroup",
    "GSet",
    "Orbit",
    "Subgroup",
    "SNFResult",
    "cyclic_group",
    "group_from_table",
    "direct_product",
    "opposite_group",
    "subgroups",
    "conjugate",
    "characters",
    "point_gset",
    "regular_gset",
    "trivial_gset",
    "coset_gset",
    "disjoint_union_gset",
    "product_gset",
    "restrict_gset",
    "restrict_to_factors",
    "product_embeddings",
    "orbits",
    "stabilizer",
    "is_transitive",
    "gset_isomorphisms",
    "smith_normal_form",
    "solve_mod",
]


# ---------------------------------------------------------------------------
# flat integer tables
# ---------------------------------------------------------------------------

_NESTED = (list, tuple, range)


def _table_rows(data) -> tuple[list[list[int]], tuple[int, ...]]:
    """The last-axis rows (fresh lists of ints, row-major) and the shape of a
    rectangular table.

    ``data`` is an ndarray or anything else with ``tolist``, or nested lists
    or tuples, or a single int (one row of one entry, shape ()); a ragged
    table raises ValueError.  Each row is read once, straight from its
    sequence.  An array with a zero-length axis keeps its own shape.
    """
    hint = getattr(data, "shape", None)
    if hasattr(data, "tolist"):
        data = data.tolist()
    shape = []
    probe = data
    while isinstance(probe, _NESTED):
        shape.append(len(probe))
        if not probe:
            break
        probe = probe[0]
    rows: list[list[int]] = []

    def walk(node, depth: int) -> None:
        if not isinstance(node, _NESTED) or len(node) != shape[depth]:
            raise ValueError("table is not rectangular")
        if depth < len(shape) - 1:
            for child in node:
                walk(child, depth + 1)
            return
        try:
            rows.append(list(map(int, node)))
        except TypeError:   # a nested entry below the last axis
            raise ValueError("table is not rectangular") from None

    if shape:
        walk(data, 0)
    else:
        rows.append([int(data)])
    if not any(rows) and hint is not None:
        shape = list(hint)
    return rows, tuple(shape)


def _flatten(data) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The entries (row-major, as ints) and the shape of a rectangular table,
    read as :func:`_table_rows` reads it."""
    rows, shape = _table_rows(data)
    return tuple(chain.from_iterable(rows)), shape


def _rows(flat: Sequence[int], width: int) -> list[tuple[int, ...]]:
    """The rows of a flat table with rows of the given width."""
    return [tuple(flat[i:i + width]) for i in range(0, len(flat), width)]


def _array_view(cache: dict, name: str, flat: Sequence[int],
                shape: tuple[int, ...]):
    """The read-only int64 ndarray of a flat table, built once per owner.

    This is the only place the package imports numpy: the runtime works on
    the flat tuples, and the arrays exist for callers that index, reshape or
    serialize them.
    """
    view = cache.get(name)
    if view is None:
        import numpy as np
        view = np.array(flat, dtype=np.int64).reshape(shape)
        view.setflags(write=False)
        cache[name] = view
    return view


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def _assemble(cls, **fields):
    """``cls`` built from checked parts, without ``__init__`` and its checks."""
    out, fields["_views"] = object.__new__(cls), {}
    for name in cls.__slots__:
        object.__setattr__(out, name, fields.get(name))
    return out


class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are the indices 0..order-1; ``table_flat[i * order + j]`` (and
    the view ``table[i, j]``) is the product i*j.  The constructor checks
    associativity, the identity and inverses; Z/n and G x H are assembled.
    """

    __slots__ = ("order", "table_flat", "identity", "inverse_flat", "_views")

    def __init__(self, table) -> None:
        flat, shape = _flatten(table)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("multiplication table must be square")
        n = shape[0]
        if n == 0 or min(flat) < 0 or max(flat) >= n:
            raise ValueError("table entries must be element indices")
        rows = _rows(flat, n)
        elements = tuple(range(n))
        identity = next((e for e in elements
                         if rows[e] == elements and flat[e::n] == elements),
                        None)
        if identity is None:
            raise NoIdentity("table has no two-sided identity")
        # (ij)k against i(jk): row ij of the table against row j relabelled
        # by row i
        for row_i in rows:
            for j, ij in enumerate(row_i):
                if rows[ij] != tuple(row_i[jk] for jk in rows[j]):
                    raise NotAssociative("table is not associative")
        inverse = []
        for i, row_i in enumerate(rows):
            hits = [j for j, ij in enumerate(row_i) if ij == identity]
            if len(hits) != 1 or rows[hits[0]][i] != identity:
                raise NoInverse(f"element {i} has no two-sided inverse")
            inverse.append(hits[0])
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table_flat", flat)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse_flat", tuple(inverse))
        object.__setattr__(self, "_views", {})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    @property
    def table(self):
        """The multiplication table as a read-only (order, order) ndarray."""
        return _array_view(self._views, "table", self.table_flat,
                           (self.order, self.order))

    @property
    def inverse(self):
        """The inverses as a read-only ndarray of length order."""
        return _array_view(self._views, "inverse", self.inverse_flat,
                           (self.order,))

    def op(self, i: int, j: int) -> int:
        return self.table_flat[i * self.order + j]

    def inv(self, i: int) -> int:
        return self.inverse_flat[i]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, i: int) -> int:
        k, acc = 1, i
        while acc != self.identity:
            acc = self.op(acc, i)
            k += 1
        return k

    def exponent(self) -> int:
        out = 1
        for i in self.elements():
            out = lcm(out, self.element_order(i))
        return out

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table_flat == other.table_flat

    def __hash__(self):
        return hash(self.table_flat)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with table (i + j) mod n, identity 0 and inverses -i mod n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _assemble(FiniteGroup, order=n, identity=0,
                     table_flat=tuple((i + j) % n for i in range(n)
                                      for j in range(n)),
                     inverse_flat=tuple(-i % n for i in range(n)))


def group_from_table(table) -> FiniteGroup:
    return FiniteGroup(table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with pair (a, b) encoded as index a*|H| + b."""
    nh = h.order
    pairs = [divmod(p, nh) for p in range(g.order * nh)]
    return _assemble(
        FiniteGroup, order=len(pairs), identity=g.identity * nh + h.identity,
        table_flat=tuple(g.op(a1, a2) * nh + h.op(b1, b2)
                         for a1, b1 in pairs for a2, b2 in pairs),
        inverse_flat=tuple(g.inv(a) * nh + h.inv(b) for a, b in pairs))


def opposite_group(g: FiniteGroup) -> FiniteGroup:
    return FiniteGroup([[g.op(j, i) for j in g.elements()]
                        for i in g.elements()])


def product_embeddings(g: FiniteGroup,
                       h: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index tuples embedding G and H into direct_product(G, H)."""
    left = tuple(a * h.order + h.identity for a in g.elements())
    right = tuple(g.identity * h.order + b for b in h.elements())
    return left, right


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an ambient group, as a sorted tuple of element indices."""

    group: FiniteGroup
    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def to_group(self) -> FiniteGroup:
        """The subgroup as a standalone group (elements reindexed by position)."""
        pos = {e: i for i, e in enumerate(self.elements)}
        table = [[pos[self.group.op(a, b)] for b in self.elements] for a in self.elements]
        return FiniteGroup(table)

    def contains(self, element: int) -> bool:
        return element in self.elements


def _closure(group: FiniteGroup, seed: Sequence[int]) -> tuple[int, ...]:
    out = {group.identity} | set(seed)
    frontier = set(out)
    while frontier:
        new = set()
        for a in out:
            for b in frontier:
                new.add(group.op(a, b))
                new.add(group.op(b, a))
        frontier = new - out
        out |= new
    return tuple(sorted(out))


def subgroups(group: FiniteGroup, bound: int = 24) -> list[Subgroup]:
    """All subgroups, sorted by (order, elements).

    A subgroup is generated by its elements, so it is reached from a cyclic
    subgroup by adjoining one element at a time: every new subgroup is
    extended by each element outside it until no new subgroup appears.  The
    hard bound errors out rather than growing without limit.
    """
    if group.order > bound:
        raise EnumerationBoundExceeded(
            f"group order {group.order} exceeds bound {bound}")
    found = frontier = {_closure(group, (a,)) for a in group.elements()}
    while frontier:
        frontier = {k for sub in frontier
                    for k in _extensions(group, sub)} - found
        found = found | frontier
    return [Subgroup(group, els) for els in sorted(found, key=lambda e: (len(e), e))]


def _extensions(group: FiniteGroup, sub: tuple[int, ...]) -> list[tuple]:
    """The closures of sub and one element outside it.  An element inside an
    extension K of prime index over sub is skipped: by Lagrange it gives K
    again (an extension of composite index may have one in between)."""
    out, minimal = [], []
    for a in group.elements():
        if a in sub or any(a in k for k in minimal):
            continue
        k = _closure(group, sub + (a,))
        out.append(k)
        index = len(k) // len(sub)
        if all(index % d for d in range(2, index)):
            minimal.append(frozenset(k))
    return out


def _conjugates(sub: Subgroup) -> set[tuple[int, ...]]:
    """The conjugates g*H*g^-1, each as a sorted element tuple."""
    grp = sub.group
    return {tuple(sorted(grp.op(grp.op(g, a), grp.inv(g)) for a in sub.elements))
            for g in grp.elements()}


def conjugate(h1: Subgroup, h2: Subgroup) -> bool:
    """Whether g*H1*g^-1 = H2 for some g in the shared ambient group."""
    if h1.group != h2.group:
        raise ValueError("subgroups live in different ambient groups")
    return tuple(sorted(h2.elements)) in _conjugates(h1)


def characters(group: FiniteGroup, root_order: int):
    """All homomorphisms G -> mu_root_order, as degree-1 point-carrier cochains.

    A character is fixed by its values on a generating set, and a generator
    of order k can only take the multiples of N / gcd(N, k), N the root
    order.  Each such choice is extended along a breadth-first walk
    x -> x*s over the generators s and kept when chi(x*s) = chi(x) + chi(s)
    for every x and s, which makes it a homomorphism.  Sorted by exponent
    table, so the trivial character comes first.
    """
    from .cohomology import UnitCochain  # deferred: cohomology imports algebra

    gens: list[int] = []
    reached = {group.identity}
    for a in group.elements():
        if a not in reached:
            gens.append(a)
            reached = set(_closure(group, gens))
    steps = [range(0, root_order, root_order // gcd(root_order, group.element_order(g)))
             for g in gens]
    tables = []
    for values in product(*steps):
        chi = {group.identity: 0}
        walk = [group.identity]
        for x in walk:
            for s, v in zip(gens, values):
                y = group.op(x, s)
                if y not in chi:
                    chi[y] = (chi[x] + v) % root_order
                    walk.append(y)
        if all(chi[group.op(x, s)] == (chi[x] + v) % root_order
               for x in walk for s, v in zip(gens, values)):
            tables.append(tuple(chi[x] for x in group.elements()))
    point = point_gset(group)
    return [UnitCochain(1, point, root_order, [[v] for v in tab])
            for tab in sorted(tables)]


class Orbit(NamedTuple):
    """One orbit of a G-set: its sorted points, base point first, the least
    g with g.base = p for each point p, and the base's sorted stabilizer."""

    points: tuple[int, ...]
    transversal: tuple[int, ...]
    stabilizer: tuple[int, ...]


class GSet:
    """A finite G-set: ``action_flat[g * size + x]`` (and the view
    ``action[g, x]``) is the point g acting on x."""

    __slots__ = ("group", "size", "action_flat", "_views", "_orbits")

    def __init__(self, group: FiniteGroup, action) -> None:
        flat, shape = _flatten(action)
        if len(shape) != 2 or shape[0] != group.order:
            raise ValueError("action table must have one row per group element")
        size = shape[1]
        if size < 1 or min(flat) < 0 or max(flat) >= size:
            raise ValueError("action entries must be point indices")
        rows = _rows(flat, size)
        if rows[group.identity] != tuple(range(size)):
            raise ValueError("identity must act trivially")
        # g(h x) against (gh) x
        for g, row_g in enumerate(rows):
            for h, row_h in enumerate(rows):
                if tuple(row_g[p] for p in row_h) != rows[group.op(g, h)]:
                    raise ValueError(
                        "action is not compatible with the group law")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "action_flat", flat)
        object.__setattr__(self, "_views", {})
        object.__setattr__(self, "_orbits", None)

    def __setattr__(self, name, value):
        raise AttributeError("GSet is immutable")

    @property
    def orbit_data(self) -> tuple[Orbit, ...]:
        """The orbits by least point, built once, on first use."""
        if self._orbits is None:
            size, seen, out = self.size, set(), []
            for base in range(size):
                if base not in seen:
                    column = self.action_flat[base::size]
                    # read from the last g, so each point keeps its least
                    least = dict(zip(column[::-1],
                                     reversed(range(len(column)))))
                    points = tuple(sorted(least))
                    seen.update(points)
                    out.append(Orbit(points, tuple(map(least.get, points)),
                                     tuple(g for g, p in enumerate(column)
                                           if p == base)))
            object.__setattr__(self, "_orbits", tuple(out))
        return self._orbits

    @property
    def action(self):
        """The action table as a read-only (|G|, size) ndarray."""
        return _array_view(self._views, "action", self.action_flat,
                           (self.group.order, self.size))

    def apply(self, g: int, x: int) -> int:
        return self.action_flat[g * self.size + x]

    def __eq__(self, other):
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and self.action_flat == other.action_flat

    def __hash__(self):
        return hash((hash(self.group), self.action_flat))

    def __repr__(self):
        return f"GSet(group_order={self.group.order}, size={self.size})"


def point_gset(group: FiniteGroup) -> GSet:
    return _assemble(GSet, group=group, size=1, action_flat=(0,) * group.order)


def regular_gset(group: FiniteGroup) -> GSet:
    return _assemble(GSet, group=group, size=group.order,
                     action_flat=group.table_flat)


def trivial_gset(group: FiniteGroup, size: int) -> GSet:
    return GSet(group, [range(size)] * group.order)


def coset_gset(group: FiniteGroup, sub: Subgroup) -> GSet:
    """Left cosets gH with action g'(gH) = (g'g)H; the coset H has index 0."""
    cosets: list[frozenset[int]] = []
    index: dict[frozenset[int], int] = {}
    member = []
    for g in group.elements():
        coset = frozenset(group.op(g, h) for h in sub.elements)
        if coset not in index:
            index[coset] = len(cosets)
            cosets.append(coset)
        member.append(index[coset])
    reps = [min(c) for c in cosets]
    return GSet(group, [[member[group.op(g, r)] for r in reps]
                        for g in group.elements()])


def disjoint_union_gset(x: GSet, y: GSet) -> GSet:
    if x.group != y.group:
        raise ValueError("G-sets over different groups")
    return GSet(x.group, [rx + tuple(p + x.size for p in ry) for rx, ry in
                          zip(_rows(x.action_flat, x.size),
                              _rows(y.action_flat, y.size))])


def product_gset(x: GSet, y: GSet) -> GSet:
    """X x Y with the diagonal action; pair (a, b) encoded as a*|Y| + b."""
    if x.group != y.group:
        raise ValueError("G-sets over different groups")
    return GSet(x.group, [[a * y.size + b for a in rx for b in ry] for rx, ry in
                          zip(_rows(x.action_flat, x.size),
                              _rows(y.action_flat, y.size))])


def restrict_gset(x: GSet, embedding, group: FiniteGroup) -> GSet:
    """The same points, acted on through an index-sequence embedding into
    x.group."""
    rows = _rows(x.action_flat, x.size)
    return GSet(group, [rows[int(g)] for g in embedding])


def restrict_to_factors(x: GSet, g: FiniteGroup,
                        h: FiniteGroup) -> tuple[GSet, GSet]:
    """A G x H set restricted to G and to H (``product_embeddings``)."""
    if x.group.order != g.order * h.order or x.group != direct_product(g, h):
        raise ValueError("carrier must be a G x H set (product encoding)")
    emb_g, emb_h = product_embeddings(g, h)
    return restrict_gset(x, emb_g, g), restrict_gset(x, emb_h, h)


def orbits(x: GSet) -> list[list[int]]:
    """Orbit partition, each orbit sorted, orbits ordered by minimal element."""
    return [list(orbit.points) for orbit in x.orbit_data]


def stabilizer(x: GSet, point: int) -> Subgroup:
    column = x.action_flat[point::x.size]
    return Subgroup(x.group, tuple(g for g, p in enumerate(column) if p == point))


def is_transitive(x: GSet) -> bool:
    return len(x.orbit_data) == 1


def gset_isomorphisms(x: GSet, y: GSet, bound: int = 8) -> list[tuple[int, ...]]:
    """All equivariant bijections X -> Y, as index tuples, sorted lexicographically.

    Searches per orbit: a transitive orbit with base point x0 maps onto a
    same-size orbit of Y at exactly those y0 with Stab(y0) = Stab(x0), the
    rest of the map being forced by equivariance.
    """
    if x.group != y.group or x.size != y.size:
        return []
    if x.size > bound:
        raise EnumerationBoundExceeded(f"|X| = {x.size} exceeds bound {bound}")
    orbs_x, orbs_y = x.orbit_data, y.orbit_data
    results, assignment, used = [], [-1] * x.size, [False] * len(orbs_y)

    def recurse(i: int):
        if i == len(orbs_x):
            results.append(tuple(assignment))
            return
        ox = orbs_x[i]
        for j, oy in enumerate(orbs_y):
            if used[j] or len(oy.points) != len(ox.points):
                continue
            for y0 in oy.points:
                if stabilizer(y, y0).elements != ox.stabilizer:
                    continue
                # t(p).x0 = p, so p goes to t(p).y0
                for p, t in zip(ox.points, ox.transversal):
                    assignment[p] = y.apply(t, y0)
                used[j] = True
                recurse(i + 1)
                used[j] = False

    recurse(0)
    results.sort()
    return results


# ---------------------------------------------------------------------------
# Smith normal form and linear solving mod N (arbitrary-precision integers)
# ---------------------------------------------------------------------------

# A sparse integer vector: the indices of its nonzero entries and those
# entries, in the same order.
SparseVector = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SNFResult:
    """U * A * V = D for an r x c matrix A, with U, V unimodular and D
    diagonal, d_1 | d_2 | ...

    ``diag`` is d_1, ..., d_min(r, c).  U, V and their exact inverses are
    kept sparse, in the orientation each reader takes: ``u_rows`` the r rows
    of U, ``u_inv_cols`` the r columns of U^-1, ``v_cols`` the c columns of
    V and ``v_inv_rows`` the c rows of V^-1.  Every part is a tuple, so a
    cache can keep and share the result.
    """

    diag: tuple[int, ...]
    u_rows: tuple[SparseVector, ...]
    u_inv_cols: tuple[SparseVector, ...]
    v_cols: tuple[SparseVector, ...]
    v_inv_rows: tuple[SparseVector, ...]

    def diagonal(self, pad_to: int = 0) -> list[int]:
        """d_1, d_2, ..., followed by zeros up to length pad_to."""
        return list(self.diag) + [0] * (pad_to - len(self.diag))


def _as_int_rows(matrix) -> tuple[list[list[int]], int, int]:
    """Fresh int rows of a two-dimensional matrix (its one copy), and its
    shape; an empty one-dimensional input is the 0 x 0 matrix."""
    rows, shape = _table_rows(matrix)
    if shape == (0,):
        shape = (0, 0)
    if len(shape) != 2:
        raise ValueError("matrix must be two-dimensional")
    return rows if shape[0] else [], shape[0], shape[1]


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def _axpy(dst: dict[int, int], src: dict[int, int], c: int) -> None:
    """dst += c * src on sparse vectors {index: nonzero entry}."""
    for k, y in src.items():
        val = dst.get(k, 0) + c * y
        if val:
            dst[k] = val
        else:
            dst.pop(k, None)


def _frozen(vectors: list[dict[int, int]]) -> tuple[SparseVector, ...]:
    """Sparse vectors {index: nonzero entry} as (indices, entries) pairs."""
    return tuple((tuple(vec), tuple(vec.values())) for vec in vectors)


def _unpack(vec: SparseVector, n: int, scale: int) -> list[int]:
    """scale * vec as a list of n ints."""
    out = [0] * n
    for k, x in zip(*vec):
        out[k] = x * scale
    return out


def _dot(vec: SparseVector, other: Sequence[int]) -> int:
    index, entries = vec
    return sum(map(mul, entries, map(other.__getitem__, index)))


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form by integer row/column reduction.

    Pivots on the first entry of minimal absolute value; the divisibility
    chain is enforced by folding any offending row into the pivot row and
    reducing again, which strictly shrinks the pivot.  Each row operation
    E applied to U is undone on U^-1 as U^-1 E^-1 (a column operation), each
    column operation F on V as F^-1 V^-1 (a row operation), so both inverses
    come out exact without a further elimination.  The four unimodular
    matrices are sparse from start to end, as the differentials they reduce
    are: no dense copy of them, or of D, is built.
    """
    a, rows, cols = _as_int_rows(matrix)
    u = [{i: 1} for i in range(rows)]           # rows of U
    u_inv_cols = [{i: 1} for i in range(rows)]  # columns of U^-1
    v_cols = [{i: 1} for i in range(cols)]      # columns of V
    v_inv = [{i: 1} for i in range(cols)]       # rows of V^-1

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]
            u_inv_cols[i], u_inv_cols[j] = u_inv_cols[j], u_inv_cols[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            v_cols[i], v_cols[j] = v_cols[j], v_cols[i]
            v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    # Rows and columns before t are reduced: their entries at and after
    # index t are zero, so the operations at step t skip them.
    def add_row(src, dst, c):  # row_dst += c * row_src
        a[dst][t:] = [x + c * y for x, y in zip(a[dst][t:], a[src][t:])]
        _axpy(u[dst], u[src], c)
        _axpy(u_inv_cols[src], u_inv_cols[dst], -c)

    def add_col(src, dst, c):  # col_dst += c * col_src
        for row in a[t:]:
            row[dst] += c * row[src]
        _axpy(v_cols[dst], v_cols[src], c)
        _axpy(v_inv[src], v_inv[dst], -c)

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                val = abs(row[j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
                    if val == 1:  # nothing smaller can follow
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # a swap leaves the old pivot off the diagonal: clear again
            swapped = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)  # strictly smaller pivot; keep reducing
                        swapped = True
            if swapped:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        swapped = True
            if swapped:
                continue
            p = a[t][t]
            if p in (1, -1):  # a unit pivot divides everything
                break
            offender = None
            for i in range(t + 1, rows):
                if any(a[i][j] % p for j in range(t + 1, cols)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = {k: -x for k, x in u[t].items()}
            u_inv_cols[t] = {k: -x for k, x in u_inv_cols[t].items()}
        t += 1
    return SNFResult(tuple(a[i][i] for i in range(limit)), _frozen(u),
                     _frozen(u_inv_cols), _frozen(v_cols), _frozen(v_inv))


def _xgcd(a: int, b: int) -> tuple[int, int]:
    x0, x1 = 1, 0
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, x1 = x1, x0 - q * x1
    return a, x0


def _modinv(a: int, n: int) -> int:
    if n == 1:
        return 0
    g, x = _xgcd(a % n, n)
    if g != 1:
        raise ValueError("not invertible")
    return x % n


def solve_mod(matrix, rhs, modulus: int,
              snf: Optional[SNFResult] = None) -> Optional[list[int]]:
    """Some x with A x = b (mod modulus), or None when infeasible.

    Decided through the Smith normal form: with U A V = D the system becomes
    D y = U b.  Only its r pivot rows (d_i != 0) are solved, each an
    independent congruence d_i y_i = (Ub)_i that reads row i of U (and takes
    no inverse when d_i = 1); y is zero past r.  As A V y = U^-1 D y, the
    system is feasible exactly when the sum of d_i y_i times column i of
    U^-1 is b mod modulus, so the rows - r cokernel rows of U are never
    read; columns with y_i = 0 are skipped, and the particular solutions
    of the cohomology layer have few nonzero y_i.  x = V y is the sum of y_j times column j of V.  A caller that
    solves several systems with the same A passes its Smith form as
    ``snf``; A itself is then not read, and ``matrix`` may be None.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if snf is None:
        a, rows, cols = _as_int_rows(matrix)
    else:
        rows, cols = len(snf.u_rows), len(snf.v_cols)
    b = list(map(int, rhs))
    if len(b) != rows:
        raise ValueError("right-hand side length mismatch")
    if rows == 0:
        return [0] * cols
    if cols == 0:
        return [] if all(val % modulus == 0 for val in b) else None
    if modulus == 1:
        return [0] * cols
    if snf is None:
        snf = smith_normal_form(a)
    y = []
    image = [0] * rows   # U^-1 D y
    for d, row, (index, entries) in zip(snf.diag, snf.u_rows,
                                        snf.u_inv_cols):
        if not d:
            break
        r = _dot(row, b) % modulus
        if d == 1:
            y_i = r
        else:
            g = gcd(d, modulus)
            if r % g:
                return None
            sub = modulus // g
            y_i = (r // g) * _modinv((d // g) % sub, sub) % sub
        y.append(y_i)
        if y_i:
            for k, u in zip(index, entries):
                image[k] += d * y_i * u
    if any((v - w) % modulus for v, w in zip(image, b)):
        return None
    x = [0] * cols
    for y_j, (index, entries) in zip(y, snf.v_cols):
        if y_j:
            for k, v in zip(index, entries):
                x[k] += y_j * v
    return [val % modulus for val in x]


# ---------------------------------------------------------------------------
# Integer lattice helpers (private; back the module-category enumeration)
# ---------------------------------------------------------------------------

# Most coset representatives _lattice_quotient_reps will enumerate.
QUOTIENT_REPS_BOUND = 4096


def _kernel_mod_scales(snf: SNFResult, modulus: int) -> list[int]:
    """modulus / gcd(d_j, modulus) per column of A (1 where d_j = 0)."""
    return [modulus // gcd(d, modulus) if d else 1
            for d in snf.diagonal(len(snf.v_cols))]


def _kernel_mod_basis(snf: SNFResult, modulus: int) -> list[list[int]]:
    """Basis over Z of the full-rank lattice {x : A x = 0 mod modulus}.

    ``snf`` is A's Smith form.  The lattice contains modulus * Z^cols, so
    the basis has `cols` vectors: column j of V scaled by
    modulus/gcd(d_j, modulus).
    """
    cols = len(snf.v_cols)
    return [_unpack(col, cols, scale)
            for col, scale in zip(snf.v_cols, _kernel_mod_scales(snf, modulus))]


def _kernel_mod_coords(snf: SNFResult, modulus: int,
                       targets: list[list[int]]) -> list[list[int]]:
    """Coordinates of each target in the basis of ``_kernel_mod_basis``.

    That basis is B = V S with S the diagonal of scales, so the coordinates
    are S^-1 V^-1 t; raises ValueError when one is not an integer.
    """
    scales = _kernel_mod_scales(snf, modulus)
    out = []
    for t in targets:
        coords = []
        for row, scale in zip(snf.v_inv_rows, scales):
            q, r = divmod(_dot(row, t), scale)
            if r:
                raise ValueError("target not in the integer lattice")
            coords.append(q)
        out.append(coords)
    return out


def _check_quotient_index(index: int) -> None:
    """Raise EnumerationBoundExceeded for more than QUOTIENT_REPS_BOUND cosets."""
    if index > QUOTIENT_REPS_BOUND:
        raise EnumerationBoundExceeded(
            f"quotient has {index} cosets, above the bound {QUOTIENT_REPS_BOUND}")


def _lattice_quotient_reps(big_cols: list[list[int]],
                           sub_coords: list[list[int]],
                           dim: int) -> list[list[int]]:
    """Coset representatives of (lattice with basis B = big_cols) / (sublattice).

    The sublattice has basis B*C, given by the coordinate columns C =
    sub_coords.  With the Smith form U*C*V = D and the adapted basis
    B' = B*U^{-1}, the quotient is the direct sum of Z/d_i on the b'_i
    directions.  Raises ValueError for a sublattice of infinite index and
    EnumerationBoundExceeded when the index d_1 * ... * d_dim exceeds
    QUOTIENT_REPS_BOUND, before any representative is built.
    """
    snf = smith_normal_form(_transpose(sub_coords))
    diag = snf.diagonal()
    if 0 in diag:
        raise ValueError("sublattice does not have finite index")
    _check_quotient_index(prod(diag))
    big_rows = _transpose(big_cols)
    adapted = [[_dot(col, row) for row in big_rows] for col in snf.u_inv_cols]
    reps: list[list[int]] = []

    def rec(i: int, acc: list[int]):
        if i == dim:
            reps.append(acc[:])
            return
        for t in range(diag[i]):
            rec(i + 1, [x + t * y for x, y in zip(acc, adapted[i])])

    rec(0, [0] * dim)
    return reps

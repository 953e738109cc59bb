"""Finite groups, G-sets, and exact integer linear algebra.

Groups are multiplication tables over 0-based element indices, validated at
construction.  G-sets are action tables.  The Smith normal form drives every
linear solve modulo N in the cohomology layer.  The integer lattice helpers
solve for lattice coordinates and unimodular inverses with
``_solve_integer``, one many-target call of ``scalar._gauss_jordan``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EnumerationBoundExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
)
from .scalar import _gauss_jordan

__all__ = [
    "FiniteGroup",
    "GSet",
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
    "product_embeddings",
    "orbits",
    "stabilizer",
    "is_transitive",
    "gset_isomorphisms",
    "smith_normal_form",
    "solve_mod",
]


class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are the indices 0..order-1; ``table[i, j]`` is the product i*j.
    Associativity, the identity, and two-sided inverses are all checked at
    construction.
    """

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table) -> None:
        tab = np.asarray(table, dtype=np.int64)
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1]:
            raise ValueError("multiplication table must be square")
        n = tab.shape[0]
        if n == 0 or tab.min() < 0 or tab.max() >= n:
            raise ValueError("table entries must be element indices")
        identity = None
        for e in range(n):
            if np.array_equal(tab[e], np.arange(n)) and np.array_equal(tab[:, e], np.arange(n)):
                identity = e
                break
        if identity is None:
            raise NoIdentity("table has no two-sided identity")
        if not np.array_equal(tab[tab, :], tab[:, tab].transpose(1, 2, 0)):
            raise NotAssociative("table is not associative")
        inverse = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            hits = np.nonzero(tab[i] == identity)[0]
            if len(hits) != 1 or tab[hits[0], i] != identity:
                raise NoInverse(f"element {i} has no two-sided inverse")
            inverse[i] = hits[0]
        tab.setflags(write=False)
        inverse.setflags(write=False)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    def op(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

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
        return np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.table.tobytes())

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    """Z/n with table (i + j) mod n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def group_from_table(table) -> FiniteGroup:
    return FiniteGroup(table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with pair (a, b) encoded as index a*|H| + b."""
    nh = h.order
    ga, gb = np.divmod(np.arange(g.order * nh), nh)
    prod = g.table[np.ix_(ga, ga)] * nh + h.table[np.ix_(gb, gb)]
    return FiniteGroup(prod)


def opposite_group(g: FiniteGroup) -> FiniteGroup:
    return FiniteGroup(g.table.T)


def product_embeddings(g: FiniteGroup, h: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays embedding G and H into direct_product(G, H)."""
    left = np.arange(g.order) * h.order + h.identity
    right = g.identity * h.order + np.arange(h.order)
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
    """All subgroups, found as closures of generator subsets of size <= 3.

    Sorted by (order, elements).  Sufficient for the group orders this library
    targets; the hard bound errors out rather than silently truncating.
    """
    if group.order > bound:
        raise EnumerationBoundExceeded(
            f"group order {group.order} exceeds bound {bound}")
    found = {(group.identity,)}
    n = group.order
    for a in range(n):
        found.add(_closure(group, (a,)))
    for a in range(n):
        for b in range(a + 1, n):
            found.add(_closure(group, (a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                found.add(_closure(group, (a, b, c)))
    return [Subgroup(group, els) for els in sorted(found, key=lambda e: (len(e), e))]


def conjugate(h1: Subgroup, h2: Subgroup) -> bool:
    """Whether g*H1*g^-1 = H2 for some g in the shared ambient group."""
    if h1.group != h2.group:
        raise ValueError("subgroups live in different ambient groups")
    if len(h1) != len(h2):
        return False
    g0 = h1.group
    target = set(h2.elements)
    for g in g0.elements():
        ginv = g0.inv(g)
        if {g0.op(g0.op(g, a), ginv) for a in h1.elements} == target:
            return True
    return False


def characters(group: FiniteGroup, root_order: int):
    """All homomorphisms G -> mu_root_order, as degree-1 point-carrier cochains.

    Sorted by exponent table, so the trivial character comes first.
    """
    from .cohomology import UnitCochain  # deferred: cohomology imports algebra

    order = group.order
    gens: list[int] = []
    reached = {group.identity}
    for a in group.elements():
        if len(reached) == order:
            break
        if a not in reached:
            gens.append(a)
            reached = set(_closure(group, gens))

    def propagate(assign: dict[int, int]) -> Optional[tuple[int, ...]]:
        chi = dict(assign)
        changed = True
        while changed and len(chi) < order:
            changed = False
            for a in list(chi):
                for b in list(chi):
                    prod = group.op(a, b)
                    want = (chi[a] + chi[b]) % root_order
                    if prod in chi:
                        if chi[prod] != want:
                            return None
                    else:
                        chi[prod] = want
                        changed = True
        if len(chi) < order:
            return None
        for a in range(order):
            for b in range(order):
                if (chi[a] + chi[b]) % root_order != chi[group.op(a, b)]:
                    return None
        return tuple(chi[i] for i in range(order))

    tables: set[tuple[int, ...]] = set()

    def assign(idx: int, chi: dict[int, int]):
        if idx == len(gens):
            tab = propagate(chi)
            if tab is not None:
                tables.add(tab)
            return
        g = gens[idx]
        ord_g = group.element_order(g)
        for value in range(root_order):
            if (value * ord_g) % root_order == 0:
                assign(idx + 1, {**chi, g: value})

    assign(0, {group.identity: 0})
    point = point_gset(group)
    out = []
    for tab in sorted(tables):
        exps = np.array(tab, dtype=np.int64).reshape(order, 1)
        out.append(UnitCochain(1, point, root_order, exps))
    return out


class GSet:
    """A finite G-set: ``action[g, x]`` is the point g acting on x."""

    __slots__ = ("group", "size", "action")

    def __init__(self, group: FiniteGroup, action) -> None:
        act = np.asarray(action, dtype=np.int64)
        if act.ndim != 2 or act.shape[0] != group.order:
            raise ValueError("action table must have one row per group element")
        size = act.shape[1]
        if size < 1 or act.min() < 0 or act.max() >= size:
            raise ValueError("action entries must be point indices")
        if not np.array_equal(act[group.identity], np.arange(size)):
            raise ValueError("identity must act trivially")
        composed = act[:, act]                 # (g, h, x) -> g(h x)
        direct = act[group.table]              # (g, h, x) -> (gh) x
        if not np.array_equal(composed, direct):
            raise ValueError("action is not compatible with the group law")
        act.setflags(write=False)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "action", act)

    def __setattr__(self, name, value):
        raise AttributeError("GSet is immutable")

    def apply(self, g: int, x: int) -> int:
        return int(self.action[g, x])

    def __eq__(self, other):
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and np.array_equal(self.action, other.action)

    def __hash__(self):
        return hash((hash(self.group), self.action.tobytes()))

    def __repr__(self):
        return f"GSet(group_order={self.group.order}, size={self.size})"


def point_gset(group: FiniteGroup) -> GSet:
    return GSet(group, np.zeros((group.order, 1), dtype=np.int64))


def regular_gset(group: FiniteGroup) -> GSet:
    return GSet(group, group.table.copy())


def trivial_gset(group: FiniteGroup, size: int) -> GSet:
    return GSet(group, np.tile(np.arange(size), (group.order, 1)))


def coset_gset(group: FiniteGroup, sub: Subgroup) -> GSet:
    """Left cosets gH with action g'(gH) = (g'g)H; the coset H has index 0."""
    cosets: list[frozenset[int]] = []
    index: dict[frozenset[int], int] = {}
    member = np.empty(group.order, dtype=np.int64)
    for g in group.elements():
        coset = frozenset(group.op(g, h) for h in sub.elements)
        if coset not in index:
            index[coset] = len(cosets)
            cosets.append(coset)
        member[g] = index[coset]
    reps = [min(c) for c in cosets]
    action = member[group.table[:, reps]]
    return GSet(group, action)


def disjoint_union_gset(x: GSet, y: GSet) -> GSet:
    if x.group != y.group:
        raise ValueError("G-sets over different groups")
    action = np.concatenate([x.action, y.action + x.size], axis=1)
    return GSet(x.group, action)


def product_gset(x: GSet, y: GSet) -> GSet:
    """X x Y with the diagonal action; pair (a, b) encoded as a*|Y| + b."""
    if x.group != y.group:
        raise ValueError("G-sets over different groups")
    action = x.action[:, :, None] * y.size + y.action[:, None, :]
    return GSet(x.group, action.reshape(x.group.order, -1))


def restrict_gset(x: GSet, embedding, group: FiniteGroup) -> GSet:
    """The same points, acted on through an index-array embedding into x.group."""
    return GSet(group, x.action[np.asarray(embedding, dtype=np.int64)])


def orbits(x: GSet) -> list[list[int]]:
    """Orbit partition, each orbit sorted, orbits ordered by minimal element."""
    seen: set[int] = set()
    out: list[list[int]] = []
    for p in range(x.size):
        if p in seen:
            continue
        orb = sorted(set(int(v) for v in x.action[:, p]))
        out.append(orb)
        seen.update(orb)
    return out


def stabilizer(x: GSet, point: int) -> Subgroup:
    els = tuple(int(g) for g in np.nonzero(x.action[:, point] == point)[0])
    return Subgroup(x.group, els)


def is_transitive(x: GSet) -> bool:
    return len(orbits(x)) == 1


def gset_isomorphisms(x: GSet, y: GSet, bound: int = 8) -> list[np.ndarray]:
    """All equivariant bijections X -> Y, as index arrays, sorted lexicographically.

    Searches per orbit: a transitive orbit with base point x0 maps onto a
    same-size orbit of Y at exactly those y0 with Stab(y0) = Stab(x0), the
    rest of the map being forced by equivariance.
    """
    if x.group != y.group or x.size != y.size:
        return []
    if x.size > bound:
        raise EnumerationBoundExceeded(f"|X| = {x.size} exceeds bound {bound}")
    group = x.group
    orbs_x = orbits(x)
    orbs_y = orbits(y)
    if sorted(map(len, orbs_x)) != sorted(map(len, orbs_y)):
        return []

    results: list[np.ndarray] = []
    assignment = np.full(x.size, -1, dtype=np.int64)
    used = [False] * len(orbs_y)

    def orbit_maps(ox: list[int], oy: list[int]) -> list[dict[int, int]]:
        x0 = ox[0]
        stab_x = set(stabilizer(x, x0).elements)
        maps = []
        for y0 in oy:
            if set(int(g) for g in np.nonzero(y.action[:, y0] == y0)[0]) != stab_x:
                continue
            maps.append({int(x.action[g, x0]): int(y.action[g, y0])
                         for g in group.elements()})
        return maps

    def recurse(i: int):
        if i == len(orbs_x):
            results.append(assignment.copy())
            return
        ox = orbs_x[i]
        for j, oy in enumerate(orbs_y):
            if used[j] or len(oy) != len(ox):
                continue
            for f in orbit_maps(ox, oy):
                for a, b in f.items():
                    assignment[a] = b
                used[j] = True
                recurse(i + 1)
                used[j] = False
                for a in f:
                    assignment[a] = -1

    recurse(0)
    results.sort(key=lambda arr: arr.tolist())
    return results


# ---------------------------------------------------------------------------
# Smith normal form and linear solving mod N (arbitrary-precision integers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SNFResult:
    """U * A * V = D with U, V unimodular and D diagonal, d_1 | d_2 | ..."""

    D: list[list[int]]
    U: list[list[int]]
    V: list[list[int]]

    def diagonal(self) -> list[int]:
        rows = len(self.D)
        cols = len(self.D[0]) if rows else 0
        return [self.D[i][i] for i in range(min(rows, cols))]


def _as_int_rows(matrix) -> tuple[list[list[int]], int, int]:
    arr = np.asarray(matrix, dtype=object)
    if arr.ndim == 1:
        if arr.size:
            raise ValueError("matrix must be two-dimensional")
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    rows, cols = arr.shape
    return [[int(arr[i, j]) for j in range(cols)] for i in range(rows)], rows, cols


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form by integer row/column reduction.

    Pivots on the entry of minimal absolute value; the divisibility chain is
    enforced by folding any offending row into the pivot row and reducing
    again, which strictly shrinks the pivot.
    """
    a, rows, cols = _as_int_rows(matrix)
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):  # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):  # col_dst += c * col_src
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best, pivot = val, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)  # strictly smaller pivot; keep reducing
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
            if any(a[i][t] for i in range(t + 1, rows)) or \
               any(a[t][j] for j in range(t + 1, cols)):
                continue
            offender = None
            for i in range(t + 1, rows):
                if any(a[i][j] % a[t][t] for j in range(t + 1, cols)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SNFResult(a, u, v)


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


def solve_mod(matrix, rhs, modulus: int) -> Optional[list[int]]:
    """Some x with A x = b (mod modulus), or None when infeasible.

    Decided through the Smith normal form: with U A V = D the system becomes
    D y = U b, which splits into independent congruences d_i y_i = (Ub)_i.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    a, rows, cols = _as_int_rows(matrix)
    b = [int(v) for v in rhs]
    if len(b) != rows:
        raise ValueError("right-hand side length mismatch")
    if rows == 0:
        return [0] * cols
    if cols == 0:
        return [] if all(val % modulus == 0 for val in b) else None
    if modulus == 1:
        return [0] * cols
    snf = smith_normal_form(a)
    ub = [sum(snf.U[i][k] * b[k] for k in range(rows)) % modulus for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        d = snf.D[i][i] if i < min(rows, cols) else 0
        r = ub[i]
        if d == 0:
            if r % modulus != 0:
                return None
            continue
        g = gcd(d, modulus)
        if r % g != 0:
            return None
        sub = modulus // g
        y[i] = ((r // g) * _modinv((d // g) % sub, sub)) % sub if sub > 1 else 0
    return [sum(snf.V[i][k] * y[k] for k in range(cols)) % modulus for i in range(cols)]


# ---------------------------------------------------------------------------
# Integer lattice helpers (private; back the module-category enumeration)
# ---------------------------------------------------------------------------

def _integer_kernel(matrix) -> list[list[int]]:
    """Basis of {x : A x = 0 over Z}, as a list of column vectors."""
    a, rows, cols = _as_int_rows(matrix)
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    snf = smith_normal_form(a)
    out = []
    for j in range(cols):
        d = snf.D[j][j] if j < min(rows, cols) else 0
        if d == 0:
            out.append([snf.V[i][j] for i in range(cols)])
    return out


def _kernel_mod_basis(matrix, modulus: int) -> list[list[int]]:
    """Basis over Z of the full-rank lattice {x : A x = 0 mod modulus}.

    The lattice contains modulus * Z^cols, so the basis has `cols` vectors:
    column j of V scaled by modulus/gcd(d_j, modulus).
    """
    a, rows, cols = _as_int_rows(matrix)
    if rows == 0:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    snf = smith_normal_form(a)
    basis = []
    for j in range(cols):
        d = snf.D[j][j] if j < min(rows, cols) else 0
        scale = modulus // gcd(d, modulus) if d else 1
        basis.append([snf.V[i][j] * scale for i in range(cols)])
    return basis


def _solve_integer(basis_cols: list[list[int]],
                   targets: list[list[int]]) -> list[list[int]]:
    """Integer coordinates c_t with sum_j c_t[j] * basis_cols[j] = t, per target.

    One exact elimination of [B | T_1 ... T_k] over Q; raises ValueError when
    a target leaves the column span or its coordinates are not integers.
    With unit vectors as the targets and a unimodular B, the coordinates are
    the columns of B^-1.
    """
    nb = len(basis_cols)
    aug = [[Fraction(col[i]) for col in basis_cols] +
           [Fraction(t[i]) for t in targets] for i in range(len(targets[0]))]
    reduced, pivots = _gauss_jordan(aug, nb)
    if any(any(row[nb:]) for row in reduced[len(pivots):]):
        raise ValueError("target not in the column span")
    out = [[0] * nb for _ in targets]
    for row, col in zip(reduced, pivots):
        for coords, val in zip(out, row[nb:]):
            if val.denominator != 1:
                raise ValueError("target not in the integer lattice")
            coords[col] = int(val)
    return out


def _lattice_basis(generator_cols: list[list[int]], dim: int) -> list[list[int]]:
    """Square basis (as columns) of the full-rank lattice the generators span."""
    mat = [[generator_cols[j][i] for j in range(len(generator_cols))]
           for i in range(dim)]
    snf = smith_normal_form(mat)
    unit_cols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    uinv = _solve_integer(list(zip(*snf.U)), unit_cols)  # columns of U^-1
    basis = []
    for i in range(min(dim, len(generator_cols))):
        d = snf.D[i][i]
        if d:
            basis.append([x * d for x in uinv[i]])
    if len(basis) != dim:
        raise ValueError("lattice is not full rank")
    return basis


def _lattice_quotient_reps(big_cols: list[list[int]],
                           small_gen_cols: list[list[int]],
                           dim: int) -> list[list[int]]:
    """Coset representatives of (lattice with basis big_cols) / (sublattice).

    Writes the sublattice basis S in coordinates C with B*C = S, takes the
    Smith form U*C*V = D, and uses the adapted basis B' = B*U^{-1}: the
    quotient is the direct sum of Z/d_i on the b'_i directions.
    """
    small_basis = _lattice_basis(small_gen_cols, dim)
    coords = _solve_integer(big_cols, small_basis)
    snf = smith_normal_form(list(zip(*coords)))
    unit_cols = [[int(i == j) for i in range(dim)] for j in range(dim)]
    uinv = _solve_integer(list(zip(*snf.U)), unit_cols)  # columns of U^-1
    diag = [snf.D[i][i] for i in range(dim)]
    adapted = [[sum(big_cols[k][r] * uinv[i][k] for k in range(dim))
                for r in range(dim)] for i in range(dim)]
    reps: list[list[int]] = []

    def rec(i: int, acc: list[int]):
        if i == dim:
            reps.append(acc[:])
            return
        d = abs(diag[i])
        if d == 0:
            raise ValueError("sublattice does not have finite index")
        for t in range(d):
            rec(i + 1, [x + t * y for x, y in zip(acc, adapted[i])])

    rec(0, [0] * dim)
    return reps

"""Module and bimodule functors in matrix form.

A functor between module categories M(X, Psi_X) -> M(Y, Psi_Y) is stored as a
multiplicity table m over X x Y together with, for every group element and
every supported pair, an invertible square matrix A satisfying the twisted
composition rule.  Natural transformations are matrix families intertwining
the A data; hom spaces are computed exactly over the cyclotomic field.

Each coherence table is a side (:class:`CoherenceSide`): T_{l,x,y} carries
the block at (x, y) to (g.x, g.y) for the acting element g of l, which is l
on the left side A (twists Psi) and l^-1 on the right side B of a bimodule
functor (twists Phi: the right action read over the reversed associator).
One routine checks a side: invariance of m, T_1 = id, invertibility and
T_{gh} = tw_X tw_Y^-1 T_p T_q(shifted by p), where p, the factor that acts
first, is h on A and g on B, q is the other, and the twists are read at
(q, p, gh.x) through the acting elements.  :mod:`twistcat.sixj` reads the
same sides.

Each side has an exponent table (``CoherenceSide.exponents``, built on first
use): where every block is monomial with distinct columns, as for simples
over cyclic G and their sums and adjoints, each block row as (column,
exponent) at one root order L.  A composition instance (:func:`composition`)
is then the integer test T_{gh} = u T_p T_q, u the twist ratio as an
exponent difference, and a bimodule hexagon instance the same test of its
two products on the A and B tables (:func:`_hexagon_on_tables`); any other
instance compares the two built products, which are the reference.  Functor
Biedenharn-Elliott in :mod:`twistcat.sixj` is decided by the same instance.
Where m is not invariant the blocks of an instance differ in size, and the
instance is one failure of its condition, like a missing entry.  The table
is built once per functor table (A or B), on first use, and kept on the
functor.

A natural transformation F -> H is a family of matrices M_{x,y} over the
pairs both functors support, with M_{x,y} A^F_{g,x,y} = A^H_{g,x,y}
M_{g.x,g.y} (cond_M).  When both A tables have exponent tables, each entry
of cond_M links two unknowns by a root of unity, u = z^d w, so the hom space
is solved by propagating exponents along these links: a connected set of
unknowns whose links close into a cycle of nonzero exponent is zero, and
every other one spans one basis vector, 1 at its largest unknown and roots
elsewhere.  This is the reduced row-echelon basis elimination gives, which
remains the route for any other pair of functors.  Either route yields one
sparse basis, which ``hom_basis`` turns into matrices and ``invertible_hom``
combines.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Optional

from ._matrix import (SMatrix, _exponent_table, _from_exponents, _invertible,
                      nullspace_basis)
from .algebra import FiniteGroup, GSet, _array_view, _flatten, _rows
from .cohomology import UnitCochain, _pull_back, differential
from .errors import (LambdaConditionFailed, NotCyclic, NotEquivariant,
                     ShapeMismatch, SourceTargetMismatch)
from .modcat import (BimoduleCategoryData, FailureLog, ModuleCategoryData,
                     ValidationReport, bimod_to_deligne,
                     regular_module_category)
from .scalar import Scalar, Unit, unit_roots

__all__ = [
    "ModuleFunctorData",
    "NatTransData",
    "BimoduleFunctorData",
    "SimpleFunctorClass",
    "validate_modfun",
    "validate_nat_trans",
    "validate_bimodfun",
    "identity_functor",
    "functor_from_equivariant",
    "action_functor",
    "hom_dimension",
    "hom_basis",
    "invertible_hom",
    "direct_sum",
    "orbit_decompose",
    "adjoint",
    "classify_simple_cyclic",
    "count_simple_cyclic",
    "bimodfun_to_deligne",
    "deligne_to_bimodfun",
]


class _FunctorTable:
    """The multiplicity table of module and bimodule functor data.

    m_{x,y} over X x Y is stored flat in row-major order as ``mult_flat``;
    ``mult`` is its read-only ndarray view, and the constructors take it as
    an ndarray, nested lists or nested tuples.  ``_exponents`` keeps the
    exponent tables of the coherence tables, built on first use.
    """

    __slots__ = ()

    def _set_mult(self, mult) -> None:
        flat, shape = _flatten(mult)
        if shape != self.mult_shape:
            raise ShapeMismatch("multiplicity table has the wrong shape")
        if min(flat, default=0) < 0:
            raise ShapeMismatch("multiplicities must be natural numbers")
        ny = shape[1]
        object.__setattr__(self, "mult_flat", flat)
        object.__setattr__(self, "_support", tuple(
            divmod(p, ny) for p, m in enumerate(flat) if m))
        object.__setattr__(self, "_views", {})
        object.__setattr__(self, "_exponents", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def mult_shape(self) -> tuple[int, int]:
        return (self.source.X.size, self.target.X.size)

    @property
    def mult(self):
        """The multiplicity table as a read-only (|X|, |Y|) ndarray."""
        return _array_view(self._views, "mult", self.mult_flat,
                           self.mult_shape)

    def multiplicity(self, x: int, y: int) -> int:
        return self.mult_flat[x * self.target.X.size + y]

    def _mult_rows(self) -> list[tuple[int, ...]]:
        return _rows(self.mult_flat, self.target.X.size)

    def support(self) -> list[tuple[int, int]]:
        """The pairs (x, y) with m_{x,y} > 0, in row-major order."""
        return list(self._support)


def _check_tables(group: FiniteGroup, f: _FunctorTable, a: dict,
                  slot: str) -> None:
    keys = {(g, x, y) for g in group.elements() for (x, y) in f.support()}
    if set(a) != keys:
        raise ShapeMismatch(
            f"{slot} table keys must be exactly (g, x, y) over the support")
    for (g, x, y), mat in a.items():
        if not isinstance(mat, SMatrix):
            raise ShapeMismatch(f"{slot} entries must be SMatrix values")
        n = f.multiplicity(x, y)
        if (mat.nrows, mat.ncols) != (n, n):
            raise ShapeMismatch(
                f"{slot}[{(g, x, y)}] must be {n}x{n}, got "
                f"{mat.nrows}x{mat.ncols}")


class ModuleFunctorData(_FunctorTable):
    """Matrix presentation (m, A) of a module functor."""

    __slots__ = ("source", "target", "mult_flat", "a", "_support", "_views",
                 "_exponents")

    def __init__(self, source: ModuleCategoryData, target: ModuleCategoryData,
                 mult, a: dict) -> None:
        if source.fusion != target.fusion:
            raise SourceTargetMismatch(
                "source and target are over different fusion data")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "a", dict(a))
        self._set_mult(mult)
        _check_tables(self.group, self, self.a, "A")

    @property
    def group(self) -> FiniteGroup:
        return self.source.fusion.group

    def __eq__(self, other):
        if not isinstance(other, ModuleFunctorData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mult_flat == other.mult_flat and self.a == other.a)


@dataclass(frozen=True, eq=False)
class CoherenceSide:
    """One coherence table of a functor, its twists, the names of its four
    conditions and whether it is a right side; see the module docstring."""

    functor: _FunctorTable
    group: FiniteGroup
    source: GSet
    target: GSet
    twist_source: UnitCochain
    twist_target: UnitCochain
    table: dict
    names: tuple[str, str, str, str]
    right: bool = False

    def acting(self, l: int) -> int:
        """The element a label acts by: l on a left side, l^-1 on a right."""
        return self.group.inv(l) if self.right else l

    @cached_property
    def exponents(self) -> tuple:
        """(L, table, twist): per key the block's rows as (column, exponent
        mod L), or None unless every block is monomial with distinct columns,
        and the twist ratio (q, p, x, y) -> its exponent mod L.  The table
        is kept on the functor, so every side of the same table, and the hom
        spaces, read one build."""
        tw_x, tw_y = self.twist_source, self.twist_target
        order = lcm(tw_x.root_order, tw_y.root_order)
        built = self.functor._exponents  # keyed by table: A or B
        if self.right not in built:
            built[self.right] = _exponent_table(self.table, order)
        order, exps = built[self.right] or (order, None)
        return order, exps, _twist_exponents(tw_x, tw_y, order)


def coherence_sides(f) -> tuple[CoherenceSide, ...]:
    """The sides of a module functor, (A,), or of a bimodule functor, (A, B)."""
    src, tgt = f.source, f.target
    a_names = ("mult_invariant", "a_identity", "a_invertible", "cond_A")
    if isinstance(f, ModuleFunctorData):
        return (CoherenceSide(f, f.group, src.X, tgt.X, src.psi, tgt.psi, f.a,
                              a_names),)
    return (CoherenceSide(f, src.left.group, src.x_g, tgt.x_g, src.psi,
                          tgt.psi, f.a, a_names),
            CoherenceSide(f, src.right.group, src.x_h, tgt.x_h, src.phi,
                          tgt.phi, f.b, ("mult_invariant_h", "b_identity",
                                         "b_invertible", "b_pentagon"),
                          right=True))


def _twist_exponents(tw_x: UnitCochain, tw_y: UnitCochain, n: int):
    """(q, p, x, y) -> e mod n with tw_x(q, p, x) tw_y(q, p, y)^-1 =
    exp(2 pi i e / n), for two 2-cochains on the same slot groups, read from
    their exponent tables; n is a common multiple of their root orders."""
    ex, ey = tw_x.exponents_flat, tw_y.exponents_flat
    sx, sy = n // tw_x.root_order, n // tw_y.root_order
    _, slot, nx = tw_x.shape
    ny = tw_y.shape[2]

    def exponent(q: int, p: int, x: int, y: int) -> int:
        pos = q * slot + p
        return (ex[pos * nx + x] * sx - ey[pos * ny + y] * sy) % n
    return exponent


def composition(side: CoherenceSide, g: int, h: int):
    """The composition instances at (g, h), as (x, y) -> None when
    T_{gh,x,y} = u T_{p,x,y} T_{q,p.x,p.y} holds, u the twist ratio at
    (q, p, gh.x, gh.y) read through the acting elements, else the failure's
    (lhs, rhs).  On the side's exponent table an instance holds when each
    row of T_gh has the column T_p T_q reaches and the sum of the exponents;
    any other instance compares T_gh with the built u T_p T_q.  A missing
    moved block or, m not being invariant, one of another size fails without
    a product."""
    x_set, y_set, table = side.source, side.target, side.table
    ax, ay, nx, ny = (x_set.action_flat, y_set.action_flat, x_set.size,
                      y_set.size)
    gh = side.group.op(g, h)
    p, q = (g, h) if side.right else (h, g)
    a_p, a_q, a_gh = side.acting(p), side.acting(q), side.acting(gh)
    order, exps, twist = side.exponents

    def failure(x: int, y: int) -> Optional[tuple]:
        moved = (q, ax[a_p * nx + x], ay[a_p * ny + y])
        second = table.get(moved)
        if second is None:
            return "missing entry", "present"
        u = twist(a_q, a_p, ax[a_gh * nx + x], ay[a_gh * ny + y])
        if exps is not None and len(exps[(p, x, y)]) == len(exps[moved]):
            other = exps[moved]
            for (col, e), (want, w) in zip(exps[(p, x, y)], exps[(gh, x, y)]):
                col, f = other[col]
                if col != want or (u + e + f - w) % order:
                    break
            else:
                return None
        first, lhs = table[(p, x, y)], table[(gh, x, y)]
        try:
            rhs = (first @ second).scale(Unit(order, u))
        except ShapeMismatch:  # m is not invariant
            return (f"{second.nrows}x{second.ncols} moved block",
                    f"{first.nrows}x{first.ncols}")
        return None if lhs == rhs else (lhs, rhs)
    return failure


def _check_side(side: CoherenceSide, log: FailureLog) -> int:
    """Check one side's four conditions; returns how many instances.  On
    the side's exponent table every block is invertible and the identity
    blocks have rows (i, 0); without one the blocks are asked."""
    grp, x_set, y_set, table = side.group, side.source, side.target, side.table
    mult, nx, ny = side.functor.mult_flat, x_set.size, y_set.size
    invariant, identity, invertible, condition = side.names
    for g in grp.elements():
        moved = tuple([mult[x * ny + y]
                       for x in x_set.action_flat[g * nx:(g + 1) * nx]
                       for y in y_set.action_flat[g * ny:(g + 1) * ny]])
        for pos, (there, here) in enumerate(zip(moved, mult)):
            if there != here:
                log.add(invariant, (g,) + divmod(pos, ny), there, here)
    support = side.functor.support()
    exps = side.exponents[1]
    for (x, y) in support:
        key = (grp.identity, x, y)
        if not (table[key].is_identity() if exps is None else all(
                row == (i, 0) for i, row in enumerate(exps[key]))):
            log.add(identity, key, table[key], "identity")
    for key, mat in table.items() if exps is None else ():
        if mat.inverse() is None:
            log.add(invertible, key, mat, "invertible")

    for g, h in itertools.product(grp.elements(), repeat=2):
        instance = composition(side, g, h)
        for (x, y) in support:
            failure = instance(x, y)
            if failure is not None:
                log.add(condition, (g, h, x, y), *failure)
    return (grp.order * nx * ny + len(support) + len(table)
            + grp.order ** 2 * len(support))


def validate_modfun(f: ModuleFunctorData) -> ValidationReport:
    """Check the A side: multiplicity invariance, A_1 = id, invertibility
    and the composition rule A_{gh} = Psi_X Psi_Y^-1 A_h A_g(shifted)."""
    log = FailureLog()
    (side,) = coherence_sides(f)
    return log.report(_check_side(side, log))


@dataclass(frozen=True, eq=False)
class NatTransData:
    """Matrix family M_{x,y} of a natural transformation between functors."""

    source: ModuleFunctorData
    target: ModuleFunctorData
    m: dict

    def __post_init__(self):
        f, h = self.source, self.target
        if f.source != h.source or f.target != h.target:
            raise SourceTargetMismatch(
                "functors do not share source and target categories")
        object.__setattr__(self, "m", dict(self.m))
        pairs = {p for p in f.support() if h.multiplicity(*p) > 0}
        if set(self.m) != pairs:
            raise ShapeMismatch(
                "M table keys must be the pairs supported by both functors")
        for (x, y), mat in self.m.items():
            if not isinstance(mat, SMatrix):
                raise ShapeMismatch("M entries must be SMatrix values")
            want = (h.multiplicity(x, y), f.multiplicity(x, y))
            if (mat.nrows, mat.ncols) != want:
                raise ShapeMismatch(f"M[{(x, y)}] must be {want[0]}x{want[1]}")

    def __eq__(self, other):
        if not isinstance(other, NatTransData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.m == other.m)


def validate_nat_trans(eta: NatTransData) -> ValidationReport:
    """Check M_{x,y} A^F_{g,x,y} = A^H_{g,x,y} M_{g.x, g.y} on all entries,
    each instance a comparison of the two built products; where m is not
    invariant the blocks differ in size and the instance is one failure."""
    f, h = eta.source, eta.target
    grp = f.group
    x_set, y_set = f.source.X, f.target.X
    log = FailureLog()
    checked = 0
    for g in grp.elements():
        for (x, y), mat in eta.m.items():
            checked += 1
            moved = eta.m.get((x_set.apply(g, x), y_set.apply(g, y)))
            if moved is None:
                log.add("cond_M", (g, x, y), "missing entry", "present")
                continue
            af, ah = f.a[(g, x, y)], h.a[(g, x, y)]
            try:
                lhs, rhs = mat @ af, ah @ moved
            except ShapeMismatch:  # m is not invariant
                log.add("cond_M", (g, x, y),
                        f"{moved.nrows}x{moved.ncols} moved block",
                        f"{mat.nrows}x{mat.ncols}")
                continue
            if lhs != rhs:
                log.add("cond_M", (g, x, y), lhs, rhs)
    return log.report(checked)


def identity_functor(data: ModuleCategoryData) -> ModuleFunctorData:
    """The identity functor: m the Kronecker delta, every A the 1x1 identity."""
    size = data.X.size
    mult = [[int(x == y) for y in range(size)] for x in range(size)]
    a = {(g, x, x): SMatrix.identity(1)
         for g in data.fusion.group.elements() for x in range(size)}
    return ModuleFunctorData(data, data, mult, a)


def functor_from_equivariant(f, lam: UnitCochain, source: ModuleCategoryData,
                             target: ModuleCategoryData) -> ModuleFunctorData:
    """The graph functor of an equivariant map f with 1-cochain Lambda.

    Requires d(Lambda) = Psi_X^-1 * (Psi_Y pulled back along f); the functor
    has m_{x,y} = delta_{f(x),y} and A_{g,x,f(x)} = [Lambda(g, g.x)].
    """
    f, shape = _flatten(f)
    x_set, y_set = source.X, target.X
    grp = source.fusion.group
    if shape != (x_set.size,) or not all(0 <= v < y_set.size for v in f):
        raise NotEquivariant("map table has the wrong shape or range")
    if any(y_set.apply(g, f[x]) != f[x_set.apply(g, x)]
           for g in grp.elements() for x in range(x_set.size)):
        raise NotEquivariant("map does not commute with the group action")
    if lam.degree != 1 or lam.carrier != x_set:
        raise LambdaConditionFailed("Lambda must be a degree-1 cochain on X")
    if differential(lam) != source.psi.inverse() * _pull_back(target.psi, f,
                                                               x_set):
        raise LambdaConditionFailed(
            "d(Lambda) does not match Psi_X^-1 * (Psi_Y o f)")
    mult = [[int(f[x] == y) for y in range(y_set.size)]
            for x in range(x_set.size)]
    a = {}
    for g in grp.elements():
        for x in range(x_set.size):
            u = lam.value((g, x_set.apply(g, x)))
            a[(g, x, f[x])] = SMatrix.from_unit(u)
    return ModuleFunctorData(source, target, mult, a)


def action_functor(data: ModuleCategoryData, base: int) -> ModuleFunctorData:
    """The functor regular -> M(X, Psi) acting on a chosen base point.

    f(z) = z . base with Lambda(g, z) = Psi(g, g^-1 z, z . base); the cochain
    condition follows from the twisted cocycle identity for Psi.
    """
    if not 0 <= base < data.X.size:
        raise ValueError(f"base point {base} is outside 0..{data.X.size - 1}")
    grp = data.fusion.group
    reg = regular_module_category(data.fusion)
    f = [data.X.apply(z, base) for z in grp.elements()]
    lam = UnitCochain.from_flat(1, reg.X, data.psi.root_order, [
        data.psi.exponent((g, grp.op(grp.inv(g), z), f[z]))
        for g in grp.elements() for z in grp.elements()])
    return functor_from_equivariant(f, lam, reg, data)


def _hom_space(f: ModuleFunctorData, h: ModuleFunctorData):
    """(layout, basis, tables) of Nat(F, H): per pair supported by both, in
    sorted order, the offset of M_p among the unknowns and its shape
    (m^H_p, m^F_p); a basis as sparse vectors, dicts slot -> nonzero Scalar;
    and whether it was solved on the A tables' exponent tables (both have
    one) rather than by elimination.  Raises ShapeMismatch when a pair and
    its moved pair have different multiplicities, so cond_M is undefined."""
    if f.source != h.source or f.target != h.target:
        raise SourceTargetMismatch(
            "hom spaces need functors with equal source and target")
    layout, total = {}, 0
    for p in sorted(p for p in f.support() if h.multiplicity(*p) > 0):
        mh, mf = h.multiplicity(*p), f.multiplicity(*p)
        layout[p] = (total, mh, mf)
        total += mh * mf
    if not layout:
        return layout, [], False
    (order_f, exps_f), (order_h, exps_h) = (
        coherence_sides(fn)[0].exponents[:2] for fn in (f, h))
    if exps_f is None or exps_h is None:
        rows = []
        for key, base, moved, mh, mf in _cond_m(f, layout):
            af, ah = f.a[key], h.a[key]
            for i in range(mh):
                for j in range(mf):
                    row = [Scalar.zero()] * total
                    for k in range(mf):
                        row[base + i * mf + k] += af.entry(k, j)
                    for k in range(mh):
                        row[moved + k * mf + j] -= ah.entry(i, k)
                    rows.append(row)
        return layout, [{s: v for s, v in enumerate(vec) if v}
                        for vec in nullspace_basis(rows, total)], False
    # with A^F row k at (j, a) and A^H row i at (c, b), entry (i, j) of
    # cond_M reads z^a M_p[i, k] = z^b M_{g.p}[c, j]: one edge u = z^d w
    order = lcm(order_f, order_h)
    sf, sh = order // order_f, order // order_h
    edges = [[] for _ in range(total)]
    for key, base, moved, mh, mf in _cond_m(f, layout):
        for k, (j, a) in enumerate(exps_f[key]):
            for i, (c, b) in enumerate(exps_h[key]):
                u, w = base + i * mf + k, moved + c * mf + j
                d = b * sh - a * sf
                edges[u].append((w, d))
                edges[w].append((u, -d))
    return layout, _propagate(edges, order), True


def _cond_m(f: ModuleFunctorData, layout: dict):
    """The cond_M instances M_p A^F_g = A^H_g M_{g.p} over g and the pairs of
    ``layout``, as (key (g, x, y), offset of M_p, offset of M_{g.p}, m^H_p,
    m^F_p); raises ShapeMismatch at the first moved pair of another shape."""
    x_set, y_set = f.source.X, f.target.X
    ax, ay, nx, ny = (x_set.action_flat, y_set.action_flat, x_set.size,
                      y_set.size)
    for g in f.group.elements():
        for (x, y), (base, mh, mf) in layout.items():
            gp = (ax[g * nx + x], ay[g * ny + y])
            moved = layout.get(gp)
            if moved is None or moved[1:] != (mh, mf):
                raise ShapeMismatch(
                    f"multiplicities are not invariant: {g} moves {(x, y)} "
                    f"to {gp}, whose multiplicities differ")
            yield (g, x, y), base, moved[0], mh, mf


def _propagate(edges: list, order: int) -> list[dict]:
    """The solutions of the equations x_u = z^d x_w, z = exp(2 pi i / order),
    given as edges[u] holding (w, d) and edges[w] holding (u, -d): a walk
    from each unvisited slot sets every reached slot's exponent relative to
    the first.  A component with a cycle of nonzero exponent is zero; each
    other one spans one solution, of full support on it, which is the
    vector elimination gives: 1 at the component's largest slot, the roots
    relative to it elsewhere, the vectors sorted by that slot."""
    pot = [None] * len(edges)
    found = {}
    for start, seen in enumerate(pot):
        if seen is not None:
            continue
        pot[start], component, live = 0, [start], True
        for u in component:
            for w, d in edges[u]:
                if pot[w] is None:
                    pot[w] = pot[u] - d
                    component.append(w)
                elif (pot[u] - d - pot[w]) % order:
                    live = False
        if live:
            last = max(component)
            found[last] = {s: Scalar.root_of_unity(order, pot[s] - pot[last])
                           for s in component}
    return [found[last] for last in sorted(found)]


def _block_rows(entries: dict, base: int, mh: int, mf: int) -> list:
    """The rows of the block at ``base`` of a sparse vector, zero elsewhere."""
    zero = Scalar.zero()
    return [[entries.get(base + i * mf + j, zero) for j in range(mf)]
            for i in range(mh)]


def _blocks(layout: dict, entries: dict) -> dict:
    """The matrices M_p of a sparse vector over the layout."""
    return {p: SMatrix(_block_rows(entries, *spec))
            for p, spec in layout.items()}


def _pair_orbits(x_set: GSet, y_set: GSet, pairs=None):
    """The G-orbits of X x Y under the diagonal action whose least pair is
    among ``pairs`` (sorted; all of X x Y when None), each as its sorted
    (x, y) pairs, in order of their least pairs."""
    ax, nx, ay, ny = x_set.action_flat, x_set.size, y_set.action_flat, y_set.size
    if pairs is None:
        pairs = itertools.product(range(nx), range(ny))
    for x, y in pairs:
        orbit = set(zip(ax[x::nx], ay[y::ny]))
        if min(orbit) == (x, y):
            yield tuple(sorted(orbit))


def hom_dimension(f: ModuleFunctorData, h: ModuleFunctorData) -> int:
    """Dimension of the space of natural transformations F -> H."""
    return len(_hom_space(f, h)[1])


def hom_basis(f: ModuleFunctorData, h: ModuleFunctorData) -> list[NatTransData]:
    """A basis of Nat(F, H) as natural-transformation data: on monomial A
    tables one transformation per live component of cond_M, else the
    nullspace basis of the eliminated system; both are the reduced
    row-echelon basis, one vector per free unknown, 1 there."""
    layout, basis, _ = _hom_space(f, h)
    return [NatTransData(f, h, _blocks(layout, vec)) for vec in basis]


def invertible_hom(f: ModuleFunctorData,
                   h: ModuleFunctorData) -> Optional[NatTransData]:
    """An invertible natural transformation F -> H, or None.

    Tries the basis elements of :func:`hom_basis` first, then a
    deterministic sequence of small integer combinations of them (a generic
    combination is invertible whenever an invertible element exists), each
    summed entrywise from the sparse basis vectors; only the one returned is
    built as matrices.  On the exponent tables, whose A blocks are
    invertible, one block per G-orbit of the pairs decides, since a
    combination is natural: M_{g.p} = (A^H_g)^-1 M_p A^F_g; the layout is
    a union of orbits (else ``_cond_m`` fails), and the least pair of each
    decides.  Else every block does.  ``_matrix._invertible`` decides a block.
    """
    if (f.mult_shape, f.mult_flat) != (h.mult_shape, h.mult_flat):
        return None
    layout, basis, tables = _hom_space(f, h)
    if not basis:
        return None
    orbs = (_pair_orbits(f.source.X, f.target.X, layout) if tables
            else [(p,) for p in layout])
    deciding = [layout[orbit[0]] for orbit in orbs]
    rng = random.Random(0)
    units = ([int(b == c) for c in range(len(basis))]
             for b in range(len(basis)))
    randoms = ([rng.randint(-3, 3) for _ in basis] for _ in range(64))
    for coeffs in itertools.chain(units, randoms):
        entries = {}
        for c, vec in zip(coeffs, basis):
            if c == 0:
                continue
            k = Scalar.from_rational(c)
            for s, v in vec.items():
                # a root times 1 stays a tagged root, which inverts as such
                v = v if c == 1 else k * v
                entries[s] = entries[s] + v if s in entries else v
        if entries and all(_invertible(_block_rows(entries, *spec))
                           for spec in deciding):
            return NatTransData(f, h, _blocks(layout, entries))
    return None


def direct_sum(functors: list[ModuleFunctorData]) -> ModuleFunctorData:
    """Block-diagonal sum in list order; multiplicities add."""
    if not functors:
        raise SourceTargetMismatch("direct_sum needs at least one functor")
    first = functors[0]
    for other in functors[1:]:
        if other.source != first.source or other.target != first.target:
            raise SourceTargetMismatch(
                "all summands must share source and target")
    mult = [sum(col) for col in zip(*(f.mult_flat for f in functors))]
    ny = first.target.X.size
    support = [divmod(p, ny) for p, m in enumerate(mult) if m]
    a = {}
    for g in first.group.elements():
        for x, y in support:
            blocks = [f.a[(g, x, y)] for f in functors
                      if f.multiplicity(x, y) > 0]
            a[(g, x, y)] = SMatrix.block_diag(blocks)
    return ModuleFunctorData(first.source, first.target, _rows(mult, ny), a)


def orbit_decompose(f: ModuleFunctorData) -> dict:
    """Single-orbit blocks of F, keyed by the supporting orbit of X x Y.

    Keys are tuples of (x, y) pairs; only orbits meeting the support appear.
    The direct sum of the values equals F up to block ordering.
    """
    ny = f.target.X.size
    out = {}
    for pairs in _pair_orbits(f.source.X, f.target.X):
        if f.multiplicity(*pairs[0]) == 0:
            continue
        members = set(pairs)
        mult = _rows([m if divmod(p, ny) in members else 0
                      for p, m in enumerate(f.mult_flat)], ny)
        a = {key: mat for key, mat in f.a.items() if key[1:] in members}
        out[pairs] = ModuleFunctorData(f.source, f.target, mult, a)
    return out


def adjoint(f: ModuleFunctorData) -> ModuleFunctorData:
    """The (two-sided) adjoint functor, with transposed multiplicities and
    A'_{g,y,x} = Psi_X(g,g^-1,g.x) Psi_Y^-1(g,g^-1,g.y) (A_{g^-1,g.x,g.y})^T.

    On the source's exponent table a row i holding (c, e) gives row c of the
    new block holding (i, e + r), r the twist ratio's exponent at the
    table's order: the blocks and the result's own table are built on
    integers.  Any other source is transposed and scaled."""
    grp = f.group
    x_set, y_set = f.source.X, f.target.X
    mult = list(zip(*f._mult_rows()))
    n = lcm(f.source.psi.root_order, f.target.psi.root_order)
    ratio = _twist_exponents(f.source.psi, f.target.psi, n)
    order, exps = coherence_sides(f)[0].exponents[:2]
    a, table = {}, {}
    for g in grp.elements():
        ginv = grp.inv(g)
        for (x, y) in f.support():
            gx, gy = x_set.apply(g, x), y_set.apply(g, y)
            r = ratio(g, ginv, gx, gy)
            if exps is None:
                a[(g, y, x)] = f.a[(ginv, gx, gy)].transpose().scale(Unit(n, r))
                continue
            moved = [None] * len(exps[(ginv, gx, gy)])
            for i, (c, e) in enumerate(exps[(ginv, gx, gy)]):
                moved[c] = (i, (e + r * (order // n)) % order)
            table[(g, y, x)] = moved = tuple(moved)
            a[(g, y, x)] = _from_exponents(moved, order)
    out = ModuleFunctorData(f.target, f.source, mult, a)
    if exps is not None:
        # adding a root whose order divides n keeps each prime power above
        # n's in an entry's order, so the source table's order is the lcm
        # that _exponent_table would find for the new blocks
        out._exponents[False] = order, table
    validate_modfun(out).raise_if_failed("adjoint")
    return out


def _cyclic_generator(grp: FiniteGroup) -> tuple[int, list[int]]:
    """A minimal-index generator and its power sequence, or NotCyclic."""
    n = grp.order
    for g in grp.elements():
        if grp.element_order(g) == n:
            powers = [grp.identity]
            for _ in range(n):
                powers.append(grp.op(g, powers[-1]))
            return g, powers
    raise NotCyclic("the acting group has no generator of full order")


@dataclass(frozen=True)
class SimpleFunctorClass:
    """A simple functor labelled by its orbit and the root-of-unity class."""

    orbit: tuple[tuple[int, int], ...]
    xi: Unit
    functor: ModuleFunctorData


def classify_simple_cyclic(source: ModuleCategoryData,
                           target: ModuleCategoryData) -> list[SimpleFunctorClass]:
    """All simple functors source -> target over a cyclic group.

    For each diagonal orbit of X x Y with minimal representative (x, y) and
    size r, the simples supported on it are labelled by the n-th roots xi of
    gamma = prod_t Psi_X^-1(gen, gen^t, gen^{t+1}.x) Psi_Y(gen, gen^t,
    gen^{t+1}.y), taken modulo xi_1 ~ xi_2 iff xi_1^r = xi_2^r; there are n/r
    of them, and A_{gen^k} is the k-step twisted power of xi.
    """
    if source.fusion != target.fusion:
        raise SourceTargetMismatch(
            "source and target are over different fusion data")
    grp = source.fusion.group
    n = grp.order
    gen, powers = _cyclic_generator(grp)
    x_set, y_set = source.X, target.X
    ax, ay, nx, ny = (x_set.action_flat, y_set.action_flat, x_set.size,
                      y_set.size)
    big = lcm(source.psi.root_order, target.psi.root_order)
    ratio = _twist_exponents(source.psi, target.psi, big)
    out = []
    for pairs in _pair_orbits(x_set, y_set):
        r = len(pairs)
        # sums[p][k]: prod_{0 < t < k} Psi_X Psi_Y^-1 at p as an exponent
        # mod big, k = 0..n; gamma is the inverse of the k = n product
        sums = {}
        for (x, y) in pairs:
            acc = [0, 0]
            for t in range(1, n):
                s = powers[t + 1]
                acc.append(acc[-1] + ratio(gen, powers[t], ax[s * nx + x],
                                           ay[s * ny + y]))
            sums[(x, y)] = acc
        roots = unit_roots(Unit(big, -sums[pairs[0]][n]), n)
        mult = [[int((x, y) in pairs) for y in range(ny)] for x in range(nx)]
        for j in range(n // r):
            xi = roots[j]
            order = lcm(xi.root_order, big)
            e, scale = xi.exponent * (order // xi.root_order), order // big
            a = {(powers[k], x, y): SMatrix.from_unit(
                     Unit(order, k * e + scale * sums[(x, y)][k]))
                 for k in range(n) for (x, y) in pairs}
            functor = ModuleFunctorData(source, target, mult, a)
            out.append(SimpleFunctorClass(pairs, xi, functor))
    return out


def count_simple_cyclic(source: ModuleCategoryData,
                        target: ModuleCategoryData) -> int:
    """Sum of n/|orbit| over the diagonal orbits of X x Y."""
    grp = source.fusion.group
    _cyclic_generator(grp)
    return sum(grp.order // len(o) for o in _pair_orbits(source.X, target.X))


# ---------------------------------------------------------------------------
# bimodule functors
# ---------------------------------------------------------------------------

class BimoduleFunctorData(_FunctorTable):
    """Module-functor data plus the right-action matrices B over H."""

    __slots__ = ("source", "target", "mult_flat", "a", "b", "_support",
                 "_views", "_exponents")

    def __init__(self, source: BimoduleCategoryData,
                 target: BimoduleCategoryData, mult, a: dict,
                 b: dict) -> None:
        if (source.left, source.right) != (target.left, target.right):
            raise SourceTargetMismatch(
                "source and target are over different fusion data pairs")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "a", dict(a))
        object.__setattr__(self, "b", dict(b))
        self._set_mult(mult)
        _check_tables(source.left.group, self, self.a, "A")
        _check_tables(source.right.group, self, self.b, "B")

    def __eq__(self, other):
        if not isinstance(other, BimoduleFunctorData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mult_flat == other.mult_flat
                and self.a == other.a and self.b == other.b)


def _hexagon_on_tables(b_left, a_left, l_b: int, l_a: int, u: Unit,
                       a_right, b_right, v: Unit) -> bool:
    """Whether B A u = A' B' v holds for blocks given by their exponent rows,
    the B rows at order l_b and the A rows at l_a: each row reaches the same
    column through both column maps with the same exponent sum.  False also
    where the blocks differ in size, m not being invariant."""
    if not len(b_left) == len(a_left) == len(b_right):
        return False
    n = lcm(l_a, l_b, u.root_order, v.root_order)
    s_a, s_b = n // l_a, n // l_b
    shift = (u.exponent * (n // u.root_order)
             - v.exponent * (n // v.root_order))
    for (c, e), (d, f) in zip(b_left, a_right):
        c, e_a = a_left[c]
        d, f_b = b_right[d]
        if c != d or (shift + (e - f_b) * s_b + (e_a - f) * s_a) % n:
            return False
    return True


def validate_bimodfun(f: BimoduleFunctorData) -> ValidationReport:
    """The A and B sides' conditions plus the mixed hexagon
    B_{h,x,y} A_{g,h.x,h.y} Omega_X = A_{g,x,y} B_{h,g.x,g.y} Omega_Y, with h
    acting by h^-1 and Omega read at (g, h^-1, (g, h^-1).x).  With exponent
    tables on both sides an instance holds by :func:`_hexagon_on_tables`;
    any other instance compares the two built products."""
    log = FailureLog()
    a_side, b_side = coherence_sides(f)
    checked = _check_side(a_side, log) + _check_side(b_side, log)
    xg, yg, xh, yh = a_side.source, a_side.target, b_side.source, b_side.target
    x_set, y_set = f.source.X, f.target.X
    om_x, om_y = f.source.omega_mid, f.target.omega_mid
    h_ord = b_side.group.order
    support = f.support()
    (l_a, exps_a), (l_b, exps_b) = a_side.exponents[:2], b_side.exponents[:2]
    tables = exps_a is not None and exps_b is not None
    for g in a_side.group.elements():
        for h in b_side.group.elements():
            hinv = b_side.acting(h)
            mixed = g * h_ord + hinv
            for (x, y) in support:
                hx, hy = xh.apply(hinv, x), yh.apply(hinv, y)
                gx, gy = xg.apply(g, x), yg.apply(g, y)
                b_left = f.b.get((h, x, y))
                a_left = f.a.get((g, hx, hy))
                a_right = f.a.get((g, x, y))
                b_right = f.b.get((h, gx, gy))
                if None in (b_left, a_left, a_right, b_right):
                    log.add("hexagon", (g, h, x, y), "missing entry", "present")
                    continue
                u = om_x.value((g, hinv, x_set.apply(mixed, x)))
                v = om_y.value((g, hinv, y_set.apply(mixed, y)))
                if tables and _hexagon_on_tables(
                        exps_b[(h, x, y)], exps_a[(g, hx, hy)], l_b, l_a, u,
                        exps_a[(g, x, y)], exps_b[(h, gx, gy)], v):
                    continue
                try:
                    lhs = (b_left @ a_left).scale(u)
                    rhs = (a_right @ b_right).scale(v)
                except ShapeMismatch:  # m is not invariant
                    log.add("hexagon", (g, h, x, y),
                            f"{a_left.nrows}x{a_left.ncols} and "
                            f"{b_right.nrows}x{b_right.ncols} moved blocks",
                            f"{b_left.nrows}x{b_left.ncols}")
                    continue
                if lhs != rhs:
                    log.add("hexagon", (g, h, x, y), lhs, rhs)
    return log.report(checked + a_side.group.order * h_ord * len(support))


def bimodfun_to_deligne(f: BimoduleFunctorData) -> ModuleFunctorData:
    """The product-group functor with A~_{(g,h),x,y} = A_g B_{h^-1, g.x, g.y}."""
    src = bimod_to_deligne(f.source)
    tgt = bimod_to_deligne(f.target)
    g_grp, h_grp = f.source.left.group, f.source.right.group
    xg, yg = f.source.x_g, f.target.x_g
    a = {}
    for g in g_grp.elements():
        for h in h_grp.elements():
            hinv = h_grp.inv(h)
            for (x, y) in f.support():
                gx, gy = xg.apply(g, x), yg.apply(g, y)
                a[(g * h_grp.order + h, x, y)] = \
                    f.a[(g, x, y)] @ f.b[(hinv, gx, gy)]
    out = ModuleFunctorData(src, tgt, f._mult_rows(), a)
    validate_modfun(out).raise_if_failed("product functor")
    return out


def deligne_to_bimodfun(k: ModuleFunctorData, source: BimoduleCategoryData,
                        target: BimoduleCategoryData) -> BimoduleFunctorData:
    """Split a product-group functor into bimodule data: A from the (g, 1)
    slices, B_h from the (1, h^-1) slices."""
    if bimod_to_deligne(source) != k.source or bimod_to_deligne(target) != k.target:
        raise SourceTargetMismatch(
            "functor endpoints do not match the given bimodule categories")
    g_grp, h_grp = source.left.group, source.right.group
    a = {}
    b = {}
    for (x, y) in k.support():
        for g in g_grp.elements():
            a[(g, x, y)] = k.a[(g * h_grp.order + h_grp.identity, x, y)]
        for h in h_grp.elements():
            b[(h, x, y)] = k.a[(g_grp.identity * h_grp.order + h_grp.inv(h), x, y)]
    out = BimoduleFunctorData(source, target, k._mult_rows(), a, b)
    validate_bimodfun(out).raise_if_failed("bimodule functor")
    return out

"""Module and bimodule functors in matrix form.

A functor between module categories M(X, Psi_X) -> M(Y, Psi_Y) is stored as a
multiplicity table m over X x Y together with, for every group element and
every supported pair, an invertible square matrix A satisfying the twisted
composition rule.  Natural transformations are matrix families intertwining
the A data; hom spaces are computed exactly over the cyclotomic field.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._matrix import SMatrix, matrix_rank, nullspace_basis
from .algebra import FiniteGroup, orbits, product_gset
from .cohomology import UnitCochain, differential
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


def _cochain_unit(cochain: UnitCochain, *args: int) -> Unit:
    return Unit(cochain.root_order, int(cochain.exponents[args]))


def _check_tables(group: FiniteGroup, x_size: int, y_size: int,
                  mult: np.ndarray, a: dict, slot: str) -> None:
    if mult.shape != (x_size, y_size):
        raise ShapeMismatch("multiplicity table has the wrong shape")
    if mult.min(initial=0) < 0:
        raise ShapeMismatch("multiplicities must be natural numbers")
    support = {(int(x), int(y)) for x, y in zip(*np.nonzero(mult))}
    keys = {(g, x, y) for g in group.elements() for (x, y) in support}
    if set(a) != keys:
        raise ShapeMismatch(
            f"{slot} table keys must be exactly (g, x, y) over the support")
    for (g, x, y), mat in a.items():
        if not isinstance(mat, SMatrix):
            raise ShapeMismatch(f"{slot} entries must be SMatrix values")
        n = int(mult[x, y])
        if (mat.nrows, mat.ncols) != (n, n):
            raise ShapeMismatch(
                f"{slot}[{(g, x, y)}] must be {n}x{n}, got "
                f"{mat.nrows}x{mat.ncols}")


@dataclass(frozen=True, eq=False)
class ModuleFunctorData:
    """Matrix presentation (m, A) of a module functor."""

    source: ModuleCategoryData
    target: ModuleCategoryData
    mult: np.ndarray
    a: dict

    def __post_init__(self):
        if self.source.fusion != self.target.fusion:
            raise SourceTargetMismatch(
                "source and target are over different fusion data")
        mult = np.array(self.mult, dtype=np.int64)
        mult.setflags(write=False)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "a", dict(self.a))
        _check_tables(self.group, self.source.X.size, self.target.X.size,
                      mult, self.a, "A")

    @property
    def group(self) -> FiniteGroup:
        return self.source.fusion.group

    def support(self) -> list[tuple[int, int]]:
        return [(int(x), int(y)) for x, y in zip(*np.nonzero(self.mult))]

    def __eq__(self, other):
        if not isinstance(other, ModuleFunctorData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and np.array_equal(self.mult, other.mult) and self.a == other.a)


def _psi_unit(data: ModuleCategoryData, g: int, h: int, x: int) -> Unit:
    return _cochain_unit(data.psi, g, h, x)


def _mult_invariance(mult: np.ndarray, act_x: np.ndarray, act_y: np.ndarray,
                     condition: str, log: FailureLog) -> int:
    moved = mult[act_x[:, :, None], act_y[:, None, :]]
    for pos in np.argwhere(moved != mult[None, :, :]):
        tup = tuple(int(v) for v in pos)
        log.add(condition, tup, int(moved[tup]), int(mult[tup[1:]]))
    return moved.size


def validate_modfun(f: ModuleFunctorData) -> ValidationReport:
    """Check multiplicity invariance, A_1 = id, invertibility and the
    composition rule A_{gh} = Psi_X Psi_Y^-1 A_h A_g(shifted)."""
    grp = f.group
    act_x, act_y = f.source.X.action, f.target.X.action
    log = FailureLog()
    checked = _mult_invariance(f.mult, act_x, act_y, "mult_invariant", log)

    support = f.support()
    ident = grp.identity
    for (x, y) in support:
        checked += 1
        mat = f.a[(ident, x, y)]
        if not mat.is_identity():
            log.add("a_identity", (ident, x, y), mat, "identity")

    for key, mat in f.a.items():
        checked += 1
        if mat.inverse() is None:
            log.add("a_invertible", key, mat, "invertible")

    for g in grp.elements():
        for h in grp.elements():
            gh = grp.op(g, h)
            for (x, y) in support:
                checked += 1
                hx, hy = act_x[h, x], act_y[h, y]
                lhs = f.a.get((gh, x, y))
                right = f.a.get((g, hx, hy))
                mid = f.a.get((h, x, y))
                if lhs is None or right is None or mid is None:
                    log.add("cond_A", (g, h, x, y), "missing entry", "present")
                    continue
                u = (_psi_unit(f.source, g, h, act_x[gh, x])
                     * _psi_unit(f.target, g, h, act_y[gh, y]).inverse())
                rhs = (mid @ right).scale(u)
                if lhs != rhs:
                    log.add("cond_A", (g, h, x, y), lhs, rhs)
    return log.report(checked)


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
        pairs = {p for p in f.support() if h.mult[p] > 0}
        if set(self.m) != pairs:
            raise ShapeMismatch(
                "M table keys must be the pairs supported by both functors")
        for (x, y), mat in self.m.items():
            if not isinstance(mat, SMatrix):
                raise ShapeMismatch("M entries must be SMatrix values")
            want = (int(h.mult[x, y]), int(f.mult[x, y]))
            if (mat.nrows, mat.ncols) != want:
                raise ShapeMismatch(f"M[{(x, y)}] must be {want[0]}x{want[1]}")

    def __eq__(self, other):
        if not isinstance(other, NatTransData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.m == other.m)


def validate_nat_trans(eta: NatTransData) -> ValidationReport:
    """Check M_{x,y} A^F_{g,x,y} = A^H_{g,x,y} M_{g.x, g.y} on all entries."""
    f, h = eta.source, eta.target
    grp = f.group
    act_x, act_y = f.source.X.action, f.target.X.action
    log = FailureLog()
    checked = 0
    for g in grp.elements():
        for (x, y), mat in eta.m.items():
            checked += 1
            moved = eta.m.get((int(act_x[g, x]), int(act_y[g, y])))
            if moved is None:
                log.add("cond_M", (g, x, y), "missing entry", "present")
                continue
            lhs = mat @ f.a[(g, x, y)]
            rhs = h.a[(g, x, y)] @ moved
            if lhs != rhs:
                log.add("cond_M", (g, x, y), lhs, rhs)
    return log.report(checked)


def identity_functor(data: ModuleCategoryData) -> ModuleFunctorData:
    """The identity functor: m the Kronecker delta, every A the 1x1 identity."""
    size = data.X.size
    mult = np.eye(size, dtype=np.int64)
    a = {(g, x, x): SMatrix.identity(1)
         for g in data.fusion.group.elements() for x in range(size)}
    return ModuleFunctorData(data, data, mult, a)


def functor_from_equivariant(f, lam: UnitCochain, source: ModuleCategoryData,
                             target: ModuleCategoryData) -> ModuleFunctorData:
    """The graph functor of an equivariant map f with 1-cochain Lambda.

    Requires d(Lambda) = Psi_X^-1 * (Psi_Y pulled back along f); the functor
    has m_{x,y} = delta_{f(x),y} and A_{g,x,f(x)} = [Lambda(g, g.x)].
    """
    f = np.asarray(f, dtype=np.int64)
    x_set, y_set = source.X, target.X
    grp = source.fusion.group
    if f.shape != (x_set.size,) or f.min(initial=0) < 0 \
            or f.max(initial=0) >= y_set.size:
        raise NotEquivariant("map table has the wrong shape or range")
    if not np.array_equal(y_set.action[:, f], f[x_set.action]):
        raise NotEquivariant("map does not commute with the group action")
    if lam.degree != 1 or lam.carrier != x_set:
        raise LambdaConditionFailed("Lambda must be a degree-1 cochain on X")
    pulled = UnitCochain(2, x_set, target.psi.root_order,
                         target.psi.exponents[..., f])
    if differential(lam) != source.psi.inverse() * pulled:
        raise LambdaConditionFailed(
            "d(Lambda) does not match Psi_X^-1 * (Psi_Y o f)")
    mult = np.zeros((x_set.size, y_set.size), dtype=np.int64)
    mult[np.arange(x_set.size), f] = 1
    a = {}
    for g in grp.elements():
        for x in range(x_set.size):
            u = _cochain_unit(lam, g, int(x_set.action[g, x]))
            a[(g, x, int(f[x]))] = SMatrix.from_unit(u)
    return ModuleFunctorData(source, target, mult, a)


def action_functor(data: ModuleCategoryData, base: int) -> ModuleFunctorData:
    """The functor regular -> M(X, Psi) acting on a chosen base point.

    f(z) = z . base with Lambda(g, z) = Psi(g, g^-1 z, z . base); the cochain
    condition follows from the twisted cocycle identity for Psi.
    """
    grp = data.fusion.group
    reg = regular_module_category(data.fusion)
    z = np.arange(grp.order)
    f = data.X.action[z, base]
    g_idx = np.repeat(z, grp.order).reshape(grp.order, grp.order)
    zinv = grp.table[grp.inverse[g_idx], z[None, :]]
    lam = UnitCochain(1, reg.X, data.psi.root_order,
                      data.psi.exponents[g_idx, zinv, f[None, :].repeat(grp.order, 0)])
    return functor_from_equivariant(f, lam, reg, data)


def _hom_system(f: ModuleFunctorData, h: ModuleFunctorData):
    """Unknown layout and cond_M rows for Nat(F, H), over the scalar field."""
    if f.source != h.source or f.target != h.target:
        raise SourceTargetMismatch(
            "hom spaces need functors with equal source and target")
    pairs = sorted(p for p in f.support() if h.mult[p] > 0)
    offsets = {}
    total = 0
    for p in pairs:
        offsets[p] = total
        total += int(h.mult[p]) * int(f.mult[p])

    def slot(p, i, j):
        return offsets[p] + i * int(f.mult[p]) + j

    grp = f.group
    act_x, act_y = f.source.X.action, f.target.X.action
    rows: list[list[Scalar]] = []
    for g in grp.elements():
        for (x, y) in pairs:
            gp = (int(act_x[g, x]), int(act_y[g, y]))
            af = f.a[(g, x, y)]
            ah = h.a[(g, x, y)]
            mh, mf = int(h.mult[x, y]), int(f.mult[x, y])
            for i in range(mh):
                for j in range(mf):
                    row = [Scalar.zero()] * total
                    for k in range(mf):
                        row[slot((x, y), i, k)] += af.entry(k, j)
                    for k in range(mh):
                        row[slot(gp, k, j)] -= ah.entry(i, k)
                    rows.append(row)
    return pairs, offsets, total, rows


def hom_dimension(f: ModuleFunctorData, h: ModuleFunctorData) -> int:
    """Dimension of the space of natural transformations F -> H."""
    _, _, total, rows = _hom_system(f, h)
    if total == 0:
        return 0
    return total - matrix_rank(rows)


def hom_basis(f: ModuleFunctorData, h: ModuleFunctorData) -> list[NatTransData]:
    """A basis of Nat(F, H) as natural-transformation data."""
    pairs, offsets, total, rows = _hom_system(f, h)
    if total == 0:
        return []
    out = []
    for vec in nullspace_basis(rows, total):
        m = {}
        for p in pairs:
            mh, mf = int(h.mult[p]), int(f.mult[p])
            base = offsets[p]
            m[p] = SMatrix([[vec[base + i * mf + j] for j in range(mf)]
                            for i in range(mh)])
        out.append(NatTransData(f, h, m))
    return out


def invertible_hom(f: ModuleFunctorData,
                   h: ModuleFunctorData) -> Optional[NatTransData]:
    """An invertible natural transformation F -> H, or None.

    Tries basis elements first, then a deterministic sequence of small
    integer combinations (a generic combination is invertible whenever an
    invertible element exists).
    """
    if not np.array_equal(f.mult, h.mult):
        return None
    basis = hom_basis(f, h)
    if not basis:
        return None
    pairs = sorted(basis[0].m)

    def all_invertible(m):
        return all(mat.inverse() is not None for mat in m.values())

    for eta in basis:
        if all_invertible(eta.m):
            return eta
    rng = np.random.default_rng(0)
    for _ in range(64):
        coeffs = [int(c) for c in rng.integers(-3, 4, size=len(basis))]
        if not any(coeffs):
            continue
        m = {}
        for p in pairs:
            acc = basis[0].m[p].scale(Scalar.from_rational(coeffs[0]))
            for c, eta in zip(coeffs[1:], basis[1:]):
                acc = acc + eta.m[p].scale(Scalar.from_rational(c))
            m[p] = acc
        if all_invertible(m):
            return NatTransData(f, h, m)
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
    mult = sum(np.asarray(f.mult) for f in functors)
    a = {}
    for g in first.group.elements():
        for x, y in zip(*np.nonzero(mult)):
            x, y = int(x), int(y)
            blocks = [f.a[(g, x, y)] for f in functors if f.mult[x, y] > 0]
            a[(g, x, y)] = SMatrix.block_diag(blocks)
    return ModuleFunctorData(first.source, first.target, mult, a)


def orbit_decompose(f: ModuleFunctorData) -> dict:
    """Single-orbit blocks of F, keyed by the supporting orbit of X x Y.

    Keys are tuples of (x, y) pairs; only orbits meeting the support appear.
    The direct sum of the values equals F up to block ordering.
    """
    y_size = f.target.X.size
    prod = product_gset(f.source.X, f.target.X)
    out = {}
    for orbit in orbits(prod):
        pairs = tuple((p // y_size, p % y_size) for p in orbit)
        if f.mult[pairs[0]] == 0:
            continue
        mult = np.zeros_like(f.mult)
        for p in pairs:
            mult[p] = f.mult[p]
        a = {key: mat for key, mat in f.a.items() if (key[1], key[2]) in set(pairs)}
        out[pairs] = ModuleFunctorData(f.source, f.target, mult, a)
    return out


def adjoint(f: ModuleFunctorData) -> ModuleFunctorData:
    """The (two-sided) adjoint functor, with transposed multiplicities and
    A'_{g,y,x} = Psi_X(g,g^-1,g.x) Psi_Y^-1(g,g^-1,g.y) (A_{g^-1,g.x,g.y})^T."""
    grp = f.group
    act_x, act_y = f.source.X.action, f.target.X.action
    mult = np.asarray(f.mult).T
    a = {}
    for g in grp.elements():
        ginv = grp.inv(g)
        for (x, y) in f.support():
            gx, gy = int(act_x[g, x]), int(act_y[g, y])
            u = (_psi_unit(f.source, g, ginv, gx)
                 * _psi_unit(f.target, g, ginv, gy).inverse())
            a[(g, y, x)] = f.a[(ginv, gx, gy)].transpose().scale(u)
    out = ModuleFunctorData(f.target, f.source, mult, a)
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
    act_x, act_y = source.X.action, target.X.action
    y_size = target.X.size
    prod = product_gset(source.X, target.X)
    out = []
    for orbit in orbits(prod):
        pairs = tuple((p // y_size, p % y_size) for p in orbit)
        r = len(pairs)
        x0, y0 = pairs[0]
        gamma = Unit.one()
        for t in range(1, n):
            gamma = gamma * _psi_unit(source, gen, powers[t],
                                      int(act_x[powers[t + 1], x0])).inverse()
            gamma = gamma * _psi_unit(target, gen, powers[t],
                                      int(act_y[powers[t + 1], y0]))
        roots = unit_roots(gamma, n)
        mult = np.zeros((source.X.size, y_size), dtype=np.int64)
        for p in pairs:
            mult[p] = 1
        for j in range(n // r):
            xi = roots[j]
            a = {}
            for k in range(n):
                for (x, y) in pairs:
                    val = xi ** k
                    for t in range(1, k):
                        val = val * _psi_unit(source, gen, powers[t],
                                              int(act_x[powers[t + 1], x]))
                        val = val * _psi_unit(target, gen, powers[t],
                                              int(act_y[powers[t + 1], y])).inverse()
                    a[(powers[k], x, y)] = SMatrix.from_unit(val)
            functor = ModuleFunctorData(source, target, mult, a)
            out.append(SimpleFunctorClass(pairs, xi, functor))
    return out


def count_simple_cyclic(source: ModuleCategoryData,
                        target: ModuleCategoryData) -> int:
    """Sum of n/|orbit| over the diagonal orbits of X x Y."""
    grp = source.fusion.group
    _cyclic_generator(grp)
    prod = product_gset(source.X, target.X)
    return sum(grp.order // len(orbit) for orbit in orbits(prod))


# ---------------------------------------------------------------------------
# bimodule functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BimoduleFunctorData:
    """Module-functor data plus the right-action matrices B over H."""

    source: BimoduleCategoryData
    target: BimoduleCategoryData
    mult: np.ndarray
    a: dict
    b: dict

    def __post_init__(self):
        if (self.source.left, self.source.right) != \
                (self.target.left, self.target.right):
            raise SourceTargetMismatch(
                "source and target are over different fusion data pairs")
        mult = np.array(self.mult, dtype=np.int64)
        mult.setflags(write=False)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "a", dict(self.a))
        object.__setattr__(self, "b", dict(self.b))
        _check_tables(self.source.left.group, self.source.X.size,
                      self.target.X.size, mult, self.a, "A")
        _check_tables(self.source.right.group, self.source.X.size,
                      self.target.X.size, mult, self.b, "B")

    def support(self) -> list[tuple[int, int]]:
        return [(int(x), int(y)) for x, y in zip(*np.nonzero(self.mult))]

    def __eq__(self, other):
        if not isinstance(other, BimoduleFunctorData):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and np.array_equal(self.mult, other.mult)
                and self.a == other.a and self.b == other.b)


def validate_bimodfun(f: BimoduleFunctorData) -> ValidationReport:
    """One-sided conditions for A and B plus the mixed hexagon."""
    left = validate_modfun(ModuleFunctorData(
        ModuleCategoryData(f.source.left, f.source.x_g, f.source.psi),
        ModuleCategoryData(f.target.left, f.target.x_g, f.target.psi),
        f.mult, f.a))
    log = FailureLog()
    log.merge(left)

    h_grp = f.source.right.group
    act_xh, act_yh = f.source.x_h.action, f.target.x_h.action
    support = f.support()

    checked = left.checked + _mult_invariance(f.mult, act_xh, act_yh,
                                              "mult_invariant_h", log)

    for (x, y) in support:
        checked += 1
        mat = f.b[(h_grp.identity, x, y)]
        if not mat.is_identity():
            log.add("b_identity", (h_grp.identity, x, y), mat, "identity")
    for key, mat in f.b.items():
        checked += 1
        if mat.inverse() is None:
            log.add("b_invertible", key, mat, "invertible")

    phi_x, phi_y = f.source.phi, f.target.phi
    for g in h_grp.elements():
        ginv = h_grp.inv(g)
        for h in h_grp.elements():
            gh = h_grp.op(g, h)
            ghinv = h_grp.inv(gh)
            for (x, y) in support:
                checked += 1
                lhs = f.b.get((gh, x, y))
                first = f.b.get((g, x, y))
                second = f.b.get((h, int(act_xh[ginv, x]), int(act_yh[ginv, y])))
                if lhs is None or first is None or second is None:
                    log.add("b_pentagon", (g, h, x, y), "missing entry",
                            "present")
                    continue
                u = (_cochain_unit(phi_x, h_grp.inv(h), ginv,
                                   int(act_xh[ghinv, x]))
                     * _cochain_unit(phi_y, h_grp.inv(h), ginv,
                                     int(act_yh[ghinv, y])).inverse())
                rhs = (first @ second).scale(u)
                if lhs != rhs:
                    log.add("b_pentagon", (g, h, x, y), lhs, rhs)

    g_grp = f.source.left.group
    act_x, act_y = f.source.X.action, f.target.X.action
    act_xg, act_yg = f.source.x_g.action, f.target.x_g.action
    om_x, om_y = f.source.omega_mid, f.target.omega_mid
    h_ord = h_grp.order
    for g in g_grp.elements():
        for h in h_grp.elements():
            hinv = h_grp.inv(h)
            mixed = g * h_ord + hinv
            for (x, y) in support:
                checked += 1
                hx, hy = int(act_xh[hinv, x]), int(act_yh[hinv, y])
                gx, gy = int(act_xg[g, x]), int(act_yg[g, y])
                b_left = f.b.get((h, x, y))
                a_left = f.a.get((g, hx, hy))
                a_right = f.a.get((g, x, y))
                b_right = f.b.get((h, gx, gy))
                if None in (b_left, a_left, a_right, b_right):
                    log.add("hexagon", (g, h, x, y), "missing entry", "present")
                    continue
                lhs = (b_left @ a_left).scale(
                    _cochain_unit(om_x, g, hinv, int(act_x[mixed, x])))
                rhs = (a_right @ b_right).scale(
                    _cochain_unit(om_y, g, hinv, int(act_y[mixed, y])))
                if lhs != rhs:
                    log.add("hexagon", (g, h, x, y), lhs, rhs)
    return log.report(checked)


def bimodfun_to_deligne(f: BimoduleFunctorData) -> ModuleFunctorData:
    """The product-group functor with A~_{(g,h),x,y} = A_g B_{h^-1, g.x, g.y}."""
    src = bimod_to_deligne(f.source)
    tgt = bimod_to_deligne(f.target)
    g_grp, h_grp = f.source.left.group, f.source.right.group
    act_xg, act_yg = f.source.x_g.action, f.target.x_g.action
    a = {}
    for g in g_grp.elements():
        for h in h_grp.elements():
            hinv = h_grp.inv(h)
            for (x, y) in f.support():
                gx, gy = int(act_xg[g, x]), int(act_yg[g, y])
                a[(g * h_grp.order + h, x, y)] = \
                    f.a[(g, x, y)] @ f.b[(hinv, gx, gy)]
    out = ModuleFunctorData(src, tgt, f.mult, a)
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
    out = BimoduleFunctorData(source, target, k.mult, a, b)
    validate_bimodfun(out).raise_if_failed("bimodule functor")
    return out

"""Twisted group cochains with root-of-unity values.

A degree-n cochain stores an integer exponent table e(g_1..g_n, x) mod N,
representing the function (g_1,...,g_n) -> zeta_N^{e(...)}(x) with values in
Map(X, mu_N).  The table is a flat tuple of Python ints in row-major order
(``exponents_flat``, argument slots first and the carrier point last) next
to its ``shape``; ``exponents`` is a read-only ndarray view of it, built on
first access.  The differential is an alternating Z-linear combination of
index maps, precomputed once per (group, carrier, degree) as flat index
tuples, so every cohomological condition becomes an exact linear solve
modulo N through the Smith normal form, which is likewise computed once per
(group, carrier, degree).
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from itertools import chain
from math import lcm, prod
from operator import add, itemgetter, sub
from typing import Optional, Sequence

from .algebra import (
    FiniteGroup,
    GSet,
    SNFResult,
    Subgroup,
    _array_view,
    _flatten,
    direct_product,
    is_transitive,
    point_gset,
    smith_normal_form,
    solve_mod,
)
from .errors import (
    CarrierNotCosetSpace,
    DegreeMismatch,
    NotNormalizable,
)
from .scalar import Unit

__all__ = [
    "UnitCochain",
    "differential",
    "differential_matrix",
    "is_cocycle",
    "is_coboundary",
    "cohomologous",
    "normalize",
    "omega_cyclic",
    "shapiro_restrict",
    "inflate",
    "deligne_omega",
    "omega_bar",
]


@lru_cache(maxsize=256)
def _identity_positions(shape: tuple[int, ...],
                        identities: tuple[int, ...]) -> tuple[int, ...]:
    """The flat row-major positions of a table of ``shape`` whose index on
    some axis i is identities[i], in increasing order; cached, like the
    differential's terms, for at most 256 (shape, identities) pairs."""
    out = set()
    for axis, e in enumerate(identities):
        stride = prod(shape[axis + 1:])
        for start in range(e * stride, prod(shape), shape[axis] * stride):
            out.update(range(start, start + stride))
    return tuple(sorted(out))


def _unravel(pos: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The index tuple of a flat row-major position in a table of shape."""
    out = []
    for dim in reversed(shape):
        pos, r = divmod(pos, dim)
        out.append(r)
    return tuple(reversed(out))


class UnitCochain:
    """An n-cochain with values in Map(X, mu_N), stored as exponents mod N.

    The exponent table has one axis per argument slot plus a final carrier
    axis, ``shape`` = (|G_1|, ..., |G_n|, |X|), and is stored flat in
    row-major order as ``exponents_flat``; ``exponents`` is its read-only
    ndarray view.  The constructor takes the table as an ndarray, nested
    lists or nested tuples; :meth:`from_flat` takes the flat sequence.
    Slots normally all range over carrier.group; mixed-slot cochains (used
    for two-sided structures) pass ``slot_groups`` explicitly.
    """

    __slots__ = ("degree", "carrier", "root_order", "exponents_flat", "shape",
                 "slot_groups", "_views")

    def __init__(self, degree: int, carrier: GSet, root_order: int, exponents,
                 slot_groups: Optional[tuple[FiniteGroup, ...]] = None) -> None:
        flat, shape = _flatten(exponents)
        self._init(degree, carrier, root_order, flat, slot_groups, shape)

    @classmethod
    def from_flat(cls, degree: int, carrier: GSet, root_order: int,
                  exponents: Sequence[int],
                  slot_groups: Optional[tuple[FiniteGroup, ...]] = None
                  ) -> "UnitCochain":
        """The cochain whose exponent ints are given flat, in row-major order."""
        out = object.__new__(cls)
        out._init(degree, carrier, root_order, exponents, slot_groups, None)
        return out

    def _init(self, degree, carrier, root_order, flat, slot_groups,
              shape) -> None:
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if root_order < 1:
            raise ValueError("root order must be >= 1")
        if slot_groups is None:
            slot_groups = (carrier.group,) * degree
        slot_groups = tuple(slot_groups)
        if len(slot_groups) != degree:
            raise ValueError("one slot group per degree required")
        want = tuple(g.order for g in slot_groups) + (carrier.size,)
        if shape is None and len(flat) != prod(want):
            raise ValueError(f"exponent table has {len(flat)} entries, "
                             f"expected {prod(want)}")
        if shape is not None and shape != want:
            raise ValueError(f"exponent table has shape {shape}, expected {want}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "root_order", root_order)
        object.__setattr__(self, "exponents_flat",
                           tuple([e % root_order for e in flat]))
        object.__setattr__(self, "shape", want)
        object.__setattr__(self, "slot_groups", slot_groups)
        object.__setattr__(self, "_views", {})

    def __setattr__(self, name, value):
        raise AttributeError("UnitCochain is immutable")

    @property
    def exponents(self):
        """The exponent table as a read-only ndarray of ``shape``."""
        return _array_view(self._views, "exponents", self.exponents_flat,
                           self.shape)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def trivial(cls, degree: int, carrier: GSet, root_order: int,
                slot_groups: Optional[tuple[FiniteGroup, ...]] = None) -> "UnitCochain":
        groups = slot_groups if slot_groups is not None else (carrier.group,) * degree
        size = prod(g.order for g in groups) * carrier.size
        return cls.from_flat(degree, carrier, root_order, (0,) * size,
                             slot_groups=groups)

    # -- basic structure -----------------------------------------------------

    @property
    def group(self) -> FiniteGroup:
        return self.carrier.group

    @property
    def normalized(self) -> bool:
        """True when every entry with an identity argument is trivial."""
        flat = self.exponents_flat
        return not any(flat[p] for p in _identity_positions(
            self.shape, tuple(g.identity for g in self.slot_groups)))

    def is_trivial(self) -> bool:
        return not any(self.exponents_flat)

    def _index(self, args: Sequence[int]) -> int:
        """Flat position of (g_1..g_n, x); on a point carrier x may be left
        out."""
        if len(args) != self.degree + 1 and not (
                len(args) == self.degree and self.carrier.size == 1):
            raise ValueError("expected one index per slot plus carrier point")
        idx = 0
        for a, dim in zip(args, self.shape):
            if not 0 <= a < dim:
                raise IndexError(f"index {a} is out of range for an axis "
                                 f"of size {dim}")
            idx = idx * dim + a
        return idx

    def exponent(self, args: Sequence[int]) -> int:
        return self.exponents_flat[self._index(args)]

    def value(self, args: Sequence[int]) -> Unit:
        return Unit(self.root_order, self.exponents_flat[self._index(args)])

    def _same_shape(self, other: "UnitCochain") -> bool:
        return (self.degree == other.degree
                and self.carrier == other.carrier
                and self.slot_groups == other.slot_groups)

    def _scaled(self, root_order: int) -> list[int]:
        """The exponents read at a multiple of the root order."""
        scale = root_order // self.root_order
        return [e * scale for e in self.exponents_flat]

    def _like(self, root_order: int, flat: Sequence[int]) -> "UnitCochain":
        return UnitCochain.from_flat(self.degree, self.carrier, root_order,
                                     flat, slot_groups=self.slot_groups)

    def with_root_order(self, root_order: int) -> "UnitCochain":
        """The same cochain viewed in mu_root_order (a multiple of the root)."""
        if root_order % self.root_order != 0:
            raise ValueError("new root order must be a multiple of the old")
        return self._like(root_order, self._scaled(root_order))

    # -- pointwise group structure --------------------------------------------

    def __mul__(self, other: "UnitCochain") -> "UnitCochain":
        if not isinstance(other, UnitCochain):
            return NotImplemented
        if not self._same_shape(other):
            raise DegreeMismatch("cochains have different shapes")
        n = lcm(self.root_order, other.root_order)
        return self._like(n, [a + b for a, b in zip(self._scaled(n),
                                                     other._scaled(n))])

    def inverse(self) -> "UnitCochain":
        return self._like(self.root_order, [-e for e in self.exponents_flat])

    def __pow__(self, k: int) -> "UnitCochain":
        k = int(k)
        return self._like(self.root_order, [e * k for e in self.exponents_flat])

    def __eq__(self, other):
        if not isinstance(other, UnitCochain):
            return NotImplemented
        if not self._same_shape(other):
            return False
        n = lcm(self.root_order, other.root_order)
        return self._scaled(n) == other._scaled(n)

    def __repr__(self):
        return (f"UnitCochain(degree={self.degree}, root_order={self.root_order}, "
                f"carrier_size={self.carrier.size})")

    def to_json(self) -> dict:
        nested = list(self.exponents_flat)
        for dim in reversed(self.shape[1:]):
            nested = [nested[i:i + dim] for i in range(0, len(nested), dim)]
        return {
            "degree": self.degree,
            "root_order": self.root_order,
            "exponents": nested,
        }


def _pull_back(eta: UnitCochain, f: Sequence[int],
               carrier: GSet) -> UnitCochain:
    """The cochain (g_1..g_n, x) -> eta(g_1..g_n, f(x)) on ``carrier``, for a
    map f from carrier's points to eta's carrier points."""
    e, size = eta.exponents_flat, eta.carrier.size
    exps = [e[start + int(y)] for start in range(0, len(e), size) for y in f]
    return UnitCochain.from_flat(eta.degree, carrier, eta.root_order, exps,
                                 slot_groups=eta.slot_groups)


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def _gather(index: Sequence[int]):
    """A function returning the entries of a flat table at index, as a tuple."""
    if len(index) == 1:
        i, = index
        return lambda flat: (flat[i],)
    return itemgetter(*index)


def _concat(parts) -> list[int]:
    return list(chain.from_iterable(parts))


@lru_cache(maxsize=256)
def _diff_terms(group: FiniteGroup, carrier: GSet, degree: int):
    """The terms of d on degree-`degree` exponent tables.

    Each term is (sign, index): the output entry at flat position p, for
    (g_1..g_{n+1}, x) in row-major order, reads the input entry at flat
    position index[p].  The first term uses the coefficient action
    (g . f)(x) = f(g^-1 . x); the middle terms fuse adjacent arguments; the
    last drops the final argument.  The indices are assembled from slices
    of the input positions, so every term shares their int objects.
    """
    n = degree
    m = group.order
    size = carrier.size
    tab, inv, act = group.table_flat, group.inverse_flat, carrier.action_flat
    pos = list(range(m ** n * size))     # input positions (g_1..g_n, x)
    block = len(pos)
    # e(g_2..g_{n+1}, g_1^-1 . x): one strided copy per (g_1, x)
    first = [0] * (m * block)
    for g, g_inv in enumerate(inv):
        for x in range(size):
            first[g * block + x:(g + 1) * block:size] = \
                pos[act[g_inv * size + x]::size]
    terms = [(1, tuple(first))]
    # e(g_1..g_i g_{i+1}..g_{n+1}, x): one gather per prefix (g_1..g_{i-1})
    for i in range(1, n + 1):
        tail = m ** (n - i) * size
        row = m * tail
        fuse = _gather(_concat(range(ab * tail, (ab + 1) * tail) for ab in tab))
        terms.append(((-1) ** i, tuple(_concat(
            fuse(pos[s:s + row]) for s in range(0, block, row)))))
    # e(g_1..g_n, x): one strided copy per (g_{n+1}, x)
    last = [0] * (m * block)
    for g in range(m):
        for x in range(size):
            last[g * size + x::m * size] = pos[x::size]
    terms.append(((-1) ** (n + 1), tuple(last)))
    return (m,) * (n + 1) + (size,), terms


def _differential_raw(exponents: Sequence[int], group: FiniteGroup,
                      carrier: GSet, degree: int) -> list[int]:
    """The alternating sum over Z (no reduction mod N) of flat exponents,
    as flat exponents of the next degree."""
    _, terms = _diff_terms(group, carrier, degree)
    out = _gather(terms[0][1])(exponents)
    for sign, index in terms[1:]:
        out = map(add if sign > 0 else sub, out, _gather(index)(exponents))
    return list(out)


def differential(eta: UnitCochain) -> UnitCochain:
    """d(eta): the degree n+1 cochain of the alternating-sum exponents mod N."""
    if any(g != eta.group for g in eta.slot_groups):
        raise DegreeMismatch("differential requires all slots over the carrier group")
    raw = _differential_raw(eta.exponents_flat, eta.group, eta.carrier,
                            eta.degree)
    return UnitCochain.from_flat(eta.degree + 1, eta.carrier, eta.root_order,
                                 raw)


def differential_matrix(group: FiniteGroup, carrier: GSet,
                        degree: int) -> list[list[int]]:
    """Integer matrix of d on flattened degree-`degree` exponent vectors, as
    a list of rows (the form ``smith_normal_form`` works on)."""
    shape_out, terms = _diff_terms(group, carrier, degree)
    cols = group.order ** degree * carrier.size
    mat = [[0] * cols for _ in range(prod(shape_out))]
    for sign, index in terms:
        for row, col in zip(mat, index):
            row[col] += sign
    return mat


@lru_cache(maxsize=256)
def _diff_snf(group: FiniteGroup, carrier: GSet, degree: int) -> SNFResult:
    """The Smith form of d on degree-`degree` exponent vectors, with its four
    sparse unimodular factors, as ``smith_normal_form`` returns it.

    It depends on (group, carrier, degree) only, never on a twist or a
    right-hand side, so every solve against one differential shares a single
    factorization; like ``_diff_terms``, at most 256 are kept.
    """
    return smith_normal_form(differential_matrix(group, carrier, degree))


@lru_cache(maxsize=256)
def _identity_snf(group: FiniteGroup, carrier: GSet,
                  degree: int) -> SNFResult:
    """The Smith form of the rows of d whose output arguments contain the
    identity: the subsystem ``normalize`` solves, cached like
    :func:`_diff_snf` and apart from it."""
    mat = differential_matrix(group, carrier, degree)
    return smith_normal_form([mat[p] for p in _identity_positions(
        (group.order,) * (degree + 1) + (carrier.size,),
        (group.identity,) * (degree + 1))])


# ---------------------------------------------------------------------------
# cocycle / coboundary tests
# ---------------------------------------------------------------------------

def is_cocycle(eta: UnitCochain) -> bool:
    return differential(eta).is_trivial()


def is_coboundary(eta: UnitCochain) -> bool:
    """Whether eta = d(mu) for some mu, tested in mu_{N*|G|}.

    The exponents are lifted by the factor |G| before solving; cohomology with
    circle coefficients is |G|-torsion, so obstructions that vanish in the
    circle vanish at the lifted root order.
    """
    if eta.degree == 0:
        return eta.is_trivial()
    if any(g != eta.group for g in eta.slot_groups):
        raise DegreeMismatch("coboundary test requires slots over the carrier group")
    order = eta.group.order
    lifted = eta.root_order * order
    rhs = [(e * order) % lifted for e in eta.exponents_flat]
    return solve_mod(None, rhs, lifted, snf=_diff_snf(
        eta.group, eta.carrier, eta.degree - 1)) is not None


def cohomologous(eta: UnitCochain, other: UnitCochain) -> bool:
    if not eta._same_shape(other):
        raise DegreeMismatch("cochains have different shapes")
    return is_coboundary(eta * other.inverse())


def normalize(eta: UnitCochain) -> UnitCochain:
    """A normalized cochain eta * d(mu) in the same cohomology class.

    Requires d(eta) normalized; mu is found by solving the subsystem of the
    degree n-1 differential on the coordinates that contain an identity
    argument, against that subsystem's Smith form, which is cached per
    (group, carrier, degree) (``_identity_snf``).
    Already-normalized input is returned unchanged.
    """
    if eta.normalized:
        return eta
    if any(g != eta.group for g in eta.slot_groups):
        raise DegreeMismatch("normalize requires slots over the carrier group")
    n = eta.degree
    group = eta.group
    if n == 0:
        return eta  # no argument slots: vacuously normalized (unreachable)
    rows = _identity_positions(eta.shape, (group.identity,) * n)
    rhs = [(-eta.exponents_flat[p]) % eta.root_order for p in rows]
    mu_vec = solve_mod(None, rhs, eta.root_order,
                       snf=_identity_snf(group, eta.carrier, n - 1))
    if mu_vec is None:
        raise NotNormalizable(
            "no normalizing coboundary exists at this root order")
    mu = UnitCochain.from_flat(n - 1, eta.carrier, eta.root_order, mu_vec)
    result = eta * differential(mu)
    assert result.normalized
    return result


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def omega_cyclic(n: int, s: int) -> UnitCochain:
    """The degree-3 cochain on Z/n with exponent s*k*((l+m) - (l+m mod n))/n.

    A normalized 3-cocycle at root order n; s runs over Z/n.
    """
    from .algebra import cyclic_group
    if n < 1:
        raise ValueError("n must be >= 1")
    group = cyclic_group(n)
    exps = [s * k * ((l + m) // n)
            for k, l, m in itertools.product(range(n), repeat=3)]
    return UnitCochain.from_flat(3, point_gset(group), n, exps)


def shapiro_restrict(eta: UnitCochain) -> UnitCochain:
    """Restriction to the stabilizer of the base point of a transitive carrier.

    For carrier G/H with base point index 0 this is eta_tilde(h_1..h_n) :=
    eta(h_1,...,h_n, H), a cochain of H with point carrier.
    """
    if any(g != eta.group for g in eta.slot_groups):
        raise DegreeMismatch("restriction requires slots over the carrier group")
    if not is_transitive(eta.carrier):
        raise CarrierNotCosetSpace("carrier is not a transitive G-set")
    sub = Subgroup(eta.group, eta.carrier.orbit_data[0].stabilizer)
    exps = [eta.exponent(args + (0,))
            for args in itertools.product(sub.elements, repeat=eta.degree)]
    return UnitCochain.from_flat(eta.degree, point_gset(sub.to_group()),
                                 eta.root_order, exps)


def inflate(eta: UnitCochain, carrier: GSet) -> UnitCochain:
    """Copy a point-carrier cochain across all points of a larger carrier."""
    if eta.carrier.size != 1:
        raise ValueError("inflate expects a point-carrier cochain")
    if carrier.group != eta.group:
        raise ValueError("carrier group mismatch")
    return UnitCochain.from_flat(
        eta.degree, carrier, eta.root_order,
        _per_point(eta.exponents_flat, carrier.size),
        slot_groups=eta.slot_groups)


def _per_point(values: Sequence[int], size: int) -> list[int]:
    """A point-carrier table spread over a carrier of ``size`` points: each
    entry of ``values`` repeated ``size`` times, one strided slice per
    point."""
    out = [0] * (len(values) * size)
    for x in range(size):
        out[x::size] = values
    return out


def _flipped(omega: UnitCochain) -> list[int]:
    """The point-carrier table (a, b, c) -> omega(c^-1, b^-1, a^-1)."""
    m, inv, e = omega.group.order, omega.group.inverse_flat, omega.exponents_flat
    return [e[(inv[c] * m + inv[b]) * m + inv[a]]
            for a, b, c in itertools.product(range(m), repeat=3)]


def deligne_omega(omega_g: UnitCochain, omega_h: UnitCochain) -> UnitCochain:
    """The product 3-cocycle on G x H.

    ((g1,h1),(g2,h2),(g3,h3)) -> omega_G(g1,g2,g3) * omega_H(h3^-1,h2^-1,h1^-1)^-1
    at the lcm root order, on a point carrier.
    """
    if omega_g.degree != 3 or omega_h.degree != 3:
        raise DegreeMismatch("product cocycle requires degree 3 inputs")
    if omega_g.carrier.size != 1 or omega_h.carrier.size != 1:
        raise ValueError("product cocycle requires point carriers")
    g_grp, h_grp = omega_g.group, omega_h.group
    prod_grp = direct_product(g_grp, h_grp)
    n = lcm(omega_g.root_order, omega_h.root_order)
    mg, mh = g_grp.order, h_grp.order
    eg = omega_g._scaled(n)
    eh = [e * (n // omega_h.root_order) for e in _flipped(omega_h)]
    pairs = [divmod(p, mh) for p in range(prod_grp.order)]
    exps = [eg[(g1 * mg + g2) * mg + g3] - eh[(h1 * mh + h2) * mh + h3]
            for (g1, h1), (g2, h2), (g3, h3) in itertools.product(pairs,
                                                                 repeat=3)]
    return UnitCochain.from_flat(3, point_gset(prod_grp), n, exps)


def omega_bar(omega: UnitCochain) -> UnitCochain:
    """The 3-cocycle (g,h,k) -> omega(k^-1, h^-1, g^-1)^-1 on the same group."""
    if omega.degree != 3:
        raise DegreeMismatch("expected a degree 3 cochain")
    if omega.carrier.size != 1:
        raise ValueError("expected a point carrier")
    return UnitCochain.from_flat(3, omega.carrier, omega.root_order,
                                 [-e for e in _flipped(omega)])

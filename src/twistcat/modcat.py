"""Module and bimodule categories over graded vector space categories.

A module category M(X, Psi) is a G-set X with a degree-2 cochain Psi whose
differential is the inflated inverse of omega.  Bimodule categories carry a
second one-sided structure Phi and a middle constraint Omega; they correspond
to module categories over the product group through an explicit cochain
dictionary, implemented here exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Optional

from .algebra import (
    FiniteGroup,
    GSet,
    Subgroup,
    direct_product,
    is_transitive,
    gset_isomorphisms,
    point_gset,
    product_embeddings,
    regular_gset,
    restrict_to_factors,
    solve_mod,
    _conjugates,
    _assemble,
    _check_quotient_index,
    _kernel_mod_basis,
    _kernel_mod_coords,
    _kernel_mod_scales,
    _lattice_quotient_reps,
    _unpack,
)
from .cohomology import (
    UnitCochain,
    _diff_snf,
    _differential_raw,
    _identity_positions,
    _per_point,
    _pull_back,
    _unravel,
    differential,
    normalize,
    omega_bar,
    deligne_omega,
    shapiro_restrict,
)
from .errors import NotTransitive, ShapeMismatch, ValidationError
from .fusion import FusionData
from .scalar import Unit

__all__ = [
    "ValidationReport",
    "FailureLog",
    "ModuleCategoryData",
    "IndecomposableClass",
    "ModuleTrace",
    "BimoduleCategoryData",
    "product_fusion",
    "make_modcat",
    "validate_modcat",
    "modcats_for",
    "is_indecomposable",
    "classify_indecomposable",
    "equivalent_modcats",
    "module_trace",
    "regular_module_category",
    "validate_bimodcat",
    "bimod_to_deligne",
    "deligne_to_bimod",
    "bimodule_trace",
]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an invariant sweep: instance count, the true number of
    failures, and the first few failing tuples as samples."""

    checked: int
    failed: int
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def first_failure(self) -> str:
        """``{condition} fails at {tuple}: {lhs} != {rhs}`` of the first."""
        first = self.failures[0]
        return (f"{first['condition']} fails at {first['tuple']}: "
                f"{first['lhs']} != {first['rhs']}")

    def raise_if_failed(self, what: str) -> None:
        """Raise ValidationError naming the first failing condition."""
        if not self.ok:
            raise ValidationError(f"{what} failed validation: "
                                  + self.failures[0]["condition"])


class FailureLog:
    """Failure accumulator of one sweep: counts every failure and turns only
    the first MAX_FAILURES into sample dicts ``{key, tuple, lhs, rhs}``, with
    lhs and rhs formatted by ``fmt``."""

    MAX_FAILURES = 20

    def __init__(self, key: str = "condition", fmt=str):
        self.key, self.fmt = key, fmt
        self.failed = 0
        self.samples: list[dict] = []

    def add(self, condition: str, tup: tuple, lhs, rhs) -> None:
        self.failed += 1
        if len(self.samples) < self.MAX_FAILURES:
            self.samples.append({self.key: condition, "tuple": tup,
                                 "lhs": self.fmt(lhs), "rhs": self.fmt(rhs)})

    def report(self, checked: int) -> ValidationReport:
        return ValidationReport(checked, self.failed, self.samples)


def _collect_failures(log: FailureLog, condition: str, shape: tuple[int, ...],
                      lhs, rhs, root: int, positions=None) -> None:
    """Log every failing tuple of one condition on a table of ``shape``.

    lhs and rhs are flat exponent sequences at root order ``root``, compared
    at ``positions`` (every position by default) in row-major order.
    """
    for p in range(len(lhs)) if positions is None else positions:
        if lhs[p] != rhs[p]:
            log.add(condition, _unravel(p, shape), Unit(root, lhs[p]),
                    Unit(root, rhs[p]))


@dataclass(frozen=True)
class ModuleCategoryData:
    """A G-set X with a twisting 2-cochain Psi; invariants via validate_modcat."""

    fusion: FusionData
    X: GSet
    psi: UnitCochain

    def __post_init__(self):
        grp = self.fusion.group
        if self.X.group != grp:
            raise ValueError("carrier G-set is over the wrong group")
        if (self.psi.degree != 2 or self.psi.carrier != self.X
                or self.psi.slot_groups != (grp, grp)):
            raise ValueError("psi must be a degree-2 cochain on G with carrier X")


def make_modcat(fusion: FusionData, x: GSet, psi: UnitCochain) -> ModuleCategoryData:
    """Construct and validate; raises ValidationError on the first violation."""
    data = ModuleCategoryData(fusion, x, psi)
    report = validate_modcat(data)
    if not report.ok:
        raise ValidationError(report.first_failure())
    return data


def validate_modcat(data: ModuleCategoryData) -> ValidationReport:
    """Check that Psi is normalized and satisfies d(Psi) = inflated omega^-1."""
    log = FailureLog()
    checked = _check_twisted_cocycle(log, "psi_normalized", "2cocycle",
                                     data.psi, data.fusion.omega, data.X)
    return log.report(checked)


def _check_twisted_cocycle(log: FailureLog, normalized: str, cocycle: str,
                           cochain: UnitCochain, omega: UnitCochain,
                           carrier: GSet) -> int:
    """Log where a 2-cochain on carrier is not normalized (condition
    ``normalized``) or its differential is not the inflated omega^-1
    (condition ``cocycle``); returns the number of checks."""
    e = cochain.exponents_flat
    grp = carrier.group
    id_rows = _identity_positions(cochain.shape, (grp.identity,) * 2)
    _collect_failures(log, normalized, cochain.shape, e, (0,) * len(e),
                      cochain.root_order, id_rows)

    root = lcm(cochain.root_order, omega.root_order)
    scale = root // cochain.root_order
    lhs = [(v * scale) % root
           for v in _differential_raw(e, grp, carrier, 2)]
    _collect_failures(log, cocycle, (grp.order,) * 3 + (carrier.size,),
                      lhs, _inflated_inverse(omega, carrier.size, root), root)
    return len(id_rows) + len(lhs)


def _inflated_inverse(omega: UnitCochain, size: int, root: int) -> list[int]:
    """The exponents of omega^-1 at root order ``root`` (a multiple of
    omega's), spread over the ``size`` points of a carrier: the table d(Psi)
    of a module structure on that carrier equals."""
    scale = root // omega.root_order
    return _per_point([(-w * scale) % root for w in omega.exponents_flat],
                      size)


@lru_cache(maxsize=256)
def _class_reps(group: FiniteGroup, carrier: GSet,
                lifted: int) -> tuple[tuple[int, ...], ...]:
    """One exponent vector per class of the solutions L of d(Psi) = 0 mod
    lifted on carrier, modulo the sublattice S of directions that stay
    coboundaries after a further lift by |G|; both lattices are read off the
    cached Smith forms of d1 and d2 (``cohomology._diff_snf``).

    With U1 d1 V1 = diag(e_i), e_i = 0 past the rank, and F = lifted * |G|,
    im d1 + F Z^dim is U1^-1 diag(gcd(e_i, F)) Z^dim, so S, its meet with
    |G| Z^dim divided by |G|, is U1^-1 diag(lcm(gcd(e_i, F), |G|) / |G|) Z^dim.
    [L : S] is the ratio of the two diagonals' products, checked against the
    bound before any coordinate is built; at index 1 the zero vector is the
    only representative.  The classes form a torsor independent of omega, so
    every twist at root order lifted / |G| shares them; at most 256 are kept,
    and EnumerationBoundExceeded propagates uncached.
    """
    m = group.order
    dim = m * m * carrier.size
    snf1, snf2 = _diff_snf(group, carrier, 1), _diff_snf(group, carrier, 2)
    scales = [lcm(gcd(e, lifted * m), m) // m for e in snf1.diagonal(dim)]
    index = prod(scales) // prod(_kernel_mod_scales(snf2, lifted))
    _check_quotient_index(index)
    # raises ValueError unless S lies in the solution lattice
    coords = _kernel_mod_coords(snf2, lifted, [
        _unpack(col, dim, scale)
        for col, scale in zip(snf1.u_inv_cols, scales)])
    if index == 1:
        return ((0,) * dim,)
    reps = _lattice_quotient_reps(_kernel_mod_basis(snf2, lifted), coords,
                                  dim)
    assert len(reps) == index
    return tuple(map(tuple, reps))


def modcats_for(fusion: FusionData, x: GSet) -> list[ModuleCategoryData]:
    """All module-category structures on X, one per cohomology class.

    Solves d(Psi) = inflated omega^-1 at the lifted root order N*|G| and walks
    the solution set modulo directions that stay coboundaries after a further
    lift by |G| (the finite stand-in for circle-coefficient cohomology).
    Output cochains are normalized and sorted by exponent table; the list is
    empty when no solution exists, and ShapeMismatch is raised when X is a
    G-set over another group.

    Only the particular solution depends on omega.  One Smith form of d1 and
    one of d2 per (group, carrier) (``cohomology._diff_snf``) serve this
    enumeration, ``equivalent_modcats`` and ``is_coboundary``; they, the Smith
    form of the subsystem ``normalize`` solves and the class representatives
    per lifted root order (``_class_reps``) are cached, at most 256 entries
    each, so a warm call runs no Smith normal form.
    """
    grp = fusion.group
    if x.group != grp:
        raise ShapeMismatch("carrier G-set is over the wrong group")
    omega = fusion.omega
    lifted = omega.root_order * grp.order
    particular = solve_mod(None, _inflated_inverse(omega, x.size, lifted),
                           lifted, snf=_diff_snf(grp, x, 2))
    if particular is None:
        return []

    out = []
    for rep in _class_reps(grp, x, lifted):
        exps = [a + b for a, b in zip(particular, rep)]
        psi = normalize(UnitCochain.from_flat(2, x, lifted, exps))
        data = ModuleCategoryData(fusion, x, psi)
        validate_modcat(data).raise_if_failed("enumerated structure")
        out.append(data)
    out.sort(key=lambda d: d.psi.exponents_flat)
    return out


def is_indecomposable(data: ModuleCategoryData) -> bool:
    return is_transitive(data.X)


@dataclass(frozen=True)
class IndecomposableClass:
    """Classification label of an indecomposable structure: ([H], psi|_H)."""

    subgroup: Subgroup
    psi: UnitCochain
    subgroup_class_rep: tuple[int, ...]


def classify_indecomposable(data: ModuleCategoryData) -> IndecomposableClass:
    """The stabilizer subgroup of the base point, its least conjugate and the
    restricted cochain."""
    if not is_transitive(data.X):
        raise NotTransitive("carrier G-set has more than one orbit")
    sub = Subgroup(data.X.group, data.X.orbit_data[0].stabilizer)
    return IndecomposableClass(sub, shapiro_restrict(data.psi),
                               min(_conjugates(sub)))


def equivalent_modcats(m1: ModuleCategoryData, m2: ModuleCategoryData,
                       bound: int = 8) -> Optional[tuple[tuple[int, ...], UnitCochain]]:
    """A witness (f, mu) of equivalence, or None.

    f is a G-set isomorphism X -> Y (an index tuple) and mu a 1-cochain with
    d(mu) = Psi_X * (Psi_Y o f)^-1 at the lifted root order.  Only the
    right-hand side depends on f: the Smith form of d1 is cached per
    (group, carrier) (``cohomology._diff_snf``, at most 256 entries).
    """
    if m1.fusion.group != m2.fusion.group or m1.fusion.omega != m2.fusion.omega:
        return None
    grp = m1.fusion.group
    x = m1.X
    isos = gset_isomorphisms(x, m2.X, bound=bound)
    if not isos:
        return None
    snf1 = _diff_snf(grp, x, 1)
    for f in isos:
        diff = m1.psi * _pull_back(m2.psi, f, x).inverse()
        lifted = diff.root_order * grp.order
        vec = solve_mod(None, [(e * grp.order) % lifted
                               for e in diff.exponents_flat], lifted, snf=snf1)
        if vec is None:
            continue
        mu = UnitCochain.from_flat(1, x, lifted, vec)
        assert differential(mu) == diff.with_root_order(lifted)
        return f, mu
    return None


@dataclass(frozen=True)
class ModuleTrace:
    """The dimension function of a module trace: a root of unity per point.

    For spherical input data every value is +1 or -1.
    """

    values: tuple[Unit, ...]

    def unit(self, x: int) -> Unit:
        return self.values[x]

    def sign(self, x: int) -> int:
        u = self.values[x]
        if u.root_order == 1:
            return 1
        if u.root_order == 2:
            return -1
        raise ValueError("trace value is not a sign")


def module_trace(data: ModuleCategoryData) -> Optional[ModuleTrace]:
    """The trace dims kappa~ with kappa~(g.x0) = kappa(g), or None.

    Exists exactly when kappa restricts trivially to every orbit stabilizer;
    the per-orbit scale is fixed to +1 at the minimal representative.
    """
    kap, nk = data.fusion.kappa.exponents_flat, data.fusion.kappa.root_order
    values = [None] * data.X.size
    for orbit in data.X.orbit_data:
        if any(kap[h] % nk for h in orbit.stabilizer):
            return None
        for p, g in zip(orbit.points, orbit.transversal):
            values[p] = Unit(nk, kap[g])
    return ModuleTrace(tuple(values))


def regular_module_category(fusion: FusionData) -> ModuleCategoryData:
    """Vec_G^omega as a module category over itself.

    X is the regular G-set and Psi(g, h, y) = omega(g, h, (gh)^-1 y); this
    satisfies the twisted-cocycle condition because omega does.
    """
    grp = fusion.group
    reg = regular_gset(grp)
    m = grp.order
    om = fusion.omega.exponents_flat
    exps = [om[(g * m + h) * m + grp.op(grp.inv(grp.op(g, h)), y)]
            for g, h, y in itertools.product(range(m), repeat=3)]
    psi = UnitCochain.from_flat(2, reg, fusion.omega.root_order, exps)
    return ModuleCategoryData(fusion, reg, psi)


# ---------------------------------------------------------------------------
# bimodule categories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BimoduleCategoryData:
    """Two-sided structure: X over G x H with cochains Psi, Phi and middle Omega.

    The H-action used throughout is h . x := (1, h) . x, matching the
    convention that the right action of delta^h is the left action of h^-1.
    """

    left: FusionData
    right: FusionData
    X: GSet
    psi: UnitCochain
    phi: UnitCochain
    omega_mid: UnitCochain
    x_g: GSet = field(init=False, repr=False, compare=False)
    x_h: GSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g_grp, h_grp = self.left.group, self.right.group
        for name, side in zip(("x_g", "x_h"),
                              restrict_to_factors(self.X, g_grp, h_grp)):
            object.__setattr__(self, name, side)
        if self.psi.degree != 2 or self.psi.slot_groups != (g_grp, g_grp) \
                or self.psi.carrier != self.x_g:
            raise ValueError("psi must be a degree-2 G-cochain on X as a G-set")
        if self.phi.degree != 2 or self.phi.slot_groups != (h_grp, h_grp) \
                or self.phi.carrier != self.x_h:
            raise ValueError("phi must be a degree-2 H-cochain on X as an H-set")
        if self.omega_mid.degree != 2 \
                or self.omega_mid.slot_groups != (g_grp, h_grp) \
                or self.omega_mid.carrier != self.X:
            raise ValueError("omega_mid must be a (G, H)-slot table over X")

    @cached_property
    def product_structure(self) -> ModuleCategoryData:
        """The product-group structure of :func:`bimod_to_deligne`,
        unvalidated and built once: the traces, the Biedenharn-Elliott sweep
        and the validating conversion share it."""
        g_grp, h_grp = self.left.group, self.right.group
        fusion = product_fusion(self.left, self.right)
        prod = fusion.group
        ng, nh, sz = g_grp.order, h_grp.order, self.X.size
        root = lcm(self.psi.root_order, self.phi.root_order,
                   self.omega_mid.root_order)
        psi, phi = self.psi._scaled(root), self.phi._scaled(root)
        om = self.omega_mid._scaled(root)
        act_h, inv_h = self.x_h.action_flat, h_grp.inverse_flat
        pairs = [divmod(p, nh) for p in range(prod.order)]
        e = [psi[(g1 * ng + g2) * sz
                 + act_h[h_grp.op(inv_h[h2], inv_h[h1]) * sz + x]]
             + phi[(h1 * nh + h2) * sz + x]
             + om[(g1 * nh + h2) * sz + act_h[inv_h[h1] * sz + x]]
             for (g1, h1), (g2, h2) in itertools.product(pairs, repeat=2)
             for x in range(sz)]
        return ModuleCategoryData(fusion, self.X,
                                  UnitCochain.from_flat(2, self.X, root, e))


def validate_bimodcat(data: BimoduleCategoryData) -> ValidationReport:
    """Check both one-sided twisted-cocycle conditions, the two middle
    coherence conditions, normalization of Psi and Phi, and triviality of
    Omega on identities."""
    g_grp, h_grp = data.left.group, data.right.group
    x_g, x_h = data.x_g, data.x_h
    log = FailureLog()

    # one-sided conditions
    checked = _check_twisted_cocycle(log, "psi_normalized", "psi_2cocycle",
                                     data.psi, data.left.omega, x_g)
    checked += _check_twisted_cocycle(log, "phi_normalized", "phi_2cocycle",
                                      data.phi, omega_bar(data.right.omega),
                                      x_h)

    om, n_om = data.omega_mid.exponents_flat, data.omega_mid.root_order
    ng, nh, sz = g_grp.order, h_grp.order, data.X.size
    act_g, act_h = x_g.action_flat, x_h.action_flat
    inv_g, inv_h = g_grp.inverse_flat, h_grp.inverse_flat

    def at(a: int, b: int, nb: int, x: int) -> int:  # flat (a, b, x)
        return (a * nb + b) * sz + x

    # identity slices of the middle constraint
    checked += (ng + nh) * sz
    _collect_failures(log, "omega_identities", data.omega_mid.shape, om,
                      (0,) * len(om), n_om,
                      _identity_positions(data.omega_mid.shape,
                                          (g_grp.identity, h_grp.identity)))

    psi, n_psi = data.psi.exponents_flat, data.psi.root_order
    root1 = lcm(n_om, n_psi)
    lhs1, rhs1 = [], []
    for g1, g2, h, x in itertools.product(range(ng), range(ng), range(nh),
                                          range(sz)):
        lhs1.append(((om[at(g2, h, nh, act_g[inv_g[g1] * sz + x])]
                      - om[at(g_grp.op(g1, g2), h, nh, x)]
                      + om[at(g1, h, nh, x)]) * (root1 // n_om)) % root1)
        rhs1.append(((psi[at(g1, g2, ng, x)]
                      - psi[at(g1, g2, ng, act_h[inv_h[h] * sz + x])])
                     * (root1 // n_psi)) % root1)
    checked += len(lhs1)
    _collect_failures(log, "omega_cond_1", (ng, ng, nh, sz), lhs1, rhs1, root1)

    phi, n_phi = data.phi.exponents_flat, data.phi.root_order
    root2 = lcm(n_om, n_phi)
    lhs2, rhs2 = [], []
    for g, h1, h2, x in itertools.product(range(ng), range(nh), range(nh),
                                          range(sz)):
        lhs2.append(((om[at(g, h2, nh, act_h[inv_h[h1] * sz + x])]
                      - om[at(g, h_grp.op(h1, h2), nh, x)]
                      + om[at(g, h1, nh, x)]) * (root2 // n_om)) % root2)
        rhs2.append(((phi[at(h1, h2, nh, act_g[inv_g[g] * sz + x])]
                      - phi[at(h1, h2, nh, x)]) * (root2 // n_phi)) % root2)
    checked += len(lhs2)
    _collect_failures(log, "omega_cond_2", (ng, nh, nh, sz), lhs2, rhs2, root2)

    return log.report(checked)


def product_fusion(left: FusionData, right: FusionData) -> FusionData:
    """The product category over G x H: the product 3-cocycle
    (``cohomology.deligne_omega``) and the character (g, h) ->
    kappa_G(g) * kappa_H(h)^-1, sign-valued exactly when both factors are."""
    prod = direct_product(left.group, right.group)
    nk = lcm(left.kappa.root_order, right.kappa.root_order)
    el, er = left.kappa._scaled(nk), right.kappa._scaled(nk)
    e = [el[g] - er[h] for g in left.group.elements()
         for h in right.group.elements()]
    return _assemble(FusionData, group=prod,
                     omega=deligne_omega(left.omega, right.omega),
                     kappa=UnitCochain.from_flat(1, point_gset(prod), nk, e),
                     spherical=left.spherical and right.spherical)


def bimod_to_deligne(data: BimoduleCategoryData) -> ModuleCategoryData:
    """The product-group module category M(X, Gamma') of a bimodule category.

    Gamma'((g1,h1),(g2,h2), x) =
        Psi(g1, g2, (h2^-1 h1^-1) . x) * Phi(h1, h2, x) * Omega(g1, h2, h1^-1 . x)
    over the product 3-cocycle and the character kappa_G * kappa_H^-1,
    validated: a Psi, Phi or Omega that breaks it raises ValidationError."""
    out = data.product_structure
    validate_modcat(out).raise_if_failed("product structure")
    return out


def deligne_to_bimod(data: ModuleCategoryData, left: FusionData,
                     right: FusionData) -> BimoduleCategoryData:
    """Extract (Psi, Phi, Omega) from a module category over G x H.

    The cochain is first multiplied by d(mu) with mu((g,h), x) =
    Gamma((1,h),(g,1), x), after which Gamma((1,h),(g,1), x) = 1 and the
    three restrictions satisfy the bimodule conditions.
    """
    g_grp, h_grp = left.group, right.group
    k = data.fusion.group.order
    if k != g_grp.order * h_grp.order \
            or data.fusion.group != direct_product(g_grp, h_grp):
        raise ValueError("module category is not over the product group")
    if data.fusion.omega != deligne_omega(left.omega, right.omega):
        raise ValueError("twist does not factor over the given one-sided twists")
    n = data.psi.root_order
    sz = data.X.size
    emb_g, emb_h = product_embeddings(g_grp, h_grp)

    def block(e, rows, cols) -> list[int]:  # (a, b, x) for a in rows, b in cols
        return [e[(a * k + b) * sz + x] for a in rows for b in cols
                for x in range(sz)]

    e0 = data.psi.exponents_flat
    mu = UnitCochain.from_flat(1, data.X, n, [
        e0[(emb_h[p % h_grp.order] * k + emb_g[p // h_grp.order]) * sz + x]
        for p in range(k) for x in range(sz)])
    e = (data.psi * differential(mu)).exponents_flat
    if any(block(e, emb_h, emb_g)):
        raise ValidationError("normalization failed to enforce the mixed condition")
    x_g, x_h = restrict_to_factors(data.X, g_grp, h_grp)
    psi = UnitCochain.from_flat(2, x_g, n, block(e, emb_g, emb_g))
    phi = UnitCochain.from_flat(2, x_h, n, block(e, emb_h, emb_h))
    omega_mid = UnitCochain.from_flat(2, data.X, n, block(e, emb_g, emb_h),
                                      slot_groups=(g_grp, h_grp))
    out = BimoduleCategoryData(left, right, data.X, psi, phi, omega_mid)
    validate_bimodcat(out).raise_if_failed("extracted bimodule data")
    return out


def bimodule_trace(data: BimoduleCategoryData) -> Optional[ModuleTrace]:
    """The module trace of the bimodule's product structure, unvalidated."""
    return module_trace(data.product_structure)

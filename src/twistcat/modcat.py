"""Module and bimodule categories over graded vector space categories.

A module category M(X, Psi) is a G-set X with a degree-2 cochain Psi whose
differential is the inflated inverse of omega.  Bimodule categories carry a
second one-sided structure Phi and a middle constraint Omega; they correspond
to module categories over the product group through an explicit cochain
dictionary, implemented here exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Optional

import numpy as np

from .algebra import (
    GSet,
    Subgroup,
    direct_product,
    is_transitive,
    gset_isomorphisms,
    orbits,
    product_embeddings,
    regular_gset,
    restrict_gset,
    smith_normal_form,
    solve_mod,
    stabilizer,
    _kernel_mod_basis,
    _kernel_mod_coords,
    _lattice_quotient_reps,
    _multiples_in_lattice,
)
from .cohomology import (
    UnitCochain,
    _differential_raw,
    differential,
    differential_matrix,
    normalize,
    omega_bar,
    deligne_omega,
    shapiro_restrict,
)
from .errors import NotTransitive, ValidationError
from .fusion import FusionData
from .scalar import Unit

__all__ = [
    "ValidationReport",
    "FailureLog",
    "ModuleCategoryData",
    "IndecomposableClass",
    "ModuleTrace",
    "BimoduleCategoryData",
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

    def merge(self, report: ValidationReport) -> None:
        """Take over the total and the samples of an earlier sweep's report."""
        self.failed += report.failed
        self.samples = (self.samples + report.failures)[:self.MAX_FAILURES]

    def report(self, checked: int) -> ValidationReport:
        return ValidationReport(checked, self.failed, self.samples)


def _collect_failures(log: FailureLog, condition: str, mismatch: np.ndarray,
                      lhs: np.ndarray, rhs: np.ndarray, root: int) -> None:
    """Log every failing tuple of one vectorized condition."""
    for pos in np.argwhere(mismatch):
        tup = tuple(int(v) for v in pos)
        log.add(condition, tup, Unit(root, int(lhs[tup])),
                Unit(root, int(rhs[tup])))


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
        first = report.failures[0]
        raise ValidationError(
            f"{first['condition']} fails at {first['tuple']}: "
            f"{first['lhs']} != {first['rhs']}")
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
    e = cochain.exponents
    grp = carrier.group
    ident = grp.identity
    id_mask = np.zeros(e.shape, dtype=bool)
    id_mask[ident, :, :] = True
    id_mask[:, ident, :] = True
    _collect_failures(log, normalized, (e != 0) & id_mask, e,
                      np.zeros_like(e), cochain.root_order)

    root = lcm(cochain.root_order, omega.root_order)
    lhs = (_differential_raw(e, grp, carrier, 2)
           * (root // cochain.root_order)) % root
    rhs_point = (-omega.exponents * (root // omega.root_order)) % root
    rhs = np.repeat(rhs_point, carrier.size, axis=-1)
    _collect_failures(log, cocycle, lhs != rhs, lhs, rhs, root)
    return int(id_mask.sum()) + lhs.size


def modcats_for(fusion: FusionData, x: GSet) -> list[ModuleCategoryData]:
    """All module-category structures on X, one per cohomology class.

    Solves d(Psi) = inflated omega^-1 at the lifted root order N*|G| and walks
    the solution set modulo directions that stay coboundaries after a further
    lift by |G| (the finite stand-in for circle-coefficient cohomology).
    Output cochains are normalized and sorted by exponent table; the list is
    empty when no solution exists.
    """
    grp = fusion.group
    omega = fusion.omega
    m = grp.order
    n0 = omega.root_order
    lifted = n0 * m
    dim = m * m * x.size

    d2 = differential_matrix(grp, x, 2)
    snf2 = smith_normal_form(d2)
    rhs = np.repeat((-omega.exponents) % n0, x.size, axis=-1)
    rhs_lifted = (rhs.ravel() * m) % lifted
    particular = solve_mod(d2, rhs_lifted, lifted, snf=snf2)
    if particular is None:
        return []

    solution_lattice = _kernel_mod_basis(snf2, lifted)

    d1 = differential_matrix(grp, x, 1)
    further = lifted * m
    ambient = d1.T.tolist() + [[further * int(i == j) for i in range(dim)]
                               for j in range(dim)]
    # intersection of the ambient (coboundary-image) lattice with m*Z^dim,
    # divided by m, in coordinates of the solution lattice
    inter = _multiples_in_lattice(ambient, dim, m)
    inter_coords = _kernel_mod_coords(snf2, lifted, inter)
    reps = _lattice_quotient_reps(solution_lattice, inter_coords, dim)

    base = np.array(particular, dtype=np.int64)
    out = []
    shape = (m, m, x.size)
    for rep in reps:
        exps = (base + np.array(rep, dtype=np.int64)) % lifted
        psi = normalize(UnitCochain(2, x, lifted, exps.reshape(shape)))
        data = ModuleCategoryData(fusion, x, psi)
        validate_modcat(data).raise_if_failed("enumerated structure")
        out.append(data)
    out.sort(key=lambda d: d.psi.exponents.tolist())
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
    """The stabilizer subgroup of the base point and the restricted cochain."""
    if not is_transitive(data.X):
        raise NotTransitive("carrier G-set has more than one orbit")
    grp = data.fusion.group
    sub = stabilizer(data.X, 0)
    rep = sub.elements
    for g in grp.elements():
        ginv = grp.inv(g)
        conj = tuple(sorted(grp.op(grp.op(g, a), ginv) for a in sub.elements))
        if conj < rep:
            rep = conj
    return IndecomposableClass(sub, shapiro_restrict(data.psi), rep)


def equivalent_modcats(m1: ModuleCategoryData, m2: ModuleCategoryData,
                       bound: int = 8) -> Optional[tuple[np.ndarray, UnitCochain]]:
    """A witness (f, mu) of equivalence, or None.

    f is a G-set isomorphism X -> Y and mu a 1-cochain with
    d(mu) = Psi_X * (Psi_Y o f)^-1 at the lifted root order.
    """
    if m1.fusion.group != m2.fusion.group or m1.fusion.omega != m2.fusion.omega:
        return None
    grp = m1.fusion.group
    x = m1.X
    isos = gset_isomorphisms(x, m2.X, bound=bound)
    if not isos:
        return None
    d1 = differential_matrix(grp, x, 1)
    snf1 = smith_normal_form(d1)  # only the right-hand side depends on f
    for f in isos:
        pulled = UnitCochain(2, x, m2.psi.root_order, m2.psi.exponents[..., f])
        diff = m1.psi * pulled.inverse()
        lifted = diff.root_order * grp.order
        vec = solve_mod(d1, (diff.exponents.ravel() * grp.order) % lifted, lifted,
                        snf=snf1)
        if vec is None:
            continue
        mu = UnitCochain(1, x, lifted,
                         np.array(vec, dtype=np.int64).reshape(grp.order, x.size))
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
    fusion, x = data.fusion, data.X
    kap = fusion.kappa.exponents[:, 0]
    nk = fusion.kappa.root_order
    values: list[Optional[Unit]] = [None] * x.size
    for orbit in orbits(x):
        rep = orbit[0]
        if any(kap[h] % nk for h in stabilizer(x, rep).elements):
            return None
        for g in fusion.group.elements():
            p = x.apply(g, rep)
            if values[p] is None:
                values[p] = Unit(nk, int(kap[g]))
    return ModuleTrace(tuple(values))


def regular_module_category(fusion: FusionData) -> ModuleCategoryData:
    """Vec_G^omega as a module category over itself.

    X is the regular G-set and Psi(g, h, y) = omega(g, h, (gh)^-1 y); this
    satisfies the twisted-cocycle condition because omega does.
    """
    grp = fusion.group
    reg = regular_gset(grp)
    m = grp.order
    om = fusion.omega.exponents[..., 0]
    g, h, y = np.indices((m, m, m))
    z = grp.table[grp.inverse[grp.table[g, h]], y]
    psi = UnitCochain(2, reg, fusion.omega.root_order, om[g, h, z])
    data = ModuleCategoryData(fusion, reg, psi)
    report = validate_modcat(data)
    assert report.ok, report.failures[:1]
    return data


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

    def __post_init__(self):
        g_grp, h_grp = self.left.group, self.right.group
        prod = direct_product(g_grp, h_grp)
        if self.X.group != prod:
            raise ValueError("carrier must be a G x H set (product encoding)")
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
    def x_g(self) -> GSet:
        emb, _ = product_embeddings(self.left.group, self.right.group)
        return restrict_gset(self.X, emb, self.left.group)

    @cached_property
    def x_h(self) -> GSet:
        _, emb = product_embeddings(self.left.group, self.right.group)
        return restrict_gset(self.X, emb, self.right.group)


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

    e_om = data.omega_mid.exponents
    n_om = data.omega_mid.root_order
    act_g = x_g.action
    act_h = x_h.action
    inv_g = g_grp.inverse
    inv_h = h_grp.inverse

    # identity slices of the middle constraint
    checked += e_om[g_grp.identity, :, :].size + e_om[:, h_grp.identity, :].size
    mask = np.zeros(e_om.shape, dtype=bool)
    mask[g_grp.identity, :, :] = True
    mask[:, h_grp.identity, :] = True
    _collect_failures(log, "omega_identities", (e_om != 0) & mask, e_om,
                      np.zeros_like(e_om), n_om)

    e_psi, n_psi = data.psi.exponents, data.psi.root_order
    g1, g2, h, x = np.indices((g_grp.order, g_grp.order, h_grp.order, data.X.size))
    root1 = lcm(n_om, n_psi)
    lhs1 = ((e_om[g2, h, act_g[inv_g[g1], x]]
             - e_om[g_grp.table[g1, g2], h, x]
             + e_om[g1, h, x]) * (root1 // n_om)) % root1
    rhs1 = ((e_psi[g1, g2, x]
             - e_psi[g1, g2, act_h[inv_h[h], x]]) * (root1 // n_psi)) % root1
    checked += lhs1.size
    _collect_failures(log, "omega_cond_1", lhs1 != rhs1, lhs1, rhs1, root1)

    e_phi, n_phi = data.phi.exponents, data.phi.root_order
    g, h1, h2, x = np.indices((g_grp.order, h_grp.order, h_grp.order, data.X.size))
    root2 = lcm(n_om, n_phi)
    lhs2 = ((e_om[g, h2, act_h[inv_h[h1], x]]
             - e_om[g, h_grp.table[h1, h2], x]
             + e_om[g, h1, x]) * (root2 // n_om)) % root2
    rhs2 = ((e_phi[h1, h2, act_g[inv_g[g], x]]
             - e_phi[h1, h2, x]) * (root2 // n_phi)) % root2
    checked += lhs2.size
    _collect_failures(log, "omega_cond_2", lhs2 != rhs2, lhs2, rhs2, root2)

    return log.report(checked)


def _product_kappa(left: FusionData, right: FusionData) -> UnitCochain:
    """The character (g, h) -> kappa_G(g) * kappa_H(h)^-1 of G x H."""
    from .algebra import point_gset
    prod = direct_product(left.group, right.group)
    nk = lcm(left.kappa.root_order, right.kappa.root_order)
    ga, ha = np.divmod(np.arange(prod.order), right.group.order)
    e = (left.kappa.exponents[ga, 0] * (nk // left.kappa.root_order)
         - right.kappa.exponents[ha, 0] * (nk // right.kappa.root_order)) % nk
    return UnitCochain(1, point_gset(prod), nk, e.reshape(-1, 1))


def bimod_to_deligne(data: BimoduleCategoryData) -> ModuleCategoryData:
    """The product-group module category M(X, Gamma') of a bimodule category.

    Gamma'((g1,h1),(g2,h2), x) =
        Psi(g1, g2, (h2^-1 h1^-1) . x) * Phi(h1, h2, x) * Omega(g1, h2, h1^-1 . x)
    over the product 3-cocycle and the character kappa_G * kappa_H^-1.
    """
    g_grp, h_grp = data.left.group, data.right.group
    prod = direct_product(g_grp, h_grp)
    fusion = FusionData(prod, deligne_omega(data.left.omega, data.right.omega),
                        _product_kappa(data.left, data.right))
    k = prod.order
    sz = data.X.size
    root = lcm(data.psi.root_order, data.phi.root_order, data.omega_mid.root_order)
    ga, ha = np.divmod(np.arange(k), h_grp.order)
    a1, a2, x = np.indices((k, k, sz))
    g1, h1 = ga[a1], ha[a1]
    g2, h2 = ga[a2], ha[a2]
    act_h = data.x_h.action
    inv_h = h_grp.inverse
    hh = h_grp.table[inv_h[h2], inv_h[h1]]
    e = (data.psi.exponents[g1, g2, act_h[hh, x]] * (root // data.psi.root_order)
         + data.phi.exponents[h1, h2, x] * (root // data.phi.root_order)
         + data.omega_mid.exponents[g1, h2, act_h[inv_h[h1], x]]
         * (root // data.omega_mid.root_order)) % root
    gamma = UnitCochain(2, data.X, root, e)
    out = ModuleCategoryData(fusion, data.X, gamma)
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
    prod = direct_product(g_grp, h_grp)
    if data.fusion.group != prod:
        raise ValueError("module category is not over the product group")
    if data.fusion.omega != deligne_omega(left.omega, right.omega):
        raise ValueError("twist does not factor over the given one-sided twists")
    gamma0 = data.psi
    n = gamma0.root_order
    k = prod.order
    sz = data.X.size
    emb_g, emb_h = product_embeddings(g_grp, h_grp)
    ga, ha = np.divmod(np.arange(k), h_grp.order)
    mu = UnitCochain(1, data.X, n, gamma0.exponents[emb_h[ha], emb_g[ga], :])
    gamma = gamma0 * differential(mu)
    e = gamma.exponents
    if e[np.ix_(emb_h, emb_g, np.arange(sz))].any():
        raise ValidationError("normalization failed to enforce the mixed condition")
    x_g = restrict_gset(data.X, emb_g, g_grp)
    x_h = restrict_gset(data.X, emb_h, h_grp)
    psi = UnitCochain(2, x_g, n, e[np.ix_(emb_g, emb_g, np.arange(sz))])
    phi = UnitCochain(2, x_h, n, e[np.ix_(emb_h, emb_h, np.arange(sz))])
    omega_mid = UnitCochain(2, data.X, n,
                            e[np.ix_(emb_g, emb_h, np.arange(sz))],
                            slot_groups=(g_grp, h_grp))
    out = BimoduleCategoryData(left, right, data.X, psi, phi, omega_mid)
    validate_bimodcat(out).raise_if_failed("extracted bimodule data")
    return out


def bimodule_trace(data: BimoduleCategoryData) -> Optional[ModuleTrace]:
    """Trace of the bimodule category, via the product module category."""
    return module_trace(bimod_to_deligne(data))

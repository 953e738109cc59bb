"""Dense reference sweeps for the 6j relations (test-only).

These are the straightforward loops over every label of the fusion and the
bimodule symbols: orthogonality visits every outer tuple (i, j, k, b, c, d)
and sums over every middle label a, fusion Biedenharn-Elliott visits every
(i, j, k, m, n) and sums over every f, and bimodule Biedenharn-Elliott
visits every base x0 and (i, j, l) of the product group K = G x H and sums
over every f in K.  They evaluate each symbol from its
closed form, independently of the symbol layouts in ``twistcat.sixj``, and
report through the same failure accumulator, so the support-driven sweeps
can be compared with them report for report.

Functor orthogonality visits every supported outer tuple of the s and t
symbols and sums over every candidate middle label, and functor
Biedenharn-Elliott visits every supported (i, j, l, k) and sums over every
middle point mm of the source with full matrix products; both read each
matrix symbol through the public ``sixj``.
"""
from __future__ import annotations

from typing import Optional

from twistcat._matrix import SMatrix
from twistcat.errors import (ShapeMismatch, UndefinedLabels,
                             ValidationError)
from twistcat.fusion import FusionData, fusion_6j
from twistcat.modcat import (BimoduleCategoryData, FailureLog, ModuleTrace,
                             product_fusion)
from twistcat.modfun import BimoduleFunctorData
from twistcat.scalar import Scalar, Unit
from twistcat.sixj import SixJQuery, sixj


def corrupted_fusion(grp, omega, kappa):
    """Fusion data that skips validation, marked spherical."""
    bad = object.__new__(FusionData)
    object.__setattr__(bad, "group", grp)
    object.__setattr__(bad, "omega", omega)
    object.__setattr__(bad, "kappa", kappa)
    object.__setattr__(bad, "spherical", True)
    return bad


def _in_scope(scope, tup) -> bool:
    return scope is None or tup in scope


def _normalize_scope(scope):
    if scope is None:
        return None
    return {tuple(int(v) for v in t) for t in scope}


def _fusion_value(fusion: FusionData, labels):
    """Both fusion symbols at one label tuple, or (None, None)."""
    try:
        plus = fusion_6j(fusion, "+", *labels)
        minus = fusion_6j(fusion, "-", *labels)
    except UndefinedLabels:
        return None, None
    return plus, minus


def _m_value(data: BimoduleCategoryData, trace: ModuleTrace, labels,
             inverse: bool) -> Optional[Unit]:
    """m = trace(a) psi(i, j, b), m^-1 = kappa(c) / psi(i, j, b)."""
    grp, act = data.left.group, data.x_g.action
    i, j, k, a, b, c = labels
    if c != grp.op(i, j) or a != int(act[j, k]) or b != int(act[c, k]):
        return None
    val = Unit(data.psi.root_order, int(data.psi.exponents[i, j, b]))
    if inverse:
        return data.left.kappa_unit(c) * val.inverse()
    return trace.unit(a) * val


def _n_value(data: BimoduleCategoryData, trace: ModuleTrace, labels,
             inverse: bool) -> Optional[Unit]:
    """n = kappa_H(c) / phi(k^-1, j^-1, b), n^-1 = trace(a) phi(k^-1, j^-1, b)."""
    i, j, k, a, b, c = labels
    grp_h = data.right.group
    act_h = data.x_h.action
    if (c != grp_h.op(j, k) or a != int(act_h[grp_h.inv(j), i])
            or b != int(act_h[grp_h.inv(c), i])):
        return None
    phi = data.phi
    val = Unit(phi.root_order,
               int(phi.exponents[grp_h.inv(k), grp_h.inv(j), b]))
    if inverse:
        return trace.unit(a) * val
    return data.right.kappa_unit(c) * val.inverse()


def _b_value(data: BimoduleCategoryData, trace: ModuleTrace, labels,
             inverse: bool) -> Optional[Unit]:
    """b = trace(a) Omega(i, k^-1, b), b^-1 = trace(c) / Omega(i, k^-1, b)."""
    i, j, k, a, b, c = labels
    grp_h = data.right.group
    act_g = data.x_g.action
    act_h = data.x_h.action
    kinv = grp_h.inv(k)
    if (c != int(act_g[i, j]) or a != int(act_h[kinv, j])
            or b != int(act_h[kinv, c])):
        return None
    om = data.omega_mid
    val = Unit(om.root_order, int(om.exponents[i, kinv, b]))
    if inverse:
        return trace.unit(c) * val.inverse()
    return trace.unit(a) * val


def _orth_fusion(fusion: FusionData, scope, log) -> int:
    grp = fusion.group
    checked = 0
    els = grp.elements()
    for i in els:
        for j in els:
            for k in els:
                for b in els:
                    for c in els:
                        for d in els:
                            if not _in_scope(scope, (i, j, k, b, c, d)):
                                continue
                            checked += 1
                            total = Scalar.zero()
                            dim_d = fusion.kappa_unit(d)
                            for a in els:
                                plus, _ = _fusion_value(fusion,
                                                        (i, j, k, a, b, c))
                                if plus is None:
                                    continue
                                _, minus = _fusion_value(fusion,
                                                         (i, j, k, a, b, d))
                                if minus is None:
                                    continue
                                dims = fusion.kappa_unit(a) * dim_d
                                total = total + dims.to_scalar() * plus * minus
                            admissible = (c == d and c == grp.op(i, j)
                                          and b == grp.op(c, k))
                            expected = Scalar.from_rational(
                                1 if admissible else 0)
                            if total != expected:
                                log.add("orthogonality[fusion]",
                                        (i, j, k, b, c, d), total, expected)
    return checked


def _ber_fusion(fusion: FusionData, scope, log) -> int:
    grp = fusion.group
    checked = 0
    els = grp.elements()
    for i in els:
        for j in els:
            for k in els:
                for m in els:
                    for n in els:
                        if not _in_scope(scope, (i, j, k, m, n)):
                            continue
                        checked += 1
                        c = grp.op(i, j)
                        a = grp.op(j, k)
                        b = grp.op(c, k)
                        d = grp.op(c, m)
                        lhs = Scalar.zero()
                        v1, _ = _fusion_value(fusion, (i, j, k, a, b, c))
                        v2, _ = _fusion_value(fusion, (c, m, n, k, b, d))
                        if v1 is not None and v2 is not None:
                            lhs = v1 * v2
                        rhs = Scalar.zero()
                        for f in els:
                            w1, _ = _fusion_value(fusion, (i, f, n, a, b, d))
                            if w1 is None:
                                continue
                            w2, _ = _fusion_value(fusion, (i, j, m, f, d, c))
                            if w2 is None:
                                continue
                            w3, _ = _fusion_value(fusion, (j, m, n, k, a, f))
                            if w3 is None:
                                continue
                            rhs = rhs + (fusion.kappa_unit(f).to_scalar()
                                         * w1 * w2 * w3)
                        if lhs != rhs:
                            log.add("biedenharn-elliott[fusion]",
                                    (i, j, k, m, n), lhs, rhs)
    return checked


def _gamma(data: BimoduleCategoryData, p: int, q: int, x: int) -> Unit:
    """The product 2-cochain of ``bimod_to_deligne`` at ((g1,h1),(g2,h2), x):
    Psi(g1, g2, (h2^-1 h1^-1).x) Phi(h1, h2, x) Omega(g1, h2, h1^-1.x)."""
    grp_h, act_h = data.right.group, data.x_h.action
    (g1, h1), (g2, h2) = divmod(p, grp_h.order), divmod(q, grp_h.order)
    h1inv = grp_h.inv(h1)
    y = int(act_h[grp_h.op(grp_h.inv(h2), h1inv), x])
    psi, phi, om = data.psi, data.phi, data.omega_mid
    return (Unit(psi.root_order, int(psi.exponents[g1, g2, y]))
            * Unit(phi.root_order, int(phi.exponents[h1, h2, x]))
            * Unit(om.root_order,
                   int(om.exponents[g1, h2, int(act_h[h1inv, x])])))


def _ber_bimodule(data: BimoduleCategoryData, trace: ModuleTrace, scope,
                  log) -> int:
    """Biedenharn-Elliott for the m symbols m(i,j,k,a,b,c) =
    trace(a) Gamma(i, j, b) of the product structure over K = G x H: at
    every base x0 and (i, j, l) in K^3, with k = l.x0, c = ij, d = cl,
    a = j.k and b = c.k, m(i,j,k,a,b,c) m(c,l,x0,k,b,d) against the sum
    over every f in K of kappa(f) m(i,f,x0,a,b,d) F+(i,j,l,f,d,c)
    m(j,l,x0,k,a,f)."""
    fusion = product_fusion(data.left, data.right)
    grp, act = fusion.group, data.X.action
    els = grp.elements()

    def m(i, j, k, a, b, c):
        if (c != grp.op(i, j) or a != int(act[j, k])
                or b != int(act[c, k])):
            return None
        return (trace.unit(a) * _gamma(data, i, j, b)).to_scalar()

    def plus(*labels):
        try:
            return fusion_6j(fusion, "+", *labels)
        except UndefinedLabels:
            return None

    checked = 0
    for x0 in range(data.X.size):
        for i in els:
            for j in els:
                for l in els:
                    k = int(act[l, x0])
                    tup = (i, j, l, k)
                    if not _in_scope(scope, tup):
                        continue
                    checked += 1
                    c = grp.op(i, j)
                    d = grp.op(c, l)
                    a, b = int(act[j, k]), int(act[c, k])
                    lhs = Scalar.zero()
                    v1, v2 = m(i, j, k, a, b, c), m(c, l, x0, k, b, d)
                    if v1 is not None and v2 is not None:
                        lhs = v1 * v2
                    rhs = Scalar.zero()
                    for f in els:
                        w1 = m(i, f, x0, a, b, d)
                        w2 = plus(i, j, l, f, d, c)
                        w3 = m(j, l, x0, k, a, f)
                        if w1 is None or w2 is None or w3 is None:
                            continue
                        rhs = rhs + (fusion.kappa_unit(f).to_scalar()
                                     * w1 * w2 * w3)
                    if lhs != rhs:
                        log.add(f"biedenharn-elliott[m;base={x0}]", tup,
                                lhs, rhs)
    return checked


def _orth_scalar_pair(name, outer, middle, evaluate, dim_middle, dim_alt,
                      admissible, scope, log) -> int:
    """For each outer tuple (i, j, k, b, c, d), the sum over a of
    dim(a) dim(d) sym(i,j,k,a,b,c) sym_inv(i,j,k,a,b,d) against the
    Kronecker/admissibility pattern."""
    checked = 0
    for (i, j, k, b, c, d) in outer:
        if not _in_scope(scope, (i, j, k, b, c, d)):
            continue
        checked += 1
        total = Scalar.zero()
        for a in middle:
            direct = evaluate((i, j, k, a, b, c), False)
            if direct is None:
                continue
            inv = evaluate((i, j, k, a, b, d), True)
            if inv is None:
                continue
            dims = dim_middle(a) * dim_alt(d)
            total = total + (dims * direct * inv).to_scalar()
        expected = Scalar.from_rational(
            1 if (c == d and admissible(i, j, k, b, c)) else 0)
        if total != expected:
            log.add(name, (i, j, k, b, c, d), total, expected)
    return checked


def _orth_bimodule(data: BimoduleCategoryData, trace: ModuleTrace, scope,
                   log) -> int:
    grp_g, grp_h = data.left.group, data.right.group
    act_g, act_h = data.x_g.action, data.x_h.action
    xs = range(data.X.size)
    gs, hs = grp_g.elements(), grp_h.elements()

    def m_eval(labels, inverse):
        return _m_value(data, trace, labels, inverse)

    def n_eval(labels, inverse):
        return _n_value(data, trace, labels, inverse)

    def b_eval(labels, inverse):
        return _b_value(data, trace, labels, inverse)

    checked = _orth_scalar_pair(
        "orthogonality[m]",
        ((i, j, k, b, c, d) for i in gs for j in gs for k in xs
         for b in xs for c in gs for d in gs),
        xs, m_eval, trace.unit, data.left.kappa_unit,
        lambda i, j, k, b, c: (c == grp_g.op(i, j)
                               and b == int(act_g[c, k])),
        scope, log)
    checked += _orth_scalar_pair(
        "orthogonality[n]",
        ((i, j, k, b, c, d) for i in xs for j in hs for k in hs
         for b in xs for c in hs for d in hs),
        xs, n_eval, trace.unit, data.right.kappa_unit,
        lambda i, j, k, b, c: (c == grp_h.op(j, k)
                               and b == int(act_h[grp_h.inv(c), i])),
        scope, log)
    checked += _orth_scalar_pair(
        "orthogonality[b]",
        ((i, j, k, b, c, d) for i in gs for j in xs for k in hs
         for b in xs for c in xs for d in xs),
        xs, b_eval, trace.unit, trace.unit,
        lambda i, j, k, b, c: (c == int(act_g[i, j])
                               and b == int(act_h[grp_h.inv(k), c])),
        scope, log)
    return checked


def _functor_sides(functor):
    """(kind, group, source carrier, target carrier, acting element) of the
    s symbols and, for a bimodule functor, the t symbols: a label l acts by
    l on the left and by l^-1 on the right."""
    src, tgt = functor.source, functor.target
    if isinstance(functor, BimoduleFunctorData):
        right = src.right.group
        return [("s", src.left.group, src.x_g, tgt.x_g, lambda l: l),
                ("t", right, src.x_h, tgt.x_h, right.inv)]
    return [("s", src.fusion.group, src.X, tgt.X, lambda l: l)]


def _zero_matrix(nrows, ncols):
    return SMatrix([[Scalar.zero()] * ncols for _ in range(nrows)])


def _matrix_sum(context, log, name, tup, pairs, term, shape, diagonal):
    """The sum over pairs of (kind, labels) of term(symbol, inverse symbol,
    direct labels, inverse labels) against I (when ``diagonal``) or 0.  A
    symbol off its support (UndefinedLabels) adds nothing; a singular block
    (ValidationError) is logged in place of the comparison."""
    total = _zero_matrix(*shape)
    for (kind, direct), (inv_kind, inverse) in pairs:
        try:
            mat = sixj(SixJQuery(kind, context, direct)).matrix
            inv = sixj(SixJQuery(inv_kind, context, inverse)).matrix
        except UndefinedLabels:
            continue
        except ValidationError as exc:
            log.add(name, tup, str(exc), "inverse")
            return
        total = total + term(mat, inv, direct, inverse)
    expected = SMatrix.identity(shape[0]) if diagonal else _zero_matrix(*shape)
    if total != expected:
        log.add(name, tup, total, expected)


def _orth_functor(context, scope, log) -> int:
    """For each side, with g the acting element of l: the a-sum over every a
    of dim(a) dim(d) s^-1(l,j,a,b,d) s(l,j,a,b,c) at every (l, j, b, c, d)
    with (j, g^-1.b) supported, and the c-sum over every c of dim(c) dim(d)
    s(l,j,a,b,c) s^-1(l,j,d,b,c) at every (l, j, a, d, b) with (j, a) and
    (j, d) supported."""
    functor = context.functor
    src, tgt = context.source_trace.unit, context.target_trace.unit
    mult = functor.mult
    checked = 0

    def a_term(mat, inv, direct, inverse):
        return (inv @ mat).scale(tgt(direct[2]) * src(inverse[4]))

    def c_term(mat, inv, direct, inverse):
        return (mat @ inv).scale(src(direct[4]) * tgt(inverse[2]))

    for kind, grp, x_set, y_set, acting in _functor_sides(functor):
        nx, ny = x_set.size, y_set.size
        act_x, act_y = x_set.action, y_set.action
        inv_kind = kind + "^-1"
        name = f"orthogonality[{kind};a-sum]"
        for l in grp.elements():
            g = acting(l)
            for j in range(nx):
                for b in range(ny):
                    size = int(mult[j, int(act_y[grp.inv(g), b])])
                    if not size:
                        continue
                    for c in range(nx):
                        for d in range(nx):
                            tup = (l, j, b, c, d)
                            if not _in_scope(scope, tup):
                                continue
                            checked += 1
                            pairs = [((kind, (l, j, a, b, c)),
                                      (inv_kind, (l, j, a, b, d)))
                                     for a in range(ny)]
                            _matrix_sum(context, log, name, tup, pairs, a_term,
                                        (size, size),
                                        c == d == int(act_x[g, j]))
        name = f"orthogonality[{kind};c-sum]"
        for l in grp.elements():
            g = acting(l)
            for j in range(nx):
                for a in range(ny):
                    for d in range(ny):
                        shape = (int(mult[j, a]), int(mult[j, d]))
                        if not all(shape):
                            continue
                        for b in range(ny):
                            tup = (l, j, a, d, b)
                            if not _in_scope(scope, tup):
                                continue
                            checked += 1
                            pairs = [((kind, (l, j, a, b, c)),
                                      (inv_kind, (l, j, d, b, c)))
                                     for c in range(nx)]
                            _matrix_sum(context, log, name, tup, pairs, c_term,
                                        shape,
                                        a == d and b == int(act_y[g, a]))
    return checked


def _ber_functor(context, scope, log) -> int:
    """At every (i, j, l, k) in G x G x X x Y with (l, k) supported, with
    c = ij, d = c.l, a = j.k and b = c.k: m_Y(i,j,k,a,b,c) s(c,l,k,b,d)
    against the sum over every middle point mm of X of dim(mm)
    s(j,l,k,a,mm) m_X(i,j,l,mm,d,c) s(i,mm,a,b,d), where m = trace(a)
    psi(i, j, b) on its carrier.  A product of blocks of different sizes (m
    not invariant) leaves its ShapeMismatch message as the sum."""
    functor = context.functor
    _, grp, x_set, y_set, _ = _functor_sides(functor)[0]
    act_x, act_y = x_set.action, y_set.action
    src, tgt = context.source_trace, context.target_trace

    def m(psi, trace, act, i, j, k, a, b, c):
        if c != grp.op(i, j) or a != int(act[j, k]) or b != int(act[c, k]):
            return None
        return trace.unit(a) * Unit(psi.root_order,
                                    int(psi.exponents[i, j, b]))

    def s(labels):
        try:
            return sixj(SixJQuery("s", context, labels)).matrix
        except UndefinedLabels:
            return None

    checked = 0
    for i in grp.elements():
        for j in grp.elements():
            for l in range(x_set.size):
                for k in range(y_set.size):
                    size = int(functor.mult[l, k])
                    if not size or not _in_scope(scope, (i, j, l, k)):
                        continue
                    checked += 1
                    c = grp.op(i, j)
                    d = int(act_x[c, l])
                    a, b = int(act_y[j, k]), int(act_y[c, k])
                    lhs = rhs = _zero_matrix(size, size)
                    m_target = m(functor.target.psi, tgt, act_y, i, j, k,
                                 a, b, c)
                    outer = s((c, l, k, b, d))
                    if m_target is not None and outer is not None:
                        lhs = outer.scale(m_target)
                    for mm in range(x_set.size):
                        m_source = m(functor.source.psi, src, act_x, i, j, l,
                                     mm, d, c)
                        right, left = s((j, l, k, a, mm)), s((i, mm, a, b, d))
                        if None in (m_source, right, left):
                            continue
                        try:
                            rhs = rhs + (right @ left).scale(src.unit(mm)
                                                             * m_source)
                        except ShapeMismatch as exc:
                            rhs = str(exc)
                            break
                    if lhs != rhs:
                        log.add("biedenharn-elliott[s]", (i, j, l, k), lhs,
                                rhs)
    return checked


def dense_orthogonality(context, scope=None):
    """Report of the dense orthogonality sweep of a fusion, bimodule or
    functor context, shaped like ``sixj.verify_orthogonality``'s."""
    scope = _normalize_scope(scope)
    log = FailureLog(key="kind", fmt=repr)
    if context.fusion is not None:
        checked = _orth_fusion(context.fusion, scope, log)
    elif context.bimodule is not None:
        checked = _orth_bimodule(context.bimodule, context.trace, scope, log)
    else:
        checked = _orth_functor(context, scope, log)
    return log.report(checked)


def dense_biedenharn_elliott(context, scope=None):
    """Report of the dense Biedenharn-Elliott sweep of a fusion, bimodule or
    functor context, shaped like ``sixj.verify_biedenharn_elliott``'s."""
    scope = _normalize_scope(scope)
    log = FailureLog(key="kind", fmt=repr)
    if context.fusion is not None:
        checked = _ber_fusion(context.fusion, scope, log)
    elif context.bimodule is not None:
        checked = _ber_bimodule(context.bimodule, context.trace, scope, log)
    else:
        checked = _ber_functor(context, scope, log)
    return log.report(checked)


def dense_symbol(context, kind: str, labels) -> Optional[Scalar]:
    """One scalar symbol from its closed form, or None off the support."""
    inverse = kind == "fusion-" or kind.endswith("^-1")
    if kind.startswith("fusion"):
        plus, minus = _fusion_value(context.fusion, labels)
        return minus if inverse else plus
    value = {"m": _m_value, "n": _n_value, "b": _b_value}[kind[0]](
        context.bimodule, context.trace, labels, inverse)
    return None if value is None else value.to_scalar()

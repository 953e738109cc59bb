"""Generalized 6j symbols and exact verification of their relations.

Twelve symbol kinds are supported, each given by a closed form:

* ``fusion+`` / ``fusion-`` -- associator symbols of a spherical
  twisted group category, evaluated through :func:`twistcat.fusion.fusion_6j`.
* ``m`` / ``m^-1``, ``n`` / ``n^-1``, ``b`` / ``b^-1`` -- the scalar symbols
  of a traced bimodule category: left action (``m``), right action (``n``)
  and middle constraint (``b``).
* ``s`` / ``s^-1`` -- the matrix symbols of a module functor, given by the
  coherence matrices ``A`` rescaled with the target trace.
* ``t`` / ``t^-1`` -- the matrix symbols of the right-action side of a
  bimodule functor, given by the ``B`` matrices.

The symbols come with exact orthogonality and Biedenharn-Elliott checks:
sums of products of symbols that must collapse to Kronecker patterns or to
matching pentagon-type expansions.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import (IndexOutOfRange, NoTrace, NotSpherical, UndefinedLabels,
                     ValidationError)
from .scalar import Scalar, Unit
from .fusion import FusionData, fusion_6j
from .modcat import (BimoduleCategoryData, FailureLog, ModuleTrace,
                     ValidationReport, bimod_to_deligne, bimodule_trace,
                     module_trace, regular_module_category)
from .modfun import BimoduleFunctorData, ModuleFunctorData, action_functor
from ._matrix import SMatrix

FUSION_KINDS = ("fusion+", "fusion-")
BIMODULE_KINDS = ("m", "m^-1", "n", "n^-1", "b", "b^-1")
MODFUN_KINDS = ("s", "s^-1")
BIMODFUN_KINDS = ("t", "t^-1")
KINDS = FUSION_KINDS + BIMODULE_KINDS + MODFUN_KINDS + BIMODFUN_KINDS

_MATRIX_KINDS = MODFUN_KINDS + BIMODFUN_KINDS


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SixJContext:
    """Everything needed to evaluate one family of 6j symbols.

    Exactly one of ``fusion``, ``bimodule``, ``functor`` is set; traces are
    attached at construction time so that a symbol evaluation never has to
    re-derive them.
    """

    fusion: Optional[FusionData] = None
    bimodule: Optional[BimoduleCategoryData] = None
    trace: Optional[ModuleTrace] = None
    functor: Optional[Union[ModuleFunctorData, BimoduleFunctorData]] = None
    source_trace: Optional[ModuleTrace] = None
    target_trace: Optional[ModuleTrace] = None

    def kinds(self) -> tuple[str, ...]:
        """The symbol kinds this context can evaluate."""
        if self.fusion is not None:
            return FUSION_KINDS
        if self.bimodule is not None:
            return BIMODULE_KINDS
        if isinstance(self.functor, BimoduleFunctorData):
            return MODFUN_KINDS + BIMODFUN_KINDS
        return MODFUN_KINDS


def fusion_context(fusion: FusionData) -> SixJContext:
    """Context for the fusion symbols of a spherical structure."""
    if not fusion.spherical:
        raise NotSpherical("fusion 6j symbols require a spherical structure")
    return SixJContext(fusion=fusion)


def bimodule_context(data: BimoduleCategoryData) -> SixJContext:
    """Context for the scalar symbols of a traced bimodule category."""
    if not (data.left.spherical and data.right.spherical):
        raise NotSpherical(
            "bimodule 6j symbols require spherical structures on both sides")
    trace = bimodule_trace(data)
    if trace is None:
        raise NoTrace("the bimodule category admits no bimodule trace")
    return SixJContext(bimodule=data, trace=trace)


def functor_context(
        functor: Union[ModuleFunctorData, BimoduleFunctorData]) -> SixJContext:
    """Context for the matrix symbols of a (bi)module functor."""
    if isinstance(functor, BimoduleFunctorData):
        if not (functor.source.left.spherical
                and functor.source.right.spherical):
            raise NotSpherical(
                "functor 6j symbols require spherical structures")
        src = bimodule_trace(functor.source)
        tgt = bimodule_trace(functor.target)
    else:
        if not functor.source.fusion.spherical:
            raise NotSpherical(
                "functor 6j symbols require a spherical structure")
        src = module_trace(functor.source)
        tgt = module_trace(functor.target)
    if src is None:
        raise NoTrace("the source category admits no module trace")
    if tgt is None:
        raise NoTrace("the target category admits no module trace")
    return SixJContext(functor=functor, source_trace=src, target_trace=tgt)


# ---------------------------------------------------------------------------
# queries and values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SixJQuery:
    """A single symbol request: kind, context, labels and (1-based) indices.

    Label order per kind (all labels are integer indices):

    * ``fusion+/-``: ``(i, j, k, a, b, c)`` in G with c = ij, a = jk, b = ck.
    * ``m/m^-1``: ``(i, j, k, a, b, c)``; i, j, c in G; k, a, b in X;
      c = ij, a = j.k, b = c.k (left action).
    * ``n/n^-1``: ``(i, j, k, a, b, c)``; j, k, c in H; i, a, b in X;
      c = jk, a = i.j, b = i.c (right action).
    * ``b/b^-1``: ``(i, j, k, a, b, c)``; i in G, k in H, j, a, b, c in X;
      c = i.j (left), a = j.k, b = c.k (right).
    * ``s/s^-1``: ``(i, j, a, b, c)``; i in G, j, c in X, a, b in Y;
      c = i.j, b = i.a; indices over the multiplicity of (j, a).
    * ``t/t^-1``: ``(l, i, a, b, c)``; l in H, i, c in X, a, b in Y;
      c = l^-1.i, b = l^-1.a; indices over the multiplicity of (i, a).
    """

    kind: str
    context: SixJContext
    labels: tuple[int, ...]
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class SixJValue:
    """An exact symbol value; matrix kinds also expose the full matrix."""

    value: Scalar
    matrix: Optional[SMatrix] = None


# ---------------------------------------------------------------------------
# closed-form evaluators (return None when the labels do not compose)
# ---------------------------------------------------------------------------

def _fusion_value(fusion: FusionData, labels) -> tuple[Optional[Scalar],
                                                       Optional[Scalar]]:
    """Both fusion symbols at one label tuple, or (None, None)."""
    try:
        plus = fusion_6j(fusion, "+", *labels)
        minus = fusion_6j(fusion, "-", *labels)
    except UndefinedLabels:
        return None, None
    return plus, minus


def _m_value(grp, act, psi, trace: ModuleTrace, kappa_unit,
             labels, inverse: bool) -> Optional[Unit]:
    """The left-action symbol of a module structure (psi on carrier X).

    ``m`` is trace(a) * psi(i, j, b), ``m^-1`` is kappa(c) / psi(i, j, b);
    defined when c = ij, a = j.k and b = c.k.
    """
    i, j, k, a, b, c = labels
    if c != grp.op(i, j) or a != int(act[j, k]) or b != int(act[c, k]):
        return None
    val = Unit(psi.root_order, int(psi.exponents[i, j, b]))
    if inverse:
        return kappa_unit(c) * val.inverse()
    return trace.unit(a) * val


def _n_value(data: BimoduleCategoryData, trace: ModuleTrace,
             labels, inverse: bool) -> Optional[Unit]:
    """The right-action symbol: phi evaluated at inverted slots.

    ``n`` is kappa_H(c) / phi(k^-1, j^-1, b), ``n^-1`` is
    trace(a) * phi(k^-1, j^-1, b); defined when c = jk, a = i.j, b = i.c
    for the right H-action on X.
    """
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


def _b_value(data: BimoduleCategoryData, trace: ModuleTrace,
             labels, inverse: bool) -> Optional[Unit]:
    """The middle-constraint symbol: omega_mid at an inverted right slot.

    ``b`` is trace(a) * omega_mid(i, k^-1, b), ``b^-1`` is
    trace(c) / omega_mid(i, k^-1, b); defined when c = i.j (left),
    a = j.k and b = c.k (right).
    """
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


def _same(g: int) -> int:
    return g


def _matrix_parts(ctx: SixJContext, kind: str):
    """Group, source and target actions, multiplicities, matrix table and the
    acting element of a label: A with g = i for the s kinds (left action),
    B with g = l^-1 for the t kinds (right action of a bimodule functor)."""
    f = ctx.functor
    src, tgt = f.source, f.target
    if kind in BIMODFUN_KINDS:
        grp = src.right.group
        return grp, src.x_h.action, tgt.x_h.action, f.mult, f.b, grp.inv
    if isinstance(f, BimoduleFunctorData):
        return (src.left.group, src.x_g.action, tgt.x_g.action, f.mult, f.a,
                _same)
    return src.fusion.group, src.X.action, tgt.X.action, f.mult, f.a, _same


def _matrix_symbol(ctx: SixJContext, parts, labels,
                   inverse: bool) -> Optional[SMatrix]:
    """The rescaled matrix symbol at labels (l, j, a, b, c), or None.

    With g the acting element of l and M the matrix table of ``parts``, the
    symbol is defined when c = g.j, b = g.a and (j, a) is supported; ``s``
    and ``t`` are target_trace(a) * M_{l,j,a}, ``s^-1`` and ``t^-1`` are
    source_trace(c) * M_{l,j,a}^-1.  A singular matrix (possible only for
    corrupted data) raises ValidationError.
    """
    _, act_x, act_y, mult, table, acting = parts
    l, j, a, b, c = labels
    g = acting(l)
    if c != int(act_x[g, j]) or b != int(act_y[g, a]) or not mult[j, a]:
        return None
    mat = table[(l, j, a)]
    if inverse:
        inv = mat.inverse()
        if inv is None:
            raise ValidationError(
                f"coherence matrix at {(l, j, a)} is singular")
        return inv.scale(ctx.source_trace.unit(c))
    return mat.scale(ctx.target_trace.unit(a))


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def _check_labels(labels, sizes, names) -> None:
    for val, size, name in zip(labels, sizes, names):
        if not 0 <= val < size:
            raise UndefinedLabels(
                f"label {name}={val} is out of range (size {size})")


def _label_domains(ctx: SixJContext, kind: str):
    """Per-kind label sizes and names, for range validation."""
    if kind in FUSION_KINDS:
        n = ctx.fusion.group.order
        return (n,) * 6, "ijkabc"
    if kind in BIMODULE_KINDS:
        data = ctx.bimodule
        ng, nh, nx = data.left.group.order, data.right.group.order, data.X.size
        if kind.startswith("m"):
            return (ng, ng, nx, nx, nx, ng), "ijkabc"
        if kind.startswith("n"):
            return (nx, nh, nh, nx, nx, nh), "ijkabc"
        return (ng, nx, nh, nx, nx, nx), "ijkabc"
    grp, act_x, act_y, *_ = _matrix_parts(ctx, kind)
    nx, ny = act_x.shape[1], act_y.shape[1]
    return (grp.order, nx, ny, ny, nx), ("ijabc" if kind in MODFUN_KINDS
                                         else "liabc")


def sixj(query: SixJQuery) -> SixJValue:
    """Evaluate one generalized 6j symbol exactly.

    Raises UndefinedLabels when the labels do not compose, IndexOutOfRange
    for bad multiplicity indices, and NoTrace/NotSpherical at context
    construction when the required structure is missing.
    """
    kind, ctx, labels = query.kind, query.context, tuple(query.labels)
    if kind not in KINDS:
        raise ValueError(f"unknown 6j symbol kind {kind!r}")
    if kind not in ctx.kinds():
        raise ValueError(
            f"kind {kind!r} is not available in this context "
            f"(offers {', '.join(ctx.kinds())})")
    sizes, names = _label_domains(ctx, kind)
    if len(labels) != len(sizes):
        raise UndefinedLabels(
            f"kind {kind!r} takes {len(sizes)} labels, got {len(labels)}")
    _check_labels(labels, sizes, names)

    if kind in _MATRIX_KINDS:
        mat = _matrix_symbol(ctx, _matrix_parts(ctx, kind), labels,
                             inverse=kind.endswith("^-1"))
        if mat is None:
            raise UndefinedLabels(
                f"labels {labels} do not compose for kind {kind!r}")
        indices = query.indices or (1, 1)
        if len(indices) != 2:
            raise IndexOutOfRange(
                f"kind {kind!r} takes two multiplicity indices")
        row, col = indices
        if not (1 <= row <= mat.nrows and 1 <= col <= mat.ncols):
            raise IndexOutOfRange(
                f"indices {indices} outside 1..{mat.nrows}")
        return SixJValue(value=mat.entry(row - 1, col - 1), matrix=mat)

    if query.indices:
        raise IndexOutOfRange(
            f"kind {kind!r} admits no multiplicity indices")
    if kind in FUSION_KINDS:
        plus, minus = _fusion_value(ctx.fusion, labels)
        val = plus if kind == "fusion+" else minus
        if val is None:
            raise UndefinedLabels(
                f"labels {labels} do not compose for kind {kind!r}")
        return SixJValue(value=val)

    data, trace = ctx.bimodule, ctx.trace
    inverse = kind.endswith("^-1")
    if kind.startswith("m"):
        unit = _m_value(data.left.group, data.x_g.action, data.psi, trace,
                        data.left.kappa_unit, labels, inverse)
    elif kind.startswith("n"):
        unit = _n_value(data, trace, labels, inverse)
    else:
        unit = _b_value(data, trace, labels, inverse)
    if unit is None:
        raise UndefinedLabels(
            f"labels {labels} do not compose for kind {kind!r}")
    return SixJValue(value=unit.to_scalar())


def sixj_table(context: SixJContext, kind: str) -> list[dict]:
    """All admissible symbols of one kind: label tuple, indices, value.

    Matrix kinds produce one row per matrix entry.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown 6j symbol kind {kind!r}")
    if kind not in context.kinds():
        raise ValueError(
            f"kind {kind!r} is not available in this context "
            f"(offers {', '.join(context.kinds())})")
    rows = []
    for labels in _admissible_labels(context, kind):
        if kind in _MATRIX_KINDS:
            value = sixj(SixJQuery(kind, context, labels))
            for r in range(value.matrix.nrows):
                for c in range(value.matrix.ncols):
                    rows.append({"labels": labels, "indices": (r + 1, c + 1),
                                 "value": value.matrix.entry(r, c)})
        else:
            rows.append({"labels": labels, "indices": (),
                         "value": sixj(SixJQuery(kind, context, labels)).value})
    return rows


def _admissible_labels(ctx: SixJContext, kind: str):
    """Yield every label tuple that composes, in lexicographic free order."""
    if kind in FUSION_KINDS:
        grp = ctx.fusion.group
        for i in grp.elements():
            for j in grp.elements():
                c = grp.op(i, j)
                for k in grp.elements():
                    yield (i, j, k, grp.op(j, k), grp.op(c, k), c)
        return
    if kind in BIMODULE_KINDS:
        data = ctx.bimodule
        grp_g, grp_h = data.left.group, data.right.group
        act_g, act_h = data.x_g.action, data.x_h.action
        nx = data.X.size
        if kind.startswith("m"):
            for i in grp_g.elements():
                for j in grp_g.elements():
                    c = grp_g.op(i, j)
                    for k in range(nx):
                        yield (i, j, k, int(act_g[j, k]), int(act_g[c, k]), c)
        elif kind.startswith("n"):
            for i in range(nx):
                for j in grp_h.elements():
                    a = int(act_h[grp_h.inv(j), i])
                    for k in grp_h.elements():
                        c = grp_h.op(j, k)
                        yield (i, j, k, a, int(act_h[grp_h.inv(c), i]), c)
        else:
            for i in grp_g.elements():
                for j in range(nx):
                    c = int(act_g[i, j])
                    for k in grp_h.elements():
                        kinv = grp_h.inv(k)
                        yield (i, j, k, int(act_h[kinv, j]),
                               int(act_h[kinv, c]), c)
        return
    grp, act_x, act_y, mult, _, acting = _matrix_parts(ctx, kind)
    for l in grp.elements():
        g = acting(l)
        for j in range(act_x.shape[1]):
            c = int(act_x[g, j])
            for a in range(act_y.shape[1]):
                if mult[j, a]:
                    yield (l, j, a, int(act_y[g, a]), c)


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------

def _zero_matrix(nrows: int, ncols: int) -> SMatrix:
    return SMatrix([[Scalar.zero()] * ncols for _ in range(nrows)])


def _in_scope(scope, tup) -> bool:
    return scope is None or tup in scope


def _normalize_scope(scope):
    if scope is None:
        return None
    return {tuple(int(v) for v in t) for t in scope}


# -- fusion relations -------------------------------------------------------

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


# -- bimodule-category relations --------------------------------------------

def _orth_scalar_pair(name, outer, middle, evaluate, dim_middle, dim_alt,
                      admissible, scope, log) -> int:
    """Orthogonality for a scalar symbol pair.

    For each outer tuple (i, j, k, b, c, d), sums
    dim(a) * dim(d) * sym(i,j,k,a,b,c) * sym_inv(i,j,k,a,b,d) over the
    middle label a and compares with the Kronecker/admissibility pattern.
    """
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


def _orth_bimodule(ctx: SixJContext, scope, log) -> int:
    data, trace = ctx.bimodule, ctx.trace
    grp_g, grp_h = data.left.group, data.right.group
    act_g, act_h = data.x_g.action, data.x_h.action
    xs = range(data.X.size)
    gs, hs = grp_g.elements(), grp_h.elements()

    def m_eval(labels, inverse):
        return _m_value(grp_g, act_g, data.psi, trace,
                        data.left.kappa_unit, labels, inverse)

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


# -- module-functor relations -----------------------------------------------

def _orth_matrix_pair(ctx: SixJContext, kind: str, scope, log) -> int:
    """Both displayed orthogonality forms for the s or the t symbols.

    A singular block met in a sum is logged in place of the comparison.
    """
    parts = _matrix_parts(ctx, kind)
    grp, act_x, act_y, mult, _, acting = parts
    nx, ny = act_x.shape[1], act_y.shape[1]
    src_tr, tgt_tr = ctx.source_trace, ctx.target_trace
    checked = 0

    # a-summed form: sum over a of dim(a) dim(d) s(..c) s^-1(..d) with the
    # inverse-symbol matrix indices chained through the summed one.
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
                        if not _in_scope(scope, (l, j, b, c, d)):
                            continue
                        checked += 1
                        total = _zero_matrix(size, size)
                        for a in range(ny):
                            mat = _matrix_symbol(ctx, parts, (l, j, a, b, c),
                                                 False)
                            if mat is None:
                                continue
                            try:
                                inv = _matrix_symbol(ctx, parts,
                                                     (l, j, a, b, d), True)
                            except ValidationError as exc:
                                log.add(name, (l, j, b, c, d), str(exc),
                                        "inverse")
                                break
                            if inv is None:
                                continue
                            dims = tgt_tr.unit(a) * src_tr.unit(d)
                            total = total + (inv @ mat).scale(dims)
                        else:  # no singular block met
                            expected = (SMatrix.identity(size)
                                        if c == d and c == int(act_x[g, j])
                                        else _zero_matrix(size, size))
                            if total != expected:
                                log.add(name, (l, j, b, c, d), total,
                                        expected)

    # c-summed form: sum over c of dim(c) dim(d) s(.., a, ..) s^-1(.., d, ..)
    # with the column index of s chained to the row index of s^-1.
    name = f"orthogonality[{kind};c-sum]"
    for l in grp.elements():
        g = acting(l)
        for j in range(nx):
            for a in range(ny):
                if not mult[j, a]:
                    continue
                for d in range(ny):
                    if not mult[j, d]:
                        continue
                    for b in range(ny):
                        if not _in_scope(scope, (l, j, a, d, b)):
                            continue
                        checked += 1
                        total = _zero_matrix(int(mult[j, a]),
                                             int(mult[j, d]))
                        for c in range(nx):
                            mat = _matrix_symbol(ctx, parts, (l, j, a, b, c),
                                                 False)
                            if mat is None:
                                continue
                            try:
                                inv = _matrix_symbol(ctx, parts,
                                                     (l, j, d, b, c), True)
                            except ValidationError as exc:
                                log.add(name, (l, j, a, d, b), str(exc),
                                        "inverse")
                                break
                            if inv is None:
                                continue
                            dims = src_tr.unit(c) * tgt_tr.unit(d)
                            total = total + (mat @ inv).scale(dims)
                        else:  # no singular block met
                            expected = (SMatrix.identity(int(mult[j, a]))
                                        if a == d and b == int(act_y[g, a])
                                        else _zero_matrix(int(mult[j, a]),
                                                          int(mult[j, d])))
                            if total != expected:
                                log.add(name, (l, j, a, d, b), total,
                                        expected)
    return checked


def _ber_functor(ctx: SixJContext, scope, log,
                 relation: str = "biedenharn-elliott[s]") -> int:
    """The displayed Biedenharn-Elliott relation for module functors.

    Left side: [left-action symbol of the target] x [s at the product
    label]; right side: the sum over middle points of the source of
    dim(m) [s] [left-action symbol of the source] [s], matched as exact
    matrices over the shared multiplicity space.
    """
    parts = _matrix_parts(ctx, "s")
    grp, act_x, act_y, mult, _, _ = parts
    psi_x, psi_y = ctx.functor.source.psi, ctx.functor.target.psi
    nx, ny = act_x.shape[1], act_y.shape[1]
    src_tr, tgt_tr = ctx.source_trace, ctx.target_trace
    checked = 0
    for i in grp.elements():
        for j in grp.elements():
            c = grp.op(i, j)
            for l in range(nx):
                d = int(act_x[c, l])
                for k in range(ny):
                    if not mult[l, k]:
                        continue
                    if not _in_scope(scope, (i, j, l, k)):
                        continue
                    checked += 1
                    a = int(act_y[j, k])
                    b = int(act_y[i, a])
                    size = int(mult[l, k])
                    m_target = _m_value(grp, act_y, psi_y, tgt_tr,
                                        None, (i, j, k, a, b, c), False)
                    s_outer = _matrix_symbol(ctx, parts, (c, l, k, b, d),
                                             False)
                    lhs = (_zero_matrix(size, size)
                           if m_target is None or s_outer is None
                           else s_outer.scale(m_target))
                    rhs = _zero_matrix(size, size)
                    for mm in range(nx):
                        s_right = _matrix_symbol(ctx, parts,
                                                 (j, l, k, a, mm), False)
                        if s_right is None:
                            continue
                        m_source = _m_value(grp, act_x, psi_x, src_tr,
                                            None, (i, j, l, mm, d, c), False)
                        if m_source is None:
                            continue
                        s_left = _matrix_symbol(ctx, parts,
                                                (i, mm, a, b, d), False)
                        if s_left is None:
                            continue
                        dims = src_tr.unit(mm) * m_source
                        rhs = rhs + (s_right @ s_left).scale(dims)
                    if lhs != rhs:
                        log.add(relation, (i, j, l, k), lhs, rhs)
    return checked


def _ber_bimodule(ctx: SixJContext, scope, log) -> int:
    """Biedenharn-Elliott for a bimodule category.

    The scalar symbols are the functor symbols of the point-action
    functors of the associated product-group module category, so the
    relation is checked for every base point.
    """
    deligne = bimod_to_deligne(ctx.bimodule)
    source = regular_module_category(deligne.fusion)
    src_tr = module_trace(source)
    assert src_tr is not None
    checked = 0
    for base in range(deligne.X.size):
        functor = action_functor(deligne, base)
        fctx = SixJContext(functor=functor, source_trace=src_tr,
                           target_trace=ctx.trace)
        checked += _ber_functor(
            fctx, scope, log,
            relation=f"biedenharn-elliott[m;base={base}]")
    return checked


# ---------------------------------------------------------------------------
# public verification entry points
# ---------------------------------------------------------------------------

def verify_orthogonality(context: SixJContext,
                         scope: Optional[Sequence] = None) -> ValidationReport:
    """Check every orthogonality identity the context supports.

    ``scope`` optionally restricts to an explicit set of outer label
    tuples; the default covers all admissible tuples.
    """
    scope = _normalize_scope(scope)
    log = FailureLog(key="kind", fmt=repr)
    if context.fusion is not None:
        checked = _orth_fusion(context.fusion, scope, log)
    elif context.bimodule is not None:
        checked = _orth_bimodule(context, scope, log)
    elif context.functor is not None:
        checked = _orth_matrix_pair(context, "s", scope, log)
        if isinstance(context.functor, BimoduleFunctorData):
            checked += _orth_matrix_pair(context, "t", scope, log)
    else:
        raise ValueError("empty 6j context")
    return log.report(checked)


def verify_biedenharn_elliott(
        context: SixJContext,
        scope: Optional[Sequence] = None) -> ValidationReport:
    """Check every Biedenharn-Elliott identity the context supports.

    Fusion contexts expand the pentagon over all of G; functor contexts
    check the displayed mixed relation; bimodule contexts reduce to the
    functor relation through the point-action functors.  The right-action
    matrices of a bimodule functor satisfy a composition law that is part
    of validate_bimodfun rather than a displayed relation here.
    """
    scope = _normalize_scope(scope)
    log = FailureLog(key="kind", fmt=repr)
    if context.fusion is not None:
        checked = _ber_fusion(context.fusion, scope, log)
    elif context.bimodule is not None:
        checked = _ber_bimodule(context, scope, log)
    elif context.functor is not None:
        checked = _ber_functor(context, scope, log)
    else:
        raise ValueError("empty 6j context")
    return log.report(checked)

"""Generalized 6j symbols and exact verification of their relations.

Twelve symbol kinds are supported, each given by a closed form:

* ``fusion+`` / ``fusion-`` -- associator symbols of a spherical
  twisted group category.
* ``m`` / ``m^-1``, ``n`` / ``n^-1``, ``b`` / ``b^-1`` -- the scalar symbols
  of a traced bimodule category: left action (``m``), right action (``n``)
  and middle constraint (``b``).
* ``s`` / ``s^-1`` -- the matrix symbols of a module functor, given by the
  coherence matrices ``A`` rescaled with the target trace.
* ``t`` / ``t^-1`` -- the matrix symbols of the right-action side of a
  bimodule functor, given by the ``B`` matrices.

The matrix symbols read the sides A and B of :mod:`twistcat.modfun`, which
fix the acting element of a label: l for s, l^-1 for t.  Functor
orthogonality (s s^-1 against I) multiplies a coherence block by its
inverse and tests the scaled product against I; on a side with an exponent
table (blocks that are permutations times roots) T^-1 T = I exactly, and a
trace factor that is a sign decides it alone.
The traces being signs, functor Biedenharn-Elliott is the A side's
composition rule and is decided by its composition instance
(``modfun.composition``); its sides are built only for a failure
report.  A symbol table (:func:`sixj_table`) builds the scalar layout, or
reads the coherence side, once for all its labels.

The symbols come with exact orthogonality and Biedenharn-Elliott checks:
sums of products of symbols that must collapse to Kronecker patterns or to
matching pentagon-type expansions.  All arithmetic is exact.  Each check
covers its whole label box (for a functor, the supported part of it), and
its ``checked`` count is that box's size in closed form.

The four scalar families share one layout (:class:`_ScalarLayout`), a table
of exponents at one root order: three free labels determine the other three,
and a symbol is zero off the composed tuples and a root of unity on them.  So
every scalar orthogonality or Biedenharn-Elliott sum has at most one nonzero
term, and the sweeps compare exponent sums at the composed tuples only (a
Unit is built for a failure sample); the others hold as 0 = 0 and still count
as checked.  Scalar orthogonality multiplies out to dim(a)^2 dim(c)^2 = 1, so
it sees dimensions that are not signs (kappa, the trace) and never the twists
omega, Psi, Phi, Omega; those show in Biedenharn-Elliott, which for fusion
and bimodule contexts is one scalar module pentagon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm, prod
from typing import Optional, Union

from .errors import (IndexOutOfRange, NoTrace, NotSpherical, ShapeMismatch,
                     UndefinedLabels, ValidationError)
from .scalar import Scalar, Unit
from .algebra import regular_gset
from .fusion import FusionData
from .modcat import (BimoduleCategoryData, FailureLog, ModuleTrace,
                     ValidationReport, bimodule_trace, module_trace)
from .modfun import (BimoduleFunctorData, CoherenceSide, ModuleFunctorData,
                     coherence_sides, composition)
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

    Exactly one of ``fusion``, ``bimodule``, ``functor`` is set; traces and
    the functor's coherence sides ``sides`` ((A,) or (A, B)) are attached at
    construction time so that a symbol evaluation never has to re-derive
    them, and ``layouts`` keeps each scalar family's layout once built.
    """

    fusion: Optional[FusionData] = None
    bimodule: Optional[BimoduleCategoryData] = None
    trace: Optional[ModuleTrace] = None
    functor: Optional[Union[ModuleFunctorData, BimoduleFunctorData]] = None
    source_trace: Optional[ModuleTrace] = None
    target_trace: Optional[ModuleTrace] = None
    sides: tuple[CoherenceSide, ...] = field(init=False, compare=False,
                                             repr=False)
    layouts: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sides", () if self.functor is None
                           else coherence_sides(self.functor))
        object.__setattr__(self, "layouts", {})

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
# scalar symbol layouts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ScalarLayout:
    """One family of scalar symbols (fusion, m, n or b) on (i, j, k, a, b, c),
    as exponents at one root order ``root``.

    ``sizes`` bounds the six labels.  The free labels (i, j, k) fix the
    other three; off the composed tuples the symbols vanish, and on them
    they are roots of unity.  ``rows`` holds, per free triple in
    lexicographic order, the composed (a, b, c) and the exponents of the
    direct and the inverse symbol; ``dim_a`` and ``dim_c`` are the exponents
    of the dimensions of a and c.
    """

    sizes: tuple[int, ...]
    root: int
    rows: tuple[tuple[int, int, int, int, int], ...]
    dim_a: tuple[int, ...]
    dim_c: tuple[int, ...]

    def composed(self):
        """Each free triple (i, j, k) with its row, in lexicographic order."""
        return zip(itertools.product(*map(range, self.sizes[:3])), self.rows)


def _layout(sizes, compose, cochain, slots, dim_a, dim_c,
            swapped=False) -> _ScalarLayout:
    """The layout whose row at (i, j, k) is compose(i, j, k) = (a, b, c) and,
    with t the cochain at slots(i, j, k, b), the direct symbol dim_a(a) * t
    and the inverse one dim_c(c) / t, the two exchanged for a ``swapped``
    family.  The slots are three indices into the first three axes of the
    cochain's table (omega has a fourth, the point carrier, of size 1).  The
    root order is the lcm of the cochain's and the dimensions' orders."""
    dims_a = [dim_a(x) for x in range(sizes[3])]
    dims_c = [dim_c(x) for x in range(sizes[5])]
    root = lcm(cochain.root_order, *(u.root_order for u in dims_a + dims_c))
    exp_a = tuple(u.exponent_at(root) for u in dims_a)
    exp_c = tuple(u.exponent_at(root) for u in dims_c)
    exps, scale = cochain.exponents_flat, root // cochain.root_order
    d1, d2 = cochain.shape[1:3]
    rows = []
    for i, j, k in itertools.product(*map(range, sizes[:3])):
        a, b, c = compose(i, j, k)
        p, q, r = slots(i, j, k, b)
        t = exps[(p * d1 + q) * d2 + r] * scale
        pair = (exp_a[a] + t) % root, (exp_c[c] - t) % root
        rows.append((a, b, c) + (pair[::-1] if swapped else pair))
    return _ScalarLayout(tuple(sizes), root, tuple(rows), exp_a, exp_c)


def _m_layout(grp, x_set, psi, dim_a, dim_c,
              slots=lambda i, j, k, b: (i, j, b)) -> _ScalarLayout:
    """The left-action symbols of a module structure psi on the carrier
    ``x_set``: m = dim_a(a) psi(i, j, b) and m^-1 = dim_c(c) / psi(i, j, b),
    at c = ij, a = j.k, b = c.k; with slots (i, j, k), the fusion symbols."""
    def compose(i, j, k):
        c = grp.op(i, j)
        return x_set.apply(j, k), x_set.apply(c, k), c

    n, nx = grp.order, x_set.size
    return _layout((n, n, nx, nx, nx, n), compose, psi, slots, dim_a, dim_c)


def _scalar_layout(ctx: SixJContext, family: str) -> _ScalarLayout:
    """The layout of one family of symbols of a context (see
    :func:`_new_layout`), built on first use and kept in ``ctx.layouts``."""
    lay = ctx.layouts.get(family)
    if lay is None:
        lay = ctx.layouts[family] = _new_layout(ctx, family)
    return lay


def _new_layout(ctx: SixJContext, family: str) -> _ScalarLayout:
    """The layout of the fusion, m, n or b symbols of a context; of a
    bimodule context, "fusion" and "m over K" are the fusion and m symbols
    of its product structure over K = G x H, with the bimodule trace.

    * fusion: c = ij, a = jk, b = ck; fusion+ = kappa(a) omega(i, j, k),
      fusion- = kappa(c) / omega(i, j, k).
    * n: c = jk, a = i.j, b = i.c (right H-action on X);
      n = kappa_H(c) / phi(k^-1, j^-1, b), n^-1 = trace(a) phi(k^-1, j^-1, b).
    * b: c = i.j (left), a = j.k, b = c.k (right);
      b = trace(a) Omega(i, k^-1, b), b^-1 = trace(c) / Omega(i, k^-1, b).
    * m: see :func:`_m_layout`.
    """
    data, trace = ctx.bimodule, ctx.trace
    if family == "fusion":
        fusion = (ctx.fusion if ctx.fusion is not None
                  else data.product_structure.fusion)
        grp, kappa = fusion.group, fusion.kappa_unit
        return _m_layout(grp, regular_gset(grp), fusion.omega, kappa, kappa,
                         lambda i, j, k, b: (i, j, k))
    if family == "m":
        return _m_layout(data.left.group, data.x_g, data.psi, trace.unit,
                         data.left.kappa_unit)
    if family == "m over K":
        product = data.product_structure
        return _m_layout(product.fusion.group, product.X, product.psi,
                         trace.unit, product.fusion.kappa_unit)
    ng, nh, nx = data.left.group.order, data.right.group.order, data.X.size
    x_g, x_h = data.x_g, data.x_h
    inv = data.right.group.inv
    if family == "n":
        def compose_n(i, j, k):
            c = data.right.group.op(j, k)
            return x_h.apply(inv(j), i), x_h.apply(inv(c), i), c

        return _layout((nx, nh, nh, nx, nx, nh), compose_n, data.phi,
                       lambda i, j, k, b: (inv(k), inv(j), b), trace.unit,
                       data.right.kappa_unit, swapped=True)

    def compose_b(i, j, k):
        c = x_g.apply(i, j)
        return x_h.apply(inv(k), j), x_h.apply(inv(k), c), c

    return _layout((ng, nx, nh, nx, nx, nx), compose_b, data.omega_mid,
                   lambda i, j, k, b: (i, inv(k), b), trace.unit, trace.unit)


def _family(kind: str) -> str:
    return "fusion" if kind in FUSION_KINDS else kind[0]


def _is_inverse(kind: str) -> bool:
    return kind == "fusion-" or kind.endswith("^-1")


def _side(ctx: SixJContext, kind: str) -> CoherenceSide:
    """The coherence side of a matrix kind: A for s, B for t."""
    return ctx.sides[kind in BIMODFUN_KINDS]


def _inverse_block(side: CoherenceSide, key) -> SMatrix:
    """T_key^-1 for the side's table T; a singular block (possible only for
    corrupted data) raises ValidationError, each time it is asked for."""
    inv = side.table[key].inverse()
    if inv is None:
        raise ValidationError(f"coherence matrix at {key} is singular")
    return inv


def _matrix_symbol(ctx: SixJContext, side: CoherenceSide, labels,
                   inverse: bool) -> Optional[SMatrix]:
    """The rescaled matrix symbol at labels (l, j, a, b, c), or None.

    With g the acting element of l and T the side's table, the symbol is
    defined when c = g.j, b = g.a and (j, a) is supported; ``s`` and ``t``
    are target_trace(a) * T_{l,j,a}, ``s^-1`` and ``t^-1`` are
    source_trace(c) * T_{l,j,a}^-1, built afresh on each call.
    """
    l, j, a, b, c = labels
    g = side.acting(l)
    if (c != side.source.apply(g, j) or b != side.target.apply(g, a)
            or not side.functor.multiplicity(j, a)):
        return None
    if inverse:
        return _inverse_block(side, (l, j, a)).scale(
            ctx.source_trace.unit(c))
    return side.table[(l, j, a)].scale(ctx.target_trace.unit(a))


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def _check_labels(kind: str, labels, sizes, names) -> None:
    if len(labels) != len(sizes):
        raise UndefinedLabels(
            f"kind {kind!r} takes {len(sizes)} labels, got {len(labels)}")
    for val, size, name in zip(labels, sizes, names):
        if not 0 <= val < size:
            raise UndefinedLabels(
                f"label {name}={val} is out of range (size {size})")


def _check_kind(ctx: SixJContext, kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown 6j symbol kind {kind!r}")
    if kind not in ctx.kinds():
        raise ValueError(f"kind {kind!r} is not available in this context "
                         f"(offers {', '.join(ctx.kinds())})")


def sixj(query: SixJQuery) -> SixJValue:
    """Evaluate one generalized 6j symbol exactly.

    Raises UndefinedLabels when the labels do not compose, IndexOutOfRange
    for bad multiplicity indices, and NoTrace/NotSpherical at context
    construction when the required structure is missing.
    """
    kind, ctx, labels = query.kind, query.context, tuple(query.labels)
    _check_kind(ctx, kind)
    inverse = _is_inverse(kind)
    if kind in _MATRIX_KINDS:
        side = _side(ctx, kind)
        nx, ny = side.source.size, side.target.size
        _check_labels(kind, labels, (side.group.order, nx, ny, ny, nx),
                      "liabc" if side.right else "ijabc")
        value = _matrix_symbol(ctx, side, labels, inverse)
    else:
        lay = _scalar_layout(ctx, _family(kind))
        _check_labels(kind, labels, lay.sizes, "ijkabc")
        if query.indices:
            raise IndexOutOfRange(
                f"kind {kind!r} admits no multiplicity indices")
        row = lay.rows[(labels[0] * lay.sizes[1] + labels[1]) * lay.sizes[2]
                       + labels[2]]
        value = (Unit(lay.root, row[3 + inverse]) if labels[3:] == row[:3]
                 else None)
    if value is None:
        raise UndefinedLabels(
            f"labels {labels} do not compose for kind {kind!r}")
    if kind not in _MATRIX_KINDS:
        return SixJValue(value=value.to_scalar())
    indices = query.indices or (1, 1)
    if len(indices) != 2:
        raise IndexOutOfRange(
            f"kind {kind!r} takes two multiplicity indices")
    row, col = indices
    if not (1 <= row <= value.nrows and 1 <= col <= value.ncols):
        raise IndexOutOfRange(
            f"indices {indices} outside 1..{value.nrows}")
    return SixJValue(value=value.entry(row - 1, col - 1), matrix=value)


def sixj_table(context: SixJContext, kind: str) -> list[dict]:
    """All admissible symbols of one kind: label tuple, indices, value, in
    lexicographic order of the free labels ((i, j, k), or (l, j, a) for the
    matrix kinds), the same values :func:`sixj` gives label by label.

    Matrix kinds produce one row per matrix entry.
    """
    _check_kind(context, kind)
    inverse = _is_inverse(kind)
    if kind not in _MATRIX_KINDS:
        lay = _scalar_layout(context, _family(kind))
        return [{"labels": ijk + row[:3], "indices": (),
                 "value": Unit(lay.root, row[3 + inverse]).to_scalar()}
                for ijk, row in lay.composed()]
    side = _side(context, kind)
    x_set, y_set = side.source, side.target
    rows = []
    for l, j, a in itertools.product(side.group.elements(), range(x_set.size),
                                     range(y_set.size)):
        g = side.acting(l)
        labels = (l, j, a, y_set.apply(g, a), x_set.apply(g, j))
        mat = _matrix_symbol(context, side, labels, inverse)
        if mat is not None:
            rows += [{"labels": labels, "indices": (r + 1, c + 1),
                      "value": mat.entry(r, c)}
                     for r in range(mat.nrows) for c in range(mat.ncols)]
    return rows


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------

# -- scalar relations -------------------------------------------------------

def _orth_scalar(ctx: SixJContext, family: str, log) -> int:
    """Orthogonality of the fusion, m, n or b symbols.

    For each outer tuple (i, j, k, b, c, d) the sum over a of
    dim(a) dim(d) sym(i,j,k,a,b,c) sym^-1(i,j,k,a,b,d) must be 1 when
    (a, b, c) composes from (i, j, k) and d = c, and 0 otherwise.  Both
    factors vanish unless their labels compose, so the sum has at most one
    term, and only at a composed tuple with d = c; every other outer tuple
    sums to 0 as required.  Only the composed tuples are evaluated, but every
    tuple of the outer box counts as checked.
    """
    lay = _scalar_layout(ctx, family)
    name = f"orthogonality[{family}]"
    for (i, j, k), (a, b, c, e, e_inv) in lay.composed():
        total = (lay.dim_a[a] + lay.dim_c[c] + e + e_inv) % lay.root
        if total:
            log.add(name, (i, j, k, b, c, c),
                    Unit(lay.root, total).to_scalar(), Scalar.from_rational(1))
    si, sj, sk, _, sb, sc = lay.sizes
    return si * sj * sk * sb * sc * sc


def _pentagon(fus: _ScalarLayout, mod: _ScalarLayout, points, name: str,
              tup, log) -> None:
    """Biedenharn-Elliott for the m symbols of ``mod`` over the fusion
    symbols F of ``fus`` at each point (x0, i, j, l), the sum over f reduced
    to its one nonzero term at f = jl: with c = ij, d = cl, k = l.x0,
    a = f.x0 and b = d.x0, m(i,j,k,a,b,c) m(c,l,x0,k,b,d) must equal
    kappa(f) F(i,j,l,f,d,c) m(j,l,x0,k,a,f) m(i,f,x0,a,b,d).  A failure is
    logged under ``name.format(x0)`` and the tuple ``tup(x0, i, j, l, k)``
    as products of the factors' Scalars.  The sides are compared as
    exponent sums at the lcm of the two layouts' root orders."""
    root = lcm(fus.root, mod.root)
    up_f, up_m = root // fus.root, root // mod.root
    n, nx, nf = mod.sizes[1], mod.sizes[2], fus.sizes[1]
    rows, fus_rows, fus_dim = mod.rows, fus.rows, fus.dim_a
    for x0, i, j, l in points:
        k, _, f, m_jl, _ = rows[(j * n + l) * nx + x0]
        c, m_ij = rows[(i * n + j) * nx + k][2:4]
        f_ijl = fus_rows[(i * nf + j) * nf + l][3]
        m_cl = rows[(c * n + l) * nx + x0][3]
        m_if = rows[(i * n + f) * nx + x0][3]
        if ((m_ij + m_cl - m_if - m_jl) * up_m
                - (fus_dim[f] + f_ijl) * up_f) % root:
            lhs = (Unit(mod.root, m_ij), Unit(mod.root, m_cl))
            rhs = (Unit(fus.root, fus_dim[f]), Unit(mod.root, m_if),
                   Unit(fus.root, f_ijl), Unit(mod.root, m_jl))
            log.add(name.format(x0), tup(x0, i, j, l, k),
                    prod(u.to_scalar() for u in lhs),
                    prod(u.to_scalar() for u in rhs))


def _ber_fusion(ctx: SixJContext, log) -> int:
    """Biedenharn-Elliott for the fusion symbols over (i, j, k, m, n) in G^5:
    both sides vanish unless k = mn, so only the pentagon at base n = m^-1 k
    and l = m is evaluated, and every other tuple holds as 0 = 0."""
    lay = _scalar_layout(ctx, "fusion")
    grp = ctx.fusion.group
    points = ((grp.op(grp.inv(m), k), i, j, m)
              for i, j, k, m in itertools.product(grp.elements(), repeat=4))
    _pentagon(lay, lay, points, "biedenharn-elliott[fusion]",
              lambda x0, i, j, l, k: (i, j, k, l, x0), log)
    return grp.order ** 5


def _ber_bimodule(ctx: SixJContext, log) -> int:
    """Biedenharn-Elliott for a bimodule category: the pentagon of its
    unvalidated product structure over K = G x H, with the bimodule trace,
    at every base x0 and (i, j, l) in K^3, reported as (i, j, l, l.x0)."""
    product = ctx.bimodule.product_structure
    grp, x_set = product.fusion.group, product.X
    points = ((x0, i, j, l) for x0 in range(x_set.size)
              for i, j, l in itertools.product(grp.elements(), repeat=3))
    _pentagon(_scalar_layout(ctx, "fusion"), _scalar_layout(ctx, "m over K"),
              points, "biedenharn-elliott[m;base={}]",
              lambda x0, i, j, l, k: (i, j, l, k), log)
    return grp.order ** 3 * x_set.size


# -- module-functor relations -----------------------------------------------

def _orth_term(ctx: SixJContext, side: CoherenceSide, log, name: str, tup,
               labels, a_sum: bool) -> None:
    """The one term at composed labels (l, j, a, b, c), tgt(a) src(c) s^-1 s
    (a-sum) or s s^-1 (c-sum): with T the block at (l, j, a), the product
    (tgt(a) src(c))^2 T^-1 T or T T^-1, read off the side's table and
    compared against I; a singular block is logged instead.  On a side
    with an exponent table T^-1 T = I exactly: a sign tgt(a) src(c) holds."""
    l, j, a, _, c = labels
    u = ctx.target_trace.unit(a) * ctx.source_trace.unit(c)
    if side.exponents[1] is not None and u.root_order <= 2:  # u^2 = 1
        return
    u = u * u
    mat = side.table[(l, j, a)]
    try:
        inv = _inverse_block(side, (l, j, a))
    except ValidationError as exc:
        log.add(name, tup, str(exc), "inverse")
        return
    first, second = (inv, mat) if a_sum else (mat, inv)
    product = (first @ second).scale(u)
    if not product.is_identity():
        log.add(name, tup, product, SMatrix.identity(mat.nrows))


def _orth_matrix_pair(ctx: SixJContext, side: CoherenceSide, log) -> int:
    """Both displayed orthogonality forms for the s symbols of a side A or
    the t symbols of a side B, with g the acting element of l:

    * a-sum: the sum over a of dim(a) dim(d) s^-1(l,j,a,b,d) s(l,j,a,b,c) is
      I when c = d = g.j and 0 otherwise;
    * c-sum: the sum over c of dim(c) dim(d) s(l,j,a,b,c) s^-1(l,j,d,b,c) is
      I when a = d and b = g.a and 0 otherwise.

    s vanishes off c = g.j, b = g.a, so each form has one term per composed
    label (l, j, a), reducing to T^-1 T = I and tgt(a)^2 src(c)^2 = 1.  Only
    that term is evaluated; every other supported outer tuple holds as 0 = 0.
    """
    grp, x_set, y_set = side.group, side.source, side.target
    nx, ny, mult = x_set.size, y_set.size, side.functor.mult_flat
    kind = "t" if side.right else "s"
    checked = 0

    name = f"orthogonality[{kind};a-sum]"
    for l in grp.elements():
        g = side.acting(l)
        for j, b in itertools.product(range(nx), range(ny)):
            a, c = y_set.apply(grp.inv(g), b), x_set.apply(g, j)
            if mult[j * ny + a]:
                checked += nx * nx
                _orth_term(ctx, side, log, name, (l, j, b, c, c),
                           (l, j, a, b, c), True)

    name = f"orthogonality[{kind};c-sum]"
    for l in grp.elements():
        g = side.acting(l)
        for j in range(nx):
            row = [a for a in range(ny) if mult[j * ny + a]]
            checked += len(row) ** 2 * ny
            for a in row:
                b = y_set.apply(g, a)
                _orth_term(ctx, side, log, name, (l, j, a, a, b),
                           (l, j, a, b, x_set.apply(g, j)), False)
    return checked


def _ber_functor(ctx: SixJContext, log) -> int:
    """The displayed Biedenharn-Elliott relation for module functors at each
    supported (i, j, l, k): with c = ij, d = c.l, mm = j.l, a = j.k, b = i.a,
    m_target(i,j,k,a,b,c) s(c,l,k,b,d) against dim(mm) s(j,l,k,a,mm)
    m_source(i,j,l,mm,d,c) s(i,mm,a,b,d), the one term of the sum over the
    middle points mm.  The traces are signs, so tgt(k) and tgt(a) cancel and
    src(mm)^2 = 1: the relation is A's composition instance at
    (g, h, x, y) = (i, j, l, k), and is decided there.  Only a failure builds
    the sides, the rhs zero where the moved block is missing and the
    ShapeMismatch message where m is not invariant."""
    side = _side(ctx, "s")
    grp, x_set, y_set, f = side.group, side.source, side.target, side.functor
    src, tgt = ctx.source_trace.unit, ctx.target_trace.unit
    support = f.support()
    for i, j in itertools.product(grp.elements(), repeat=2):
        instance = composition(side, i, j)
        for l, k in support:
            if instance(l, k) is None:
                continue
            c, mm, a = grp.op(i, j), x_set.apply(j, l), y_set.apply(j, k)
            d, b = x_set.apply(c, l), y_set.apply(i, a)
            lhs = _matrix_symbol(ctx, side, (c, l, k, b, d), False).scale(
                tgt(a) * side.twist_target.value((i, j, b)))
            rhs = SMatrix([[Scalar.zero()] * lhs.ncols] * lhs.nrows)
            s_left = _matrix_symbol(ctx, side, (i, mm, a, b, d), False)
            if s_left is not None:
                s_right = _matrix_symbol(ctx, side, (j, l, k, a, mm), False)
                dims = src(mm) * src(mm) * side.twist_source.value((i, j, d))
                try:
                    rhs = (s_right @ s_left).scale(dims)
                except ShapeMismatch as exc:  # m is not invariant
                    rhs = str(exc)
            if lhs != rhs:
                log.add("biedenharn-elliott[s]", (i, j, l, k), lhs, rhs)
    return grp.order ** 2 * len(support)


# ---------------------------------------------------------------------------
# public verification entry points
# ---------------------------------------------------------------------------

def verify_orthogonality(context: SixJContext) -> ValidationReport:
    """Check every orthogonality identity the context supports.

    ``checked`` counts the outer tuples: |G|^6 for a fusion context, and for
    a bimodule context the sum of the m, n and b boxes.  A scalar sum has at
    most one nonzero term, so only the composed tuples are evaluated; every
    other tuple holds as 0 = 0.  The scalar identities reduce to
    dim(a)^2 dim(c)^2 = 1: they detect kappa or trace values that are not
    signs, never a defect of omega, Psi, Phi or Omega.  A functor context
    counts, per side, the supported (l, j, b, c, d) of the a-sum and
    (l, j, a, d, b) of the c-sum; each sum has one term per composed label,
    reducing to T^-1 T = I and tgt(a)^2 src(c)^2 = 1.  So they see only
    singular A blocks (in the s forms) and singular B blocks (in the t
    forms); a wrong but invertible block shows in Biedenharn-Elliott (A) or
    in validate_bimodfun (A and B).
    """
    log = FailureLog(key="kind", fmt=repr)
    if context.fusion is not None:
        checked = _orth_scalar(context, "fusion", log)
    elif context.bimodule is not None:
        checked = sum(_orth_scalar(context, family, log) for family in "mnb")
    elif context.functor is not None:
        checked = sum(_orth_matrix_pair(context, side, log)
                      for side in context.sides)
    else:
        raise ValueError("empty 6j context")
    return log.report(checked)


def verify_biedenharn_elliott(context: SixJContext) -> ValidationReport:
    """Check every Biedenharn-Elliott identity the context supports.

    Fusion contexts count |G|^5 tuples and evaluate those with n = m^-1 k;
    they detect a non-cocycle omega and kappa values that are not signs.
    Bimodule contexts count |K|^3 |X| tuples (i, j, l, l.x0), K = G x H; a
    broken Psi, Phi or Omega shows as failures.  Both are the module
    pentagon (:func:`_pentagon`).  Functor contexts count the (i, j, l, k)
    with (l, k) supported and check the displayed mixed relation, which is
    A's composition rule: a wrong A block and an m that is not invariant
    fail it.  The composition law of a bimodule functor's right-action
    matrices is part of validate_bimodfun instead.
    """
    log = FailureLog(key="kind", fmt=repr)
    if context.fusion is not None:
        checked = _ber_fusion(context, log)
    elif context.bimodule is not None:
        checked = _ber_bimodule(context, log)
    elif context.functor is not None:
        checked = _ber_functor(context, log)
    else:
        raise ValueError("empty 6j context")
    return log.report(checked)

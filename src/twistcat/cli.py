"""Command-line front end: config ingestion, command dispatch, reporting.

A session is described by a single JSON document that declares named
entities (groups, G-sets, cochains, fusion data, module and bimodule
categories, functors) which reference each other by id.  Commands operate
on those entities and print either an aligned text table or a JSON
document; all output is deterministic for a fixed config and flags.

Exit codes: 0 success, 1 validation or relation failure, 2 usage or
parse errors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import prod

import click

from .errors import ParseError, TwistcatError, ValidationError
from .scalar import Scalar
from .algebra import (FiniteGroup, GSet, Subgroup, _closure, coset_gset,
                      cyclic_group, direct_product, disjoint_union_gset,
                      point_gset, regular_gset, restrict_to_factors)
from .cohomology import UnitCochain, omega_cyclic
from .fusion import FusionData, spherical_structures
from .modcat import (BimoduleCategoryData, ModuleCategoryData,
                     bimod_to_deligne, bimodule_trace,
                     classify_indecomposable, deligne_to_bimod,
                     equivalent_modcats, make_modcat, modcats_for,
                     module_trace, product_fusion, regular_module_category,
                     validate_bimodcat, validate_modcat)
from .modfun import (BimoduleFunctorData, ModuleFunctorData, adjoint,
                     action_functor, bimodfun_to_deligne,
                     classify_simple_cyclic, deligne_to_bimodfun,
                     functor_from_equivariant, identity_functor,
                     validate_bimodfun, validate_modfun)
from .sixj import (
    KINDS as SIXJ_KINDS,
    bimodule_context,
    functor_context,
    fusion_context,
    sixj_table as sixj_table_rows,
    verify_biedenharn_elliott,
    verify_orthogonality,
)
from ._matrix import SMatrix

__all__ = ["SessionConfig", "parse_config", "main"]


# ---------------------------------------------------------------------------
# session configuration
# ---------------------------------------------------------------------------

@dataclass
class SessionConfig:
    """All named entities of one session, fully constructed and validated."""

    root_order: int = 1
    groups: dict = field(default_factory=dict)
    gsets: dict = field(default_factory=dict)
    cochains: dict = field(default_factory=dict)
    fusions: dict = field(default_factory=dict)
    modcats: dict = field(default_factory=dict)
    bimodcats: dict = field(default_factory=dict)
    functors: dict = field(default_factory=dict)


def _require(cfg: SessionConfig, section: str, key, entity: str):
    """The entity ``key`` of a config section, which must be defined."""
    table = getattr(cfg, section)
    if key not in table:
        raise ParseError(f"entity {entity!r} references undefined "
                         f"{section[:-1]} id {key!r}")
    return table[key]


def _ref(cfg: SessionConfig, section: str, spec: dict, name: str,
         entity: str):
    """The entity of ``section`` that the field ``name`` of a spec names."""
    return _require(cfg, section, _field(spec, name, entity), entity)


def _field(spec: dict, name: str, entity: str):
    if name not in spec:
        raise ParseError(f"entity {entity!r} is missing field {name!r}")
    return spec[name]


# The largest root order, cyclic group order, group table (checked over
# |G|^3 triples), product group order, fusion group order, cochain table and
# G-set check (|G|^2 steps a point) a config may declare; past them one
# entity stalls the parse or the output (docs/config_format.md).
_BOUNDS = {"root_order": 360, "n": 256, "group table rows": 256,
           "product group order": 36, "fusion group order": 36,
           "cochain entries": 36 ** 4, "G-set check |G|^2 |X|": 36 ** 4}


def _within(name: str, value: int, low: int = 1) -> int:
    """``value``, which must lie from ``low`` to ``_BOUNDS[name]``: a value
    outside is malformed."""
    if not low <= value <= _BOUNDS[name]:
        raise ValueError(
            f"{name} must be from {low} to {_BOUNDS[name]}, got {value}")
    return value


def _bounded(spec: dict, name: str, entity: str) -> int:
    """The integer field ``name`` of a spec, within its bound."""
    return _within(name, int(_field(spec, name, entity)))


def _spec_type(spec, entity: str, allowed: tuple[str, ...]) -> str:
    if not isinstance(spec, dict):
        raise ParseError(f"entity {entity!r} must be a JSON object")
    kind = spec.get("type")
    if kind not in allowed:
        raise ParseError(
            f"entity {entity!r} has unknown type {kind!r} "
            f"(expected one of {', '.join(allowed)})")
    return kind


def _wrap_build(entity: str, fn, *args, **kwargs):
    """Run a constructor: its domain errors are prefixed with the entity,
    its other value errors become ValidationError."""
    try:
        return fn(*args, **kwargs)
    except TwistcatError as exc:
        raise type(exc)(f"entity {entity!r}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"entity {entity!r}: {exc}") from exc


def _build_group(name: str, spec: dict, cfg: SessionConfig) -> FiniteGroup:
    kind = _spec_type(spec, name, ("cyclic", "table", "product"))
    if kind == "cyclic":
        return _wrap_build(name, cyclic_group, _bounded(spec, "n", name))
    if kind == "table":
        table = _field(spec, "table", name)
        _within("group table rows", len(table))
        return _wrap_build(name, FiniteGroup, table)
    left = _ref(cfg, "groups", spec, "left", name)
    right = _ref(cfg, "groups", spec, "right", name)
    _within("product group order", left.order * right.order)
    return _wrap_build(name, direct_product, left, right)


def _check_subgroup(grp: FiniteGroup, elements, entity: str) -> Subgroup:
    els = tuple(sorted(int(v) for v in elements))
    if any(not 0 <= a < grp.order for a in els) or _closure(grp, els) != els:
        raise ValidationError(f"entity {entity!r}: {list(els)} is not a "
                              f"subgroup")
    return Subgroup(grp, els)


def _build_gset(name: str, spec: dict, cfg: SessionConfig) -> GSet:
    kind = _spec_type(spec, name, ("point", "regular", "cosets", "table",
                                   "union"))
    if kind == "union":
        parts = [_require(cfg, "gsets", p, name)
                 for p in _field(spec, "parts", name)]
        if not parts:
            raise ParseError(f"entity {name!r}: union needs at least one part")
        # each partial union is checked over all its points
        _within("G-set check |G|^2 |X|", parts[0].group.order ** 2 * (
            sum(accumulate(p.size for p in parts)) - parts[0].size), 0)
        out = parts[0]
        for nxt in parts[1:]:
            out = _wrap_build(name, disjoint_union_gset, out, nxt)
        return out
    grp = _ref(cfg, "groups", spec, "group", name)
    if kind == "point":
        return point_gset(grp)
    if kind == "regular":
        return regular_gset(grp)
    if kind == "cosets":
        sub = _check_subgroup(grp, _field(spec, "subgroup", name), name)
        return _wrap_build(name, coset_gset, grp, sub)
    action = _field(spec, "action", name)
    rows = action if isinstance(action, list) else []
    _within("G-set check |G|^2 |X|", grp.order * sum(
        len(row) for row in rows if isinstance(row, list)), 0)
    return _wrap_build(name, GSet, grp, action)


def _read_cochain(name: str, spec: dict, kind: str, degree: int,
                  carrier: GSet, slot_groups=None) -> UnitCochain:
    """A ``trivial`` or ``table`` cochain spec over ``carrier``, of at most
    ``_BOUNDS["cochain entries"]`` entries.  Past degree 20 no table over a
    nontrivial group is within that bound, so a larger degree is refused
    before its slots are listed."""
    root = _bounded(spec, "root_order", name)
    if slot_groups is None and degree > 20:
        raise ValueError(f"cochain degree must be at most 20, got {degree}")
    groups = slot_groups or (carrier.group,) * degree
    want = _within("cochain entries",
                   prod(g.order for g in groups) * carrier.size)
    if kind == "trivial":
        return UnitCochain.trivial(degree, carrier, root,
                                   slot_groups=slot_groups)
    flat = _field(spec, "exponents", name)
    if len(flat) != want:
        raise ValidationError(
            f"entity {name!r}: exponent table has {len(flat)} entries, "
            f"expected {want} (lexicographic argument order)")
    return _wrap_build(name, UnitCochain.from_flat, degree, carrier, root,
                       [int(v) for v in flat], slot_groups=slot_groups)


def _build_cochain(name: str, spec: dict, cfg: SessionConfig) -> UnitCochain:
    kind = _spec_type(spec, name, ("trivial", "cyclic_rep", "table"))
    if kind == "cyclic_rep":
        grp = _ref(cfg, "groups", spec, "group", name)
        _within("cochain entries", grp.order ** 3)
        omega = _wrap_build(name, omega_cyclic, grp.order,
                            int(_field(spec, "s", name)))
        if omega.group != grp:
            raise ValidationError(
                f"entity {name!r}: group is not cyclic in the standard "
                f"presentation")
        return omega
    degree = int(_field(spec, "degree", name))
    if "carrier" in spec:
        carrier = _ref(cfg, "gsets", spec, "carrier", name)
    else:
        carrier = point_gset(_ref(cfg, "groups", spec, "group", name))
    slots = (tuple(_require(cfg, "groups", g, name) for g in spec["slots"])
             if "slots" in spec else None)
    return _read_cochain(name, spec, kind, degree, carrier, slots)


def _build_fusion(name: str, spec: dict, cfg: SessionConfig) -> FusionData:
    if not isinstance(spec, dict):
        raise ParseError(f"entity {name!r} must be a JSON object")
    if "left" in spec or "right" in spec:
        left = _ref(cfg, "fusions", spec, "left", name)
        right = _ref(cfg, "fusions", spec, "right", name)
        _within("fusion group order", left.group.order * right.group.order)
        return _wrap_build(name, product_fusion, left, right)
    grp = _ref(cfg, "groups", spec, "group", name)
    _within("fusion group order", grp.order)
    omega = _ref(cfg, "cochains", spec, "omega", name)
    kappa = (_ref(cfg, "cochains", spec, "kappa", name) if "kappa" in spec
             else UnitCochain.trivial(1, point_gset(grp), 1))
    return _wrap_build(name, FusionData, grp, omega, kappa)


def _build_psi(name: str, spec: dict, fusion: FusionData, x: GSet,
               cfg: SessionConfig) -> ModuleCategoryData:
    kind = _spec_type(spec, name, ("trivial", "table", "regular", "solve",
                                   "ref"))
    if kind == "regular":
        data = regular_module_category(fusion)
        if data.X != x:
            raise ValidationError(
                f"entity {name!r}: carrier is not the regular G-set")
        return data
    if kind == "solve":
        found = modcats_for(fusion, x)
        if not found:
            raise ValidationError(
                f"entity {name!r}: no module structure exists on this carrier")
        index = int(spec.get("index", 0))
        if not 0 <= index < len(found):
            raise ValidationError(
                f"entity {name!r}: solver found {len(found)} structures, "
                f"index {index} out of range")
        return found[index]
    if kind == "ref":
        psi = _ref(cfg, "cochains", spec, "cochain", name)
    else:
        psi = _read_cochain(name, spec, kind, 2, x)
    return _wrap_build(name, make_modcat, fusion, x, psi)


def _build_modcat(name: str, spec: dict, cfg: SessionConfig) -> ModuleCategoryData:
    if not isinstance(spec, dict):
        raise ParseError(f"entity {name!r} must be a JSON object")
    fusion = _ref(cfg, "fusions", spec, "fusion", name)
    x = _ref(cfg, "gsets", spec, "gset", name)
    return _build_psi(name, _field(spec, "psi", name), fusion, x, cfg)


def _build_bimodcat(name: str, spec: dict,
                    cfg: SessionConfig) -> BimoduleCategoryData:
    kind = _spec_type(spec, name, ("explicit", "from_deligne"))
    left = _ref(cfg, "fusions", spec, "left", name)
    right = _ref(cfg, "fusions", spec, "right", name)
    if kind == "from_deligne":
        return _wrap_build(name, deligne_to_bimod,
                           _ref(cfg, "modcats", spec, "modcat", name),
                           left, right)
    x = _ref(cfg, "gsets", spec, "gset", name)
    x_g, x_h = _wrap_build(name, restrict_to_factors, x, left.group, right.group)
    psi = _read_cochain(name, _field(spec, "psi", name), "table", 2, x_g)
    phi = _read_cochain(name, _field(spec, "phi", name), "table", 2, x_h)
    omid = _read_cochain(name, _field(spec, "omega_mid", name), "table", 2,
                         x, slot_groups=(left.group, right.group))
    data = _wrap_build(name, BimoduleCategoryData, left, right, x, psi, phi,
                       omid)
    _report_or_raise(name, validate_bimodcat(data))
    return data


def _parse_scalar(value, entity: str) -> Scalar:
    if isinstance(value, dict):
        _bounded(value, "root_order", entity)
        _field(value, "coeffs", entity)
        return _wrap_build(entity, Scalar.from_json, value)
    if isinstance(value, (int, str)):
        return Scalar.from_rational(Fraction(str(value)))
    raise ParseError(f"entity {entity!r}: matrix entries must be scalar "
                     f"objects, integers or rational strings")


def _parse_matrix_table(name: str, raw: dict, label: str) -> dict:
    out = {}
    if not isinstance(raw, dict):
        raise ParseError(f"entity {name!r}: {label} table must be an object")
    for key, mat in raw.items():
        parts = key.split(",")
        if len(parts) != 3:
            raise ParseError(
                f"entity {name!r}: {label} key {key!r} is not 'g,x,y'")
        idx = tuple(int(p) for p in parts)
        out[idx] = _wrap_build(name, SMatrix, [
            [_parse_scalar(v, name) for v in row] for row in mat])
    return out


def _report_or_raise(name: str, report) -> None:
    if not report.ok:
        raise ValidationError(f"entity {name!r}: {report.first_failure()}")


def _build_functor(name: str, spec: dict, cfg: SessionConfig):
    kind = _spec_type(spec, name, ("identity", "action", "equivariant",
                                   "explicit", "bimodule_explicit",
                                   "bimodule_from_deligne"))
    if kind in ("identity", "action"):
        modcat = _ref(cfg, "modcats", spec, "modcat", name)
        if kind == "identity":
            return identity_functor(modcat)
        return _wrap_build(name, action_functor, modcat,
                           int(_field(spec, "base", name)))
    section = "bimodcats" if kind.startswith("bimodule") else "modcats"
    source = _ref(cfg, section, spec, "source", name)
    target = _ref(cfg, section, spec, "target", name)
    if kind == "equivariant":
        f = [int(v) for v in _field(spec, "f", name)]
        lam_spec = _field(spec, "lam", name)
        lam = _read_cochain(name, lam_spec, _spec_type(
            lam_spec, name, ("trivial", "table")), 1, target.X)
        return _wrap_build(name, functor_from_equivariant, f, lam, source,
                           target)
    if kind == "bimodule_from_deligne":
        inner = _ref(cfg, "functors", spec, "functor", name)
        if not isinstance(inner, ModuleFunctorData):
            raise ParseError(f"entity {name!r}: referenced functor must be a "
                             f"product-group module functor")
        return _wrap_build(name, deligne_to_bimodfun, inner, source, target)
    mult = _field(spec, "mult", name)
    a = _parse_matrix_table(name, _field(spec, "a", name), "A")
    if kind == "explicit":
        out = _wrap_build(name, ModuleFunctorData, source, target, mult, a)
        _report_or_raise(name, validate_modfun(out))
        return out
    b = _parse_matrix_table(name, _field(spec, "b", name), "B")
    out = _wrap_build(name, BimoduleFunctorData, source, target, mult, a, b)
    _report_or_raise(name, validate_bimodfun(out))
    return out


# the config sections in build order, each with its entity builder
_BUILDERS = {"groups": _build_group, "gsets": _build_gset,
             "cochains": _build_cochain, "fusions": _build_fusion,
             "modcats": _build_modcat, "bimodcats": _build_bimodcat,
             "functors": _build_functor}


def parse_config(path: str) -> SessionConfig:
    """Load and fully validate a session config.

    Raises ParseError for malformed documents, malformed values and
    unresolved references, ValidationError when a declared table fails its
    owning validator.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config document must be a JSON object")
    unknown = set(doc) - set(_BUILDERS) - {"root_order"}
    if unknown:
        raise ParseError(
            f"unknown config sections: {', '.join(sorted(unknown))}")
    where = "field 'root_order'"
    try:
        cfg = SessionConfig(root_order=_bounded(doc, "root_order", "config")
                            if "root_order" in doc else 1)
        for section, build in _BUILDERS.items():
            entries = doc.get(section, {})
            if not isinstance(entries, dict):
                raise ParseError(
                    f"config section {section!r} must be an object")
            for name, spec in entries.items():
                where = f"entity {name!r}"
                getattr(cfg, section)[name] = build(name, spec, cfg)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        # a scalar field of the wrong type or form (a non-integer count,
        # exponent, index or key, a rational with denominator 0)
        raise ParseError(f"{where} has a malformed value: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _cochain_json(c: UnitCochain) -> dict:
    return {"degree": c.degree, "root_order": c.root_order,
            "carrier_size": c.carrier.size,
            "exponents": list(c.exponents_flat)}


def _emit(obj: dict, command: str, payload: dict, lines: list[str],
          ok: bool = True) -> None:
    if obj["format"] == "json":
        doc = {"command": command, "seed": obj["seed"], "ok": ok}
        doc.update(payload)
        click.echo(json.dumps(doc, indent=2))
    else:
        for line in lines:
            click.echo(line)
    if not ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

class _Main(click.Group):
    """Maps domain errors, at config parse and inside commands, to the
    exit-code contract: a ParseError exits 2, any other TwistcatError 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ParseError as exc:
            click.echo(f"parse error: {exc}", err=True)
            ctx.exit(2)
        except TwistcatError as exc:
            click.echo(f"validation error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Main)
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Path to the session config (JSON).")
@click.option("--format", "fmt", type=click.Choice(["table", "json"]),
              default="table", show_default=True, help="Output format.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for randomized subcommands (reported in output).")
@click.option("--bound", type=int, default=8, show_default=True,
              help="Enumeration bound for searches.")
@click.pass_context
def main(ctx, config_path, fmt, seed, bound):
    """Exact computations with twisted graded categories and their 6j data."""
    ctx.obj = {"cfg": parse_config(config_path), "format": fmt, "seed": seed,
               "bound": bound}


def _resolve(cfg: SessionConfig, section: str, name: str):
    table = getattr(cfg, section)
    if name not in table:
        raise click.UsageError(
            f"no {section[:-1]} named {name!r} in the config "
            f"(have: {', '.join(sorted(table)) or 'none'})")
    return table[name]


@main.command()
@click.pass_obj
def validate(obj):
    """Run every validator over every declared entity."""
    cfg = obj["cfg"]
    rows = []
    for name, fus in cfg.fusions.items():
        rows.append({"id": name, "kind": "fusion", "ok": True,
                     "checked": fus.group.order ** 4,
                     "spherical": fus.spherical, "failures": []})
    for name, mc in cfg.modcats.items():
        rep = validate_modcat(mc)
        rows.append({"id": name, "kind": "modcat", "ok": rep.ok,
                     "checked": rep.checked, "failures": rep.failures})
    for name, bc in cfg.bimodcats.items():
        rep = validate_bimodcat(bc)
        rows.append({"id": name, "kind": "bimodcat", "ok": rep.ok,
                     "checked": rep.checked, "failures": rep.failures})
    for name, fn in cfg.functors.items():
        if isinstance(fn, BimoduleFunctorData):
            rep = validate_bimodfun(fn)
            kind = "bimodule functor"
        else:
            rep = validate_modfun(fn)
            kind = "module functor"
        rows.append({"id": name, "kind": kind, "ok": rep.ok,
                     "checked": rep.checked, "failures": rep.failures})
    ok = all(r["ok"] for r in rows)
    lines = [f"{r['id']}: {r['kind']} "
             f"{'ok' if r['ok'] else 'FAILED'} ({r['checked']} checks)"
             for r in rows]
    lines.append(f"{len(rows)} entities, "
                 f"{sum(not r['ok'] for r in rows)} failures")
    _emit(obj, "validate", {"entities": rows}, lines, ok)


@main.command()
@click.pass_obj
def spherical(obj):
    """List the spherical structures on each declared fusion datum."""
    cfg = obj["cfg"]
    rows = []
    lines = []
    for name, fus in cfg.fusions.items():
        structures = spherical_structures(fus.group, fus.omega)
        entry = {"id": name, "count": len(structures), "kappas": []}
        lines.append(f"{name}: {len(structures)} spherical structures")
        for st in structures:
            exps = list(st.kappa.exponents_flat)
            matches = st.kappa == fus.kappa
            entry["kappas"].append({"root_order": st.kappa.root_order,
                                    "exponents": exps,
                                    "declared": matches})
            mark = " (declared)" if matches else ""
            lines.append(f"  kappa exponents {exps} "
                         f"(root order {st.kappa.root_order}){mark}")
        rows.append(entry)
    _emit(obj, "spherical", {"fusions": rows}, lines)


@main.command("enumerate-modcats")
@click.argument("gset")
@click.option("--fusion", "fusion_id", default=None,
              help="Fusion id (defaults to the unique declared one).")
@click.pass_obj
def enumerate_modcats(obj, gset, fusion_id):
    """Enumerate the module structures on a carrier G-set."""
    cfg = obj["cfg"]
    x = _resolve(cfg, "gsets", gset)
    if fusion_id is None:
        if len(cfg.fusions) != 1:
            raise click.UsageError(
                "config declares several fusions; pass --fusion")
        fusion_id, = cfg.fusions
    fus = _resolve(cfg, "fusions", fusion_id)
    found = modcats_for(fus, x)
    rows = [{"index": i, "psi": _cochain_json(mc.psi)}
            for i, mc in enumerate(found)]
    lines = [f"{len(found)} module structures on {gset!r} over {fusion_id!r}"]
    for row in rows:
        lines.append(f"  [{row['index']}] psi exponents "
                     f"{row['psi']['exponents']} "
                     f"(root order {row['psi']['root_order']})")
    _emit(obj, "enumerate-modcats",
          {"gset": gset, "fusion": fusion_id, "count": len(found),
           "structures": rows}, lines)


@main.command()
@click.argument("modcat")
@click.pass_obj
def classify(obj, modcat):
    """Classify an indecomposable module category: subgroup and restriction."""
    cfg = obj["cfg"]
    mc = _resolve(cfg, "modcats", modcat)
    cls = classify_indecomposable(mc)
    payload = {
        "modcat": modcat,
        "stabilizer": list(cls.subgroup.elements),
        "conjugacy_class_representative": list(cls.subgroup_class_rep),
        "restricted_psi": _cochain_json(cls.psi),
    }
    lines = [f"{modcat}: stabilizer {payload['stabilizer']} "
             f"(class representative {payload['conjugacy_class_representative']})",
             f"restricted psi exponents {payload['restricted_psi']['exponents']} "
             f"(root order {payload['restricted_psi']['root_order']})"]
    _emit(obj, "classify", payload, lines)


@main.command()
@click.argument("m1")
@click.argument("m2")
@click.pass_obj
def equiv(obj, m1, m2):
    """Decide equivalence of two module categories; print a witness."""
    cfg = obj["cfg"]
    first = _resolve(cfg, "modcats", m1)
    second = _resolve(cfg, "modcats", m2)
    witness = equivalent_modcats(first, second, bound=obj["bound"])
    if witness is None:
        payload = {"m1": m1, "m2": m2, "equivalent": False}
        lines = [f"{m1} and {m2} are not equivalent"]
    else:
        f, mu = witness
        payload = {"m1": m1, "m2": m2, "equivalent": True,
                   "carrier_map": list(f),
                   "mu": _cochain_json(mu)}
        lines = [f"{m1} and {m2} are equivalent",
                 f"carrier map {payload['carrier_map']}",
                 f"mu exponents {payload['mu']['exponents']} "
                 f"(root order {payload['mu']['root_order']})"]
    _emit(obj, "equiv", payload, lines)


@main.command()
@click.argument("modcat")
@click.pass_obj
def trace(obj, modcat):
    """Report the module trace of a module or bimodule category."""
    cfg = obj["cfg"]
    if modcat in cfg.modcats:
        tr = module_trace(cfg.modcats[modcat])
    elif modcat in cfg.bimodcats:
        tr = bimodule_trace(cfg.bimodcats[modcat])
    else:
        raise click.UsageError(f"no modcat or bimodcat named {modcat!r}")
    if tr is None:
        _emit(obj, "trace", {"modcat": modcat, "exists": False},
              [f"{modcat}: no module trace exists"])
        return
    units = [u.to_json() for u in tr.values]
    reprs = [repr(u) for u in tr.values]
    _emit(obj, "trace", {"modcat": modcat, "exists": True, "values": units},
          [f"{modcat}: trace exists", f"values {reprs}"])


@main.command()
@click.argument("entity")
@click.option("--inverse", is_flag=True,
              help="Also map back and check the round trip is exact.")
@click.pass_obj
def deligne(obj, entity, inverse):
    """Map a bimodule entity to its product-group form (and back)."""
    cfg = obj["cfg"]
    if entity in cfg.bimodcats:
        data = cfg.bimodcats[entity]
        fwd = bimod_to_deligne(data)
        payload = {"entity": entity, "kind": "bimodcat",
                   "product_group_order": fwd.fusion.group.order,
                   "carrier_size": fwd.X.size,
                   "psi": _cochain_json(fwd.psi)}
        lines = [f"{entity}: product-group module category over group of "
                 f"order {payload['product_group_order']}, carrier size "
                 f"{payload['carrier_size']}"]
        back, ends = deligne_to_bimod, (data.left, data.right)
    elif entity in cfg.functors and isinstance(cfg.functors[entity],
                                               BimoduleFunctorData):
        data = cfg.functors[entity]
        fwd = bimodfun_to_deligne(data)
        payload = {"entity": entity, "kind": "bimodfun",
                   "product_group_order": fwd.source.fusion.group.order,
                   "support": [list(p) for p in fwd.support()]}
        lines = [f"{entity}: product-group module functor, support "
                 f"{payload['support']}"]
        back, ends = deligne_to_bimodfun, (data.source, data.target)
    else:
        raise click.UsageError(
            f"no bimodcat or bimodule functor named {entity!r}")
    exact = True
    if inverse:
        exact = back(fwd, *ends) == data
        payload["round_trip_exact"] = exact
        lines.append(f"round trip exact: {exact}")
    _emit(obj, "deligne", payload, lines, ok=exact)


@main.command("classify-simple")
@click.argument("src")
@click.argument("tgt")
@click.pass_obj
def classify_simple(obj, src, tgt):
    """Classify the simple module functors between two module categories."""
    cfg = obj["cfg"]
    source = _resolve(cfg, "modcats", src)
    target = _resolve(cfg, "modcats", tgt)
    classes = classify_simple_cyclic(source, target)
    count = len(classes)
    rows = [{"index": i,
             "orbit": [list(p) for p in c.orbit],
             "xi": c.xi.to_json()} for i, c in enumerate(classes)]
    lines = [f"{count} simple functors {src} -> {tgt}"]
    for i, c in enumerate(classes):
        lines.append(f"  [{i}] orbit {[list(p) for p in c.orbit]} "
                     f"xi {c.xi!r}")
    _emit(obj, "classify-simple",
          {"source": src, "target": tgt, "count": count, "classes": rows},
          lines)


@main.command("adjoint")
@click.argument("functor")
@click.pass_obj
def adjoint_cmd(obj, functor):
    """Compute the adjoint of a module functor and validate it."""
    cfg = obj["cfg"]
    fn = _resolve(cfg, "functors", functor)
    if isinstance(fn, BimoduleFunctorData):
        raise click.UsageError(
            "adjoint works on module functors; map the bimodule functor "
            "through 'deligne' first")
    adj = adjoint(fn)
    rep = validate_modfun(adj)
    payload = {"functor": functor, "ok": rep.ok,
               "support": [list(p) for p in adj.support()],
               "checked": rep.checked}
    lines = [f"adjoint of {functor}: support {payload['support']}, "
             f"{'valid' if rep.ok else 'INVALID'} ({rep.checked} checks)"]
    _emit(obj, "adjoint", payload, lines, ok=rep.ok)


_CONTEXT_SECTIONS = {"fusions": fusion_context,
                     "bimodcats": bimodule_context,
                     "functors": functor_context}


def _context_for(cfg: SessionConfig, name: str):
    sections = [s for s in _CONTEXT_SECTIONS if name in getattr(cfg, s)]
    if not sections:
        raise click.UsageError(
            f"no fusion, bimodcat or functor named {name!r}")
    if len(sections) > 1:
        raise click.UsageError(
            f"{name!r} is defined in {' and '.join(sections)}; rename one")
    return _CONTEXT_SECTIONS[sections[0]](getattr(cfg, sections[0])[name])


def _all_contexts(cfg: SessionConfig):
    """Every 6j context the config defines, each built by its own section's
    constructor; traceless entities are skipped."""
    contexts, skipped = [], []
    for name, fus in cfg.fusions.items():
        if fus.spherical:
            contexts.append((name, fusion_context(fus)))
        else:
            skipped.append({"id": name, "reason": "not spherical"})
    for section in ("bimodcats", "functors"):
        for name, entity in getattr(cfg, section).items():
            try:
                contexts.append((name, _CONTEXT_SECTIONS[section](entity)))
            except TwistcatError as exc:
                skipped.append({"id": name, "reason": str(exc)})
    return contexts, skipped


_KIND_ALIASES = {"fusion": "fusion+"}


@main.command("sixj-table")
@click.argument("kind")
@click.argument("refs", nargs=-1)
@click.pass_obj
def sixj_table_cmd(obj, kind, refs):
    """Print every admissible 6j symbol of one kind."""
    cfg = obj["cfg"]
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in SIXJ_KINDS:
        raise click.UsageError(
            f"unknown kind {kind!r} (choose from "
            f"{', '.join(SIXJ_KINDS)})")
    if refs:
        contexts = [(name, _context_for(cfg, name)) for name in refs]
    else:
        contexts = _all_contexts(cfg)[0]
        if len(contexts) != 1:
            raise click.UsageError(
                "config defines several possible contexts; name one of: "
                + ", ".join(name for name, _ in contexts))
    tables = []
    lines = []
    for name, context in contexts:
        if kind not in context.kinds():
            raise click.UsageError(
                f"kind {kind!r} is not defined for context {name!r} "
                f"(offers {', '.join(context.kinds())})")
        rows = sixj_table_rows(context, kind)
        tables.append({"context": name, "kind": kind,
                       "rows": [{"labels": list(r["labels"]),
                                 "indices": list(r["indices"]),
                                 "value": r["value"].to_json()}
                                for r in rows]})
        lines.append(f"{name}: {len(rows)} symbols of kind {kind}")
        for r in rows:
            idx = f" indices {tuple(r['indices'])}" if r["indices"] else ""
            lines.append(f"  labels {tuple(r['labels'])}{idx} "
                         f"value {r['value']}")
    _emit(obj, "sixj-table", {"kind": kind, "tables": tables}, lines)


@main.command()
@click.argument("relation",
                type=click.Choice(["orthogonality", "biedenharn-elliott"]))
@click.argument("refs", nargs=-1)
@click.pass_obj
def verify(obj, relation, refs):
    """Check the orthogonality or Biedenharn-Elliott relations exactly."""
    cfg = obj["cfg"]
    if refs:
        contexts = [(name, _context_for(cfg, name)) for name in refs]
        skipped = []
    else:
        contexts, skipped = _all_contexts(cfg)
        if not contexts:
            raise click.UsageError("config defines no 6j context")
    runner = (verify_orthogonality if relation == "orthogonality"
              else verify_biedenharn_elliott)
    results = []
    lines = []
    total_checked = 0
    total_failures = 0
    for name, context in contexts:
        report = runner(context)
        results.append({"context": name, "ok": report.ok,
                        "checked": report.checked,
                        "failures": report.failures})
        total_checked += report.checked
        total_failures += report.failed
        lines.append(f"{name}: checked {report.checked} identities, "
                     f"{report.failed} failures")
        for failure in report.failures:
            lines.append(f"  {failure['kind']} at {failure['tuple']}: "
                         f"{failure['lhs']} != {failure['rhs']}")
    ok = all(r["ok"] for r in results)
    lines.append(f"checked {total_checked} identities, "
                 f"{total_failures} failures")
    payload = {"relation": relation, "results": results, "skipped": skipped,
               "checked": total_checked, "failures": total_failures}
    _emit(obj, "verify", payload, lines, ok)


if __name__ == "__main__":
    main()

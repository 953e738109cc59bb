"""The graded fusion layer: pivotal and spherical structures on Vec_G^omega.

Simple objects are the group elements; the associativity twist is a
normalized 3-cocycle omega; a pivotal structure is a character kappa through
beta(g) = kappa(g) * omega(g, g^-1, g)^-1, spherical when kappa is
sign-valued.
"""
from __future__ import annotations

from .algebra import FiniteGroup, _assemble, characters
from .cohomology import UnitCochain, _unravel, differential
from .errors import NotCocycle, NotNormalized, NotSpherical, UndefinedLabels
from .scalar import Scalar, Unit

__all__ = [
    "FusionData",
    "pivotal_structures",
    "spherical_structures",
    "eval_coev",
    "dim",
    "fusion_6j",
]


class FusionData:
    """A group G, a normalized 3-cocycle omega, and a character kappa.

    The constructor checks that omega is a normalized point-carrier cocycle
    and kappa a character; the structures derived from checked ones skip it.
    """

    __slots__ = ("group", "omega", "kappa", "spherical")

    def __init__(self, group: FiniteGroup, omega: UnitCochain,
                 kappa: UnitCochain) -> None:
        if omega.degree != 3 or omega.carrier.size != 1 or omega.group != group:
            raise ValueError("omega must be a degree-3 point-carrier cochain on G")
        if not omega.normalized:
            raise NotNormalized("omega is not normalized")
        d_omega = differential(omega)
        if not d_omega.is_trivial():
            bad = next(p for p, e in enumerate(d_omega.exponents_flat) if e)
            raise NotCocycle(
                f"omega is not a 3-cocycle; first failing tuple (g, h, k, l) "
                f"= {_unravel(bad, d_omega.shape)[:4]}")
        if kappa.degree != 1 or kappa.carrier.size != 1 or kappa.group != group:
            raise ValueError("kappa must be a degree-1 point-carrier cochain on G")
        ek = kappa.exponents_flat
        nk = kappa.root_order
        for a in group.elements():
            for b in group.elements():
                if (ek[a] + ek[b]) % nk != ek[group.op(a, b)]:
                    raise NotCocycle(f"kappa is not a character at ({a}, {b})")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "spherical", _sign_valued(kappa))

    def __setattr__(self, name, value):
        raise AttributeError("FusionData is immutable")

    def omega_unit(self, i: int, j: int, k: int) -> Unit:
        return self.omega.value((i, j, k))

    def kappa_unit(self, g: int) -> Unit:
        return self.kappa.value((g,))

    def beta(self, g: int) -> Scalar:
        """The pivotal coefficient kappa(g) * omega(g, g^-1, g)^-1."""
        ginv = self.group.inv(g)
        return (self.kappa_unit(g) * self.omega_unit(g, ginv, g).inverse()).to_scalar()

    def __eq__(self, other):
        if not isinstance(other, FusionData):
            return NotImplemented
        return (self.group == other.group and self.omega == other.omega
                and self.kappa == other.kappa)

    def __repr__(self):
        return (f"FusionData(order={self.group.order}, "
                f"root_order={self.omega.root_order}, spherical={self.spherical})")


def _sign_valued(kappa: UnitCochain) -> bool:
    """Whether a character takes only the values 1 and -1."""
    return all((2 * e) % kappa.root_order == 0 for e in kappa.exponents_flat)


def pivotal_structures(group: FiniteGroup, omega: UnitCochain) -> list[FusionData]:
    """One FusionData per character of G at root order exp(G).

    Every homomorphism G -> U(1) has values in the exp(G)-th roots of unity,
    so this is the complete list of pivotal structures.
    """
    first, *rest = characters(group, group.exponent())
    return [FusionData(group, omega, first)] + [
        _assemble(FusionData, group=group, omega=omega, kappa=chi,
                  spherical=_sign_valued(chi)) for chi in rest]


def spherical_structures(group: FiniteGroup, omega: UnitCochain) -> list[FusionData]:
    """The pivotal structures with a sign-valued character."""
    return [f for f in pivotal_structures(group, omega) if f.spherical]


def eval_coev(fusion: FusionData, g: int) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """The four (co)evaluation scalars (evR, coevR, evL, coevL) of delta^g."""
    ginv = fusion.group.inv(g)
    ev_r = fusion.omega_unit(ginv, g, ginv).to_scalar()
    coev_r = Scalar.one()
    ev_l = fusion.kappa_unit(g).to_scalar()
    coev_l = (fusion.kappa_unit(g).inverse()
              * fusion.omega_unit(g, ginv, g)).to_scalar()
    return ev_r, coev_r, ev_l, coev_l


def dim(fusion: FusionData, g: int) -> Scalar:
    """The categorical dimension kappa(g) of delta^g (spherical data only)."""
    if not fusion.spherical:
        raise NotSpherical("dimensions require a spherical structure")
    return fusion.kappa_unit(g).to_scalar()


def fusion_6j(fusion: FusionData, sign: str, i: int, j: int, k: int,
              a: int, b: int, c: int) -> Scalar:
    """The fusion 6j symbol for labels (i, j, k, a, b, c) in G.

    Defined when c = ij, a = jk, b = ck; the + symbol is
    kappa(a) * omega(i, j, k), the - symbol kappa(c) * omega(i, j, k)^-1.
    """
    if not fusion.spherical:
        raise NotSpherical("6j symbols require a spherical structure")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    grp = fusion.group
    if c != grp.op(i, j) or a != grp.op(j, k) or b != grp.op(c, k):
        raise UndefinedLabels(
            f"labels (i={i}, j={j}, k={k}, a={a}, b={b}, c={c}) do not compose")
    if sign == "+":
        return (fusion.kappa_unit(a) * fusion.omega_unit(i, j, k)).to_scalar()
    return (fusion.kappa_unit(c) * fusion.omega_unit(i, j, k).inverse()).to_scalar()

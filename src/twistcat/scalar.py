"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`Scalar` is a polynomial in ``zeta_N = exp(2*pi*i/N)`` with rational
coefficients, kept reduced modulo the N-th cyclotomic polynomial.  A
:class:`Unit` is a root of unity ``zeta_N**e`` stored by exponent; units are
the values of all cochains, while general scalars appear in matrices and
6j symbols.  No floating point is used anywhere.

:func:`_gauss_jordan` is the package's one exact elimination routine over a
field, on Fractions or Scalars.  ``Scalar.reduce_order`` uses it here and
``_matrix`` (inverses, ranks, nullspaces) imports it; integer work goes
through ``algebra.smith_normal_form`` instead.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DivisionByZero

__all__ = [
    "cyclotomic_polynomial",
    "Scalar",
    "Unit",
    "scalar_arith",
    "unit_roots",
]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, constant term first)
# ---------------------------------------------------------------------------

def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact division of integer polynomials; den must be monic."""
    assert den[-1] == 1
    rem = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(num) - deg_d, 1)
    for top in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[top]
        if c:
            quot[top - deg_d] += c
            for i, dc in enumerate(den):
                rem[top - deg_d + i] -= c * dc
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by exact division of ``x**n - 1`` by the product of the
    cyclotomic polynomials of all proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    num = (-1,) + (0,) * (n - 1) + (1,)
    den: tuple[int, ...] = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod(num, den)
    assert all(c == 0 for c in rem), "cyclotomic division must be exact"
    return quot


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a rational polynomial modulo Phi_n; returns exactly deg(Phi_n) coeffs."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = list(coeffs)
    for top in range(len(work) - 1, deg - 1, -1):
        c = work[top]
        if c:
            for i, pc in enumerate(phi):
                work[top - deg + i] -= c * pc
    work = work[:deg]
    work.extend([Fraction(0)] * (deg - len(work)))
    return tuple(Fraction(c) for c in work)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _gauss_jordan(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over Q or Q(zeta_N); the one field elimination.

    Pivots only in the first ``ncols`` columns, so the columns after them
    carry right-hand sides (an augmented system) along.  Entries are
    Fractions or Scalars; only ``-``, ``*``, truthiness and the pivot
    reciprocal are used.  Returns new reduced rows and the pivot columns.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(mat):
            break
        pr = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pr is None:
            continue
        mat[row], mat[pr] = mat[pr], mat[row]
        prow = mat[row]
        p = prow[col]
        inv = p.inverse() if isinstance(p, Scalar) else 1 / p
        # rows from `row` down are zero left of `col`, so the pivot row, and
        # every row it is subtracted from, changes only from `col` on
        tail = prow[col:] = [v * inv for v in prow[col:]]
        for r, other in enumerate(mat):
            f = other[col]
            if r != row and f:
                other[col:] = [v - f * w for v, w in zip(other[col:], tail)]
        pivots.append(col)
    return mat, pivots


class Scalar:
    """An exact element of Q(zeta_N), reduced modulo Phi_N.

    Arithmetic between scalars of different root orders embeds both into
    Q(zeta_lcm) first; the embedding zeta_N -> zeta_M**(M/N) is injective and
    preserves all field operations.
    """

    __slots__ = ("root_order", "coeffs")

    def __init__(self, root_order: int, coeffs) -> None:
        if root_order < 1:
            raise ValueError("root_order must be >= 1")
        vec = [Fraction(c) for c in coeffs]
        deg = _phi_degree(root_order)
        if len(vec) != deg:
            vec = list(_reduce_mod_phi(vec, root_order))
        object.__setattr__(self, "root_order", root_order)
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        return cls(1, [Fraction(value)])

    @classmethod
    def zero(cls, root_order: int = 1) -> "Scalar":
        return cls(root_order, [Fraction(0)] * _phi_degree(root_order))

    @classmethod
    def one(cls, root_order: int = 1) -> "Scalar":
        coeffs = [Fraction(0)] * _phi_degree(root_order)
        coeffs[0] = Fraction(1)
        return cls(root_order, coeffs)

    @classmethod
    def root_of_unity(cls, root_order: int, exponent: int = 1) -> "Scalar":
        e = exponent % root_order
        return cls(root_order, _reduce_mod_phi(
            [Fraction(0)] * e + [Fraction(1)], root_order))

    # -- embedding ---------------------------------------------------------

    def _embedded_coeffs(self, m: int) -> tuple[Fraction, ...]:
        n = self.root_order
        if m == n:
            return self.coeffs
        if m % n != 0:
            raise ValueError(f"cannot embed Q(zeta_{n}) into Q(zeta_{m})")
        step = m // n
        poly = [Fraction(0)] * (step * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return _reduce_mod_phi(poly, m)

    def embed(self, root_order: int) -> "Scalar":
        """The same element viewed in Q(zeta_root_order); requires N | root_order."""
        return Scalar(root_order, self._embedded_coeffs(root_order))

    def _coerce(self, other: "Scalar"):
        m = lcm(self.root_order, other.root_order)
        return self._embedded_coeffs(m), other._embedded_coeffs(m), m

    @staticmethod
    def _wrap(value) -> "Scalar | None":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, Unit):
            return value.to_scalar()
        if isinstance(value, (int, Fraction)):
            return Scalar.from_rational(value)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b, m = self._coerce(other)
        return Scalar(m, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.root_order, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b, m = self._coerce(other)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Scalar(m, _reduce_mod_phi(prod, m))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse, by an extended-gcd computation modulo Phi_N."""
        if self.is_zero():
            raise DivisionByZero("cannot invert the zero scalar")
        n = self.root_order
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        # extended Euclid on (f, phi) over Q[x]; phi is irreducible over Q so
        # the gcd is a nonzero constant.
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(c != 0 for c in r1):
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                const = r1[0]
                inv_coeffs = [c / const for c in s1]
                return Scalar(n, _reduce_mod_phi(inv_coeffs, n))
            quot, rem = _rat_divmod(r0, r1)
            new_s = _rat_sub(s0, _rat_mul(quot, s1))
            r0, r1 = r1, list(rem)
            s0, s1 = s1, new_s
        raise DivisionByZero("unexpected zero remainder chain")  # pragma: no cover

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Scalar.one(self.root_order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons / canonical form ---------------------------------------

    def __eq__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        a, b, _ = self._coerce(other)
        return a == b

    def __hash__(self):
        reduced = self.reduce_order()
        return hash((reduced.root_order, reduced.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self == Scalar.one()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def reduce_order(self) -> "Scalar":
        """Canonical form in the smallest cyclotomic subfield containing self."""
        n = self.root_order
        for d in _divisors(n):
            if d == n:
                break
            columns = [Scalar.root_of_unity(d, j)._embedded_coeffs(n)
                       for j in range(_phi_degree(d))]
            ncols = len(columns)
            aug = [[col[i] for col in columns] + [c]
                   for i, c in enumerate(self.coeffs)]
            reduced, pivots = _gauss_jordan(aug, ncols)
            if not any(row[ncols] for row in reduced[len(pivots):]):
                y = [Fraction(0)] * ncols
                for row, col in zip(reduced, pivots):
                    y[col] = row[ncols]
                return Scalar(d, y)
        return self

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        reduced = self.reduce_order()
        if reduced.root_order == 1:
            return reduced.coeffs[0]
        return None

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.root_order}, {[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        reduced = self.reduce_order()
        n = reduced.root_order
        terms = []
        for i, c in enumerate(reduced.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mono = f"z{n}" if i == 1 else f"z{n}^{i}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def to_json(self) -> dict:
        reduced = self.reduce_order()
        return {
            "root_order": reduced.root_order,
            "coeffs": [str(c) for c in reduced.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Scalar":
        return cls(int(data["root_order"]), [Fraction(c) for c in data["coeffs"]])


def _rat_divmod(num: list[Fraction], den: list[Fraction]):
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    rem = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [Fraction(0)] * max(len(rem) - deg_d, 1)
    for top in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[top]
        if c:
            factor = c / lead
            quot[top - deg_d] += factor
            for i, dc in enumerate(den):
                rem[top - deg_d + i] -= factor * dc
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _rat_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _rat_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def scalar_arith(a: Scalar, b: Scalar | None, op: str):
    """Field operations by name: add, mul, div, neg, eq."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "neg":
        return -a
    if op == "eq":
        return a == b
    raise ValueError(f"unknown op {op!r}")


class Unit:
    """A root of unity zeta_N**e, stored canonically (minimal N, reduced e)."""

    __slots__ = ("root_order", "exponent")

    def __init__(self, root_order: int, exponent: int) -> None:
        if root_order < 1:
            raise ValueError("root_order must be >= 1")
        e = exponent % root_order
        if e == 0:
            root_order, e = 1, 0
        else:
            g = gcd(e, root_order)
            root_order //= g
            e //= g
        object.__setattr__(self, "root_order", root_order)
        object.__setattr__(self, "exponent", e)

    def __setattr__(self, name, value):
        raise AttributeError("Unit is immutable")

    @classmethod
    def one(cls) -> "Unit":
        return cls(1, 0)

    def exponent_at(self, root_order: int) -> int:
        if root_order % self.root_order != 0:
            raise ValueError("root order does not refine this unit")
        return self.exponent * (root_order // self.root_order)

    def __mul__(self, other: "Unit") -> "Unit":
        m = lcm(self.root_order, other.root_order)
        return Unit(m, self.exponent_at(m) + other.exponent_at(m))

    def inverse(self) -> "Unit":
        return Unit(self.root_order, -self.exponent)

    def __pow__(self, k: int) -> "Unit":
        return Unit(self.root_order, self.exponent * k)

    def __eq__(self, other):
        if not isinstance(other, Unit):
            return NotImplemented
        return (self.root_order, self.exponent) == (other.root_order, other.exponent)

    def __hash__(self):
        return hash((self.root_order, self.exponent))

    def to_scalar(self) -> Scalar:
        return Scalar.root_of_unity(self.root_order, self.exponent)

    def __repr__(self) -> str:
        if self.root_order == 1:
            return "Unit(1)"
        if self.root_order == 2:
            return "Unit(-1)"
        return f"Unit(z{self.root_order}^{self.exponent})"

    def to_json(self) -> dict:
        return {"N": self.root_order, "e": self.exponent}

    @classmethod
    def from_json(cls, data: dict) -> "Unit":
        return cls(int(data["N"]), int(data["e"]))


def unit_roots(u: Unit, r: int) -> list[Unit]:
    """All r distinct r-th roots of u, as units of root order r*N.

    With u = zeta_N**a, the roots are zeta_(rN)**(a + j*N) for j = 0..r-1,
    listed with ascending j.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = u.root_order
    return [Unit(r * n, u.exponent + j * n) for j in range(r)]

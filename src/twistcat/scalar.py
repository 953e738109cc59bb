"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`Scalar` is a polynomial in ``zeta_N = exp(2*pi*i/N)`` with rational
coefficients, kept reduced modulo the N-th cyclotomic polynomial Phi_N.  It
is stored as phi(N) integer numerators over one positive common denominator,
divided through by their gcd, so a value has exactly one representation at
each root order.  Addition, multiplication, equality and inversion run on
Python ints: reduction modulo the monic Phi_N, the embeddings
Q(zeta_n) -> Q(zeta_m) and the Galois automorphisms are integer maps read off
one cached table of the reduced powers of zeta_N.  A product with a zero
factor is the zero at the common root order, with no polynomial product.
Fractions appear only at the boundaries: the constructor, ``coeffs``,
``from_rational``, ``as_rational``, printing and JSON.

A scalar known to be a root of unity, sign * zeta_N**e at its own root
order N, carries the tag ``(sign, e)``: roots of unity, converted units, and
the negations, inverses and products of tagged scalars.  The tag only picks a
faster route to the same representation: a root times a root is the cached
tagged root, a root times any other scalar rotates its numerators through
one integer map with no polynomial product or gcd, and the inverse of a root
is sign * zeta_N**-e.  Adding a zero whose root order divides the other
term's returns that term, and embedding a root keeps its tag, so the rows of
an elimination keep their roots.  Equality and hashing never read it.

A :class:`Unit` is a root of unity ``zeta_N**e`` stored by exponent; units
are the values of all cochains, while general scalars appear in matrices and
6j symbols.  No floating point is used anywhere.

:func:`_gauss_jordan` is the package's one exact elimination routine over a
field, on Fractions or Scalars.  ``_matrix`` (inverses, ranks, nullspaces)
imports it, and ``Scalar.reduce_order`` uses it once per pair of root orders
to build its integer subfield test; integer work goes through
``algebra.smith_normal_form`` instead.
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

def _poly_mul(a, b) -> tuple[int, ...]:
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


# ---------------------------------------------------------------------------
# integer maps between coefficient vectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n**j reduced modulo Phi_n, as integer vectors, for j = 0..n-1.

    Phi_n divides x**n - 1, so x**k reduces to entry k mod n for every k.
    """
    phi = cyclotomic_polynomial(n)
    vec = [1] + [0] * (len(phi) - 2)
    out = []
    for _ in range(n):
        out.append(tuple(vec))
        # x * vec, with x**deg replaced by -(phi without its leading 1)
        top = vec[-1]
        vec = [v - top * p for v, p in zip([0] + vec[:-1], phi)]
    return tuple(out)


@lru_cache(maxsize=None)
def _power_images(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``_powers(n)`` as sparse (index, coefficient) pairs."""
    return tuple(tuple((i, c) for i, c in enumerate(vec) if c)
                 for vec in _powers(n))


@lru_cache(maxsize=None)
def _power_map(n: int, m: int, k: int, shift: int = 0,
               sign: int = 1) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse images of the basis zeta_n**i of Q(zeta_n) under the field map
    zeta_n -> zeta_m**k: the embedding into Q(zeta_m) when k = m/n, the
    Galois automorphism sigma_k when m = n and k is a unit mod n.  A shift
    and a sign follow the map with multiplication by sign * zeta_m**shift."""
    powers = _power_images(m)
    return tuple(tuple((j, sign * c) for j, c in powers[(i * k + shift) % m])
                 for i in range(_phi_degree(n)))


def _apply(images, nums, deg: int) -> list[int]:
    """The integer linear map with the given sparse basis images, on nums."""
    out = [0] * deg
    for c, img in zip(nums, images):
        if c:
            for i, v in img:
                out[i] += c * v
    return out


def _reduce(poly, n: int) -> list[int]:
    """An integer polynomial (constant term first) reduced modulo Phi_n."""
    deg = _phi_degree(n)
    out = list(poly[:deg])
    out += [0] * (deg - len(out))
    powers = _power_images(n)
    for k in range(deg, len(poly)):
        c = poly[k]
        if c:
            for i, v in powers[k % n]:
                out[i] += c * v
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def _subfield_test(d: int, n: int):
    """Integer rows that test membership of Q(zeta_d) in Q(zeta_n).

    Elimination of [E | I], E the embedding's matrix, gives an invertible M
    with M E = [I; 0]: x lies in the image exactly when the last rows of M x
    vanish, and then the first phi(d) rows give its coordinates.  Returns
    (coordinate rows, vanishing rows, denominator) of M scaled to integers.
    """
    k, deg = _phi_degree(d), _phi_degree(n)
    columns = [_powers(n)[j * (n // d)] for j in range(k)]
    aug = [[Fraction(col[i]) for col in columns]
           + [Fraction(int(i == j)) for j in range(deg)] for i in range(deg)]
    reduced, pivots = _gauss_jordan(aug, k)
    assert len(pivots) == k, "the embedding is injective"
    scale = lcm(*(v.denominator for row in reduced for v in row[k:]))
    rows = [tuple(int(v * scale) for v in row[k:]) for row in reduced]
    return rows[:k], rows[k:], scale


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
                other[col:] = [v - f * w if w else v
                               for v, w in zip(other[col:], tail)]
        pivots.append(col)
    return mat, pivots


_new = object.__new__
_set = object.__setattr__


def _raw(n: int, nums, den: int, root=None) -> "Scalar":
    """A Scalar from numerators already reduced mod Phi_n and in lowest terms;
    ``root`` is its (sign, exponent) tag when it is sign * zeta_n**exponent."""
    s = _new(Scalar)
    _set(s, "root_order", n)
    _set(s, "_num", tuple(nums))
    _set(s, "_den", den)
    _set(s, "_canon", None)
    _set(s, "_root", root)
    return s


def _scalar(n: int, nums, den: int) -> "Scalar":
    """A Scalar from numerators reduced mod Phi_n over a nonzero denominator,
    divided through by their gcd."""
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return _raw(n, nums, den)


@lru_cache(maxsize=None)
def _root_of_unity(n: int, e: int, sign: int = 1) -> "Scalar":
    """sign * zeta_n**e for 0 <= e < n, tagged as a root of unity."""
    nums = _powers(n)[e]
    return _raw(n, nums if sign > 0 else [-c for c in nums], 1, (sign, e))


def _fractions(nums, den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, den) for c in nums)


class Scalar:
    """An exact element of Q(zeta_N), reduced modulo Phi_N.

    Arithmetic between scalars of different root orders embeds both into
    Q(zeta_lcm) first; the embedding zeta_N -> zeta_M**(M/N) is injective and
    preserves all field operations.  It also keeps numerators in lowest
    terms (Z[zeta_M] meets Q(zeta_N) in Z[zeta_N], whose integral basis is
    the power basis), so embedded values compare by their integers.
    """

    __slots__ = ("root_order", "_num", "_den", "_canon", "_root")

    def __init__(self, root_order: int, coeffs) -> None:
        if root_order < 1:
            raise ValueError("root_order must be >= 1")
        vec = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vec))
        nums = _reduce([c.numerator * (den // c.denominator) for c in vec],
                       root_order)
        g = gcd(den, *nums)
        _set(self, "root_order", root_order)
        _set(self, "_num", tuple(c // g for c in nums))
        _set(self, "_den", den // g)
        _set(self, "_canon", None)
        _set(self, "_root", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Scalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(N) rational coefficients of 1, zeta_N, ..., zeta_N**(phi(N)-1)."""
        return _fractions(self._num, self._den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        q = Fraction(value)
        return _raw(1, (q.numerator,), q.denominator)

    @classmethod
    def zero(cls, root_order: int = 1) -> "Scalar":
        return _raw(root_order, (0,) * _phi_degree(root_order), 1)

    @classmethod
    def one(cls, root_order: int = 1) -> "Scalar":
        return _root_of_unity(root_order, 0)

    @classmethod
    def root_of_unity(cls, root_order: int, exponent: int = 1) -> "Scalar":
        return _root_of_unity(root_order, exponent % root_order)

    # -- embedding ---------------------------------------------------------

    def _num_at(self, m: int):
        """The numerators embedded in Q(zeta_m), for m a multiple of N."""
        n = self.root_order
        if m == n:
            return self._num
        return tuple(_apply(_power_map(n, m, m // n), self._num, _phi_degree(m)))

    def embed(self, root_order: int) -> "Scalar":
        """The same element viewed in Q(zeta_root_order); requires N | root_order."""
        if root_order % self.root_order != 0:
            raise ValueError(f"cannot embed Q(zeta_{self.root_order}) "
                             f"into Q(zeta_{root_order})")
        root = self._root
        if root is not None:
            root = root[0], root[1] * (root_order // self.root_order)
        return _raw(root_order, self._num_at(root_order), self._den, root)

    def _coerce(self, other: "Scalar"):
        """The common root order and both numerator vectors at it."""
        n, k = self.root_order, other.root_order
        if n == k:
            return n, self._num, other._num
        m = lcm(n, k)
        return m, self._num_at(m), other._num_at(m)

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
        n, k = self.root_order, other.root_order
        # a zero at a dividing root order leaves the other term as it is,
        # tag included; the general path below gives the same representation
        if n % k == 0 and not any(other._num):
            return self
        if k % n == 0 and not any(self._num):
            return other
        m, a, b = self._coerce(other)
        da, db = self._den, other._den
        if da == db:
            return _scalar(m, [x + y for x, y in zip(a, b)], da)
        return _scalar(m, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        if self._root is not None:
            sign, e = self._root
            return _root_of_unity(self.root_order, e, -sign)
        return _raw(self.root_order, [-c for c in self._num], self._den)

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
        if self._root is not None:
            return other._times_root(self.root_order, self._root)
        if other._root is not None:
            return self._times_root(other.root_order, other._root)
        m, a, b = self._coerce(other)
        if not (any(a) and any(b)):  # zero, as the product below would give it
            return _raw(m, (0,) * len(a), 1)
        return _scalar(m, _reduce(_poly_mul(a, b), m), self._den * other._den)

    __rmul__ = __mul__

    def _times_root(self, n: int, root) -> "Scalar":
        """self * sign * zeta_n**e for root = (sign, e).  A root times a root
        is a root; otherwise the numerators rotate through one integer map
        and, a unit keeping them in lowest terms, need no gcd."""
        k, (sign, e) = self.root_order, root
        m = n if n == k else lcm(n, k)
        if self._root is not None:
            own_sign, own_e = self._root
            return _root_of_unity(m, (e * (m // n) + own_e * (m // k)) % m,
                                  sign * own_sign)
        images = _power_map(k, m, m // k, e * (m // n), sign)
        return _raw(m, _apply(images, self._num, _phi_degree(m)), self._den)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse: the product of the nontrivial Galois
        conjugates of x divided by the norm of x, a nonzero rational; for
        x = sign * zeta_N**e it is sign * zeta_N**-e."""
        n, a = self.root_order, self._num
        if self._root is not None:
            sign, e = self._root
            return _root_of_unity(n, -e % n, sign)
        if self.is_zero():
            raise DivisionByZero("cannot invert the zero scalar")
        deg = len(a)
        conj = (1,)
        for k in range(2, n):
            if gcd(k, n) == 1:
                sigma = _apply(_power_map(n, n, k), a, deg)
                conj = _reduce(_poly_mul(conj, sigma), n)
        # x = a/den, so 1/x = den * conj(a) / (a * conj(a)), a rational
        norm = _reduce(_poly_mul(a, conj), n)[0]
        return _scalar(n, [c * self._den for c in conj], norm)

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
        _, a, b = self._coerce(other)
        return self._den == other._den and a == b

    def __hash__(self):
        n, nums, den = self._canonical()
        return hash((n, nums if den == 1 else _fractions(nums, den)))

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_one(self) -> bool:
        return self._den == 1 and self._num[0] == 1 and not any(self._num[1:])

    def __bool__(self) -> bool:
        return any(self._num)

    def _canonical(self) -> tuple[int, tuple[int, ...], int]:
        """(root order, numerators, denominator) in the smallest cyclotomic
        subfield containing self, computed once per object."""
        canon = self._canon
        if canon is None:
            n, a, den = self.root_order, self._num, self._den
            canon = (n, a, den)
            for d in _divisors(n)[:-1]:
                coords, vanish, scale = _subfield_test(d, n)
                if not any(sum(r * c for r, c in zip(row, a)) for row in vanish):
                    y = _scalar(d, [sum(r * c for r, c in zip(row, a))
                                    for row in coords], scale * den)
                    canon = (d, y._num, y._den)
                    break
            _set(self, "_canon", canon)
        return canon

    def reduce_order(self) -> "Scalar":
        """Canonical form in the smallest cyclotomic subfield containing self."""
        canon = self._canonical()
        if canon[0] == self.root_order:
            return self
        out = _raw(*canon)
        _set(out, "_canon", canon)
        return out

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        n, nums, den = self._canonical()
        if n == 1:
            return Fraction(nums[0], den)
        return None

    # -- presentation --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.root_order}, {[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        n, nums, den = self._canonical()
        terms = []
        for i, c in enumerate(_fractions(nums, den)):
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
        n, nums, den = self._canonical()
        return {
            "root_order": n,
            "coeffs": [str(c) for c in _fractions(nums, den)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Scalar":
        return cls(int(data["root_order"]), [Fraction(c) for c in data["coeffs"]])


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

"""Randomized cross-checks of the integer-backed Scalar against sympy.

Each value is drawn as rational coefficients with nontrivial denominators at
a root order from 1 to 12, and read back through ``coeffs`` only: sympy
reduces the same polynomials modulo ``cyclotomic_poly`` in a common field
Q(zeta_M), so the embedding, the reduction modulo Phi_N, the gcd
normalisation and the inverse are each checked against an independent
computation.
"""
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from twistcat.errors import DivisionByZero
from twistcat.scalar import Scalar, _phi_degree

CHECKS = settings(derandomize=True, max_examples=40, deadline=None)
X = sympy.Symbol("x")
ORDERS = st.integers(1, 12)


def _phi(m: int) -> sympy.Poly:
    return sympy.Poly(sympy.cyclotomic_poly(m, X), X, domain=sympy.QQ)


def _poly(coeffs, n: int, m: int) -> sympy.Poly:
    """sum c_i zeta_n**i as a polynomial in zeta_m (n | m), reduced mod Phi_m."""
    step = m // n
    terms = [sympy.Rational(0)] * (step * max(len(coeffs) - 1, 0) + 1)
    for i, c in enumerate(coeffs):
        terms[i * step] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly(terms[::-1], X, domain=sympy.QQ).rem(_phi(m))


def _at(s: Scalar, m: int) -> sympy.Poly:
    return _poly(s.coeffs, s.root_order, m)


def _as_coeffs(p: sympy.Poly, n: int) -> tuple[Fraction, ...]:
    """The phi(n) coefficients of a reduced polynomial, constant term first."""
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return tuple(out + [Fraction(0)] * (_phi_degree(n) - len(out)))


def _assert_canonical(s: Scalar) -> None:
    """One representation per value: a positive denominator, in lowest terms
    with the numerators."""
    assert s._den > 0 and gcd(s._den, *s._num) == 1


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _drawn(draw, root_order=None, nonzero=False):
    """(root order, coefficient list, Scalar); the list may be longer than
    phi(N), so the constructor's own reduction is exercised too."""
    n = draw(ORDERS) if root_order is None else root_order
    coeffs = draw(st.lists(RATIONALS, min_size=0, max_size=n + 2).filter(
        lambda cs: not nonzero or not _poly(cs, n, n).is_zero))
    return n, coeffs, Scalar(n, coeffs)


@CHECKS
@given(drawn=_drawn())
def test_constructor_reduces_and_normalises(drawn):
    n, coeffs, s = drawn
    assert s.root_order == n
    assert s.coeffs == _as_coeffs(_poly(coeffs, n, n), n)
    assert all(isinstance(c, Fraction) for c in s.coeffs)
    _assert_canonical(s)


@CHECKS
@given(a=_drawn(), b=_drawn())
def test_ring_operations_match_sympy(a, b):
    (_, _, x), (_, _, y) = a, b
    m = lcm(x.root_order, y.root_order)
    phi = _phi(m)
    px, py = _at(x, m), _at(y, m)
    for got, want in ((x + y, px + py), (x - y, px - py), (-x, -px),
                      (x * y, (px * py).rem(phi))):
        assert m % got.root_order == 0
        assert _at(got, m) == want.rem(phi)
        _assert_canonical(got)
        rebuilt = Scalar(m, _as_coeffs(want.rem(phi), m))
        assert got == rebuilt and hash(got) == hash(rebuilt)


@CHECKS
@given(a=_drawn(), b=_drawn(nonzero=True))
def test_inverse_and_division_match_sympy(a, b):
    (_, _, x), (nb, _, y) = a, b
    inv = y.inverse()
    assert inv.root_order == nb
    assert inv.coeffs == _as_coeffs(
        sympy.invert(_at(y, nb), _phi(nb), domain=sympy.QQ), nb)
    assert y * inv == 1 and inv * y == Scalar.one()
    assert (y / y).is_one() and inv.inverse() == y
    m = lcm(x.root_order, nb)
    want = (_at(x, m) * sympy.invert(_at(y, m), _phi(m), domain=sympy.QQ)).rem(_phi(m))
    assert _at(x / y, m) == want


@CHECKS
@given(drawn=_drawn(), step=st.integers(1, 4))
def test_equality_and_hash_across_root_orders(drawn, step):
    n, coeffs, x = drawn
    k = n * step
    # the same value built at order k from spread-out coefficients
    spread = [Fraction(0)] * (step * max(len(coeffs) - 1, 0) + 1)
    for i, c in enumerate(coeffs):
        spread[i * step] = c
    y = Scalar(k, spread)
    assert _at(y, k) == _at(x, k)
    assert x == y and y == x
    assert hash(x) == hash(y)
    assert x.embed(k).coeffs == y.coeffs
    assert y + Scalar.root_of_unity(k) != x


def _smallest_subfield(x: Scalar) -> int:
    """The least d | N with x fixed by every automorphism zeta -> zeta**k,
    k = 1 mod d, i.e. the least d with x in Q(zeta_d)."""
    n = x.root_order
    p = _at(x, n)
    for d in range(1, n + 1):
        if n % d:
            continue
        units = [k for k in range(1, n + 1) if gcd(k, n) == 1 and k % d == 1 % d]
        if all(p.compose(sympy.Poly(X**k, X, domain=sympy.QQ)).rem(_phi(n)) == p
               for k in units):
            return d
    raise AssertionError("x lies in Q(zeta_N)")


@CHECKS
@given(drawn=_drawn())
def test_reduce_order_is_the_smallest_subfield_and_is_cached(drawn):
    _, _, x = drawn
    first = x.reduce_order()
    assert first.root_order == _smallest_subfield(x)
    assert first == x and _at(first, x.root_order) == _at(x, x.root_order)
    hash(x), str(x), x.to_json(), x.as_rational()   # all read the cached form
    again = x.reduce_order()
    assert hash(x) == hash((first.root_order, first.coeffs))
    assert (again.root_order, again.coeffs) == (first.root_order, first.coeffs)
    assert x.coeffs == _as_coeffs(_at(x, x.root_order), x.root_order)
    assert x.to_json() == {"root_order": first.root_order,
                           "coeffs": [str(c) for c in first.coeffs]}
    rational = x.as_rational()
    assert (rational is not None) == (first.root_order == 1)


@CHECKS
@given(orders=st.lists(ORDERS, min_size=2, max_size=4),
       dens=st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_zero_at_several_orders(orders, dens):
    zeros = [Scalar.zero(n) for n in orders]
    zeros += [Scalar(n, [Fraction(0, d) for d in dens]) for n in orders]
    for z in zeros:
        assert z.is_zero() and not z and z == 0
        assert z._den == 1 and z.coeffs == (Fraction(0),) * _phi_degree(z.root_order)
        assert hash(z) == hash(Scalar.zero())
        assert str(z) == "0" and z.to_json() == {"root_order": 1, "coeffs": ["0"]}
        assert z.as_rational() == 0
    x = Scalar.root_of_unity(orders[0]) + Fraction(1, dens[0] + 1)
    for z in zeros:
        assert z + x == x and x - z == x and (z * x).is_zero()
        with pytest.raises(DivisionByZero):
            z.inverse()

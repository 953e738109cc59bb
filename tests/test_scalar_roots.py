"""Root-of-unity fast paths of Scalar against the generic integer path.

A Scalar that is sign * zeta_n**e carries the tag (sign, e); products,
inverses and negations that involve a tagged operand skip the polynomial
product, the reduction modulo Phi_N and the gcd.  Each fast path must give
exactly the representation the generic path gives -- the same root order,
numerators and positive denominator -- and every tag must name the value it
sits on.  The generic path is reached by dropping the tag from a copy.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from twistcat._matrix import SMatrix
from twistcat.scalar import (Scalar, Unit, _poly_mul, _powers, _raw, _reduce,
                             _scalar)

CHECKS = settings(derandomize=True, max_examples=60, deadline=None)
ORDERS = st.integers(1, 12)
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def _plain(s: Scalar) -> Scalar:
    """The same value without its tag, so arithmetic takes the generic path."""
    return _raw(s.root_order, s._num, s._den)


def _rep(s: Scalar):
    return s.root_order, s._num, s._den


def _assert_tag(s: Scalar) -> None:
    """A tagged scalar is sign * zeta_n**e with integer numerators."""
    if s._root is not None:
        sign, e = s._root
        assert sign in (1, -1) and 0 <= e < s.root_order
        assert s._den == 1
        assert s._num == tuple(sign * c for c in _powers(s.root_order)[e])


@st.composite
def _roots(draw):
    """sign * zeta_n**e, reached through the public constructors and Unit."""
    n, sign = draw(ORDERS), draw(st.sampled_from((1, -1)))
    e = draw(st.integers(-2 * n, 2 * n))
    root = (Unit(n, e).to_scalar() if draw(st.booleans())
            else Scalar.root_of_unity(n, e))
    return root if sign > 0 else -root


@st.composite
def _scalars(draw):
    """A general scalar, zero included, at a root order from 1 to 12."""
    n = draw(ORDERS)
    return Scalar(n, draw(st.lists(RATIONALS, min_size=1, max_size=n + 2)))


@CHECKS
@given(_roots(), _scalars())
def test_root_times_scalar_matches_the_generic_product(root, x):
    _assert_tag(root)
    want = _rep(_plain(root) * _plain(x))
    assert _rep(root * x) == _rep(x * root) == want
    assert root * x == x * root


@CHECKS
@given(_roots(), _roots())
def test_root_times_root_is_a_tagged_root(a, b):
    prod = a * b
    assert prod._root is not None
    _assert_tag(prod)
    assert _rep(prod) == _rep(b * a) == _rep(_plain(a) * _plain(b))


@CHECKS
@given(_roots())
def test_root_inverse_and_negation_match_the_generic_path(root):
    for got, want in ((root.inverse(), _plain(root).inverse()),
                      (-root, -_plain(root)),
                      (root ** 3, _plain(root) ** 3),
                      (root ** -2, _plain(root) ** -2)):
        assert got._root is not None
        _assert_tag(got)
        assert _rep(got) == _rep(want)
    assert (root * root.inverse()).is_one()


def _generic_product(x: Scalar, y: Scalar):
    """x * y by the polynomial product, its reduction and the gcd."""
    m, a, b = x._coerce(y)
    return _rep(_scalar(m, _reduce(_poly_mul(a, b), m), x._den * y._den))


@CHECKS
@given(ORDERS, st.one_of(_roots(), _scalars()))
def test_zero_operand_matches_the_generic_product(n, x):
    # a zero factor returns the zero at the common root order directly; with
    # a tagged factor, tagged or stripped, and an untagged one alike
    zero = Scalar.zero(n)
    for left, right in ((zero, x), (x, zero), (zero, _plain(x)),
                        (_plain(x), zero), (zero, zero), (x, Scalar.zero())):
        assert _rep(left * right) == _generic_product(left, right)
        assert (left * right).is_zero()


def _generic_sum(x: Scalar, y: Scalar):
    """x + y over the common denominator, divided through by the gcd."""
    m, a, b = x._coerce(y)
    return _rep(_scalar(m, [p * y._den + q * x._den for p, q in zip(a, b)],
                        x._den * y._den))


@CHECKS
@given(ORDERS, st.one_of(_roots(), _scalars()))
def test_adding_a_zero_keeps_the_other_term(k, x):
    # a zero at a dividing root order returns the other term, tag included;
    # at any other order the sum takes the general path to the common order
    zero = Scalar.zero(k)
    n = x.root_order
    for got, want in ((x + zero, _generic_sum(x, zero)),
                      (zero + x, _generic_sum(zero, x)),
                      (x - zero, _generic_sum(x, zero)),
                      (zero - x, _generic_sum(zero, -x)),
                      (x + 0, _generic_sum(x, Scalar.zero()))):
        assert _rep(got) == want
    if n % k == 0:
        assert (x + zero)._root == (zero + x)._root == (x - zero)._root \
            == x._root
        assert (zero - x)._root == (-x)._root
    else:
        assert (x + zero)._root is None and (zero + x)._root is None
    assert 0 + x is x


@CHECKS
@given(_roots(), st.integers(1, 4))
def test_embedding_keeps_the_root_tag(root, k):
    up = root.embed(root.root_order * k)
    _assert_tag(up)
    assert up._root is not None
    assert _rep(up) == _rep(_plain(root).embed(root.root_order * k))


def test_minus_one_at_orders_one_and_two():
    # -1 has norm -1 at both orders; its inverse must still come out with a
    # positive denominator
    for minus_one in (-Scalar.one(), Scalar.root_of_unity(2, 1),
                      Unit(2, 1).to_scalar(), -Scalar.one(2)):
        _assert_tag(minus_one)
        for got, want in ((minus_one.inverse(), _plain(minus_one).inverse()),
                          (-minus_one, -_plain(minus_one)),
                          (minus_one * minus_one,
                           _plain(minus_one) * _plain(minus_one))):
            _assert_tag(got)
            assert _rep(got) == _rep(want)
        assert minus_one.inverse() == minus_one == Scalar.from_rational(-1)


def test_equality_and_hash_ignore_the_tag():
    for n in range(1, 13):
        for e in range(n):
            root = Scalar.root_of_unity(n, e)
            assert root == _plain(root) and hash(root) == hash(_plain(root))


@st.composite
def _entries(draw):
    """Mostly zeros and roots, as block and monomial matrices are, and
    now and then a root without its tag."""
    kind = draw(st.sampled_from(("zero", "zero", "root", "root", "scalar",
                                 "untagged")))
    if kind == "zero":
        return Scalar.zero(draw(ORDERS))
    if kind == "untagged":
        return _plain(draw(_roots()))
    return draw(_roots() if kind == "root" else _scalars())


def _matrix(data, nrows: int, ncols: int) -> SMatrix:
    return SMatrix([[data.draw(_entries()) for _ in range(ncols)]
                    for _ in range(nrows)])


def _reexpressed(data, mat: SMatrix) -> SMatrix:
    """The same values, each entry embedded at a multiple of its order."""
    return SMatrix([[v.embed(v.root_order * data.draw(st.integers(1, 3)))
                     for v in row] for row in mat.rows])


@CHECKS
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_matmul_matches_the_sum_from_zero(rows, inner, cols, data):
    # on drawn operands, and on the same operands with every entry
    # re-expressed at a multiple of its root order
    a, b = _matrix(data, rows, inner), _matrix(data, inner, cols)
    if data.draw(st.booleans()):
        a, b = _reexpressed(data, a), _reexpressed(data, b)
    got = a @ b
    for i in range(rows):
        for j in range(cols):
            want = Scalar.zero()
            for x, y in zip(a.rows[i], b.transpose().rows[j]):
                if x and y:
                    want = want + _plain(x) * _plain(y)
            assert _rep(got.entry(i, j)) == _rep(want)

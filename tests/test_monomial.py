"""The monomial form of SMatrix against the entrywise path and elimination.

A matrix whose rows each hold one nonzero entry, a tagged root of unity,
keeps a monomial form.  With root scale factors (a Unit or a tagged Scalar),
``scaled_products_equal`` then compares column maps and sums of angles, also
for a side that is one matrix M, passed as M @ I with the cached identity,
and ``inverse`` of a square one with distinct columns
transposes it and inverts its roots.  Every answer must be the one the
entrywise reference gives -- the products built with ``@`` and compared as
matrices -- and every inverse must carry elimination's representation entry
by entry.  Near misses (an untagged entry equal to a root, a row with two
nonzeros, a zero row, one wrong angle or column) and mismatched shapes must
come out exactly as the reference has them.
"""
import pytest
from hypothesis import given, settings, strategies as st

from twistcat._matrix import (SMatrix, _identity, _monomial_form,
                              scaled_products_equal)
from twistcat.errors import ShapeMismatch
from twistcat.scalar import Scalar, Unit, _gauss_jordan, _raw

CHECKS = settings(derandomize=True, max_examples=200, deadline=None)
ORDERS = st.integers(1, 12)
SIZES = st.integers(1, 3)
NEAR_MISSES = ("untagged", "two nonzeros", "zero row", "negated", "rotated",
               "wrong column")


def _plain(s: Scalar) -> Scalar:
    """The same value without its root tag."""
    return _raw(s.root_order, s._num, s._den)


def _rep(s: Scalar):
    return s.root_order, s._num, s._den


@st.composite
def _roots(draw):
    """sign * zeta_n**e, through Unit, Scalar.root_of_unity or an embedding,
    each of which keeps the tag."""
    n, e = draw(ORDERS), draw(st.integers(-12, 12))
    how = draw(st.sampled_from(("unit", "scalar", "embedded")))
    if how == "unit":
        root = Unit(n, e).to_scalar()
    else:
        root = Scalar.root_of_unity(n, e)
        if how == "embedded":
            root = root.embed(n * draw(st.integers(2, 3)))
    return root if draw(st.booleans()) else -root


def _zero(draw) -> Scalar:
    return Scalar.zero(draw(ORDERS))


@st.composite
def _monomials(draw, nrows: int, ncols: int, distinct: bool = False):
    """A monomial matrix of tagged roots; its columns form a permutation when
    distinct, any map of the rows otherwise."""
    if distinct:
        cols = draw(st.permutations(range(ncols)))
    else:
        cols = [draw(st.integers(0, ncols - 1)) for _ in range(nrows)]
    return SMatrix([[draw(_roots()) if j == cols[i] else _zero(draw)
                     for j in range(ncols)] for i in range(nrows)])


@st.composite
def _factors(draw):
    """A scale factor: mostly a Unit or a tagged root, else the same root
    untagged or a general scalar."""
    kind = draw(st.sampled_from(("unit", "root") * 2 + ("untagged", "scalar")))
    if kind == "unit":
        return Unit(draw(ORDERS), draw(st.integers(0, 11)))
    if kind == "scalar":
        n = draw(ORDERS)
        return Scalar(n, draw(st.lists(st.integers(-3, 3), min_size=1,
                                       max_size=n)))
    root = draw(_roots())
    return root if kind == "root" else _plain(root)


def _is_root(u) -> bool:
    return isinstance(u, Unit) or u._root is not None


def _near_miss(draw, mat: SMatrix) -> SMatrix:
    """mat with one row changed by a drawn near miss of the monomial form,
    at the row's first nonzero entry (its only one, on a monomial matrix)."""
    grid = [list(row) for row in mat.rows]
    i = draw(st.integers(0, len(grid) - 1))
    row = grid[i]
    j = next((c for c, v in enumerate(row) if v), 0)
    others = [c for c in range(len(row)) if c != j]
    kind = draw(st.sampled_from(NEAR_MISSES))
    if kind == "untagged":
        row[j] = _plain(row[j])
    elif kind == "two nonzeros" and others:
        row[draw(st.sampled_from(others))] = draw(_roots())
    elif kind == "zero row":
        grid[i] = [_zero(draw) for _ in row]
    elif kind == "wrong column" and others:
        other = draw(st.sampled_from(others))
        row[j], row[other] = row[other], row[j]
    elif kind == "negated":  # a wrong angle: the sign of the tag flips
        row[j] = -row[j]
    else:  # a wrong angle: a nontrivial root times the entry
        n = draw(st.integers(2, 12))
        row[j] = row[j] * Scalar.root_of_unity(n, draw(st.integers(1, n - 1)))
    return SMatrix(grid)


@CHECKS
@given(SIZES, SIZES, SIZES, st.data())
def test_a_single_matrix_side_matches_the_entrywise_path(rows, inner, cols,
                                                        data):
    # lhs == u (first @ second), asked as 1 (lhs @ I) == u (first @ second)
    draw = data.draw
    first = draw(_monomials(rows, inner))
    second = draw(_monomials(draw(st.sampled_from((inner,) * 4 + (1, 2, 3))),
                             cols))
    u = draw(_factors())
    try:
        built = (first @ second).scale(u)
    except ShapeMismatch:
        lhs = draw(_monomials(rows, cols))
        with pytest.raises(ShapeMismatch):
            scaled_products_equal(Scalar.one(), lhs, _identity(cols), u,
                                  first, second)
        return
    if _is_root(u):  # the clean operands take the monomial path
        assert None not in map(_monomial_form,
                               (built, _identity(cols), first, second))
    target = draw(st.sampled_from(("lhs", "first", "second", "none")))
    lhs = _near_miss(draw, built) if target == "lhs" else built
    if target == "first":
        first = _near_miss(draw, first)
    elif target == "second":
        second = _near_miss(draw, second)
    if draw(st.booleans()):  # a row or a column more: unequal by shape
        grid = [list(row) for row in lhs.rows]
        if draw(st.booleans()):
            grid.append([Scalar.zero()] * cols)
        else:
            grid = [row + [Scalar.zero()] for row in grid]
        lhs = SMatrix(grid)
    want = (first @ second).scale(u) == lhs
    assert scaled_products_equal(Scalar.one(), lhs, _identity(lhs.ncols), u,
                                 first, second) == want


@CHECKS
@given(SIZES, SIZES, SIZES, st.data())
def test_scaled_products_equal_matches_the_entrywise_path(rows, inner, cols,
                                                          data):
    draw = data.draw
    first = draw(_monomials(rows, inner))
    second = draw(_monomials(inner, cols))
    u = draw(_factors())
    kind = draw(st.sampled_from(("same", "same", "other", "mismatched")))
    if kind == "same":
        # u X Y = (u / k) (k X) Y, for a root k
        k = draw(_roots())
        third, fourth = first.scale(k), second
        v = (u.to_scalar() if isinstance(u, Unit) else u) / k
        if _is_root(u):
            assert None not in map(_monomial_form, (third, fourth))
            assert scaled_products_equal(u, first, second, v, third, fourth)
    else:
        mid = inner if kind == "other" else draw(SIZES)
        third = draw(_monomials(draw(SIZES), mid))
        fourth = draw(_monomials(draw(SIZES) if kind == "mismatched"
                                 else mid, draw(SIZES)))
        v = draw(_factors())
    operands = [first, second, third, fourth]
    target = draw(st.integers(0, 4))  # 4: every operand as drawn
    if target < 4:
        operands[target] = _near_miss(draw, operands[target])
    first, second, third, fourth = operands
    try:
        want = (first @ second).scale(u) == (third @ fourth).scale(v)
    except ShapeMismatch:
        with pytest.raises(ShapeMismatch):
            scaled_products_equal(u, first, second, v, third, fourth)
        return
    assert scaled_products_equal(u, first, second, v, third, fourth) == want


def _eliminated_inverse(mat: SMatrix):
    """The inverse by elimination of [mat | I], as the general path has it."""
    n = mat.nrows
    one, zero = Scalar.one(), Scalar.zero()
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(mat.rows)]
    reduced, pivots = _gauss_jordan(aug, n)
    return [row[n:] for row in reduced] if len(pivots) == n else None


@CHECKS
@given(SIZES, st.booleans(), st.booleans(), st.data())
def test_monomial_inverse_has_the_representation_of_elimination(
        n, distinct, near_miss, data):
    mat = data.draw(_monomials(n, n, distinct))
    if near_miss:
        mat = _near_miss(data.draw, mat)
    got, want = mat.inverse(), _eliminated_inverse(mat)
    if want is None:
        assert got is None
        return
    assert [[_rep(v) + (v._root,) for v in row] for row in got.rows] == [
        [_rep(v) + (v._root,) for v in row] for row in want]
    assert (mat @ got).is_identity()


def test_a_monomial_inverse_transposes_and_inverts_the_roots():
    z4 = Scalar.root_of_unity(4)
    mat = SMatrix([[0, z4], [-Scalar.root_of_unity(3), 0]])
    assert mat.inverse() == SMatrix([[0, -Scalar.root_of_unity(3, 2)],
                                     [z4.inverse(), 0]])
    assert _monomial_form(mat) == ((1, (1, 4)), (0, (5, 6)))

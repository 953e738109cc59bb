"""The exponent table of monomial blocks against the blocks themselves.

A block whose rows each hold one nonzero entry, a tagged root of unity, in
distinct columns -- a permutation times roots -- has rows (column, exponent)
at one root order L in ``_exponent_table``, and ``_from_exponents`` builds
the block back from them.  Near misses (an untagged entry equal to a root,
a row with two nonzeros, a zero row, a repeated column) must drop the table
for the whole dict of blocks; a wrong angle keeps a table, which must then
describe the changed block.  The inverse of a monomial block,
which elimination computes, transposes it and inverts its roots.
"""
from hypothesis import given, settings, strategies as st

from twistcat._matrix import SMatrix, _exponent_table, _from_exponents
from twistcat.scalar import Scalar, Unit, _raw

CHECKS = settings(derandomize=True, max_examples=200, deadline=None)
ORDERS = st.integers(1, 12)
SIZES = st.integers(1, 3)
NEAR_MISSES = ("untagged", "two nonzeros", "zero row", "negated", "rotated",
               "wrong column")


def _plain(s: Scalar) -> Scalar:
    """The same value without its root tag."""
    return _raw(s.root_order, s._num, s._den)


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


def _permutation_times_roots(mat: SMatrix) -> bool:
    """One nonzero entry per row, a tagged root, in distinct columns."""
    support = [[j for j, v in enumerate(row) if v] for row in mat.rows]
    return (all(len(cols) == 1 for cols in support)
            and len({cols[0] for cols in support}) == len(support)
            and all(row[cols[0]]._root is not None
                    for row, cols in zip(mat.rows, support)))


@CHECKS
@given(st.lists(st.tuples(SIZES, st.booleans(), st.booleans()), min_size=1,
                max_size=3), ORDERS, st.data())
def test_the_exponent_table_is_the_blocks_or_none(shapes, order, data):
    blocks = {}
    for key, (n, distinct, near_miss) in enumerate(shapes):
        mat = data.draw(_monomials(n, n, distinct))
        blocks[key] = _near_miss(data.draw, mat) if near_miss else mat
    got = _exponent_table(blocks, order)
    if not all(map(_permutation_times_roots, blocks.values())):
        assert got is None
        return
    big, table = got
    assert big % order == 0 and table.keys() == blocks.keys()
    for key, mat in blocks.items():
        assert all(0 <= e < big for _, e in table[key])
        assert _from_exponents(table[key], big) == mat


def test_a_monomial_inverse_transposes_and_inverts_the_roots():
    z4 = Scalar.root_of_unity(4)
    mat = SMatrix([[0, z4], [-Scalar.root_of_unity(3), 0]])
    assert mat.inverse() == SMatrix([[0, -Scalar.root_of_unity(3, 2)],
                                     [z4.inverse(), 0]])

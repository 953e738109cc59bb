"""Dense matrices of exact cyclotomic scalars, with the small amount of
linear algebra the functor machinery needs: products, inverses, block sums,
invertibility tests and exact nullspaces over the scalar field.

Inverses, nullspaces and the invertibility test :func:`_invertible` all
reduce with ``scalar._gauss_jordan``, the package's one exact elimination
routine; this module has no loop of its own.

Relations between scaled products are checked by
:func:`scaled_products_equal`, the package's one product comparison, which
builds no matrix; a side that is one matrix M is the product M @ I with the
cached identity :func:`_identity`.  Products accumulate each entry from its
first nonzero term, in ``__matmul__`` and in the comparison alike.

The functor blocks over cyclic G are monomial matrices of roots of unity:
each row has one nonzero entry, a tagged root.  Such a matrix keeps its
monomial form, computed once: per row the column of that entry and its root
as a reduced angle k/d, the root being exp(2 pi i k/d).  When every operand
has the form and the scale factors are roots (a Unit or a tagged Scalar), a
comparison is one column map and an integer test on sums of angles, with no
Scalar product; a square monomial matrix with distinct columns inverts as
its transpose with inverted roots, in the representation elimination gives.
Any other input takes the entrywise path and elimination, which stay the
reference.  Nothing outside this module reads the form.

The monomial fast path of the functor relations is a coherence side's
exponent table (:func:`_exponent_table`), each block row as (column,
exponent) at one root order; it is built from the forms here, so the form is
still read only in this module.  :func:`_from_exponents` builds a matrix
back from such rows.  No operation hands a form on: the result of a
product, sum, scaling, transpose, inverse or block sum, and a matrix built
from table rows, computes its own form when first read.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ShapeMismatch
from .scalar import Scalar, Unit, _gauss_jordan


class SMatrix:
    """Immutable rectangular matrix of Scalars; its inverse and its monomial
    form are computed once."""

    __slots__ = ("rows", "_inverse", "_monomial")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        out = []
        for row in rows:
            conv = []
            for val in row:
                if isinstance(val, Unit):
                    val = val.to_scalar()
                elif not isinstance(val, Scalar):
                    val = Scalar.from_rational(val)
                conv.append(val)
            out.append(tuple(conv))
        if not out or not out[0]:
            raise ShapeMismatch("matrix must have positive dimensions")
        if len({len(r) for r in out}) != 1:
            raise ShapeMismatch("rows have inconsistent lengths")
        object.__setattr__(self, "rows", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("SMatrix is immutable")

    @classmethod
    def _trusted(cls, rows) -> "SMatrix":
        """A matrix on rows whose entries are Scalars already, of equal
        positive lengths: the constructor behind products, sums, scalings,
        transposes, inverses and block sums, which skips the checks and
        conversions of ``__init__``."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", tuple(map(tuple, rows)))
        return out

    @classmethod
    def identity(cls, n: int) -> "SMatrix":
        one, zero = Scalar.one(), Scalar.zero()
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    @classmethod
    def from_unit(cls, u: Unit) -> "SMatrix":
        return cls([[u.to_scalar()]])

    @classmethod
    def block_diag(cls, blocks: Sequence["SMatrix"]) -> "SMatrix":
        if not blocks:
            raise ShapeMismatch("block_diag needs at least one block")
        total_r = sum(b.nrows for b in blocks)
        total_c = sum(b.ncols for b in blocks)
        zero = Scalar.zero()
        grid = [[zero] * total_c for _ in range(total_r)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    grid[r0 + i][c0 + j] = b.rows[i][j]
            r0 += b.nrows
            c0 += b.ncols
        return cls._trusted(grid)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def __matmul__(self, other: "SMatrix") -> "SMatrix":
        _check_product(self, other)
        cols = list(zip(*other.rows))
        zero = Scalar.zero()
        out = []
        for row in self.rows:
            new = []
            for col in cols:
                acc = _product_entry(row, col)
                new.append(zero if acc is None else acc)
            out.append(new)
        return SMatrix._trusted(out)

    def __add__(self, other: "SMatrix") -> "SMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("matrix shapes differ")
        return SMatrix._trusted([[a + b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, s) -> "SMatrix":
        s = _as_scalar(s)
        return SMatrix._trusted([[s * v for v in row] for row in self.rows])

    def transpose(self) -> "SMatrix":
        return SMatrix._trusted(zip(*self.rows))

    def inverse(self) -> Optional["SMatrix"]:
        """Exact inverse, or None when the matrix is singular; the result
        (None included) is kept, so each matrix is inverted once."""
        try:
            return self._inverse
        except AttributeError:
            pass
        if self.nrows != self.ncols:
            raise ShapeMismatch("only square matrices can be inverted")
        n = self.nrows
        form = _monomial_form(self)
        if form is not None and len({col for col, _ in form}) == n:
            inv = _monomial_inverse(self.rows, form)
        else:
            one, zero = Scalar.one(), Scalar.zero()
            aug = [list(row) + [one if i == j else zero for j in range(n)]
                   for i, row in enumerate(self.rows)]
            reduced, pivots = _gauss_jordan(aug, n)
            inv = (SMatrix._trusted([row[n:] for row in reduced])
                   if len(pivots) == n else None)
        object.__setattr__(self, "_inverse", inv)
        return inv

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return all((v.is_one() if i == j else v.is_zero())
                   for i, row in enumerate(self.rows)
                   for j, v in enumerate(row))

    def __eq__(self, other):
        if not isinstance(other, SMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(v) for v in row) for row in self.rows)
        return f"SMatrix[{body}]"

    def to_json(self) -> list:
        return [[v.to_json() for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, data) -> "SMatrix":
        return cls([[Scalar.from_json(v) for v in row] for row in data])


@lru_cache(maxsize=16)
def _identity(n: int) -> SMatrix:
    """The n x n identity, built once: the second factor of a side that is
    one matrix."""
    return SMatrix.identity(n)


def _as_scalar(s) -> Scalar:
    return s.to_scalar() if isinstance(s, Unit) else s


@lru_cache(maxsize=None)
def _tag_angle(n: int, sign: int, e: int) -> tuple[int, int]:
    """sign * zeta_n**e as the reduced angle (k, d), 0 <= k < d."""
    k = (2 * e + (n if sign < 0 else 0)) % (2 * n)
    g = gcd(k, 2 * n)
    return k // g, 2 * n // g


def _root_angle(u) -> Optional[tuple[int, int]]:
    """The angle of a Unit or a tagged Scalar, or None for any other value."""
    if isinstance(u, Unit):
        return u.exponent, u.root_order  # kept reduced by Unit
    root = u._root
    return None if root is None else _tag_angle(u.root_order, *root)


def _monomial_form(mat: SMatrix) -> Optional[tuple]:
    """Per row, (column, angle) of its one nonzero entry, a tagged root; None
    when a row has no nonzero entry, several, or an untagged one.  Computed
    once per matrix."""
    try:
        return mat._monomial
    except AttributeError:
        pass
    form = []
    for row in mat.rows:
        cols = [j for j, v in enumerate(row) if v]
        angle = _root_angle(row[cols[0]]) if len(cols) == 1 else None
        if angle is None:
            form = None
            break
        form.append((cols[0], angle))
    else:
        form = tuple(form)
    object.__setattr__(mat, "_monomial", form)
    return form


def _exponent_table(blocks: dict, order: int = 1) -> Optional[tuple]:
    """(L, table): L the lcm of ``order`` and the blocks' root orders, and
    per key of ``blocks``, per row of its block, (column, e mod L) of the
    row's one entry exp(2 pi i e / L); None unless every block is monomial
    with distinct columns, so a permutation times roots."""
    forms, orders = [], {order}
    for mat in blocks.values():
        form = _monomial_form(mat)
        if form is None or len({col for col, _ in form}) != len(form):
            return None
        forms.append(form)
        orders.update([d for _, (_, d) in form])
    order = lcm(*orders)
    return order, {key: tuple([(col, k * (order // d)) for col, (k, d) in form])
                   for key, form in zip(blocks, forms)}


def _from_exponents(rows, order: int) -> SMatrix:
    """The matrix with exp(2 pi i e / order) at (i, c) for rows[i] = (c, e)
    and zeros elsewhere."""
    zero, grid = Scalar.zero(), []
    for col, e in rows:
        grid.append([zero] * len(rows))
        grid[-1][col] = Scalar.root_of_unity(order, e)
    return SMatrix._trusted(grid)


def _monomial_inverse(rows, form) -> SMatrix:
    """The inverse of a monomial matrix with distinct columns: row c holds
    the inverse root at the column of the row whose entry sits in column c,
    and zeros at that root's order elsewhere, as elimination leaves them."""
    grid = [None] * len(rows)
    for i, (col, _) in enumerate(form):
        root = rows[i][col]
        out = [Scalar.zero(root.root_order)] * len(rows)
        out[i] = root.inverse()
        grid[col] = out
    return SMatrix._trusted(grid)


def _monomial_product(u, first: SMatrix, second: SMatrix) -> Optional[list]:
    """Per row of (first @ second).scale(u), (column, angles) of its one
    nonzero entry, whose angle is the sum of angles; None unless u is a root
    and both factors have the monomial form."""
    au, form, other = (_root_angle(u), _monomial_form(first),
                       _monomial_form(second))
    if au is None or form is None or other is None:
        return None
    out = []
    for col, angle in form:
        target, other_angle = other[col]
        out.append((target, (au, angle, other_angle)))
    return out


def _same_root(left, right) -> bool:
    """Whether the angles in left and those in right sum to the same root,
    that is, differ by an integer."""
    num, den = 0, 1
    for k, d in left:
        num, den = num * d + k * den, den * d
    for k, d in right:
        num, den = num * d - k * den, den * d
    return num % den == 0


def _check_product(first: SMatrix, second: SMatrix) -> None:
    """Raise ShapeMismatch unless first @ second is defined."""
    if len(first.rows[0]) != len(second.rows):
        raise ShapeMismatch(
            f"cannot multiply {first.nrows}x{first.ncols} by "
            f"{second.nrows}x{second.ncols}")


def _product_entry(row, col) -> Optional[Scalar]:
    """The sum of row[k] * col[k], or None when every term is zero.  Block
    and monomial matrices are mostly zero, so the sum starts from its first
    nonzero product."""
    acc = None
    for a, b in zip(row, col):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return acc


def scaled_products_equal(u, first: SMatrix, second: SMatrix, v,
                          third: SMatrix, fourth: SMatrix) -> bool:
    """Whether (first @ second).scale(u) == (third @ fourth).scale(v), with
    no matrix built; raises ShapeMismatch where either product does.
    Monomial operands and root factors compare by their monomial forms."""
    _check_product(first, second)
    _check_product(third, fourth)
    if (first.nrows, second.ncols) != (third.nrows, fourth.ncols):
        return False
    left = _monomial_product(u, first, second)
    right = None if left is None else _monomial_product(v, third, fourth)
    if right is not None:
        for (col, angles), (other, other_angles) in zip(left, right):
            if col != other or not _same_root(angles, other_angles):
                return False
        return True
    u, v, zero = _as_scalar(u), _as_scalar(v), Scalar.zero()
    cols, other_cols = list(zip(*second.rows)), list(zip(*fourth.rows))
    for row, other in zip(first.rows, third.rows):
        for col, other_col in zip(cols, other_cols):
            left = _product_entry(row, col)
            right = _product_entry(other, other_col)
            if (zero if left is None else u * left) != (
                    zero if right is None else v * right):
                return False
    return True


def _invertible(rows: list[list[Scalar]]) -> bool:
    """Whether a square matrix of rows is invertible: by its nonzero pattern
    when that is one entry per row in distinct columns, or has a zero row or
    column; else by elimination."""
    support = [[j for j, v in enumerate(row) if v] for row in rows]
    cols = {j for row in support for j in row}
    if len(cols) < len(rows) or not all(support):
        return False
    if all(len(row) == 1 for row in support):
        return True
    return len(_gauss_jordan(rows, len(rows))[1]) == len(rows)


def nullspace_basis(rows: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of {v : A v = 0}, exact, one vector per free column."""
    if not rows:
        return [[Scalar.one() if i == j else Scalar.zero()
                 for i in range(ncols)] for j in range(ncols)]
    mat, pivots = _gauss_jordan(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Scalar.zero()] * ncols
        vec[fc] = Scalar.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis

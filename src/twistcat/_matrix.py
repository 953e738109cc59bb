"""Dense matrices of exact cyclotomic scalars, with the small amount of
linear algebra the functor machinery needs: products, inverses, block sums,
invertibility tests and exact nullspaces over the scalar field.

Inverses, nullspaces and the invertibility test :func:`_invertible` all
reduce with ``scalar._gauss_jordan``, the package's one exact elimination
routine; this module has no loop of its own.

``__matmul__`` is the package's one product routine: it accumulates each
entry from its first nonzero term (:func:`_product_entry`).  Relations
between products that the exponent tables do not decide are checked on the
built products.

The functor blocks over cyclic G are permutations times roots of unity:
each row has one nonzero entry, a tagged root, and no two rows share a
column.  Their one integer representation is the exponent table of
:func:`_exponent_table`, on which the functor relations are decided: per
block row, (column, exponent) at one root order.  :func:`_from_exponents`
builds a matrix back from such rows.  Any other block takes the built
products and elimination, which are the reference.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import ShapeMismatch
from .scalar import Scalar, Unit, _gauss_jordan


class SMatrix:
    """Immutable rectangular matrix of Scalars."""

    __slots__ = ("rows",)

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
        s = s.to_scalar() if isinstance(s, Unit) else s
        return SMatrix._trusted([[s * v for v in row] for row in self.rows])

    def transpose(self) -> "SMatrix":
        return SMatrix._trusted(zip(*self.rows))

    def inverse(self) -> Optional["SMatrix"]:
        """Exact inverse, or None when the matrix is singular."""
        if self.nrows != self.ncols:
            raise ShapeMismatch("only square matrices can be inverted")
        n = self.nrows
        one, zero = Scalar.one(), Scalar.zero()
        aug = [list(row) + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        reduced, pivots = _gauss_jordan(aug, n)
        return (SMatrix._trusted([row[n:] for row in reduced])
                if len(pivots) == n else None)

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


@lru_cache(maxsize=None)
def _tag_angle(n: int, sign: int, e: int) -> tuple[int, int]:
    """sign * zeta_n**e as the reduced angle (k, d), 0 <= k < d."""
    k = (2 * e + (n if sign < 0 else 0)) % (2 * n)
    g = gcd(k, 2 * n)
    return k // g, 2 * n // g


def _exponent_table(blocks: dict, order: int = 1) -> Optional[tuple]:
    """(L, table): L the lcm of ``order`` and the orders of the blocks'
    roots, each tag read as a reduced angle by :func:`_tag_angle`, and per
    key of ``blocks``, per row of its block, (column, e mod L) of the row's
    one entry exp(2 pi i e / L); None unless every block is monomial in
    tagged roots with distinct columns, so a permutation times roots."""
    angles, orders = {}, {order}
    for key, mat in blocks.items():
        rows = []
        for row in mat.rows:
            cols = [j for j, v in enumerate(row) if v]
            v = row[cols[0]] if len(cols) == 1 else None
            if v is None or v._root is None:
                return None
            rows.append((cols[0], *_tag_angle(v.root_order, *v._root)))
        if len({col for col, _, _ in rows}) != len(rows):
            return None
        angles[key] = rows
        orders.update([d for _, _, d in rows])
    order = lcm(*orders)
    return order, {key: tuple([(col, k * (order // d)) for col, k, d in rows])
                   for key, rows in angles.items()}


def _from_exponents(rows, order: int) -> SMatrix:
    """The matrix with exp(2 pi i e / order) at (i, c) for rows[i] = (c, e)
    and zeros elsewhere."""
    zero, grid = Scalar.zero(), []
    for col, e in rows:
        grid.append([zero] * len(rows))
        grid[-1][col] = Scalar.root_of_unity(order, e)
    return SMatrix._trusted(grid)


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

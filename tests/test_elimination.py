"""Randomized cross-checks of the two exact elimination kernels and their callers.

Every exact solve over a field (SMatrix inverses, nullspaces, canonical
scalar forms) reduces with ``scalar._gauss_jordan``; every integer solve
(lattice coordinates, unimodular inverses, solving mod N) goes through
``algebra.smith_normal_form``.  These tests compare each caller against
sympy or against an identity it must satisfy.
"""
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd
from operator import mul

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from twistcat._matrix import SMatrix, nullspace_basis
from twistcat.algebra import (QUOTIENT_REPS_BOUND, _as_int_rows,
                              _kernel_mod_basis, _kernel_mod_coords,
                              _lattice_quotient_reps,
                              coset_gset, cyclic_group, direct_product,
                              disjoint_union_gset, point_gset, regular_gset,
                              smith_normal_form, solve_mod, subgroups)
from twistcat.cohomology import (_diff_snf, _identity_positions,
                                 _identity_snf, differential_matrix)
from twistcat.errors import EnumerationBoundExceeded
from twistcat.scalar import Scalar, _gauss_jordan, _phi_degree

from oracles import (dense_snf, oracle_matrix_rank, oracle_snf_diagonal,
                     oracle_solve_mod_every_row)

CHECKS = settings(derandomize=True, max_examples=25, deadline=None)


def _int_matrix(n_rows, n_cols, lo=-4, hi=4):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


@st.composite
def _unimodular(draw, max_dim=4):
    """A product of random elementary integer row operations."""
    n = draw(st.integers(1, max_dim))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if src == dst:
            u[dst] = [-x for x in u[dst]]
        else:
            c = draw(st.integers(-3, 3))
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
    return u


@st.composite
def _scalar(draw, root_order, nonzero=False):
    deg = _phi_degree(root_order)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=deg, max_size=deg)
                  .filter(lambda cs: any(cs) or not nonzero))
    return Scalar(root_order, coeffs)


# ---------------------------------------------------------------------------
# the routine itself
# ---------------------------------------------------------------------------

@CHECKS
@given(rows=st.integers(1, 4).flatmap(lambda m: st.integers(1, 4).flatmap(
    lambda n: _int_matrix(m, n))))
def test_gauss_jordan_matches_sympy_rref(rows):
    ncols = len(rows[0])
    reduced, pivots = _gauss_jordan([[Fraction(v) for v in r] for r in rows], ncols)
    want, want_pivots = sympy.Matrix(rows).rref()
    assert pivots == list(want_pivots)
    assert [[sympy.Rational(v.numerator, v.denominator) for v in r]
            for r in reduced] == want.tolist()


def test_gauss_jordan_leaves_input_untouched():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    _gauss_jordan(rows, 2)
    assert rows == [[2, 4], [1, 3]]


# ---------------------------------------------------------------------------
# unimodular inverse
# ---------------------------------------------------------------------------

@CHECKS
@given(u=_unimodular())
def test_unimodular_inverse_matches_sympy(u):
    # U u V = D, so u^-1 = V D^-1 U
    d, u_snf, v, _, _ = dense_snf(smith_normal_form(u))
    uinv = sympy.Matrix(v) * sympy.Matrix(d).inv() * sympy.Matrix(u_snf)
    assert uinv == sympy.Matrix(u).inv()
    assert all(v.is_integer for v in uinv)


# ---------------------------------------------------------------------------
# Smith normal form with tracked inverses, and the solves that reuse it
# ---------------------------------------------------------------------------

def _obj(rows, n_rows, n_cols):
    return np.array(rows, dtype=object).reshape(n_rows, n_cols)


@st.composite
def _sparse_int_matrix(draw, max_dim=5):
    """An r x c integer matrix (r or c may be 0) with some rows and columns zeroed.

    Half of the draws have no entry +-1, so that pivots above 1 and the
    divisibility repair of the Smith form are exercised.
    """
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    rows = draw(_int_matrix(r, c, -6, 6))
    if draw(st.booleans()):
        rows = [[3 * v if abs(v) == 1 else v for v in row] for row in rows]
    dead_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=2)) if r else set()
    dead_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=2)) if c else set()
    return [[0 if i in dead_rows or j in dead_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)], r, c


def _assert_factorization(rows, r, c, snf):
    """Each factor stores distinct indices and nonzero entries only; made
    dense, U A V = D with D diagonal, d_1 | d_2 | ..., and the sympy
    invariant factors, and U^-1 and V^-1 are the inverses of U and V."""
    for vectors, n in ((snf.u_rows, r), (snf.u_inv_cols, r),
                       (snf.v_cols, c), (snf.v_inv_rows, c)):
        assert len(vectors) == n
        for index, entries in vectors:
            assert len(index) == len(entries) and all(entries)
            assert len(set(index)) == len(index)
            assert all(0 <= k < n for k in index)
    a = _obj(rows, r, c)
    d, u, v, u_inv, v_inv = (_obj(m, n, k) for m, (n, k) in zip(
        dense_snf(snf), ((r, c), (r, r), (c, c), (r, r), (c, c))))
    product = u @ a @ v
    assert (product == d).all()
    assert (u @ u_inv == np.eye(r, dtype=int)).all()
    assert (u_inv @ u == np.eye(r, dtype=int)).all()
    assert (v @ v_inv == np.eye(c, dtype=int)).all()
    assert (v_inv @ v == np.eye(c, dtype=int)).all()
    diag = snf.diagonal()
    off_diagonal = product.copy()
    for i in range(len(diag)):
        off_diagonal[i, i] = 0
    assert not off_diagonal.any()
    nonzero = [val for val in diag if val]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    if r and c:
        assert nonzero == oracle_snf_diagonal(rows)


@settings(CHECKS, max_examples=60)
@given(drawn=_sparse_int_matrix())
@example(drawn=([[2, 0], [0, 3]], 2, 2))   # 2 does not divide 3: repair
@example(drawn=([[4, 6, 0], [6, 9, 2]], 2, 3))
def test_smith_form_factorization_and_inverses(drawn):
    rows, r, c = drawn
    _assert_factorization(rows, r, c, smith_normal_form(_obj(rows, r, c)))


def test_differential_smith_form_is_sparse_and_exact():
    # d2 of the Z/4 regular carrier, 256 x 64, as the enumeration factors it
    z4 = cyclic_group(4)
    rows = differential_matrix(z4, regular_gset(z4), 2)
    snf = smith_normal_form(rows)
    r, c = len(rows), len(rows[0])
    _assert_factorization(rows, r, c, snf)
    stored = sum(len(index) for vectors in (snf.u_rows, snf.u_inv_cols)
                 for index, _ in vectors)
    assert stored < r * r  # U and U^-1 together: fewer than one dense copy


@CHECKS
@given(drawn=_sparse_int_matrix(), modulus=st.integers(2, 12), data=st.data())
def test_reused_smith_form_matches_a_fresh_solve(drawn, modulus, data):
    rows, r, c = drawn
    a = _obj(rows, r, c)
    snf = smith_normal_form(a)
    if data.draw(st.booleans()):  # a solvable system
        x = data.draw(st.lists(st.integers(0, modulus - 1), min_size=c, max_size=c))
        b = [int(val) % modulus for val in a.dot(np.array(x, dtype=object))] if r else []
    else:
        b = data.draw(st.lists(st.integers(0, modulus - 1), min_size=r, max_size=r))
    assert solve_mod(a, b, modulus, snf=snf) == solve_mod(a, b, modulus)
    basis = _kernel_mod_basis(snf, modulus)
    assert len(basis) == c
    # every basis vector solves A x = 0 (mod modulus), and the basis has the
    # covolume of that lattice: modulus^c over the number of solutions mod
    # modulus, which is the product of modulus / gcd(d_i, modulus) over the
    # oracle's invariant factors (padded with zeros)
    for vec in basis:
        assert all(val % modulus == 0 for val in a.dot(np.array(vec, dtype=object)))
    diag = oracle_snf_diagonal(rows) if r and c else []
    covolume = 1
    for d in diag + [0] * (c - len(diag)):
        covolume *= modulus // gcd(d, modulus)
    if c:
        assert abs(sympy.Matrix(basis).det()) == covolume
    # coordinates in that basis, read off the same factorization
    coeffs = data.draw(_int_matrix(2, c, -5, 5))
    targets = [[sum(k * vec[i] for k, vec in zip(cs, basis)) for i in range(c)]
               for cs in coeffs]
    if c:
        assert _kernel_mod_coords(snf, modulus, targets) == coeffs


@settings(CHECKS, max_examples=200)
@given(drawn=_sparse_int_matrix(), modulus=st.integers(1, 12), data=st.data())
def test_solve_mod_matches_the_every_row_oracle(drawn, modulus, data):
    # the pivot-row solve returns the very vector the every-row solve picks,
    # or None with it, fresh and through a reused Smith form; a solvable
    # right-hand side is left unreduced
    rows, r, c = drawn
    a = _obj(rows, r, c)
    snf = smith_normal_form(a)
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(-9, 9), min_size=c, max_size=c))
        b = [int(val) for val in a.dot(np.array(x, dtype=object))] if r else []
    else:
        b = data.draw(st.lists(st.integers(0, modulus - 1), min_size=r, max_size=r))
    want = oracle_solve_mod_every_row(snf, b, modulus)
    assert solve_mod(None, b, modulus, snf=snf) == want
    assert solve_mod(a, b, modulus) == want


def _bench_carriers():
    """(group, carrier) of every module-category enumeration the benchmark
    runs: every coset carrier of Z/2, Z/3, Z/4 and Z/2 x Z/2 (the point and
    regular carriers among them), and point + regular for Z/2 and Z/3."""
    z2 = cyclic_group(2)
    out = []
    for grp in (z2, cyclic_group(3), cyclic_group(4), direct_product(z2, z2)):
        out += [(grp, coset_gset(grp, sub)) for sub in subgroups(grp)]
    for grp in (z2, cyclic_group(3)):
        out.append((grp, disjoint_union_gset(point_gset(grp),
                                             regular_gset(grp))))
    return out


@pytest.mark.parametrize("degree", [1, 2])
def test_solve_mod_matches_the_oracle_on_the_benchmark_differentials(degree):
    # d1 and d2 of every benchmark carrier, and the identity-row subsystems
    # normalize solves, against feasible and random right-hand sides
    rng = random.Random(degree)
    outcomes = set()
    for grp, x in _bench_carriers():
        mat = differential_matrix(grp, x, degree)
        for identity_rows in (False, True):
            snf = (_identity_snf if identity_rows else _diff_snf)(grp, x,
                                                                 degree)
            rows = mat
            if identity_rows:
                rows = [mat[p] for p in _identity_positions(
                    (grp.order,) * (degree + 1) + (x.size,),
                    (grp.identity,) * (degree + 1))]
            for modulus in (2, 3, 4, 6, 8, 9, 12, 16):
                vec = [rng.randrange(modulus) for _ in rows[0]]
                solvable = [sum(map(mul, row, vec)) for row in rows]
                random_rhs = [rng.randrange(modulus) for _ in rows]
                for b in (solvable, random_rhs):
                    want = oracle_solve_mod_every_row(snf, b, modulus)
                    assert solve_mod(None, b, modulus, snf=snf) == want
                    outcomes.add(want is None)
                assert oracle_solve_mod_every_row(snf, solvable,
                                                  modulus) is not None
    assert outcomes == {False, True}


def test_smith_form_copies_its_input_once():
    # the working rows are read straight from the input rows: on d2 of the
    # Z/4 regular carrier (256 x 64) the peak above the input is one copy,
    # where a flat tuple in between made it over two
    z4 = cyclic_group(4)
    rows = differential_matrix(z4, regular_gset(z4), 2)
    size = sys.getsizeof(rows) + sum(map(sys.getsizeof, rows))
    tracemalloc.start()
    try:
        copy, _, _ = _as_int_rows(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert copy == rows
    assert peak < 1.25 * size


def test_kernel_mod_coords_rejects_points_off_the_lattice():
    # {x : 2x = 0 mod 4} = 2Z, and 1 is not in it
    snf = smith_normal_form([[2]])
    assert _kernel_mod_basis(snf, 4) == [[2]]
    assert _kernel_mod_coords(snf, 4, [[6]]) == [[3]]
    with pytest.raises(ValueError, match="integer lattice"):
        _kernel_mod_coords(snf, 4, [[1]])


# ---------------------------------------------------------------------------
# coset representatives of a sublattice, and their bound
# ---------------------------------------------------------------------------

UNIT2 = [[1, 0], [0, 1]]


def test_quotient_reps_of_a_diagonal_sublattice():
    # Z^2 / (2Z x 3Z); with B = I the coordinates are the sublattice basis
    reps = _lattice_quotient_reps(UNIT2, [[2, 0], [0, 3]], 2)
    assert sorted((x % 2, y % 3) for x, y in reps) == [
        (x, y) for x in range(2) for y in range(3)]


def test_quotient_reps_in_an_adapted_basis():
    # L = span{(1, 0), (1, 2)} over the sublattice 2L: four cosets, distinct mod 2L
    big = [[1, 0], [1, 2]]
    reps = _lattice_quotient_reps(big, [[2, 0], [0, 2]], 2)
    big_inv = sympy.Matrix(big).T.inv()  # B has the columns of big
    coords = [list(big_inv * sympy.Matrix(rep)) for rep in reps]
    assert sorted((a % 2, b % 2) for a, b in coords) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_quotient_reps_at_the_bound():
    side = 64
    assert side * side == QUOTIENT_REPS_BOUND
    reps = _lattice_quotient_reps(UNIT2, [[side, 0], [0, side]], 2)
    assert len({tuple(v) for v in reps}) == QUOTIENT_REPS_BOUND


@pytest.mark.parametrize("sub", [[[1000, 0], [0, 1000]], [[65, 0], [0, 64]]])
def test_quotient_reps_above_the_bound_raise_before_enumerating(sub):
    with pytest.raises(EnumerationBoundExceeded):
        _lattice_quotient_reps(UNIT2, sub, 2)


def test_quotient_reps_of_infinite_index_raise():
    with pytest.raises(ValueError, match="finite index"):
        _lattice_quotient_reps(UNIT2, [[1000, 1000], [2000, 2000]], 2)


# ---------------------------------------------------------------------------
# SMatrix.inverse and nullspace_basis over cyclotomic fields, and the rank
# oracle they are checked against
# ---------------------------------------------------------------------------

@st.composite
def _invertible_smatrix(draw, root_order):
    """L @ U with unit lower-triangular L and U upper-triangular, nonzero diagonal."""
    n = draw(st.integers(1, 3))
    one, zero = Scalar.one(), Scalar.zero()
    lower = SMatrix([[one if i == j else draw(_scalar(root_order)) if i > j else zero
                      for j in range(n)] for i in range(n)])
    upper = SMatrix([[draw(_scalar(root_order, nonzero=True)) if i == j
                      else draw(_scalar(root_order)) if i < j else zero
                      for j in range(n)] for i in range(n)])
    return lower @ upper


@pytest.mark.parametrize("root_order", [3, 4])
def test_smatrix_inverse_is_two_sided(root_order):
    @CHECKS
    @given(a=_invertible_smatrix(root_order))
    def check(a):
        inv = a.inverse()
        assert inv is not None
        assert (a @ inv).is_identity()
        assert (inv @ a).is_identity()

    check()


@pytest.mark.parametrize("root_order", [3, 4])
def test_smatrix_with_equal_rows_is_singular(root_order):
    @CHECKS
    @given(row=st.lists(_scalar(root_order), min_size=3, max_size=3),
           other=st.lists(_scalar(root_order), min_size=3, max_size=3))
    def check(row, other):
        assert SMatrix([row, other, row]).inverse() is None

    check()


@CHECKS
@given(data=st.data())
def test_nullspace_vectors_are_annihilated(data):
    root_order = data.draw(st.sampled_from([1, 3, 4]))
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    rows = [[data.draw(_scalar(root_order)) for _ in range(n)] for _ in range(m)]
    basis = nullspace_basis(rows, n)
    assert len(basis) == n - oracle_matrix_rank(rows)
    for vec in basis:
        for row in rows:
            assert sum((a * v for a, v in zip(row, vec)), Scalar.zero()).is_zero()


@CHECKS
@given(rows=st.integers(1, 4).flatmap(lambda m: st.integers(1, 4).flatmap(
    lambda n: _int_matrix(m, n, -2, 2))))
def test_matrix_rank_matches_sympy(rows):
    scalars = [[Scalar.from_rational(v) for v in r] for r in rows]
    assert oracle_matrix_rank(scalars) == sympy.Matrix(rows).rank()


# ---------------------------------------------------------------------------
# canonical scalar form
# ---------------------------------------------------------------------------

@CHECKS
@given(data=st.data())
def test_reduce_order_is_independent_of_the_embedding(data):
    n = data.draw(st.integers(1, 6))
    x = data.draw(_scalar(n))
    m = n * data.draw(st.integers(1, 3))
    got, want = x.embed(m).reduce_order(), x.reduce_order()
    assert (got.root_order, got.coeffs) == (want.root_order, want.coeffs)


def test_reduce_order_finds_the_subfield():
    # zeta_12^2 = zeta_6 = 1 + zeta_3 lies in Q(zeta_3); zeta_8^4 = -1 in Q
    assert Scalar.root_of_unity(12, 2).reduce_order().root_order == 3
    neg = Scalar.root_of_unity(8, 4).reduce_order()
    assert (neg.root_order, neg.coeffs) == (1, (Fraction(-1),))

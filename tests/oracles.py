"""Independent reference implementations used to compute and freeze expected values.

Everything in this file is written from first principles in a deliberately
different style from the package under test (dict/loop based, sympy for the
classical algorithms), so the two code bases can cross-check each other.
Nothing here imports from twistcat.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import sympy


# ---------------------------------------------------------------------------
# cyclotomic polynomials / exact scalar identities (sympy-backed)
# ---------------------------------------------------------------------------

def oracle_cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def oracle_root_power_sum_is(n: int, powers: list[int], expected: int) -> bool:
    """Check that sum of zeta_n**p over p in powers equals the integer expected."""
    z = sympy.exp(2 * sympy.I * sympy.pi / n)
    total = sum(z**p for p in powers)
    return sympy.simplify(sympy.expand_complex(total - expected)) == 0


def oracle_root_product_is(n: int, powers: list[int], m: int, q: int) -> bool:
    """Check that prod of zeta_n**p equals zeta_m**q exactly."""
    zn = sympy.exp(2 * sympy.I * sympy.pi / n)
    zm = sympy.exp(2 * sympy.I * sympy.pi / m)
    prod = sympy.prod([zn**p for p in powers])
    return sympy.simplify(prod - zm**q) == 0


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def oracle_snf_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, via sympy."""
    mat = sympy.Matrix(rows)
    from sympy.matrices.normalforms import smith_normal_form

    d = smith_normal_form(mat)
    out = []
    for i in range(min(d.shape)):
        v = int(d[i, i])
        if v:
            out.append(abs(v))
    return out


def dense_snf(snf) -> tuple[list[list[int]], ...]:
    """(D, U, V, U^-1, V^-1) of a Smith form as dense lists of rows.

    The factorization stores U and V^-1 by rows, U^-1 and V by columns, each
    vector as its (indices, nonzero entries); D is read off the diagonal.
    """
    r, c = len(snf.u_rows), len(snf.v_cols)

    def rows_of(vectors, n):
        out = [[0] * n for _ in vectors]
        for row, (index, entries) in zip(out, vectors):
            for k, x in zip(index, entries):
                row[k] = x
        return out

    def cols_of(vectors, n):
        return [list(row) for row in zip(*rows_of(vectors, n))]

    d = [[snf.diag[i] if i == j else 0 for j in range(c)] for i in range(r)]
    return (d, rows_of(snf.u_rows, r), cols_of(snf.v_cols, c),
            cols_of(snf.u_inv_cols, r), rows_of(snf.v_inv_rows, c))


def oracle_solve_mod_every_row(snf, rhs, modulus: int):
    """The x with A x = b (mod modulus) that ``solve_mod`` picks, or None,
    decided from every row of U for ``snf``, A's Smith form U A V = D.

    D y = U b is solved row by row: a pivot row d_i y_i = (Ub)_i takes
    y_i = (Ub)_i / g times the inverse of d_i / g modulo modulus / g, with
    g = gcd(d_i, modulus), and a row past the pivots (d_i = 0) needs
    (Ub)_i = 0.  Then x = V y mod modulus.
    """
    rows, cols = len(snf.u_rows), len(snf.v_cols)
    b = [int(v) for v in rhs]
    if rows == 0:
        return [0] * cols
    if cols == 0:
        return [] if all(v % modulus == 0 for v in b) else None
    if modulus == 1:
        return [0] * cols
    ub = [sum(e * b[k] for k, e in zip(index, entries)) % modulus
          for index, entries in snf.u_rows]
    diag = list(snf.diag) + [0] * (rows - len(snf.diag))
    y = [0] * cols
    for i, (d, r) in enumerate(zip(diag, ub)):
        if d == 0:
            if r:
                return None
            continue
        g = gcd(d, modulus)
        if r % g:
            return None
        sub = modulus // g
        y[i] = (r // g) * pow(d // g, -1, sub) % sub if sub > 1 else 0
    x = [0] * cols
    for y_j, (index, entries) in zip(y, snf.v_cols):
        for k, v in zip(index, entries):
            x[k] += y_j * v
    return [v % modulus for v in x]


def oracle_class_lattice(d1_rows, snf2, lifted: int, m: int, smith):
    """The lattice of directions that stay coboundaries after a further lift
    by m, built through its own ambient Smith form.

    The ambient lattice L is spanned by the columns of d1 and by
    lifted * m * Z^dim.  With U A V = D for that generator matrix A (factored
    by ``smith``), L = U^-1 D Z^dim, and U x lies in m Z^dim exactly when x
    does, so S = (L meet m Z^dim) / m has basis column i of U^-1 scaled by
    t_i = lcm(d_i, m) / m.  Returns the ambient Smith form, the t_i, the
    coordinates of that basis in the solution lattice of d2 mod lifted
    (``snf2`` is d2's Smith form) and the index of S there: the product of
    the coordinate matrix's invariant factors.
    """
    dim = len(d1_rows)
    further = lifted * m
    ambient = [list(row) + [further * int(i == j) for j in range(dim)]
               for i, row in enumerate(d1_rows)]
    snf = smith(ambient)
    assert len(snf.diag) == dim and all(snf.diag), "ambient lattice not full rank"
    scales = [d * m // gcd(d, m) // m for d in snf.diag]
    diag2 = list(snf2.diag) + [0] * (len(snf2.v_cols) - len(snf2.diag))
    kernel_scales = [lifted // gcd(d, lifted) if d else 1 for d in diag2]
    coords = []
    for (index, entries), t in zip(snf.u_inv_cols, scales):
        col = [0] * dim
        for k, x in zip(index, entries):
            col[k] = x * t
        row = []
        for (idx, ent), s in zip(snf2.v_inv_rows, kernel_scales):
            q, r = divmod(sum(e * col[k] for k, e in zip(idx, ent)), s)
            assert r == 0, "S does not lie in the solution lattice"
            row.append(q)
        coords.append(row)
    index = 1
    for d in smith([list(r) for r in zip(*coords)]).diag:
        index *= d
    return snf, scales, coords, index


# ---------------------------------------------------------------------------
# field matrices
# ---------------------------------------------------------------------------

def oracle_matrix_rank(rows) -> int:
    """Rank of a list of rows over a field, by forward elimination with no
    back substitution.  Entries are any exact field elements supporting
    ``-``, ``*``, truthiness and ``1 / x``: Fractions, or cyclotomic scalars."""
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] * inv
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# tiny group/G-set utilities (independent, dict based)
# ---------------------------------------------------------------------------

def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def closure_table(identity, generators, mul) -> list[list[int]]:
    """Multiplication table of the group the generators span under mul,
    elements in order of discovery from the identity (index 0)."""
    elements = [identity]
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in generators:
                y = mul(x, g)
                if y not in elements:
                    elements.append(y)
                    fresh.append(y)
        frontier = fresh
    index = {x: i for i, x in enumerate(elements)}
    return [[index[mul(x, y)] for y in elements] for x in elements]


def compose_permutations(p, q) -> tuple[int, ...]:
    """The permutation v -> p[q[v]]."""
    return tuple(p[v] for v in q)


def hamilton_product(p, q) -> tuple[int, int, int, int]:
    """Product of integer quaternions (a, b, c, d) = a + bi + cj + dk."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


S3_TABLE = closure_table((0, 1, 2), [(1, 0, 2), (1, 2, 0)], compose_permutations)
D4_TABLE = closure_table((0, 1, 2, 3), [(1, 2, 3, 0), (0, 3, 2, 1)],
                         compose_permutations)
Q8_TABLE = closure_table((1, 0, 0, 0), [(0, 1, 0, 0), (0, 0, 1, 0)],
                         hamilton_product)


def table_identity(table: list[list[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            return e
    raise ValueError("no identity")


def table_inverse(table: list[list[int]]) -> list[int]:
    n = len(table)
    e = table_identity(table)
    inv = []
    for i in range(n):
        inv.append(next(j for j in range(n) if table[i][j] == e))
    return inv


def regular_action(table: list[list[int]]) -> list[list[int]]:
    return [row[:] for row in table]


def point_action(table: list[list[int]]) -> list[list[int]]:
    return [[0] for _ in table]


def oracle_orbits(action: list[list[int]]) -> list[list[int]]:
    size = len(action[0])
    seen: set[int] = set()
    orbits = []
    for x in range(size):
        if x in seen:
            continue
        orb = sorted({action[g][x] for g in range(len(action))})
        orbits.append(orb)
        seen.update(orb)
    return orbits


def oracle_stabilizer(action: list[list[int]], x: int) -> list[int]:
    return [g for g in range(len(action)) if action[g][x] == x]


def oracle_gset_isomorphisms(table, act_x, act_y) -> list[tuple[int, ...]]:
    """All equivariant bijections X -> Y by brute force over permutations."""
    size = len(act_x[0])
    if len(act_y[0]) != size:
        return []
    out = []
    for perm in itertools.permutations(range(size)):
        if all(
            perm[act_x[g][x]] == act_y[g][perm[x]]
            for g in range(len(table))
            for x in range(size)
        ):
            out.append(perm)
    return out


def oracle_characters(table: list[list[int]], n_root: int) -> list[tuple[int, ...]]:
    """All homomorphisms G -> Z/n_root, brute force over all maps."""
    order = len(table)
    out = []
    for chi in itertools.product(range(n_root), repeat=order):
        if all(
            chi[table[i][j]] == (chi[i] + chi[j]) % n_root
            for i in range(order)
            for j in range(order)
        ):
            out.append(chi)
    return out


def oracle_subgroups(table: list[list[int]]) -> list[tuple[int, ...]]:
    """All subgroups by brute force over element subsets (tiny groups only)."""
    order = len(table)
    e = table_identity(table)
    inv = table_inverse(table)
    out = set()
    for r in range(order + 1):
        for subset in itertools.combinations(range(order), r):
            s = set(subset)
            if e not in s:
                continue
            if all(table[a][b] in s for a in s for b in s) and all(inv[a] in s for a in s):
                out.add(tuple(sorted(s)))
    return sorted(out)


# ---------------------------------------------------------------------------
# cochains: dict-based differential and brute-force coboundary tests
# ---------------------------------------------------------------------------

def oracle_differential(
    exps: dict[tuple, int],
    degree: int,
    table: list[list[int]],
    inv: list[int],
    action: list[list[int]],
    n_root: int,
) -> dict[tuple, int]:
    """Alternating-sum differential on exponent dictionaries.

    Keys are (g_1, ..., g_degree, x); values are exponents mod n_root.
    """
    order = len(table)
    size = len(action[0])
    out: dict[tuple, int] = {}
    for gs in itertools.product(range(order), repeat=degree + 1):
        for x in range(size):
            total = exps[gs[1:] + (action[inv[gs[0]]][x],)]
            sign = -1
            for i in range(degree):
                merged = gs[: i] + (table[gs[i]][gs[i + 1]],) + gs[i + 2 :]
                total += sign * exps[merged + (x,)]
                sign = -sign
            total += sign * exps[gs[:-1] + (x,)]
            out[gs + (x,)] = total % n_root
    return out


def all_cochains(degree, order, size, n_root):
    """Iterate over every exponent dict of the given shape (tiny cases only)."""
    keys = [gs + (x,) for gs in itertools.product(range(order), repeat=degree) for x in range(size)]
    for values in itertools.product(range(n_root), repeat=len(keys)):
        yield dict(zip(keys, values))


def oracle_coboundary_set(degree, table, inv, action, n_root):
    """The set of all coboundaries d(mu), mu in C^(degree-1), as frozen tuples."""
    order = len(table)
    size = len(action[0])
    keys = [gs + (x,) for gs in itertools.product(range(order), repeat=degree) for x in range(size)]
    seen = set()
    for mu in all_cochains(degree - 1, order, size, n_root):
        d = oracle_differential(mu, degree - 1, table, inv, action, n_root)
        seen.add(tuple(d[k] for k in keys))
    return keys, seen


def oracle_is_coboundary_u1(exps, degree, table, inv, action, n_root, lift):
    """Brute-force coboundary test after lifting exponents by `lift`.

    Checks whether exps*lift (at root order n_root*lift) is d(mu) for some mu.
    """
    keys, cobs = oracle_coboundary_set(degree, table, inv, action, n_root * lift)
    target = tuple((exps[k] * lift) % (n_root * lift) for k in keys)
    return target in cobs


def oracle_omega_cyclic_exp(n: int, s: int, k: int, l: int, m: int) -> int:
    """Exponent of the cyclic-family 3-cocycle at (k, l, m), arguments mod n."""
    k, l, m = k % n, l % n, m % n
    carry = (l + m) - ((l + m) % n)
    assert carry % n == 0
    return (s * k * (carry // n)) % n


# ---------------------------------------------------------------------------
# module traces
# ---------------------------------------------------------------------------

def oracle_trace_exists(table, action, kappa_signs) -> bool:
    """Trace exists iff kappa is trivial on every orbit stabilizer."""
    for orbit in oracle_orbits(action):
        x0 = orbit[0]
        for g in oracle_stabilizer(action, x0):
            if kappa_signs[g] != 1:
                return False
    return True


def oracle_trace_signs(table, action, kappa_signs):
    """Sign table of the trace with +1 at each orbit base point, or None."""
    if not oracle_trace_exists(table, action, kappa_signs):
        return None
    size = len(action[0])
    signs = [0] * size
    for orbit in oracle_orbits(action):
        x0 = orbit[0]
        for g in range(len(table)):
            y = action[g][x0]
            if signs[y] == 0:
                signs[y] = kappa_signs[g]
    return signs


# ---------------------------------------------------------------------------
# brute-force classification of module-category cochains (criterion 4 oracle)
# ---------------------------------------------------------------------------

def oracle_modcat_classes_fast(table, inv, action, omega_exps, n_root, limit=400_000):
    """Vectorized version of oracle_modcat_classes (same semantics).

    Enumerates all normalized 2-cochains at root order n_root, filters the
    solutions of d(Psi) = inflated(omega)^-1 with one vectorized differential,
    then groups them up to coboundary at the lifted root order n_root*|G|.
    Returns (class_count, solution_count). Raises ValueError when the
    normalized search space exceeds `limit`.
    """
    import numpy as np

    order = len(table)
    size = len(action[0])
    e = table_identity(table)
    tab = np.array(table)
    act = np.array(action)
    inv_arr = np.array(inv)

    free = [
        (g, h, x)
        for g in range(order)
        for h in range(order)
        for x in range(size)
        if g != e and h != e
    ]
    count = n_root ** len(free)
    if count > limit:
        raise ValueError(f"normalized search space too large: {count}")

    cand = np.zeros((count, order, order, size), dtype=np.int64)
    rng_digits = np.arange(count)
    for pos, (g, h, x) in enumerate(free):
        cand[:, g, h, x] = (rng_digits // (n_root**pos)) % n_root

    # d(Psi)(g,h,k,x) = Psi(h,k,g^-1 x) - Psi(gh,k,x) + Psi(g,hk,x) - Psi(g,h,x)
    act_inv = act[inv_arr]  # (order, size): g^-1 x
    t1 = cand[:, :, :, act_inv]            # (c, h, k, g, x) after fancy index on x-axis
    t1 = np.moveaxis(t1, 3, 1)             # (c, g, h, k, x)
    t2 = cand[:, tab, :, :]                # (c, g, h, k, x) via gh on axis 1
    t3 = cand[:, :, tab, :]                # (c, g, h, k, x) via hk on axis 2
    t4 = cand[:, :, :, None, :]            # broadcast over k
    diff = (t1 - t2 + t3 - t4) % n_root

    target = np.zeros((order, order, order, size), dtype=np.int64)
    for g in range(order):
        for h in range(order):
            for k in range(order):
                target[g, h, k, :] = (-omega_exps[(g, h, k)]) % n_root
    mask = (diff == target).reshape(count, -1).all(axis=1)
    sols = cand[mask]
    if len(sols) == 0:
        return 0, 0

    lift = order
    big = n_root * lift
    mu_count = big ** (order * size)
    if mu_count > 40_000_000:
        raise ValueError(f"coboundary space too large: {mu_count}")
    mus = np.zeros((mu_count, order, size), dtype=np.int64)
    digits = np.arange(mu_count)
    pos = 0
    for g in range(order):
        for x in range(size):
            mus[:, g, x] = (digits // (big**pos)) % big
            pos += 1
    # d(mu)(g,h,x) = mu(h, g^-1 x) - mu(gh, x) + mu(g, x)
    m1 = np.moveaxis(mus[:, :, act_inv], 2, 1)   # (c, g, h, x)
    m2 = mus[:, tab, :]
    m3 = mus[:, :, None, :]
    dmu = ((m1 - m2 + m3) % big).reshape(mu_count, -1)
    cob_set = {row.tobytes() for row in dmu.astype(np.int16)}

    reps: list = []
    for sol in sols:
        is_new = True
        for rep in reps:
            delta = (((sol - rep) * lift) % big).reshape(-1).astype(np.int16)
            if delta.tobytes() in cob_set:
                is_new = False
                break
        if is_new:
            reps.append(sol)
    return len(reps), len(sols)


def oracle_modcat_classes(table, inv, action, omega_exps, n_root):
    """Solutions of d(Psi) = inflated(omega)^-1 at root order n_root, counted
    up to coboundary at the lifted root order n_root*|G|.

    Enumerates only normalized candidates (every class has a normalized
    representative), which keeps the search space tractable. Returns the
    number of classes. omega_exps: dict over (g,h,k) at root order n_root.
    """
    order = len(table)
    size = len(action[0])
    e = table_identity(table)
    free = [
        (g, h, x)
        for g in range(order)
        for h in range(order)
        for x in range(size)
        if g != e and h != e
    ]
    all_keys = [(g, h, x) for g in range(order) for h in range(order) for x in range(size)]
    target = {
        (g, h, k, x): (-omega_exps[(g, h, k)]) % n_root
        for g in range(order)
        for h in range(order)
        for k in range(order)
        for x in range(size)
    }
    solutions = []
    for values in itertools.product(range(n_root), repeat=len(free)):
        psi = {key: 0 for key in all_keys}
        psi.update(dict(zip(free, values)))
        d = oracle_differential(psi, 2, table, inv, action, n_root)
        if d == target:
            solutions.append(psi)
    if not solutions:
        return 0, []
    lift = order
    big = n_root * lift
    keys, cobs = oracle_coboundary_set(2, table, inv, action, big)
    reps: list[dict] = []
    for psi in solutions:
        is_new = True
        for rep in reps:
            diff = tuple(((psi[k] - rep[k]) * lift) % big for k in keys)
            if diff in cobs:
                is_new = False
                break
        if is_new:
            reps.append(psi)
    return len(reps), reps

"""Exact integer / rational matrix routines.

Everything in this module is exact: matrices are tuples of tuples with
``int`` or ``fractions.Fraction`` entries, and no routine ever touches
floating point.  Row/column index conventions follow the usual
mathematician's reading: ``M[i][j]`` is row ``i``, column ``j``; vectors
are plain tuples and are treated as columns.  The products skip the zero
entries of the vector (of the left row, in ``mat_mul``), so a sparse class
in a rank-24 lattice costs rows times nonzeros, not rows times columns.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalError

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def transpose(m: Sequence[Sequence]) -> tuple:
    return tuple(zip(*[tuple(r) for r in m])) if m else ()


def _nonzero(v: Sequence) -> list:
    return [(j, x) for j, x in enumerate(v) if x]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * ncols
        for k, x in _nonzero(row):
            acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple:
    nz = _nonzero(v)
    return tuple(sum(row[j] * x for j, x in nz) for row in a)


def vec_mat_vec(x: Sequence, a: Sequence[Sequence], y: Sequence):
    """x^T A y, exactly."""
    nz = _nonzero(y)
    return sum(xi * sum(a[i][j] * yj for j, yj in nz) for i, xi in _nonzero(x))


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (P, D, Q), P*M*Q = D.

    P and Q are unimodular; D is diagonal (rectangular allowed) with
    nonnegative entries d_1 | d_2 | ... followed by zeros.  The pivot
    strategy (smallest absolute value in the trailing block) is
    deterministic, so repeated calls agree bit for bit.
    """
    a = [list(map(int, row)) for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    p = [[0] * i + [1] + [0] * (nr - i - 1) for i in range(nr)]
    q = [[0] * i + [1] + [0] * (nc - i - 1) for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, k):  # row_i += k * row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        p[i] = [x + k * y for x, y in zip(p[i], p[j])]

    def add_col(i, j, k):  # col_i += k * col_j
        for row in a:
            row[i] += k * row[j]
        for row in q:
            row[i] += k * row[j]

    t = 0
    while t < min(nr, nc):
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:  # euclidean remainder: promote, try again
                        swap_rows(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
            if restart:
                continue
            # pivot must divide the whole trailing block
            d = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)  # col t entry of row `bad` is 0, pivot survives
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            p[t] = [-x for x in p[t]]
        t += 1
    return tuple(map(tuple, p)), tuple(map(tuple, a)), tuple(map(tuple, q))


def kernel_basis(m: Sequence[Sequence[int]]) -> tuple[IntVector, ...]:
    """Basis of the integer kernel {x : M x = 0}, as column vectors.

    The basis is automatically saturated (it spans the rational kernel
    intersected with Z^n).
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if nc == 0:
        return ()
    _, d, q = smith_normal_form(m)
    rank = sum(1 for i in range(min(nr, nc)) if d[i][i] != 0)
    cols = transpose(q)
    return tuple(cols[j] for j in range(rank, nc))


def lll_reduce(gram: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """LLL reduction with delta = 3/4 of a positive-definite integer Gram.

    Returns (U, U G U^T): the rows of the unimodular U are the reduced
    basis in the old one.  Cohen's integral algorithm (GTM 138, Alg. 2.6.7)
    works on the Gram matrix itself.  It keeps the Gram-Schmidt
    determinants d[i] (d[0] = 1) and lam[k][j] = d[j+1] mu_kj, which are
    integers, so every division below is exact.  Raises InternalError when
    some d[i] is not positive, i.e. the form is not positive definite.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):  # size-reduce b_k against b_l: |mu_kl| <= 1/2
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        if q:
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
            g[k] = [x - q * y for x, y in zip(g[k], g[l])]
            for row in g:
                row[k] -= q * row[l]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = kmax = 0
    while k < n:
        if k == kmax:  # first visit of b_k: its Gram-Schmidt data
            kmax = k + 1
            for j in range(k + 1):
                x = g[k][j]
                for i in range(j):
                    x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = x
            if x <= 0:
                raise InternalError(f"LLL of a form that is not positive definite: {gram}")
            d[k + 1] = x
            if k == 0:
                k = 1
                continue
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * lk * lk:  # Lovasz
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
            continue
        u[k], u[k - 1] = u[k - 1], u[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (b * t + lk * lam[i][k]) // d[k + 1]
        d[k] = b
        k = max(1, k - 1)
    return tuple(map(tuple, u)), tuple(map(tuple, g))


def solve_fraction_free(m: Sequence[Sequence[int]], b: Sequence[int]):
    """The reduced-echelon solution of the integer system M x = b, every
    free variable 0, as (num, den) with x = num / den and den > 0, or None.

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): a pivot
    step scales the other rows by the pivot and divides, exactly, by the
    previous one.  Pivots are chosen as over Q, so the solution is Q's.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [[*row, bv] for row, bv in zip(m, b)]
    pivots = []
    prev = 1
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row = a[r]
        p = row[c]
        for i in range(nr):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
        pivots.append(c)
    if any(a[i][nc] for i in range(len(pivots), nr)):
        return None
    x = [0] * nc
    for i, c in enumerate(pivots):
        x[c] = a[i][nc]
    return (tuple(x), prev) if prev > 0 else (tuple(-v for v in x), -prev)


def signature_of(gram: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Inertia (n_+, n_-) of a nondegenerate symmetric integer matrix.

    Faddeev-LeVerrier gives det(xI - G) = x^n + c_1 x^(n-1) + ... + c_n in
    integers: c_k = -tr(G M_k) / k with M_1 = I and M_(k+1) = G M_k + c_k I,
    and every division is exact.  A symmetric matrix has only real
    eigenvalues, so Descartes' rule counts them exactly: n_+ is the number
    of sign changes among the nonzero coefficients.  Raises ValueError on a
    degenerate form (c_n = 0).
    """
    n = len(gram)
    coeffs = [1]
    gm = gram
    for k in range(1, n + 1):
        c, r = divmod(-sum(gm[i][i] for i in range(n)), k)
        if r:
            raise InternalError(f"Faddeev-LeVerrier trace not divisible by {k}: {gram}")
        coeffs.append(c)
        if k < n:
            m = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(gm)]
            gm = mat_mul(gram, m)
    if coeffs[-1] == 0:
        raise ValueError("degenerate symmetric form")
    signs = [c > 0 for c in coeffs if c]
    pos = sum(a != b for a, b in zip(signs, signs[1:]))
    return pos, n - pos

"""Exact integer linear algebra checked against independent oracles."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Sequence

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import wallkit._linalg as la
from test_chambers import DIV_LATTICES, picard, solve_fraction
from test_cli import subprocess_env
from wallkit import (
    IntegerLattice,
    InternalError,
    direct_sum,
    discriminant_group,
    orthogonal_complement,
    standard_lattice,
)
from wallkit.lattice import _saturate


def rand_matrix(rng, rows, cols, lo=-6, hi=6):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def invert_unimodular(m):
    """Inverse of a unimodular integer matrix by Fraction Gauss-Jordan.

    The library read these inverses off this elimination before it read
    them off the Smith form; it stays here as the oracle for those reads.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c]
        a[c] = [x / inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = []
    for i in range(n):
        row = a[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


# The library's Fraction rank, kept verbatim as the oracle after the chamber
# search began reading face dimensions off double-description incidences.
def rank(m: Sequence[Sequence]) -> int:
    nr = len(m)
    nc = len(m[0]) if nr else 0
    a = [[Fraction(x) for x in row] for row in m]
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def rand_symmetric(rng, n, lo=-5, hi=5):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return tuple(tuple(r) for r in m)


class TestSmithNormalForm:
    def test_transform_identity_and_divisibility(self):
        rng = random.Random(11)
        for _ in range(60):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_matrix(rng, r, c)
            P, D, Q = la.smith_normal_form(m)
            assert la.mat_mul(la.mat_mul(P, m), Q) == D
            assert abs(sympy.Matrix(P).det()) == 1
            assert abs(sympy.Matrix(Q).det()) == 1
            diag = [D[i][i] for i in range(min(r, c))]
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert D[i][j] == 0
            for a, b in zip(diag, diag[1:]):
                if b:
                    assert a != 0 and b % a == 0

    def test_invariant_factors_match_sympy(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, n, n)
            _, D, _ = la.smith_normal_form(m)
            mine = sorted(abs(D[i][i]) for i in range(n))
            s = sympy_snf(sympy.Matrix(m))
            theirs = sorted(abs(int(s[i, i])) for i in range(n))
            assert mine == theirs

    def test_snf_diagonal_of_zero_matrix(self):
        _, D, _ = la.smith_normal_form(((0, 0), (0, 0)))
        assert D == ((0, 0), (0, 0))


class TestKernel:
    def test_kernel_vectors_annihilate_and_span(self):
        rng = random.Random(31)
        for _ in range(40):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            m = rand_matrix(rng, r, c, -4, 4)
            ker = la.kernel_basis(m)
            assert len(ker) == c - rank(m)
            for v in ker:
                assert all(sum(m[i][j] * v[j] for j in range(c)) == 0 for i in range(r))
            if ker:
                # saturated: the kernel basis has trivial invariant factors
                _, D, _ = la.smith_normal_form(ker)
                assert all(D[i][i] == 1 for i in range(len(ker)))


class TestSolvers:
    def test_solve_rational(self):
        m = ((2, 0), (0, 3))
        assert la.solve_fraction_free(m, (1, 1)) == ((3, 2), 6)  # (1/2, 1/3)
        assert la.solve_fraction_free(((1, 1), (1, 1)), (0, 1)) is None

    @pytest.mark.parametrize("kind", ["consistent", "inconsistent", "rank-deficient"])
    def test_fraction_free_matches_fraction_rref(self, kind):
        rng = random.Random(f"solve-{kind}")
        seen = {True: 0, False: 0}
        for _ in range(300):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            if kind == "rank-deficient":
                k = rng.randint(0, min(r, c) - 1)
                left, right = rand_matrix(rng, r, k, -3, 3), rand_matrix(rng, k, c, -3, 3)
                m = la.mat_mul(left, right) if k else ((0,) * c,) * r
            else:
                m = rand_matrix(rng, r, c, -5, 5)
            if kind == "inconsistent" or rng.random() < 0.5:
                b = tuple(rng.randint(-9, 9) for _ in range(r))
            else:
                b = la.mat_vec(m, tuple(rng.randint(-4, 4) for _ in range(c)))
            got = la.solve_fraction_free(m, b)
            want = solve_fraction(m, b)
            seen[want is None] += 1
            if want is None:
                assert got is None, (m, b)
                continue
            num, den = got
            assert den > 0 and all(type(v) is int for v in (*num, den))
            assert tuple(Fraction(v, den) for v in num) == want, (m, b)
        assert seen[False] > 0
        if kind != "consistent":
            assert seen[True] > 0


def dense_mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def dense_mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dense_vec_mat_vec(x, a, y):
    return sum(xi * sum(aij * yj for aij, yj in zip(row, y)) for xi, row in zip(x, a))


def sparse_entry(rng, density, fractions):
    """A random entry that is nonzero with probability `density`."""
    if rng.random() >= density:
        return 0
    x = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    return Fraction(x, rng.randint(1, 7)) if fractions else x


def sparse_matrix(rng, rows, cols, density, fractions=False):
    return tuple(
        tuple(sparse_entry(rng, density, fractions) for _ in range(cols))
        for _ in range(rows)
    )


def sparse_class(rng, rank, nonzeros):
    """A vector with `nonzeros` nonzero integer coordinates."""
    out = [0] * rank
    for i in rng.sample(range(rank), nonzeros):
        out[i] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return tuple(out)


def all_ints(value):
    if isinstance(value, tuple):
        return all(all_ints(x) for x in value)
    return type(value) is int


class TestSparseKernels:
    """The products skip zero entries; the dense formulas they replaced
    are the oracle."""

    DENSITIES = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)

    def check(self, a, b, v, x):
        fractions = not all_ints((a, b, v, x))
        for got, want in [
            (la.mat_mul(a, b), dense_mat_mul(a, b)),
            (la.mat_vec(a, v), dense_mat_vec(a, v)),
            (la.vec_mat_vec(x, a, v), dense_vec_mat_vec(x, a, v)),
        ]:
            assert got == want
            assert fractions or all_ints(got)

    @pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
    @pytest.mark.parametrize("density", DENSITIES)
    def test_random_matrices(self, density, fractions):
        rng = random.Random(71 + int(100 * density) + fractions)
        for _ in range(40):
            r, k, c = (rng.randint(1, 7) for _ in range(3))
            a = sparse_matrix(rng, r, k, density, fractions)
            b = sparse_matrix(rng, k, c, density, fractions)
            v = sparse_matrix(rng, 1, k, density, fractions)[0]
            x = sparse_matrix(rng, 1, r, density, fractions)[0]
            self.check(a, b, v, x)

    def test_zero_vectors(self):
        rng = random.Random(79)
        for fractions in (False, True):
            a = sparse_matrix(rng, 4, 4, 0.5, fractions)
            zero = (0,) * 4
            self.check(a, sparse_matrix(rng, 4, 3, 0.0), zero, zero)
            assert la.mat_vec(a, zero) == (0,) * 4
            assert la.vec_mat_vec(zero, a, zero) == 0

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_empty_shapes(self, k):
        empty_rows = ()  # 0 x k
        empty_cols = ((),) * k  # k x 0
        square = sparse_matrix(random.Random(83 + k), k, k, 0.5)
        ones = (1,) * k
        for a, b in [
            (empty_rows, square),
            (empty_cols, empty_rows),
            (square, empty_cols),
            (empty_rows, empty_cols),
        ]:
            assert la.mat_mul(a, b) == dense_mat_mul(a, b)
        assert la.mat_vec(empty_rows, ones) == dense_mat_vec(empty_rows, ones) == ()
        assert la.mat_vec(empty_cols, ()) == dense_mat_vec(empty_cols, ()) == (0,) * k
        assert la.vec_mat_vec((), (), ()) == dense_vec_mat_vec((), (), ()) == 0

    @pytest.mark.parametrize(
        "lattice",
        [standard_lattice("Ln", n) for n in range(2, 11)] + [standard_lattice("mukai")],
        ids=lambda L: L.label,
    )
    def test_ambient_grams_with_sparse_classes(self, lattice):
        rng = random.Random(89 + lattice.rank + lattice.gram[-1][-1])
        g, n = lattice.gram, lattice.rank
        for _ in range(30):
            x = sparse_class(rng, n, rng.randint(0, 6))
            y = sparse_class(rng, n, rng.randint(0, 6))
            cols = tuple(zip(x, y))
            self.check(g, cols, y, x)
            self.check(la.transpose(cols), g, y, x[:2])
            assert lattice.inner(x, y) == dense_vec_mat_vec(x, g, y)


def even_lattice(rank):
    """U + U + ... (+ <-2> when the rank is odd): an even lattice of any rank."""
    parts = [standard_lattice("U")] * (rank // 2)
    if rank % 2:
        parts.append(standard_lattice("rank1", -2))
    return direct_sum(parts)


class TestSmithInverses:
    """Inverses read off the Smith form P M Q = D against the oracle."""

    def test_oracle_inverts_unimodular(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n, -3, 3)
            if abs(sympy.Matrix(m).det()) != 1:
                continue
            inv = invert_unimodular(m)
            assert la.mat_mul(m, inv) == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n)
            )

    def test_saturation_basis_is_leading_columns_of_p_inverse(self):
        rng = random.Random(59)
        deficient = nontrivial = zero = 0
        for _ in range(80):
            rows = rng.randint(1, 24)
            cols = rng.randint(1, min(rows, 4) + 1)
            r = rng.randint(1, min(rows, cols))
            # M = X C: rank r, with invariant factors from the r x cols C
            x = rand_matrix(rng, rows, r, -3, 3)
            c = rand_matrix(rng, r, cols, -3, 3)
            m = la.mat_mul(x, c)
            L = even_lattice(rows)
            p, d, _ = la.smith_normal_form(m)
            rk = sum(1 for i in range(min(rows, cols)) if d[i][i])
            sat, coords = _saturate(L, m)
            if rk == 0:
                assert sat.source.rank == 0 and sat.matrix == ((),) * rows
                zero += 1
                continue
            assert la.mat_mul(sat.matrix, coords) == m  # columns in the saturated basis
            if rk == cols and all(d[i][i] == 1 for i in range(rk)):
                assert sat.matrix == m  # primitive input keeps its basis
                continue
            deficient += rk < cols
            nontrivial += any(d[i][i] > 1 for i in range(rk))
            pinv = invert_unimodular(p)
            assert sat.matrix == tuple(row[:rk] for row in pinv)
        assert deficient > 10 and nontrivial > 10 and zero > 0

    @pytest.mark.parametrize(
        "lattice",
        [standard_lattice("Ln", n) for n in range(2, 13)]
        + [standard_lattice("mukai"), standard_lattice("E8(-1)")],
        ids=lambda L: L.label,
    )
    def test_discriminant_qinv_standard_lattices(self, lattice):
        _, _, q = la.smith_normal_form(lattice.gram)
        assert discriminant_group(lattice)._qinv == invert_unimodular(q)

    def test_discriminant_qinv_random_even_forms(self):
        rng = random.Random(67)
        done = 0
        while done < 40:
            n = rng.randint(1, 8)
            g = [list(row) for row in rand_symmetric(rng, n)]
            for i in range(n):
                g[i][i] = 2 * rng.randint(-3, 3)
            if sympy.Matrix(g).det() == 0:
                continue
            lattice = IntegerLattice(tuple(map(tuple, g)))
            _, _, q = la.smith_normal_form(lattice.gram)
            assert discriminant_group(lattice)._qinv == invert_unimodular(q)
            done += 1

    @pytest.mark.parametrize("name", list(DIV_LATTICES))
    def test_div_basis_is_scaled_q_inverse(self, name):
        P = picard(*DIV_LATTICES[name])
        _, d, q = la.smith_normal_form(la.mat_mul(P.ctx.ambient.gram, P.embed.matrix))
        qinv = invert_unimodular(q)
        assert P._div_basis == tuple(
            tuple(d[i][i] * v for v in qinv[i]) for i in range(P.pic.rank)
        )


def signature_fraction(gram):
    """Inertia (n_+, n_-) of a nondegenerate symmetric matrix by symmetric
    elimination over Fraction, repairing a zero diagonal with the congruence
    e_i -> e_i + e_j.  The library computed signatures this way before it
    read them off the integer characteristic polynomial; it stays here as
    the oracle.  Raises ValueError on a degenerate form.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    act = list(range(n))
    pos = neg = 0
    while act:
        piv = next((i for i in act if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in act for j in act if i != j and a[i][j] != 0), None
            )
            if pair is None:
                raise ValueError("degenerate symmetric form")
            i, j = pair
            aii, aij, ajj = a[i][i], a[i][j], a[j][j]
            for k in act:
                if k != i:
                    a[i][k] += a[j][k]
                    a[k][i] = a[i][k]
            a[i][i] = aii + 2 * aij + ajj
            continue
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        act.remove(piv)
        for x in act:
            for y in act:
                a[x][y] -= a[x][piv] * a[piv][y] / d
        for x in act:
            a[x][piv] = Fraction(0)
            a[piv][x] = Fraction(0)
    return pos, neg


def signature_or_error(f, gram):
    try:
        return f(gram)
    except ValueError as exc:
        return str(exc)


class TestSignature:
    def test_known_forms(self):
        assert la.signature_of(((0, 1), (1, 0))) == (1, 1)
        assert la.signature_of(((2,),)) == (1, 0)
        assert la.signature_of(((-2,),)) == (0, 1)

    def test_leading_minor_oracle(self):
        # Jacobi's criterion: when every leading principal minor is nonzero,
        # the negative index equals the number of sign changes in the minor
        # sequence 1, d1, d2, ..., dn (minors via an independent routine).
        rng = random.Random(61)
        done = 0
        while done < 30:
            n = rng.randint(1, 5)
            g = rand_symmetric(rng, n)
            minors = [int(sympy.Matrix([row[: k + 1] for row in g[: k + 1]]).det()) for k in range(n)]
            if any(m == 0 for m in minors):
                continue
            seq = [1] + minors
            changes = sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)
            pos, neg = la.signature_of(g)
            assert neg == changes
            assert pos + neg == n
            done += 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            la.signature_of(((0, 0), (0, 2)))

    def test_matches_fraction_oracle(self):
        # plain, zero-diagonal and degenerate (C^T S C with C of n-1 rows)
        # symmetric forms of rank 1..8
        rng = random.Random(67)
        kinds = {"plain": 0, "zero-diagonal": 0, "degenerate": 0}
        for _ in range(2400):
            kind = rng.choice(sorted(kinds))
            n = rng.randint(2 if kind == "degenerate" else 1, 8)
            if kind == "degenerate":
                c = rand_matrix(rng, n - 1, n, -2, 2)
                g = la.mat_mul(la.mat_mul(la.transpose(c), rand_symmetric(rng, n - 1, -3, 3)), c)
            else:
                g = rand_symmetric(rng, n, -3, 3)
                if kind == "zero-diagonal":
                    g = tuple(tuple(0 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(g))
            want = signature_or_error(signature_fraction, g)
            assert signature_or_error(la.signature_of, g) == want, g
            kinds[kind] += 1
        assert min(kinds.values()) > 700

    @pytest.mark.parametrize(
        "gram",
        [((0, 1, 1), (1, 0, 1), (1, 1, 0)), ((0,),), ((0, 1, 0), (1, 0, 0), (0, 0, 0))]
        + [standard_lattice("Ln", n).gram for n in range(2, 11)]
        + [standard_lattice("mukai").gram],
        ids=["zero-diagonal", "zero", "degenerate"] + [f"L{n}" for n in range(2, 11)] + ["mukai"],
    )
    def test_named_forms_match_fraction_oracle(self, gram):
        assert signature_or_error(la.signature_of, gram) == signature_or_error(signature_fraction, gram)

    def test_inexact_trace_is_internal_error(self, monkeypatch):
        # an integer matrix has an integer characteristic polynomial, so a
        # trace that k does not divide is a broken invariant, not bad input
        real = la.mat_mul

        def broken(a, b):
            out = [list(row) for row in real(a, b)]
            out[0][0] += 1
            return tuple(map(tuple, out))

        monkeypatch.setattr(la, "mat_mul", broken)
        with pytest.raises(InternalError, match="not divisible"):
            la.signature_of(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def large_omega(rng, pic):
    """A positive class of `pic` with coordinates of 10^4 to 10^6."""
    while True:
        omega = tuple(rng.choice((-1, 1)) * rng.randint(10**4, 10**6) for _ in range(pic.rank))
        if pic.norm(omega) > 0:
            return omega


def omega_perp_grams(seed, per_lattice):
    """Negated Grams of omega-perp for large omega: the forms the on-wall
    check reduces, of rank 1 to 4 and very skewed."""
    rng = random.Random(seed)
    out = []
    for n, gram, cols in DIV_LATTICES.values():
        pic = picard(n, gram, cols).pic
        for _ in range(per_lattice):
            sub = orthogonal_complement(pic, [large_omega(rng, pic)]).source
            out.append(tuple(tuple(-g for g in row) for row in sub.gram))
    return out


def random_definite_grams(seed, count):
    """B B^T for random nonsingular integer B of rank 1 to 5, some with a
    skewed last row."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            b[-1] = [x + rng.randint(100, 10**4) * y for x, y in zip(b[-1], b[0])]
        if sympy.Matrix(b).det() == 0:
            continue
        out.append(la.mat_mul(b, la.transpose(b)))
    return out


def gram_schmidt(gram):
    """(mu, B*) of a Gram matrix in Fractions: mu[i][j] for j < i and the
    squared lengths B*_i, by the textbook recursion."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * bstar[k] for k in range(j))) / bstar[j]
        bstar.append(gram[i][i] - sum(mu[i][k] ** 2 * bstar[k] for k in range(i)))
    return mu, bstar


class TestLLL:
    @pytest.mark.parametrize(
        "grams",
        [random_definite_grams(71, 80), omega_perp_grams(73, 6)],
        ids=["random", "omega_perp"],
    )
    def test_reduced_and_unimodular(self, grams):
        for g in grams:
            u, red = la.lll_reduce(g)
            assert all(type(x) is int for row in u for x in row)
            assert abs(sympy.Matrix(u).det()) == 1
            assert red == la.mat_mul(la.mat_mul(u, g), la.transpose(u))
            mu, bstar = gram_schmidt(red)
            for i in range(len(g)):
                assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i)), g
                if i:
                    assert bstar[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * bstar[i - 1], g

    def test_rank_0_and_reduced_input(self):
        assert la.lll_reduce(()) == ((), ())
        eye = ((1, 0), (0, 1))
        assert la.lll_reduce(eye) == (eye, eye)

    @pytest.mark.parametrize("gram", [((1, 2), (2, 1)), ((0,),), ((-2,),), ((2, 1), (1, 0))])
    def test_indefinite_is_internal_error(self, gram):
        with pytest.raises(InternalError, match="not positive definite"):
            la.lll_reduce(gram)

    def test_indefinite_is_internal_error_under_optimize(self):
        # python -O strips asserts; the positivity check must still fire
        script = "import wallkit._linalg as la; la.lll_reduce(((1, 2), (2, 1)))"
        res = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert res.returncode == 1
        assert b"InternalError: LLL of a form that is not positive definite" in res.stderr

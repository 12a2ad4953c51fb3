"""Exact integer linear algebra checked against independent oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import wallkit._linalg as la
from test_chambers import DIV_LATTICES, picard
from wallkit import (
    IntegerLattice,
    direct_sum,
    discriminant_group,
    saturation,
    standard_lattice,
)


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
            assert abs(la.bareiss_det(P)) == 1
            assert abs(la.bareiss_det(Q)) == 1
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


class TestDeterminant:
    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = rand_matrix(rng, n, n)
            assert la.bareiss_det(m) == int(sympy.Matrix(m).det())

    def test_identity_and_swap(self):
        eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        assert la.bareiss_det(eye) == 1
        assert la.bareiss_det(((0, 1), (1, 0))) == -1


class TestKernel:
    def test_kernel_vectors_annihilate_and_span(self):
        rng = random.Random(31)
        for _ in range(40):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            m = rand_matrix(rng, r, c, -4, 4)
            ker = la.kernel_basis(m)
            assert len(ker) == c - la.rank(m)
            for v in ker:
                assert all(sum(m[i][j] * v[j] for j in range(c)) == 0 for i in range(r))
            if ker:
                # saturated: the kernel basis has trivial invariant factors
                _, D, _ = la.smith_normal_form(ker)
                assert all(D[i][i] == 1 for i in range(len(ker)))


class TestSolvers:
    def test_solve_int_roundtrip(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = rand_matrix(rng, r, c, -4, 4)
            x = tuple(rng.randint(-3, 3) for _ in range(c))
            b = tuple(sum(m[i][j] * x[j] for j in range(c)) for i in range(r))
            sol = la.solve_int(m, b)
            assert sol is not None
            assert tuple(sum(m[i][j] * sol[j] for j in range(c)) for i in range(r)) == b
            hits += 1
        assert hits == 60

    def test_solve_int_detects_insolubility(self):
        # 2x = 1 has no integer solution
        assert la.solve_int(((2,),), (1,)) is None

    def test_solve_rational(self):
        m = ((2, 0), (0, 3))
        sol = la.solve_rational(m, (1, 1))
        assert sol == (Fraction(1, 2), Fraction(1, 3))
        assert la.solve_rational(((1, 1), (1, 1)), (0, 1)) is None


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
            if abs(la.bareiss_det(m)) != 1:
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
            sat = saturation(L, m)
            if rk == 0:
                assert sat.source.rank == 0 and sat.matrix == ((),) * rows
                zero += 1
                continue
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
            if la.bareiss_det(g) == 0:
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

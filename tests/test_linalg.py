"""Exact integer linear algebra checked against independent oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import wallkit._linalg as la


def rand_matrix(rng, rows, cols, lo=-6, hi=6):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


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

    def test_invert_unimodular(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n, -3, 3)
            if abs(la.bareiss_det(m)) != 1:
                continue
            inv = la.invert_unimodular(m)
            assert la.mat_mul(m, inv) == tuple(
                tuple(int(i == j) for j in range(n)) for i in range(n)
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

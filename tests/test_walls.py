"""Wall certificates, type tables, and isometry-orbit invariants in L_n."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from pathlib import Path

import pytest
import sympy

import wallkit._linalg as la
from test_linalg import rank
from wallkit import (
    InputError,
    IntegerLattice,
    WallCondition,
    WallType,
    WallWitness,
    bm_wall_test,
    certified_wall_types,
    divisibility,
    dual_ray,
    eichler_invariants,
    eichler_transvection,
    enumerate_wall_types,
    ht_bound_ok,
    hyperbolic_T,
    isotropic_pair,
    make_context,
    markman_wall_test,
    same_orbit,
    standard_lattice,
    wall_test,
    wall_type_exists,
)
from wallkit.walls import _admissible_residues, _quad_window, _typed_witnesses, _xgcd


def basis(rank, entries):
    out = [0] * rank
    for i, c in entries.items():
        out[i] = c
    return tuple(out)


TABLE_N2 = {(-2, -2, 1), (Fraction(-1, 2), -2, 2), (Fraction(-5, 2), -10, 2)}
TABLE_N3 = {
    (-2, -2, 1),
    (-1, -4, 2),
    (-3, -12, 2),
    (Fraction(-1, 4), -4, 4),
    (Fraction(-9, 4), -36, 4),
}
TABLE_N4 = {
    (-2, -2, 1),
    (Fraction(-3, 2), -6, 2),
    (Fraction(-7, 2), -14, 2),
    (Fraction(-2, 3), -6, 3),
    (Fraction(-8, 3), -24, 3),
    (Fraction(-1, 6), -6, 6),
    (Fraction(-13, 6), -78, 6),
}
CANDIDATES_N5 = {
    (-2, 1), (-4, 1), (-8, 2), (-16, 2), (-8, 4),
    (-40, 4), (-8, 8), (-72, 8), (-136, 8), (-200, 8),
}


def rows(types):
    return {(t.ray_square, t.square, t.div) for t in types}


class TestTypeTables:
    def test_n2_rows(self):
        assert rows(enumerate_wall_types(make_context(2))) == TABLE_N2

    def test_n3_rows(self):
        assert rows(enumerate_wall_types(make_context(3))) == TABLE_N3

    def test_n4_rows(self):
        assert rows(enumerate_wall_types(make_context(4))) == TABLE_N4

    def test_n5_candidates(self):
        got = {(t.square, t.div) for t in enumerate_wall_types(make_context(5))}
        assert got == CANDIDATES_N5

    def test_certified_drops_only_minus4_div1_at_n5(self):
        ctx = make_context(5)
        cand = {(t.square, t.div) for t in enumerate_wall_types(ctx)}
        cert = {(t.square, t.div) for t in certified_wall_types(ctx)}
        assert cand - cert == {(-4, 1)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_certified_equals_candidates_up_to_n4(self, n):
        ctx = make_context(n)
        assert certified_wall_types(ctx) == enumerate_wall_types(ctx)

    def test_sorted_by_div_then_square(self):
        for n in (2, 3, 4, 5, 7):
            ts = enumerate_wall_types(make_context(n))
            keys = [(t.div, -t.square) for t in ts]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_row_arithmetic_for_all_n(self, n):
        """Independent re-check of the divisibility + congruence + bound
        conditions for every emitted row."""
        ctx = make_context(n)
        period = 2 * n - 2
        for t in enumerate_wall_types(ctx):
            assert period % t.div == 0
            assert ht_bound_ok(n, t.ray_square)
            modulus = 2 * t.div * t.div
            assert any(
                gcd(c, t.div) == 1 and (t.square + c * c * period) % modulus == 0
                for c in range(modulus)
            )

    @pytest.mark.parametrize("n", range(2, 31))
    def test_witnesses_recompute(self, n):
        ctx = make_context(n)
        for t in enumerate_wall_types(ctx):
            ok, D = wall_type_exists(ctx, t.square, t.div)
            assert ok and D is not None
            assert D.norm() == t.square
            assert divisibility(ctx.ambient, D.coords) == t.div
            assert D.is_primitive()


class TestWallTypeExists:
    def test_congruence_failure(self):
        ctx = make_context(3)
        ok, D = wall_type_exists(ctx, -8, 2)
        assert not ok and D is None

    def test_divisibility_failure(self):
        ctx = make_context(3)
        ok, _ = wall_type_exists(ctx, -6, 3)  # 3 does not divide 4
        assert not ok

    def test_exists_beyond_bound_but_uncertified(self):
        # (-20, 2) at n=3: the class exists (congruence holds) but its dual
        # ray square -5 violates the bound and no certificate exists.
        ctx = make_context(3)
        ok, D = wall_type_exists(ctx, -20, 2)
        assert ok
        assert not ht_bound_ok(3, Fraction(-20, 4))
        assert wall_test(ctx, D) is None

    def test_uncertified_candidate_at_n5(self):
        ctx = make_context(5)
        ok, D = wall_type_exists(ctx, -4, 1)
        assert ok
        assert ht_bound_ok(5, -4)
        assert wall_test(ctx, D) is None


class TestMarkman:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_minus_two_always_detects(self, n):
        ctx = make_context(n)
        rng = random.Random(100 + n)
        D = basis(23, {0: 1, 1: -1})
        for _ in range(8):
            wit = markman_wall_test(ctx, D)
            assert wit is not None
            assert wit.condition in (WallCondition.MK_MINUS2,)
            assert wit.check()
            D = transvect(ctx.ambient, D, rng)
            assert ctx.ambient.norm(D) == -2

    def test_delta_detects(self):
        for n in (2, 3, 5, 8):
            ctx = make_context(n)
            wit = markman_wall_test(ctx, ctx.delta)
            assert wit is not None and wit.check()

    def test_nonprimitive_rejected(self):
        ctx = make_context(3)
        with pytest.raises(InputError):
            markman_wall_test(ctx, basis(23, {22: 2}))

    def test_silent_on_undecided(self):
        # square matching neither -2 nor 2-2n: the shortcut stays silent
        ctx = make_context(3)
        ok, D = wall_type_exists(ctx, -20, 2)
        assert ok
        assert markman_wall_test(ctx, D) is None


class TestIsotropicPair:
    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_pair_properties(self, n):
        ctx = make_context(n)
        w1, w2 = isotropic_pair(ctx, ctx.delta)
        v = ctx.v
        img = ctx.embed.apply(ctx.delta.coords)
        for w in (w1, w2):
            assert w.norm() == 0
            assert w.is_primitive()
            assert w.inner(v) > 0
        # primitive parts of v + D and v - D in the extension
        plus = tuple(a + b for a, b in zip(v.coords, img.coords))
        minus = tuple(a - b for a, b in zip(v.coords, img.coords))
        parts = {tuple(c // gcd(*x) for c in x) for x in (plus, minus)}
        assert {w1.coords, w2.coords} == parts

    def test_wrong_square_rejected(self):
        ctx = make_context(3)
        with pytest.raises(InputError):
            isotropic_pair(ctx, basis(23, {0: 1, 1: -1}))


class TestWallTestWitnesses:
    def test_type_minus36_div4_at_n3(self):
        ctx = make_context(3)
        _, D = wall_type_exists(ctx, -36, 4)
        wit = wall_test(ctx, D)
        assert wit.condition is WallCondition.BM_BOUNDED_ROOT
        assert wit.pairing_data == (-2, 1)
        assert wit.check()
        T = hyperbolic_T(ctx, ctx.embed.apply(D))
        assert T.lattice.gram == ((4, -1), (-1, -2))
        assert sympy.Matrix(T.lattice.gram).det() < 0  # hyperbolic

    def test_type_minus24_div3_at_n4(self):
        ctx = make_context(4)
        _, D = wall_type_exists(ctx, -24, 3)
        wit = wall_test(ctx, D)
        assert wit.condition is WallCondition.BM_BOUNDED_ROOT
        assert wit.pairing_data == (-2, 2)
        assert wit.check()

    def test_type_minus6_div2_at_n4_sum_decomposition(self):
        ctx = make_context(4)
        _, D = wall_type_exists(ctx, -6, 2)
        wit = wall_test(ctx, D)
        assert wit.condition is WallCondition.BM_SUM
        assert wit.pairing_data == (0, 0, 3, 3)
        assert wit.check()
        w, t = wit.vectors
        assert tuple(a + b for a, b in zip(w.coords, t.coords)) == wit.against.coords

    def test_all_table_witnesses_self_verify(self):
        for n in (2, 3, 4):
            ctx = make_context(n)
            for t in enumerate_wall_types(ctx):
                _, D = wall_type_exists(ctx, t.square, t.div)
                wit = wall_test(ctx, D)
                assert wit is not None, (n, t)
                assert wit.check(), (n, t)

    def test_bm_wall_test_on_explicit_hyperbolic_lattice(self):
        from wallkit import IntegerLattice

        T = IntegerLattice(((4, -1), (-1, -2)), label="T")
        wit = bm_wall_test(T, T.vector((1, 0)))
        assert wit is not None
        assert wit.condition is WallCondition.BM_BOUNDED_ROOT
        assert wit.check()

    @pytest.mark.parametrize(
        "gram, v, condition, vector, pairing",
        [
            (((2, 0), (0, -2)), (1, 0), WallCondition.BM_ORTH_ROOT, (0, 1), (-2, 0)),
            (((0, 1), (1, 0)), (1, 2), WallCondition.BM_ISOTROPIC, (0, 1), (0, 1)),
        ],
        ids=["orth-root", "isotropic"],
    )
    def test_bm_wall_test_first_conditions(self, gram, v, condition, vector, pairing):
        from wallkit import IntegerLattice

        T = IntegerLattice(gram, label="T")
        wit = bm_wall_test(T, T.vector(v))
        assert wit.condition is condition
        assert [w.coords for w in wit.vectors] == [vector]
        assert wit.pairing_data == pairing
        assert wit.check()

    def test_bm_wall_test_requires_hyperbolic(self):
        from wallkit import IntegerLattice

        T = IntegerLattice(((2, 0), (0, 2)), label="pos")
        with pytest.raises(InputError):
            bm_wall_test(T, T.vector((1, 0)))


class TestHyperbolicT:
    @pytest.mark.parametrize("factor", [1, -1, 3, 0])
    def test_class_proportional_to_v_rejected(self, factor):
        ctx = make_context(3)
        s = tuple(factor * c for c in ctx.v.coords)
        with pytest.raises(InputError, match="span of v and s is not rank 2"):
            hyperbolic_T(ctx, s)

    def test_coordinates_match_smith_solve(self):
        rng = random.Random(97)
        primitive = saturated = 0
        for _ in range(80):
            ctx = make_context(rng.randint(2, 10))
            w = [0] * 24
            for i in rng.sample(range(24), rng.randint(1, 5)):
                w[i] = rng.randint(-6, 6)
            a, b = rng.randint(-3, 3), rng.choice([1, 1, 2, 3, -2])
            s = tuple(a * x + b * y for x, y in zip(ctx.v.coords, w))
            if rank(tuple(zip(ctx.v.coords, s))) < 2:
                continue
            data = hyperbolic_T(ctx, s)
            assert data.v_in_T.coords == smith_solve(data.embed.matrix, ctx.v.coords)
            assert data.s_in_T.coords == smith_solve(data.embed.matrix, s)
            if data.embed.matrix == tuple(zip(ctx.v.coords, s)):
                primitive += 1
                assert (data.v_in_T.coords, data.s_in_T.coords) == ((1, 0), (0, 1))
            else:
                saturated += 1
        assert primitive > 10 and saturated > 10

    def test_lost_class_is_internal_error_under_optimize(self):
        # python -O strips asserts; the check that the coordinates map back
        # to v must still fire.  The patch shifts v's first coordinate.
        script = (
            "from wallkit import walls\n"
            "real = walls._saturate\n"
            "def shifted(lattice, m):\n"
            "    emb, coords = real(lattice, m)\n"
            "    return emb, ((coords[0][0] + 1,) + coords[0][1:],) + coords[1:]\n"
            "walls._saturate = shifted\n"
            "ctx = walls.make_context(3)\n"
            "walls.hyperbolic_T(ctx, (1,) + (0,) * 23)\n"
        )
        res = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
            timeout=60,
        )
        assert res.returncode == 1
        assert b"InternalError: saturation lost the spanning classes" in res.stderr


def smith_solve(m, b):
    """The integer x with M x = b, for M of full column rank: P M Q = D
    turns it into D y = P b with x = Q y."""
    p, d, q = la.smith_normal_form(m)
    pb = la.mat_vec(p, b)
    ncols = len(q)
    assert not any(pb[ncols:])
    y = []
    for i in range(ncols):
        quo, rem = divmod(pb[i], d[i][i])
        assert rem == 0
        y.append(quo)
    return la.mat_vec(q, y)


WALL_TESTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "wall_tests.json").read_text(
        encoding="utf-8"
    )
)["cases"]


class TestRecordedWallTests:
    """wall_test witnesses and saturated rank-2 data recorded with the
    Fraction inverse of the Smith transform, for every certified type's
    witness class and a transvected copy, n = 2..10."""

    @pytest.mark.parametrize(
        "case",
        WALL_TESTS,
        ids=[f"n{c['n']}-{-c['square']}-{c['div']}-{c['kind']}" for c in WALL_TESTS],
    )
    def test_matches_recorded(self, case):
        ctx = make_context(case["n"])
        D = ctx.ambient.vector(case["class"])
        assert (D.norm(), D.div()) == (case["square"], case["div"])
        wit = wall_test(ctx, D)
        assert wit.check()
        assert {
            "condition": wit.condition.value,
            "vectors": [list(w.coords) for w in wit.vectors],
            "pairing_data": list(wit.pairing_data),
        } == case["witness"]
        data = hyperbolic_T(ctx, ctx.embed.apply(D))
        assert [list(r) for r in data.lattice.gram] == case["T_gram"]
        assert [list(r) for r in data.embed.matrix] == case["T_embed"]
        assert list(data.v_in_T.coords) == case["v_in_T"]
        assert list(data.s_in_T.coords) == case["s_in_T"]


def transvect(lattice, coords, rng):
    """One random hyperbolic-plane transvection applied to coords."""
    partner = {0: 1, 1: 0, 2: 3, 3: 2}
    k = rng.choice((0, 1, 2, 3))
    e = basis(lattice.rank, {k: 1})
    while True:
        a = [rng.randint(-2, 2) for _ in range(lattice.rank)]
        a[partner[k]] = 0
        if any(a):
            break
    mat = eichler_transvection(lattice, e, tuple(a))
    return tuple(
        sum(mat[i][j] * coords[j] for j in range(lattice.rank))
        for i in range(lattice.rank)
    )


class TestOrbits:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_transvections_preserve_invariants(self, n):
        ctx = make_context(n)
        rng = random.Random(n)
        L = ctx.ambient
        start = ctx.delta.coords
        base = eichler_invariants(L, start)
        x = start
        for _ in range(10):
            x = transvect(L, x, rng)
            inv = eichler_invariants(L, x)
            assert (inv.square, inv.div, inv.disc) == (base.square, base.div, base.disc)
            assert same_orbit(L, start, x)

    def test_div_differs_means_different_orbit(self):
        ctx = make_context(3)
        L = ctx.ambient
        assert not same_orbit(L, ctx.delta.coords, basis(23, {0: 1, 1: -1}))

    def test_equivalence_relation_on_samples(self):
        ctx = make_context(3)
        L = ctx.ambient
        rng = random.Random(77)
        reps = [basis(23, {0: 1, 1: -1}), ctx.delta.coords, basis(23, {0: 1, 1: -2})]
        sample = []
        for r in reps:
            x = r
            for _ in range(3):
                x = transvect(L, x, rng)
                sample.append((r, x))
        for r, x in sample:
            assert same_orbit(L, x, x)  # reflexive
            assert same_orbit(L, r, x) == same_orbit(L, x, r)  # symmetric
        # transitive across the chain pieces with equal invariants
        for r, x in sample:
            for r2, y in sample:
                if same_orbit(L, x, y) and same_orbit(L, y, r2):
                    assert same_orbit(L, x, r2)

    def test_two_u_hypothesis_enforced(self):
        from wallkit import IntegerLattice, direct_sum

        L = direct_sum([standard_lattice("U"), standard_lattice("rank1", -2)])
        with pytest.raises(InputError):
            same_orbit(L, (1, 0, 0), (0, 1, 0))

    def test_transvection_requires_isotropic_direction(self):
        ctx = make_context(2)
        with pytest.raises(InputError):
            eichler_transvection(ctx.ambient, basis(23, {22: 1}), basis(23, {0: 1}))

    def test_transvection_requires_orthogonal_partner(self):
        ctx = make_context(2)
        with pytest.raises(InputError):
            eichler_transvection(ctx.ambient, basis(23, {0: 1}), basis(23, {1: 1}))


TRANSVECTIONS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "eichler_transvection_random.json").read_text(
        encoding="utf-8"
    )
)["cases"]


@pytest.mark.parametrize("case", TRANSVECTIONS, ids=[f"t{i}" for i in range(len(TRANSVECTIONS))])
def test_transvection_matches_recorded(case):
    mat = eichler_transvection(make_context(case["n"]).ambient, case["e"], case["a"])
    expected = [[int(i == j) for j in range(23)] for i in range(23)]
    for i, j, v in case["minus_identity"]:
        expected[i][j] += v
    assert mat == tuple(map(tuple, expected))
    assert all(type(x) is int for row in mat for x in row)


class TestDualRay:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_delta_dual(self, n):
        ctx = make_context(n)
        r = dual_ray(ctx, ctx.delta.coords)
        assert r == tuple(
            Fraction(c, 2 * n - 2) for c in ctx.delta.coords
        )

    def test_div_one_fixed(self):
        ctx = make_context(3)
        D = basis(23, {0: 1, 1: -1})
        assert dual_ray(ctx, D) == tuple(Fraction(c) for c in D)

    @pytest.mark.parametrize("n", [2, 4])
    def test_integral_pairings(self, n):
        ctx = make_context(n)
        gram = ctx.ambient.gram
        for coords in (ctx.delta.coords, basis(23, {0: 2, 1: -2, 22: -1})):
            r = dual_ray(ctx, coords)
            for j in range(23):
                val = sum(r[i] * gram[i][j] for i in range(23))
                assert val.denominator == 1

    def test_zero_rejected(self):
        ctx = make_context(2)
        with pytest.raises(InputError):
            dual_ray(ctx, (0,) * 23)


class TestCongruences:
    def sample_div(self, ctx, rng, div, count):
        """Random primitive classes of the requested ambient divisibility,
        coordinate height <= 10, found by filtered sampling."""
        out = []
        L = ctx.ambient
        while len(out) < count:
            u = [0] * 23
            for _ in range(rng.randint(1, 4)):
                u[rng.randrange(22)] = rng.randint(-2, 2)
            c = rng.choice((-9, -7, -5, -3, -1, 1, 3, 5, 7, 9))
            coords = tuple(div * x for x in u[:22]) + (c,)
            if max(abs(x) for x in coords) > 10 or not any(coords[:22]):
                continue
            v = L.vector(coords)
            if not v.is_primitive():
                continue
            if divisibility(L, coords) != div:
                continue
            out.append(v)
        return out

    def test_div2_square_mod8_at_n3(self):
        ctx = make_context(3)
        rng = random.Random(2024)
        for v in self.sample_div(ctx, rng, 2, 120):
            assert v.norm() % 8 == -4 % 8

    def test_div4_square_mod32_at_n3(self):
        ctx = make_context(3)
        rng = random.Random(2025)
        for v in self.sample_div(ctx, rng, 4, 120):
            assert v.norm() % 32 == -4 % 32


class TestWallTypeValidation:
    def test_rejects_nonnegative_square(self):
        with pytest.raises(InputError):
            WallType(square=2, div=1)

    def test_rejects_odd_square(self):
        with pytest.raises(InputError):
            WallType(square=-3, div=1)

    def test_rejects_bad_div(self):
        with pytest.raises(InputError):
            WallType(square=-2, div=0)

    def test_ray_square(self):
        assert WallType(square=-36, div=4).ray_square == Fraction(-9, 4)


class TestContext:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_distinguished_class(self, n):
        ctx = make_context(n)
        assert ctx.v.norm() == 2 * n - 2
        assert ctx.v.is_primitive()
        img = ctx.embed.apply(ctx.delta.coords)
        assert img.inner(ctx.v) == 0

    def test_bad_n(self):
        with pytest.raises(InputError):
            make_context(1)


# ------------------------------------ line windows against the parent helpers


def quad_roots(a, b, c):
    """Integer roots of a k^2 + b k + c = 0 (a != 0), ascending: the
    parent of `_quad_window`'s end test."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = isqrt(disc)
    if s * s != disc:
        return []
    out = set()
    for sgn in (1, -1):
        num = -b + sgn * s
        if num % (2 * a) == 0:
            out.add(num // (2 * a))
    return sorted(out)


def quad_nonneg_range(a, b, c):
    """All integer k with a k^2 + b k + c >= 0, for a < 0, bracketed over
    Fraction: the parent of `_quad_window`."""
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    center = Fraction(-b, 2 * a)
    half = Fraction(disc, 4 * a * a)
    m = isqrt(half.numerator // half.denominator) + 1
    lo = floor(center) - m
    hi = ceil(center) + m
    return [k for k in range(lo, hi + 1) if a * k * k + b * k + c >= 0]


class TestQuadWindow:
    def test_matches_parent_helpers(self):
        # half the triples are random, half -m (p k - r) (k - r') with
        # integer or half-integer roots, so the end test meets roots
        rng = random.Random(29)
        for i in range(20_000):
            if i % 2:
                a, b, c = -rng.randint(1, 30), rng.randint(-300, 300), rng.randint(-600, 600)
            else:
                m, p, r, r2 = rng.randint(1, 5), rng.randint(1, 4), rng.randint(-40, 40), rng.randint(-40, 40)
                a, b, c = -m * p, m * (p * r2 + r), -m * r * r2
            window = _quad_window(a, b, c)
            assert list(window) == quad_nonneg_range(a, b, c)
            ends = {window[0], window[-1]} if window else set()
            assert sorted(k for k in ends if a * k * k + b * k + c == 0) == quad_roots(a, b, c)


# ------------------------------- type walk and rank-2 lines against the parent


def parent_residues(period, div):
    """The parent residue table: c over range(2 div^2), the smallest c
    kept for each residue -c^2 period mod 2 div^2."""
    mod = 2 * div * div
    return {(-c * c * period) % mod: c for c in range(mod - 1, -1, -1) if gcd(c, div) == 1}


def parent_typed_witnesses(ctx):
    """The parent walk: every even square from -2 down to the dual-ray
    bound, looked up in the residue table one at a time."""
    n = ctx.n
    period = 2 * n - 2
    for m in range(1, period + 1):
        if period % m:
            continue
        table = parent_residues(period, m)
        s = -2
        while 2 * s + (n + 3) * m * m >= 0:
            c = table.get(s % (2 * m * m))
            if c is not None:
                u = (s + c * c * period) // (2 * m * m)
                yield WallType(square=s, div=m), basis(23, {0: m, 1: m * u, 22: c})
            s -= 2


def parent_bm_wall_test(T, v_in_T):
    """The parent rank-2 search: a particular solution per pairing and,
    for the sum decomposition, every k of the t^2 >= 0 window."""
    v = T.vector(v_in_T)
    vsq = v.norm()
    g = la.mat_vec(T.gram, v.coords)
    dv = gcd(g[0], g[1])
    _, x0, y0 = _xgcd(g[0], g[1])
    u0 = (-g[1] // dv, g[0] // dv)
    if u0[0] < 0 or (u0[0] == 0 and u0[1] < 0):
        u0 = (-u0[0], -u0[1])
    a_coeff = T.norm(u0)

    def particular(p):
        f = p // dv
        return (x0 * f, y0 * f)

    def line_quad(w0):
        return a_coeff, 2 * T.inner(w0, u0), T.norm(w0)

    def vec(w0, k):
        return T.vector((w0[0] + k * u0[0], w0[1] + k * u0[1]))

    if a_coeff == -2:
        return WallWitness(WallCondition.BM_ORTH_ROOT, (T.vector(u0),), (-2, 0), against=v)
    for cond, sq, pairings in (
        (WallCondition.BM_ISOTROPIC, 0, (1, 2)),
        (WallCondition.BM_BOUNDED_ROOT, -2, range(1, vsq // 2 + 1)),
    ):
        for p in pairings:
            if p % dv:
                continue
            w0 = particular(p)
            a, b, c = line_quad(w0)
            window = _quad_window(a, b, c - sq)
            for k in (window[0], window[-1]) if window else ():
                if a * k * k + b * k + c == sq:
                    return WallWitness(cond, (vec(w0, k),), (sq, p), against=v)
    for pt in range(1, vsq):
        if pt % dv:
            continue
        t0 = particular(pt)
        a, b, c = line_quad(t0)
        for k in _quad_window(a, b, c):
            t = vec(t0, k)
            w = vec((v.coords[0] - t0[0], v.coords[1] - t0[1]), -k)
            if T.norm(w.coords) >= 0:
                return WallWitness(
                    WallCondition.BM_SUM, (w, t), (w.norm(), t.norm(), vsq - pt, pt), against=v
                )
    return None


class TestAgainstParent:
    def test_type_walk(self):
        for n in range(2, 41):
            ctx = make_context(n)
            parent = list(parent_typed_witnesses(ctx))
            assert [(t, D.coords) for t, D in _typed_witnesses(ctx)] == parent, n
            assert enumerate_wall_types(ctx) == tuple(t for t, _ in parent)

    def test_residue_table(self):
        for period in range(2, 400, 2):
            for div in range(1, period + 1):
                if period % div == 0:
                    assert _admissible_residues(period, div) == parent_residues(period, div)

    def test_bm_wall_test_on_random_lattices(self):
        # even hyperbolic Gram matrices and a class of square 1..400
        rng = random.Random(31)
        found = {}
        while sum(found.values()) < 3000:
            a, b, c = rng.randint(-12, 12), rng.randint(-25, 25), rng.randint(-12, 12)
            if 4 * a * c >= b * b:
                continue
            T = IntegerLattice(((2 * a, b), (b, 2 * c)))
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            if not 0 < T.norm(v) <= 400:
                continue
            got = bm_wall_test(T, v)
            assert got == parent_bm_wall_test(T, v), (T.gram, v)
            key = got and got.condition
            found[key] = found.get(key, 0) + 1
        assert set(found) == {None, *WallCondition} - {
            WallCondition.MK_MINUS2, WallCondition.MK_ISOTROPIC
        }
        assert found[WallCondition.BM_SUM] >= 500 and found[None] >= 100, found


# ----------------------------------------- an independent one-condition oracle


def one_condition_wall(ctx, D):
    """Bayer-Macri's condition for K3^[n] type, searched directly: the
    saturation T of <v, D> in the Mukai lattice holds s != 0 with
    s^2 >= -2 and 0 <= (s, v) <= v^2/2.

    v is primitive, so T = <v, t> with t = (D - alpha v) / beta, beta the
    gcd of the 2x2 minors of [v | D] and alpha in [0, beta) the residue
    that makes t integral.  On s = x v + y t the majorant
    q_v(s) = -s^2 + 2 (s, v)^2 / v^2 = a x^2 + 2 b x y + (2 b^2 / a - c) y^2
    (a, b, c = v^2, (v, t), t^2) is at most 2 + a / 2 on the region, and
    the inverse of its matrix bounds a coordinate box around it."""
    gram = ctx.mukai.gram
    v, d = ctx.v.coords, ctx.embed.apply(D).coords
    beta = gcd(*(v[i] * d[j] - v[j] * d[i] for i in range(len(v)) for j in range(i)))
    alpha = next(
        al for al in range(beta) if all((x - al * y) % beta == 0 for x, y in zip(d, v))
    )
    t = tuple((x - alpha * y) // beta for x, y in zip(d, v))
    a, b, c = (la.vec_mat_vec(x, gram, y) for x, y in ((v, v), (v, t), (t, t)))
    det = b * b - a * c  # -det T > 0
    xmax = isqrt((4 + a) * (2 * b * b - a * c) // (2 * a * det))
    ymax = isqrt((4 + a) * a // (2 * det))
    return any(
        (x or y)
        and a * x * x + 2 * b * x * y + c * y * y >= -2
        and 0 <= 2 * (a * x + b * y) <= a
        for x in range(-xmax, xmax + 1)
        for y in range(-ymax, ymax + 1)
    )


def orbit_witnesses(ctx):
    """(type, class) for one class per Eichler orbit (square, div,
    +-c mod div) of every candidate wall type, smallest c first:
    div e + div u f + c delta on L_n's first hyperbolic plane and tail."""
    period = 2 * ctx.n - 2
    for t in enumerate_wall_types(ctx):
        mod = 2 * t.div * t.div
        orbits = {}
        for c in range(mod):
            if gcd(c, t.div) == 1 and (t.square + c * c * period) % mod == 0:
                orbits.setdefault(min(c % t.div, -c % t.div), c)
        for c in orbits.values():
            coords = [0] * ctx.ambient.rank
            coords[0], coords[1], coords[-1] = t.div, t.div * ((t.square + c * c * period) // mod), c
            yield t, ctx.ambient.vector(coords)


class TestOneConditionOracle:
    def test_every_orbit_agrees_with_wall_test(self):
        verdicts = {}
        orbits = set()
        for n in range(2, 16):
            ctx = make_context(n)
            for t, D in orbit_witnesses(ctx):
                inv = eichler_invariants(ctx.ambient, D)
                flip = eichler_invariants(ctx.ambient, tuple(-x for x in D.coords))
                assert (inv.square, inv.div) == (t.square, t.div)
                orbits.add((n, min(inv.disc, flip.disc), t))
                wall = wall_test(ctx, D) is not None
                assert one_condition_wall(ctx, D) == wall, (n, t, D.coords)
                verdicts.setdefault((n, t.square, t.div), []).append(wall)
        assert len(orbits) == sum(map(len, verdicts.values())) == 410
        # item 11's split types: the smallest-c orbit is no wall, the other is
        split = sorted(k for k, vs in verdicts.items() if len(set(vs)) > 1)
        assert [n for n, _, _ in split] == [7, 9] + [11] * 3 + [13] * 5 + [15] * 6
        assert {(7, -588, 12), (9, -272, 8)} <= set(split)
        assert all(verdicts[k] == [False, True] for k in split)

    def test_recorded_classes_agree_with_wall_test(self):
        for case in WALL_TESTS:
            ctx = make_context(case["n"])
            D = ctx.ambient.vector(case["class"])
            assert one_condition_wall(ctx, D) == (wall_test(ctx, D) is not None), case["class"]

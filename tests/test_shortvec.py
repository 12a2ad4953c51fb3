"""Short-vector enumeration against brute-force and root-system oracles."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from wallkit import _linalg as la
from wallkit import shortvec
from wallkit import (
    CellBudget,
    EnumerationBudgetExceeded,
    InputError,
    IntegerLattice,
    short_vectors,
    standard_lattice,
)
from test_chambers import solve_fraction


def brute_force(gram, target):
    """All nonzero x with |x_i| <= B and Q(x) = target, box B large enough
    for the diagonal-dominant test forms below."""
    n = len(gram)
    B = 2 * max(abs(target), 2)
    out = set()
    for x in itertools.product(range(-B, B + 1), repeat=n):
        if not any(x):
            continue
        q = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if q == target:
            out.add(x)
    return out


def rand_neg_definite(rng, n):
    """Random negative-definite even Gram: -(A^T A + k I) style, kept small."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [
            [-2 * sum(a[k][i] * a[k][j] for k in range(n)) - (2 if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        try:
            lat = IntegerLattice(tuple(tuple(r) for r in g))
        except InputError:
            continue
        return lat


class TestBruteForceOracle:
    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_rank2_and_rank3_match_brute_force(self, seed):
        rng = random.Random(seed)
        for n in (2, 3):
            lat = rand_neg_definite(rng, n)
            for target in (-2, -4, -6, -8):
                mine = set(v.coords for v in short_vectors(lat, target))
                assert mine == brute_force(lat.gram, target)

    def test_positive_definite_direction(self):
        lat = IntegerLattice(((2, 0), (0, 2)))
        got = set(v.coords for v in short_vectors(lat, 2))
        assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}


class TestE8Roots:
    def test_root_count_is_240(self):
        roots = short_vectors(standard_lattice("E8(-1)"), -2)
        assert len(roots) == 240

    def test_root_count_matches_euclidean_model(self):
        # Independent oracle: roots of E8 in the even-coordinate model of
        # R^8 are (+-1, +-1, 0^6) (112) and (+-1/2)^8 with an even number
        # of minus signs (128).
        pm = [p for p in itertools.product((1, -1), repeat=8) if p.count(-1) % 2 == 0]
        count = 112 + len(pm)
        assert count == 240
        assert len(short_vectors(standard_lattice("E8(-1)"), -2)) == count

    def test_shell_counts(self):
        # theta series of E8: 240 sigma_3(k) vectors of norm 2k
        e8 = standard_lattice("E8(-1)")
        assert [len(short_vectors(e8, -2 * k)) for k in (1, 2, 3, 4)] == [240, 2160, 6720, 17520]

    def test_symmetric_and_sorted(self):
        roots = short_vectors(standard_lattice("E8(-1)"), -2)
        coords = [v.coords for v in roots]
        assert coords == sorted(coords)
        as_set = set(coords)
        assert all(tuple(-c for c in x) in as_set for x in as_set)


class TestContracts:
    def test_budget_exceeded(self):
        with pytest.raises(EnumerationBudgetExceeded):
            short_vectors(standard_lattice("E8(-1)"), -2, max_cells=10)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_nonpositive_cap_argument_rejected(self, cap):
        with pytest.raises(InputError, match="max_cells must be a positive integer"):
            CellBudget(max_cells=cap)
        with pytest.raises(InputError, match="max_cells must be a positive integer"):
            short_vectors(standard_lattice("E8(-1)"), -2, max_cells=cap)

    @pytest.mark.parametrize("cap", ["100", 2.5, True])
    def test_non_integer_cap_argument_rejected(self, cap):
        # a string crashed with TypeError, 2.5 capped at 2.5 cells, True at 1
        with pytest.raises(InputError, match="max_cells must be a positive integer"):
            CellBudget(max_cells=cap)
        with pytest.raises(InputError, match="max_cells must be a positive integer"):
            short_vectors(standard_lattice("E8(-1)"), -2, max_cells=cap)

    @pytest.mark.parametrize("env", ["0", "-3", "x"])
    def test_nonpositive_cap_variable_rejected(self, env, monkeypatch):
        monkeypatch.setenv("WALLKIT_MAX_CELLS", env)
        with pytest.raises(InputError, match="WALLKIT_MAX_CELLS must be a positive integer"):
            CellBudget()
        monkeypatch.setenv("WALLKIT_MAX_CELLS", "1")
        assert CellBudget().max_cells == 1

    def test_indefinite_rejected(self):
        with pytest.raises(InputError):
            short_vectors(standard_lattice("U"), -2)

    def test_wrong_sign_target_rejected(self):
        lat = IntegerLattice(((-2,),))
        with pytest.raises(InputError):
            short_vectors(lat, 2)

    def test_zero_target_empty(self):
        lat = IntegerLattice(((-2,),))
        assert short_vectors(lat, 0) == []

    def test_odd_target_empty_without_enumerating(self):
        e8 = standard_lattice("E8(-1)")
        assert short_vectors(e8, -7, max_cells=1) == []
        with pytest.raises(InputError, match="max_cells must be a positive integer"):
            short_vectors(e8, -7, max_cells=0)
        with pytest.raises(InputError, match="wrong sign"):
            short_vectors(e8, 7)

    @pytest.mark.parametrize("target", [Fraction(-5, 2), -2.5])
    def test_fractional_target_rejected(self, target):
        with pytest.raises(InputError, match="must be an integer"):
            short_vectors(standard_lattice("E8(-1)"), target)

    @pytest.mark.parametrize("target", [-2.0, True, "-2"])
    def test_non_integer_target_type_rejected(self, target):
        # -2.0 returned the 240 roots, True was read as 1 ("wrong sign") and
        # "-2" crashed with TypeError
        with pytest.raises(InputError, match="must be an integer"):
            short_vectors(standard_lattice("E8(-1)"), target)

    def test_integral_fraction_target_accepted(self):
        e8 = standard_lattice("E8(-1)")
        assert short_vectors(e8, Fraction(-2)) == short_vectors(e8, -2)

    def test_enumeration_is_lazy(self):
        # the first point of a large ball costs a few cells: the walk is not
        # run to the end (or collected into a list) before it yields
        gram = tuple(tuple(-g for g in row) for row in standard_lattice("E8(-1)").gram)
        budget = CellBudget(max_cells=10**6)
        points = shortvec._fp_points(shortvec._fp_decompose(gram), Fraction(8), budget)
        next(points)
        first = budget.used
        assert 1 + sum(1 for _ in points) == 13320
        assert budget.used == 55420
        assert first == 52
        assert first * 1000 < budget.used

    def test_generator_budget_object(self):
        # the walk works on the positive-definite side, one of each sign
        gram = ((2, -1), (-1, 2))
        budget = CellBudget(max_cells=10**6)
        got = list(shortvec._fp_points(shortvec._fp_decompose(gram), Fraction(2), budget))
        want = brute_force(tuple(tuple(-c for c in row) for row in gram), -2)
        assert both_signs(got) == want
        assert 2 * len(got) == len(want)
        assert budget.used > 0


# ------------------------------------------- recorded outputs on rational forms

ENUMERATE_RANDOM = json.loads(
    (Path(__file__).resolve().parent / "golden" / "enumerate_random.json").read_text(
        encoding="utf-8"
    )
)["cases"]
BOX_LIMIT = 20000  # brute force only boxes with at most this many points


def box_radii(gram, bound):
    """r_i with |x_i| <= r_i whenever Q(x) <= bound: x_i^2 <= bound (G^-1)_ii."""
    n = len(gram)
    out = []
    for i in range(n):
        v = bound * solve_fraction(gram, [int(i == j) for j in range(n)])[i]
        out.append(math.isqrt(v.numerator // v.denominator))
    return out


def one_of_each_sign(points):
    """The points whose last nonzero coordinate is positive, in order."""
    return [tuple(x) for x in points if next(c for c in reversed(x) if c) > 0]


def both_signs(points):
    """The set of the points and their negatives."""
    return {tuple(x) for x in points} | {tuple(-c for c in x) for x in points}


def walk(case, exact=False):
    """(points, cells, gram, bound) of `_fp_points` on a recorded case, with
    the case's Gram and bound as Fractions."""
    gram = [[Fraction(v) for v in row] for row in case["gram"]]
    bound = Fraction(case["bound"])
    budget = CellBudget(max_cells=10**7)
    points = list(shortvec._fp_points(shortvec._fp_decompose(gram), bound, budget, exact=exact))
    return points, budget.used, gram, bound


class TestRandomRationalForms:
    # enumerate_random.json records the ball over both signs, in walk order,
    # and its cells; the walk yields the recorded points with a positive
    # last nonzero coordinate, in order, for the recorded cells
    @pytest.mark.parametrize(
        "case", ENUMERATE_RANDOM, ids=[f"f{i}" for i in range(len(ENUMERATE_RANDOM))]
    )
    def test_matches_recorded_and_brute_force(self, case):
        got, used, gram, bound = walk(case)
        assert got == one_of_each_sign(case["points"])
        assert used == case["used"]
        # Q over one common denominator, so equality with the bound is exact
        den = math.lcm(bound.denominator, *(v.denominator for row in gram for v in row))
        g = [[int(v * den) for v in row] for row in gram]
        top = int(bound * den)
        n = len(g)

        def q(x):
            return sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))

        on_bound = [x for x in got if q(x) == top]
        assert all(q(x) <= top for x in got)
        radii = box_radii(gram, bound)
        if math.prod(2 * r + 1 for r in radii) > BOX_LIMIT:
            return
        box = {
            x
            for x in itertools.product(*(range(-r, r + 1) for r in radii))
            if any(x) and q(x) <= top
        }
        assert both_signs(got) == box
        assert 2 * len(got) == len(box)
        assert {x for x in box if q(x) == top} == both_signs(on_bound)

    @pytest.mark.parametrize(
        "case", ENUMERATE_RANDOM, ids=[f"f{i}" for i in range(len(ENUMERATE_RANDOM))]
    )
    def test_half_walk_is_one_of_each_sign(self, case):
        # the exact walk solves the last level: it yields the recorded
        # points on the bound with a positive last nonzero coordinate, in
        # recorded order, and charges the recorded cells
        kept, used, gram, bound = walk(case, exact=True)
        shell = [x for x in case["points"] if la.vec_mat_vec(x, gram, x) == bound]
        assert used == case["used"]
        assert kept == one_of_each_sign(shell)

    @pytest.mark.parametrize(
        "case", ENUMERATE_RANDOM, ids=[f"f{i}" for i in range(len(ENUMERATE_RANDOM))]
    )
    def test_half_ball_is_one_of_each_sign(self, case):
        # the walk up to the bound yields one of each pair of recorded
        # points, and with its negatives the whole recorded ball
        kept, used, _, _ = walk(case)
        assert used == case["used"]
        assert kept == one_of_each_sign(case["points"])
        assert both_signs(kept) == {tuple(x) for x in case["points"]}
        assert 2 * len(kept) == len(case["points"])

    @pytest.mark.parametrize(
        "case", ENUMERATE_RANDOM, ids=[f"f{i}" for i in range(len(ENUMERATE_RANDOM))]
    )
    def test_exact_walk_is_the_shell(self, case):
        # the exact walk with its negatives is the recorded shell, for the
        # cells of the walk up to the bound
        kept, used, gram, bound = walk(case, exact=True)
        shell = {tuple(x) for x in case["points"] if la.vec_mat_vec(x, gram, x) == bound}
        assert both_signs(kept) == shell
        assert 2 * len(kept) == len(shell)
        assert used == case["used"]

    def test_bound_values_are_emitted(self):
        # odd cases take the value of a nonzero integer point as the bound
        for case in ENUMERATE_RANDOM[1::2]:
            points, _, gram, bound = walk(case)
            assert any(la.vec_mat_vec(x, gram, x) == bound for x in points)


# --------------------------------------- recorded short_vectors outputs and cells

SHORT_VECTORS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "short_vectors_random.json").read_text(
        encoding="utf-8"
    )
)


def assert_cells(lattice, target, cells):
    """short_vectors fits in exactly `cells`: it passes at that cap and trips one below."""
    got = [list(v.coords) for v in short_vectors(lattice, target, max_cells=cells)]
    if cells > 1:
        with pytest.raises(EnumerationBudgetExceeded):
            short_vectors(lattice, target, max_cells=cells - 1)
    return got


class TestRecordedShortVectors:
    def test_e8_cells(self):
        assert [c["cells"] for c in SHORT_VECTORS["e8"]] == [786, 6004, 21196, 55420]

    def test_e8_cap_boundary(self):
        e8 = standard_lattice("E8(-1)")
        assert len(short_vectors(e8, -8, max_cells=55_420)) == 17520
        with pytest.raises(EnumerationBudgetExceeded):
            short_vectors(e8, -8, max_cells=55_419)

    @pytest.mark.parametrize("case", SHORT_VECTORS["e8"], ids=lambda c: f"e8{c['target']}")
    def test_e8_shells(self, case):
        got = assert_cells(standard_lattice("E8(-1)"), case["target"], case["cells"])
        assert len(got) == case["count"]
        digest = hashlib.sha256(json.dumps(got, separators=(",", ":")).encode()).hexdigest()
        assert digest == case["sha256"]
        if "vectors" in case:
            assert got == case["vectors"]

    @pytest.mark.parametrize(
        "case",
        SHORT_VECTORS["lattices"],
        ids=[f"l{i}" for i in range(len(SHORT_VECTORS["lattices"]))],
    )
    def test_seeded_lattices(self, case):
        lattice = IntegerLattice(tuple(map(tuple, case["gram"])))
        for shell in case["shells"]:
            assert assert_cells(lattice, shell["target"], shell["cells"]) == shell["vectors"]


class TestRankOne:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("g", [2, 4, 6, 10, 18])
    def test_shells(self, g, sign):
        # at rank 1 level 0 is also the top of the spine: v^2 = g k^2
        lattice = IntegerLattice(((sign * g,),))
        for norm in range(2, 18 * g + 1, 2):
            k = math.isqrt(norm // g)
            want = [[-k], [k]] if g * k * k == norm else []
            assert assert_cells(lattice, sign * norm, 2 * k + 1) == want

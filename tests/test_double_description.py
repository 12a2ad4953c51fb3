"""The integer double description against the Fraction one it replaced.

`fraction_dual_description` is the previous implementation, kept verbatim
as the oracle: it tested each candidate ray by the rank of the constraints
it lies on, over exact rationals.  The integer version must return the
same rays and lineality and charge the same cells, call for call.  The
facets and ridges the chamber search reads off the integer incidences are
checked against the same rank test.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wallkit._linalg as la
from test_chambers import SUPPORT_RANDOM
from test_linalg import rank
from wallkit import EnumerationBudgetExceeded, certified_wall_types
from wallkit import chambers
from wallkit.chambers import _primitive_int
from wallkit.formats import parse_chamber_query
from wallkit.shortvec import CellBudget

SRC = Path(__file__).resolve().parent.parent / "src"


def fraction_dual_description(constraints, dim, budget: CellBudget):
    """Extreme rays and lineality of {x in Q^dim : a . x >= 0 for all a}.

    Incremental double description over exact rationals.  Rays come back
    as primitive integer tuples, lineality as an integer basis.
    """
    lineality: list[tuple[Fraction, ...]] = [
        tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)
    ]
    rays: list[tuple[Fraction, ...]] = []
    seen: list[tuple] = []

    def dot(a, x):
        return sum(Fraction(ai) * xi for ai, xi in zip(a, x))

    for a in constraints:
        budget.spend()
        seen.append(a)
        l0 = next((l for l in lineality if dot(a, l) != 0), None)
        if l0 is not None:
            if dot(a, l0) < 0:
                l0 = tuple(-x for x in l0)
            d0 = dot(a, l0)
            lineality = [
                tuple(x - dot(a, l) / d0 * y for x, y in zip(l, l0))
                for l in lineality
                if l != l0 and tuple(-x for x in l) != l0
            ]
            rays = [
                tuple(x - dot(a, r) / d0 * y for x, y in zip(r, l0)) for r in rays
            ]
            rays.append(l0)
            continue
        vals = [dot(a, r) for r in rays]
        plus = [r for r, v in zip(rays, vals) if v > 0]
        zero = [r for r, v in zip(rays, vals) if v == 0]
        minus = [r for r, v in zip(rays, vals) if v < 0]
        if not minus:
            continue
        combos = []
        for rp in plus:
            vp = dot(a, rp)
            for rm in minus:
                budget.spend()
                vm = dot(a, rm)
                comb = tuple(vp * xm - vm * xp for xp, xm in zip(rp, rm))
                combos.append(comb)
        lin_rank = len(lineality)
        keep = {}
        for r in plus + zero + combos:
            key = _primitive_int(r) if any(r) else None
            if key is None or key in keep:
                continue
            active = [c for c in seen if dot(c, r) == 0]
            # extreme iff active constraints cut r down to a single ray
            if rank(active) >= dim - lin_rank - 1:
                keep[key] = tuple(Fraction(x) for x in key)
        rays = list(keep.values())
    out_rays = sorted(_primitive_int(r) for r in rays)
    out_lin = sorted(_primitive_int(l) for l in lineality)
    return out_rays, out_lin


def run_both(constraints, dim, max_cells=10**9):
    """(rays, lineality, cells spent) from the integer and the oracle."""
    out = []
    for dd in (chambers._dual_description, fraction_dual_description):
        budget = CellBudget(max_cells)
        rays, lin = dd(constraints, dim, budget)
        out.append((rays, lin, budget.used))
    return out


def support_cones(case, sections):
    """The candidate cone K of a recorded support query, and its sections
    by the perps of `sections` candidates (seeded pick) in x-perp
    coordinates: lower-dimensional cones with lineality, for the oracle."""
    query = parse_chamber_query(case["query"])
    P, omega = query["P"], query["omega"]
    lookup = chambers._type_lookup(certified_wall_types(P.ctx))
    cands = chambers._box_candidates(P, omega, lookup, query["bound"], CellBudget())
    gram = P.pic.gram
    order = sorted(cands)
    cones = [([la.mat_vec(gram, y) for y in order], P.pic.rank)]
    for x in random.Random(str(order)).sample(order, min(sections, len(order))):
        basis = la.kernel_basis([la.mat_vec(gram, x)])
        to_w = la.mat_mul(basis, gram)
        cones.append(([la.mat_vec(to_w, y) for y in cands if y != x], len(basis)))
    return cones


@pytest.mark.parametrize(
    "case", SUPPORT_RANDOM, ids=[f"q{i}" for i in range(len(SUPPORT_RANDOM))]
)
def test_recorded_support_cones_match_oracle(case):
    for constraints, dim in support_cones(case, sections=3):
        new, old = run_both(constraints, dim)
        assert new == old


def facets_and_ridges(rows, dim):
    """Facets and ridges of {x : row . x >= 0} by row index, read off the
    incidence masks as the chamber search does and by the rank oracle."""
    rays, lin = chambers._dual_description(rows, dim, CellBudget())
    on = [[k for k, r in enumerate(rays) if chambers._dot(row, r) == 0] for row in rows]
    inc = dict(enumerate(sum(1 << k for k in ks) for ks in on))
    facets = chambers._facets(inc)
    ridges = [
        (x, y) for x, y in itertools.combinations(facets, 2)
        if chambers._adjacent(inc, facets, x, y)
    ]

    def face_dim(ks):
        return rank([*(rays[k] for k in ks), *lin])

    oracle_facets = [i for i, ks in enumerate(on) if face_dim(ks) == dim - 1]
    oracle_ridges = [
        (x, y) for x, y in itertools.combinations(oracle_facets, 2)
        if face_dim(set(on[x]) & set(on[y])) == dim - 2
    ]
    return (facets, ridges), (oracle_facets, oracle_ridges), lin


@pytest.mark.parametrize(
    "case", SUPPORT_RANDOM, ids=[f"q{i}" for i in range(len(SUPPORT_RANDOM))]
)
def test_recorded_facets_and_ridges_match_rank_oracle(case):
    [(rows, dim)] = support_cones(case, sections=0)
    new, old, _ = facets_and_ridges(rows, dim)
    assert new == old


def full_dimensional_cone(rng, dim):
    """Distinct primitive rows, each positive on a random interior point."""
    point = [rng.randint(-4, 4) for _ in range(dim)]
    point[rng.randrange(dim)] = rng.choice((-1, 1)) * rng.randint(1, 4)
    rows = set()
    for _ in range(rng.randint(1, 3 * dim)):
        row = [rng.randint(-3, 3) for _ in range(dim)]
        side = chambers._dot(row, point)
        if side:
            rows.add(chambers._primitive([c if side > 0 else -c for c in row]))
    return sorted(rows)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_random_facets_and_ridges_match_rank_oracle(dim):
    rng = random.Random(9000 + dim)
    pointed = lineality = 0
    for _ in range(250):
        rows = full_dimensional_cone(rng, dim)
        if not rows:
            continue
        new, old, lin = facets_and_ridges(rows, dim)
        assert new == old, rows
        lineality += bool(lin)
        pointed += not lin
    assert pointed > 100 and lineality > 25


def random_cone(rng, dim):
    """Random integer rows with duplicate, parallel, opposite and zero rows."""
    rows = []
    for _ in range(rng.randint(1, 3 * dim + 3)):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(rng.choice(rows))
        elif rows and pick < 0.3:
            scale = rng.choice((2, 3, -1, -2))
            rows.append(tuple(scale * c for c in rng.choice(rows)))
        elif pick < 0.36:
            rows.append((0,) * dim)
        else:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
    return rows


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_random_cones_match_oracle(dim):
    rng = random.Random(7000 + dim)
    seen_lineality = seen_pointed = 0
    for _ in range(150):
        constraints = random_cone(rng, dim)
        new, old = run_both(constraints, dim)
        assert new == old, constraints
        seen_lineality += bool(new[1]) and bool(new[0])
        seen_pointed += not new[1] and len(new[0]) > dim
    assert dim < 2 or seen_lineality > 5
    assert dim < 3 or seen_pointed > 5


@pytest.mark.parametrize("dim", [3, 4])
def test_small_budget_trips_at_same_call(dim):
    rng = random.Random(8000 + dim)
    for _ in range(10):
        constraints = random_cone(rng, dim)
        total = run_both(constraints, dim)[0][2]
        # caps start at 1: a cap below 1 is rejected as input
        for cap in sorted(rng.sample(range(1, total), min(total - 1, 8))):
            for dd in (chambers._dual_description, fraction_dual_description):
                budget = CellBudget(cap)
                with pytest.raises(EnumerationBudgetExceeded):
                    dd(constraints, dim, budget)
                assert budget.used == cap + 1


def test_child_off_its_constraint_is_internal_error_under_optimize():
    # python -O strips asserts; the child-ray check must still fire.  The
    # patched gcd step doubles the last coordinate, which puts the child
    # (1, 0, 1) of the last constraint at (1, 0, 2).
    script = (
        "from wallkit import chambers; from wallkit.shortvec import CellBudget; "
        "prim = chambers._primitive; "
        "chambers._primitive = lambda v: (*prim(v)[:-1], 2 * prim(v)[-1]); "
        "chambers._dual_description("
        "[(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3, CellBudget())"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert res.returncode == 1
    assert b"InternalError: double description child ray off its constraint" in res.stderr

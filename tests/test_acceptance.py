"""Acceptance gate: eleven end-to-end criteria, one verdict line each.

Each test prints exactly one line, "ACCEPTANCE <k> PASS: ..." on success
or "ACCEPTANCE <k> FAIL: ..." before re-raising on failure, bypassing
pytest capture so the lines land in the console log.
"""

import contextlib
import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

import discriminant_oracle as parent
from wallkit import (
    Embedding,
    IntegerLattice,
    OnWallError,
    PicardData,
    WallCondition,
    certified_wall_types,
    eichler_invariants,
    eichler_transvection,
    enumerate_wall_types,
    extremal_rays,
    ht_bound_ok,
    in_dual_cone,
    divisibility,
    make_context,
    short_vectors,
    standard_lattice,
    supporting_walls_report,
    wall_test,
    wall_type_exists,
    walls_between,
)
from wallkit import cli


@contextlib.contextmanager
def criterion(capsys, k):
    info = {"msg": ""}
    try:
        yield info
    except BaseException as exc:
        with capsys.disabled():
            print(f"\nACCEPTANCE {k} FAIL: {type(exc).__name__}: {exc}")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {k} PASS: {info['msg']}")


def table_rows(n):
    return {
        (Fraction(t.square, t.div * t.div), t.square, t.div)
        for t in enumerate_wall_types(make_context(n))
    }


def basis23(entries):
    out = [0] * 23
    for i, c in entries.items():
        out[i] = c
    return tuple(out)


def picard(n, gram, cols, omega=None):
    ctx = make_context(n)
    pic = IntegerLattice(tuple(tuple(r) for r in gram), label="pic")
    matrix = tuple(tuple(col.get(i, 0) for col in cols) for i in range(23))
    om = None if omega is None else tuple(Fraction(x) for x in omega)
    return PicardData(
        ctx=ctx, pic=pic, embed=Embedding(pic, ctx.ambient, matrix), omega_ref=om
    )


# --------------------------------------------------------------- criterion 1


def test_acceptance_1_table_n3(capsys):
    with criterion(capsys, 1) as info:
        t0 = time.monotonic()
        rows = table_rows(3)
        elapsed = time.monotonic() - t0
        expected = {
            (Fraction(-3), -12, 2),
            (Fraction(-9, 4), -36, 4),
            (Fraction(-2), -2, 1),
            (Fraction(-1, 4), -4, 4),
            (Fraction(-1), -4, 2),
        }
        assert rows == expected
        assert elapsed < 1.0, f"table took {elapsed:.3f}s"
        info["msg"] = f"n=3 table has exactly 5 rows, computed in {elapsed:.3f}s"


# --------------------------------------------------------------- criterion 2


def test_acceptance_2_table_n4(capsys):
    with criterion(capsys, 2) as info:
        t0 = time.monotonic()
        rows = table_rows(4)
        elapsed = time.monotonic() - t0
        assert len(rows) == 7
        assert (Fraction(-7, 2), -14, 2) in rows
        assert (Fraction(-13, 6), -78, 6) in rows
        expected = {
            (Fraction(-2), -2, 1),
            (Fraction(-3, 2), -6, 2),
            (Fraction(-7, 2), -14, 2),
            (Fraction(-2, 3), -6, 3),
            (Fraction(-8, 3), -24, 3),
            (Fraction(-1, 6), -6, 6),
            (Fraction(-13, 6), -78, 6),
        }
        assert rows == expected
        assert elapsed < 1.0, f"table took {elapsed:.3f}s"
        info["msg"] = f"n=4 table has exactly 7 rows, computed in {elapsed:.3f}s"


# --------------------------------------------------------------- criterion 3


def test_acceptance_3_n2_classification(capsys):
    with criterion(capsys, 3) as info:
        types = {(t.square, t.div) for t in enumerate_wall_types(make_context(2))}
        assert types == {(-2, 1), (-2, 2), (-10, 2)}
        assert {s for s, _ in types} == {-2, -10}
        info["msg"] = "n=2 types are {(-2,1),(-2,2),(-10,2)}; squares {-2,-10}"


# --------------------------------------------------------------- criterion 4


def sample_div(ctx, rng, m, coeff_bound):
    """Random primitive class of the requested ambient divisibility,
    coordinate height <= 10, built as m * (unimodular part) + odd * tail."""
    while True:
        u = [0] * 22
        for _ in range(4):
            u[rng.randrange(22)] = rng.randint(-coeff_bound, coeff_bound)
        c = rng.choice([x for x in range(-9, 10) if x % 2])
        coords = tuple(m * x for x in u) + (c,)
        D = ctx.ambient.vector(coords)
        if not D.is_primitive():
            continue
        if divisibility(ctx.ambient, coords) != m:
            continue
        assert max(abs(x) for x in coords) <= 10
        return D


def test_acceptance_4_congruences(capsys):
    with criterion(capsys, 4) as info:
        ctx = make_context(3)
        rng = random.Random(40)
        for _ in range(500):
            D = sample_div(ctx, rng, 2, 5)
            assert D.norm() % 8 == -4 % 8, f"div 2 violation at {D.coords}"
        for _ in range(500):
            D = sample_div(ctx, rng, 4, 2)
            assert D.norm() % 32 == -4 % 32, f"div 4 violation at {D.coords}"
        info["msg"] = (
            "500 div-2 classes in L_3 have D^2 = -4 (mod 8) and "
            "500 div-4 classes have D^2 = -4 (mod 32); zero violations"
        )


# --------------------------------------------------------------- criterion 5


def random_rank2_query(rng, n):
    """Picard lattice diag(2a, -2c) with H on a hyperbolic plane and the
    second generator a primitive short vector of the first E8(-1) block."""
    ctx = make_context(n)
    while True:
        a = rng.randint(1, 4)
        c = rng.randint(1, 4)
        roots = [
            z for z in short_vectors(standard_lattice("E8(-1)"), -2 * c)
            if z.is_primitive()
        ]
        if not roots:
            continue
        z = rng.choice(roots)
        cols = [{0: 1, 1: a}, {6 + i: v for i, v in enumerate(z.coords) if v}]
        P = picard(n, [[2 * a, 0], [0, -2 * c]], cols)
        return P


def test_acceptance_5_ht_bound_over_random_queries(capsys):
    with criterion(capsys, 5) as info:
        rng = random.Random(50)
        checked = 0
        rays_seen = 0
        while checked < 50:
            n = rng.choice((2, 3, 4))
            P = random_rank2_query(rng, n)
            types = enumerate_wall_types(P.ctx)
            for _ in range(40):
                omega = (rng.randint(1, 6), rng.randint(-3, 3))
                if P.pic.norm(omega) <= 0 or omega[0] <= 0:
                    continue
                try:
                    rays = extremal_rays(supporting_walls_report(P, omega, types))
                except OnWallError:
                    continue
                break
            else:
                continue
            checked += 1
            for r in rays:
                rays_seen += 1
                assert r.square >= -Fraction(n + 3, 2), (
                    f"ray {r.coords} square {r.square} below bound at n={n}"
                )
                assert ht_bound_ok(n, r.square)
        info["msg"] = (
            f"50 randomized rank-2 queries over n in {{2,3,4}}: all "
            f"{rays_seen} extremal rays satisfy r^2 >= -(n+3)/2 exactly"
        )


# --------------------------------------------------------------- criterion 6


def test_acceptance_6_bm_witnesses_recompute(capsys):
    with criterion(capsys, 6) as info:
        # bounded-root witness: square -36, divisibility 4 at n=3
        ctx3 = make_context(3)
        exists, D = wall_type_exists(ctx3, -36, 4)
        assert exists
        wit = wall_test(ctx3, D)
        assert wit is not None
        assert wit.condition == WallCondition.BM_BOUNDED_ROOT
        (w,) = wit.vectors
        v = wit.against
        assert w.norm() == -2
        assert w.inner(v) == 1
        assert 0 < w.inner(v) < Fraction(v.norm(), 2)
        # decomposition witness: square -6, divisibility 2 at n=4 (v^2 = 6)
        ctx4 = make_context(4)
        exists, D4 = wall_type_exists(ctx4, -6, 2)
        assert exists
        wit4 = wall_test(ctx4, D4)
        assert wit4 is not None
        assert wit4.condition == WallCondition.BM_SUM
        x, y = wit4.vectors
        v4 = wit4.against
        assert v4.norm() == 6
        assert tuple(a + b for a, b in zip(x.coords, y.coords)) == v4.coords
        for part in (x, y):
            assert part.norm() >= 0
            assert part.inner(v4) > 0
        info["msg"] = (
            "square -36 div 4 at n=3 recomputes a root with w^2=-2, (w,v)=1; "
            "square -6 div 2 at n=4 recomputes a decomposition with both "
            "parts in the positive sector"
        )


# --------------------------------------------------------------- criterion 7


_U_PARTNER = {0: 1, 1: 0, 2: 3, 3: 2}


def random_transvection(lattice, rng):
    k = rng.choice((0, 1, 2, 3))
    e = basis23({k: 1})[: lattice.rank]
    while True:
        a = [rng.randint(-2, 2) for _ in range(lattice.rank)]
        a[_U_PARTNER[k]] = 0
        if any(a):
            break
    return eichler_transvection(lattice, e, tuple(a))


def apply_matrix(mat, coords):
    n = len(coords)
    return tuple(sum(mat[i][j] * coords[j] for j in range(n)) for i in range(n))


def random_primitive(lattice, rng):
    while True:
        coords = tuple(rng.randint(-3, 3) for _ in range(lattice.rank))
        v = lattice.vector(coords)
        if v.is_primitive():
            return coords


def test_acceptance_7_orbit_invariance(capsys):
    with criterion(capsys, 7) as info:
        rng = random.Random(70)
        applied = 0
        samples = []
        for n in (2, 3, 5):
            ctx = make_context(n)
            lat = ctx.ambient
            starts = [tuple(ctx.delta.coords)] + [
                random_primitive(lat, rng) for _ in range(5)
            ]
            for start in starts:
                base = eichler_invariants(ctx, start)
                assert base == parent.eichler_invariants(lat, start)
                coords = start
                history = [coords]
                while applied == 0 or applied % 12:
                    coords = apply_matrix(random_transvection(lat, rng), coords)
                    applied += 1
                    assert eichler_invariants(ctx, coords) == base, (
                        f"invariants drifted at n={n}, start {start}"
                    )
                    history.append(coords)
                applied += 1
                samples.append((ctx, history))
        assert applied >= 200
        # the Smith-form oracle puts each transvection chain in one orbit
        for ctx, history in samples:
            assert all(parent.same_orbit(ctx.ambient, history[0], x) for x in history)
        # distinct invariants separate orbits
        ctx2 = make_context(2)
        assert eichler_invariants(ctx2, basis23({0: 1, 1: -1})) != eichler_invariants(
            ctx2, ctx2.delta
        )
        info["msg"] = (
            f"{applied} transvections across n in {{2,3,5}} preserved "
            "(square, div, disc class), as the Smith-form oracle also finds"
        )


# --------------------------------------------------------------- criterion 8


def test_acceptance_8_golden_chamber(capsys):
    with criterion(capsys, 8) as info:
        P = picard(2, [[2, 0], [0, -2]], [{0: 1, 1: 1}, {22: 1}], omega=(2, -1))
        types = enumerate_wall_types(P.ctx)
        report = supporting_walls_report(P, (2, -1), types)
        walls = {
            (tuple(w.D.coords), w.wall_type.square, w.wall_type.div)
            for w in report.walls
        }
        assert walls == {((0, 1), -2, 2), ((2, -3), -10, 2)}
        assert report.exact is True
        rays = extremal_rays(report)
        assert {r.square for r in rays} == {Fraction(-1, 2), Fraction(-5, 2)}
        info["msg"] = (
            "chamber of 2H - delta at n=2 is cut by the tail wall and "
            "2H - 3 delta; ray squares {-1/2, -5/2}"
        )


# --------------------------------------------------------------- criterion 9


def box_walls_between(P, alpha, beta, types, box):
    by_square = {}
    for t in types:
        by_square.setdefault(t.square, set()).add(t.div)
    hits = set()
    for coords in itertools.product(range(-box, box + 1), repeat=P.pic.rank):
        if not any(coords) or gcd(*coords) != 1:
            continue
        s = P.pic.norm(coords)
        if s not in by_square:
            continue
        pa = P.pic.inner(coords, alpha)
        pb = P.pic.inner(coords, beta)
        if pa < 0:
            coords = tuple(-c for c in coords)
            pa, pb = -pa, -pb
        if not (pa > 0 and pb < 0):
            continue
        if P.div_of(coords) in by_square[s]:
            hits.add(coords)
    return hits


def rank2_pic(n):
    return picard(n, [[2, 0], [0, -(2 * n - 2)]], [{0: 1, 1: 1}, {22: 1}])


def rank3_pic(n):
    return picard(
        n,
        [[0, 1, 0], [1, 0, 0], [0, 0, -(2 * n - 2)]],
        [{0: 1}, {1: 1}, {22: 1}],
    )


def sample_positive_pair(P, rng, rank):
    while True:
        if rank == 2:
            a = (rng.randint(1, 12), rng.randint(-6, 6))
            b = (rng.randint(1, 12), rng.randint(-6, 6))
        else:
            a = (rng.randint(1, 8), rng.randint(1, 8), rng.randint(-4, 4))
            b = (rng.randint(1, 8), rng.randint(1, 8), rng.randint(-4, 4))
        if P.pic.norm(a) < 4 or P.pic.norm(b) < 4:
            continue
        if P.pic.inner(a, b) <= 0:
            continue
        return a, b


def test_acceptance_9_oracle_equivalence(capsys):
    with criterion(capsys, 9) as info:
        rng = random.Random(90)
        t0 = time.monotonic()
        pairs = 0
        for n in (2, 3, 4):
            types = enumerate_wall_types(make_context(n))
            for rank in (2, 3):
                P = rank2_pic(n) if rank == 2 else rank3_pic(n)
                for _ in range(5):
                    alpha, beta = sample_positive_pair(P, rng, rank)
                    found = {
                        tuple(w.D.coords)
                        for w in walls_between(P, alpha, beta, types)
                        if max(abs(c) for c in w.D.coords) <= 12
                    }
                    oracle = box_walls_between(P, alpha, beta, types, box=12)
                    assert found == oracle, (
                        f"disagreement at n={n}, rank {rank}, {alpha}->{beta}: "
                        f"{found ^ oracle}"
                    )
                    pairs += 1
        elapsed = time.monotonic() - t0
        assert pairs == 30
        assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"
        info["msg"] = (
            f"walls_between matches the height-12 box brute force on 30 "
            f"pairs (n in {{2,3,4}}, ranks 2-3) in {elapsed:.1f}s; "
            "zero discrepancies"
        )


# -------------------------------------------------------------- criterion 10


def test_acceptance_10_e8_root_count(capsys):
    with criterion(capsys, 10) as info:
        roots = short_vectors(standard_lattice("E8(-1)"), -2)
        assert len(roots) == 240
        assert all(v.norm() == -2 for v in roots)
        info["msg"] = "E8(-1) contains exactly 240 classes of square -2"


# -------------------------------------------------------------- criterion 11


def test_acceptance_11_candidate_vs_certified(capsys):
    with criterion(capsys, 11) as info:
        n = 5
        ctx = make_context(n)
        P = picard(n, [[4, 0], [0, -8]], [{0: 1, 1: 2}, {22: 1}], omega=(7, -2))
        certified = certified_wall_types(ctx)
        candidates = enumerate_wall_types(ctx)
        dropped = set(candidates) - set(certified)
        assert {(t.square, t.div) for t in dropped} == {(-4, 1)}

        ray_class = (1, -1)
        square = P.pic.norm(ray_class)
        assert square == -4
        assert P.div_of(ray_class) == 1
        # passes the numerical bound (it sits exactly on it) ...
        assert ht_bound_ok(n, square)
        assert square == -Fraction(n + 3, 2) * 1
        # ... yet carries no wall certificate
        assert wall_test(ctx, P.embed.apply(ray_class)) is None
        # and is absent from the computed nef-side chamber
        walls = supporting_walls_report(P, (7, -2), certified).walls
        assert all(tuple(w.D.coords) != ray_class for w in walls)
        assert all(
            (w.wall_type.square, w.wall_type.div) != (-4, 1) for w in walls
        )
        assert not in_dual_cone(P, walls, ray_class)

        code = cli.main(["tabulate", "--n", "5", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        assert "candidates" in captured.err
        code = cli.main(["tabulate", "--n", "5", "--format", "json"])
        captured = capsys.readouterr()
        assert "note" in json.loads(captured.out)
        info["msg"] = (
            "at n=5 the class H - delta (square -4, div 1) passes the ray "
            "bound but supports no wall and bounds no chamber facet; the "
            "CLI prints the candidate caveat"
        )

"""Machine-checked fixtures: frozen worked examples with a recomputing verifier.

Each fixture is a JSON payload under ``wallkit/fixtures/`` holding expected
values together with an ``origin`` string saying how every number was
obtained (hand arithmetic from the Gram matrices, exhaustive enumeration,
exact chamber search).  The verifier never trusts the payload: it rebuilds
the lattices, reruns the wall tests and chamber searches from scratch, and
compares.  Reports are available as JSON, JUnit XML, or plain text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import _linalg as la
from . import chambers as cg
from . import walls as wl
from .errors import InputError, OnWallError
from .formats import frac_str, parse_chamber_query, parse_frac
from .lattice import divisibility
from .walls import WallType, make_context

FIXTURE_ORDER = (
    "delta",
    "minus_two_curve",
    "p2",
    "pn",
    "pn1_bundle",
    "n4_div2",
    "bm2_nef",
    "tables",
)


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class Assertion:
    name: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class FixtureReport:
    fixture: str
    assertions: tuple[Assertion, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    @property
    def failures(self) -> int:
        return sum(1 for a in self.assertions if not a.passed)


def _show(x) -> str:
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(_show(c) for c in x) + ")"
    return str(x)


class _Recorder:
    """Collects named expected/actual pairs for one fixture."""

    def __init__(self):
        self.items: list[Assertion] = []

    def add(self, name, expected, actual):
        self.items.append(
            Assertion(name, _show(expected), _show(actual), expected == actual)
        )

    def true(self, name, actual):
        self.items.append(Assertion(name, "True", _show(bool(actual)), bool(actual)))


# ------------------------------------------------------------ fixture access


def list_fixtures() -> list[str]:
    return list(FIXTURE_ORDER)


def load_fixture(name: str) -> dict:
    if name not in FIXTURE_ORDER:
        raise InputError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_ORDER)}")
    path = resources.files("wallkit").joinpath("fixtures", f"{name}.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ helpers


def _basis_coords(rank: int, entries: dict[int, int]) -> tuple[int, ...]:
    out = [0] * rank
    for i, c in entries.items():
        out[i] = c
    return tuple(out)


_U_PARTNER = {0: 1, 1: 0, 2: 3, 3: 2}


def _random_transvection_image(lattice, coords, rng) -> tuple[int, ...]:
    """Apply a random hyperbolic-plane transvection; returns new coordinates."""
    k = rng.choice((0, 1, 2, 3))
    e = _basis_coords(lattice.rank, {k: 1})
    while True:
        a = [rng.randint(-2, 2) for _ in range(lattice.rank)]
        a[_U_PARTNER[k]] = 0
        if any(a):
            break
    mat = wl.eichler_transvection(lattice, e, tuple(a))
    return la.mat_vec(mat, coords)


def _wall_key(w: cg.Wall):
    return (tuple(w.D.coords), w.wall_type.square, w.wall_type.div)


def _witness_checks(rec, suffix, ctx, D, condition, pairing=None):
    """Record the wall test of D: its condition, its pairing data when
    `pairing` is given, and the witness's own recheck.  Returns the witness."""
    wit = wl.wall_test(ctx, D)
    rec.add(f"condition{suffix}", condition, wit.condition.value if wit else None)
    if pairing is not None:
        rec.add(f"pairing{suffix}", tuple(pairing), wit.pairing_data if wit else None)
    rec.true(f"witness-recheck{suffix}", wit is not None and wit.check())
    return wit


# ----------------------------------------------------------------- checkers


def _check_delta(fx: dict, rec: _Recorder, seed: int) -> None:
    for case in fx["cases"]:
        n = case["n"]
        tag = f"n={n}"
        ctx = make_context(n)
        d = ctx.delta
        dv = divisibility(ctx.ambient, d.coords)
        rec.add(f"square[{tag}]", case["square"], d.norm())
        rec.add(f"div[{tag}]", case["div"], dv)
        _witness_checks(rec, f"[{tag}]", ctx, d, case["condition"], case["pairing"])
        q = Fraction(d.norm(), dv * dv) % 2  # q([delta/div]) in Q/2Z
        rec.add(f"disc-form-value[{tag}]", parse_frac(case["disc_q"]), q)

        rng = random.Random(seed * 1000 + n)
        base = wl.eichler_invariants(ctx, d)
        moved = d.coords
        for _ in range(fx["transvection_trials"]):
            moved = _random_transvection_image(ctx.ambient, moved, rng)
        after = wl.eichler_invariants(ctx, moved)
        rec.add(
            f"transvection-invariants[{tag}]",
            (base.square, base.div, base.disc),
            (after.square, after.div, after.disc),
        )
        rec.true(f"orbit-after-transvections[{tag}]", base == after)
        root = _basis_coords(ctx.ambient.rank, {0: 1, 1: -1})
        rec.add(f"orbit-vs-div1-root[{tag}]", False, base == wl.eichler_invariants(ctx, root))


def _check_minus_two_curve(fx: dict, rec: _Recorder, seed: int) -> None:
    for n in fx["n_values"]:
        tag = f"n={n}"
        ctx = make_context(n)
        D = _basis_coords(ctx.ambient.rank, {0: 1, 1: -1})
        rec.add(f"square[{tag}]", -2, ctx.ambient.norm(D))
        rec.add(f"div[{tag}]", 1, divisibility(ctx.ambient, D))
        _witness_checks(rec, f"[{tag}]", ctx, D, fx["condition"])
        rec.add(f"dual-ray-is-self[{tag}]", tuple(Fraction(c) for c in D), wl.dual_ray(ctx, D))
        types = wl.enumerate_wall_types(ctx)
        rec.true(f"type-in-table[{tag}]", WallType(-2, 1) in types)
        inv = wl.eichler_invariants(ctx, D)
        rec.add(f"disc-class-trivial[{tag}]", tuple(0 for _ in inv.disc), inv.disc)
        other = _basis_coords(ctx.ambient.rank, {2: 1, 3: -1})
        rec.true(f"orbit-of-second-root[{tag}]", inv == wl.eichler_invariants(ctx, other))


def _chamber_case(case: dict, rec: _Recorder, tag: str, certified: bool):
    """Check one frozen chamber; return its Picard data and support report."""
    query = parse_chamber_query(case)
    P = query["P"]
    ctx, omega = P.ctx, P.omega_ref
    types = wl.certified_wall_types(ctx) if certified else wl.enumerate_wall_types(ctx)
    rep = cg.supporting_walls_report(P, omega, types, search_bound=query["bound"])
    expected_walls = {
        (tuple(w["D"]), w["square"], w["div"]) for w in case["supporting"]
    }
    rec.add(f"supporting-walls[{tag}]", expected_walls, {_wall_key(w) for w in rep.walls})
    rec.add(f"exact[{tag}]", case["exact"], rep.exact)
    cert_by_D = {tuple(w["D"]): tuple(w["certificate"]) for w in case["supporting"]}
    for w in rep.walls:
        want = cert_by_D.get(tuple(w.D.coords))
        rec.add(f"certificate[{tag}][D={w.D.coords}]", want, w.certificate)
    rays = cg.extremal_rays(rep)
    expected_rays = {
        (tuple(parse_frac(c) for c in r["coords"]), parse_frac(r["square"]))
        for r in case["rays"]
    }
    rec.add(
        f"rays[{tag}]",
        expected_rays,
        {(tuple(r.coords), r.square) for r in rays},
    )
    for r in rays:
        rec.true(f"ray-meets-dual-bound[{tag}][{_show(r.coords)}]", wl.ht_bound_ok(ctx.n, r.square))
    rec.true(f"reference-in-dual-cone[{tag}]", cg.in_dual_cone(P, rep.walls, omega))
    if len(rep.walls) >= 2:
        interior = tuple(
            sum(Fraction(w.certificate[i]) for w in rep.walls)
            for i in range(P.pic.rank)
        )
        rec.true(f"certificate-sum-in-dual-cone[{tag}]", cg.in_dual_cone(P, rep.walls, interior))
    return P, rep


def _check_p2(fx: dict, rec: _Recorder, seed: int) -> None:
    case = fx["chamber"]
    P = parse_chamber_query(case)["P"]
    ctx = P.ctx
    D = tuple(fx["wall_class"])
    rec.add("square", fx["square"], P.pic.norm(D))
    img = P.embed.apply(D)
    rec.add("div-in-ambient", fx["div"], divisibility(ctx.ambient, img.coords))
    _witness_checks(rec, "", ctx, img, fx["condition"], fx["pairing"])
    rec.true("type-in-table", WallType(fx["square"], fx["div"]) in wl.enumerate_wall_types(ctx))

    # Dual-ray bookkeeping: (2H-3d)/2 = H - (3/2) d = H - 3 (d/2), and d/2
    # is the dual ray of d itself, so the half factor is consistent.
    dual = tuple(Fraction(c, fx["div"]) for c in D)
    delta_dual = wl.dual_ray(ctx, ctx.delta.coords)
    delta_pic = tuple(fx["delta_in_pic"])
    delta_dual_pic = tuple(Fraction(c, divisibility(ctx.ambient, ctx.delta.coords)) for c in delta_pic)
    combo = tuple(Fraction(1) * h - 3 * dd for h, dd in zip(tuple(fx["h_in_pic"]), delta_dual_pic))
    rec.add("dual-ray-half-factor", combo, dual)
    rec.true("delta-dual-integral-pairings", all(
        x.denominator == 1 for x in la.mat_vec(ctx.ambient.gram, delta_dual)
    ))

    _, rep = _chamber_case(case, rec, "chamber", certified=False)

    omega = P.omega_ref
    alpha = tuple(Fraction(c) for c in omega)
    refl = tuple(parse_frac(c) for c in fx["reflected_reference"])
    between = cg.walls_between(P, alpha, refl, wl.enumerate_wall_types(ctx))
    rec.add(
        "walls-between-reflection",
        {(tuple(D), fx["square"], fx["div"])},
        {_wall_key(w) for w in between},
    )
    other = tuple(parse_frac(c) for c in fx["opposite_side_reference"])
    between2 = cg.walls_between(P, alpha, other, wl.enumerate_wall_types(ctx))
    rec.add(
        "walls-between-delta-side",
        {((0, 1), -2, 2)},
        {_wall_key(w) for w in between2},
    )
    rec.add("walls-between-self", [], cg.walls_between(P, alpha, alpha, wl.enumerate_wall_types(ctx)))

    try:
        cg.supporting_walls_report(P, tuple(fx["on_wall_reference"]), wl.enumerate_wall_types(ctx))
        rec.true("on-wall-rejected", False)
    except OnWallError as exc:
        named = exc.wall
        rec.true(
            "on-wall-rejected",
            named is not None
            and named.wall_type.square == -2
            and named.wall_type.div == 2
            and tuple(named.D.coords) in {(0, 1), (0, -1)},
        )

    rec.add("boundary-class-dual-cone", False, cg.in_dual_cone(P, rep.walls, tuple(fx["h_in_pic"])))
    rec.true("reference-is-positive", cg.is_positive_class(P, omega))
    rec.add("negated-reference-positive", False, cg.is_positive_class(P, tuple(-c for c in omega)))
    rec.add("isotropic-class-positive", False, cg.is_positive_class(P, tuple(fx["isotropic_class"])))


def _check_pn(fx: dict, rec: _Recorder, seed: int) -> None:
    for case in fx["cases"]:
        n = case["n"]
        tag = f"n={n}"
        ctx = make_context(n)
        D = _basis_coords(ctx.ambient.rank, {0: 2, 1: -2, 22: -1})
        dv = divisibility(ctx.ambient, D)
        sq = ctx.ambient.norm(D)
        rec.add(f"square[{tag}]", case["square"], sq)
        rec.add(f"square-formula[{tag}]", -(2 * n + 6), sq)
        rec.add(f"div[{tag}]", 2, dv)
        ray_sq = Fraction(sq, dv * dv)
        rec.add(f"ray-square[{tag}]", -Fraction(n + 3, 2), ray_sq)
        rec.true(f"ray-meets-dual-bound[{tag}]", wl.ht_bound_ok(n, ray_sq))
        rec.add(f"bound-is-sharp[{tag}]", False, wl.ht_bound_ok(n, ray_sq - Fraction(1, 1000)))
        _witness_checks(rec, f"[{tag}]", ctx, D, fx["condition"], (-2, n - 1))
        rec.true(f"type-in-table[{tag}]", WallType(sq, dv) in wl.enumerate_wall_types(ctx))


def _check_pn1_bundle(fx: dict, rec: _Recorder, seed: int) -> None:
    for case in fx["cases"]:
        n, sq, dv = case["n"], case["square"], case["div"]
        tag = f"n={n}"
        ctx = make_context(n)
        exists, witness_class = wl.wall_type_exists(ctx, sq, dv)
        rec.true(f"type-exists[{tag}]", exists and witness_class is not None)
        rec.add(f"witness-square[{tag}]", sq, witness_class.norm())
        rec.add(f"witness-div[{tag}]", dv, divisibility(ctx.ambient, witness_class.coords))
        wit = _witness_checks(
            rec, f"[{tag}]", ctx, witness_class, case["condition"], case["pairing"]
        )
        if wit is not None and wit.condition is wl.WallCondition.BM_BOUNDED_ROOT:
            (w,) = wit.vectors
            v = wit.against
            rec.add(f"root-square[{tag}]", -2, w.norm())
            rec.true(f"pairing-strictly-interior[{tag}]", 0 < w.inner(v) < Fraction(v.norm(), 2))
        rec.true(f"type-in-table[{tag}]", WallType(sq, dv) in wl.enumerate_wall_types(ctx))


def _check_n4_div2(fx: dict, rec: _Recorder, seed: int) -> None:
    n, sq, dv = fx["n"], fx["square"], fx["div"]
    ctx = make_context(n)
    rec.add("mukai-square", 2 * n - 2, ctx.v.norm())
    exists, witness_class = wl.wall_type_exists(ctx, sq, dv)
    rec.true("type-exists", exists and witness_class is not None)
    wit = _witness_checks(rec, "", ctx, witness_class, fx["condition"], fx["pairing"])
    if wit is not None and wit.condition is wl.WallCondition.BM_SUM:
        w, t = wit.vectors
        v = wit.against
        for label, part in (("first", w), ("second", t)):
            rec.true(f"{label}-part-nonnegative-square", part.norm() >= 0)
            rec.true(f"{label}-part-positive-pairing", part.inner(v) > 0)
        rec.add("parts-sum-to-distinguished-class", tuple(v.coords), tuple(a + b for a, b in zip(w.coords, t.coords)))
    rec.true("type-in-table", WallType(sq, dv) in wl.enumerate_wall_types(ctx))


def _check_bm2_nef(fx: dict, rec: _Recorder, seed: int) -> None:
    checked = {}
    for case in fx["chambers"]:
        n = case["n"]
        d = fx["d"]
        tag = f"d={d},n={n}"
        checked[n] = _chamber_case(case, rec, tag, certified=case["certified"])
        # The certificates are the nef-cone edges: H itself and
        # (d+n) H - 2d delta (proportional to H - 2d/(d+n) delta).
        edges = {tuple(w["certificate"]) for w in case["supporting"]}
        rec.add(f"nef-edges[{tag}]", {(1, 0), (d + n, -2 * d)}, edges)

    neg = fx["negative"]
    n = neg["n"]
    ctx = make_context(n)
    candidates = wl.enumerate_wall_types(ctx)
    certified = wl.certified_wall_types(ctx)
    dropped = {(t.square, t.div) for t in candidates} - {(t.square, t.div) for t in certified}
    rec.add("uncertified-candidates", {tuple(x) for x in neg["dropped_types"]}, dropped)

    # the chamber at the negative control's n uses the certified types
    P, rep = checked[n]
    Rp = tuple(neg["ray_class"])
    sq = P.pic.norm(Rp)
    img = P.embed.apply(Rp)
    dv = divisibility(ctx.ambient, img.coords)
    rec.add("stray-ray-square", neg["square"], sq)
    rec.add("stray-ray-div", neg["div"], dv)
    ray_sq = Fraction(sq, dv * dv)
    rec.add("stray-ray-at-dual-bound", -Fraction(n + 3, 2), ray_sq)
    rec.true("stray-ray-passes-dual-bound", wl.ht_bound_ok(n, ray_sq))
    rec.true("stray-type-is-candidate", WallType(sq, dv) in candidates)
    rec.add("stray-type-certified", False, WallType(sq, dv) in certified)
    exists, witness_class = wl.wall_type_exists(ctx, sq, dv)
    rec.true("stray-class-exists-in-lattice", exists)
    rec.add("stray-class-wall-test", None, wl.wall_test(ctx, witness_class))

    rec.add(
        "stray-type-among-supporting",
        False,
        WallType(sq, dv) in {w.wall_type for w in rep.walls},
    )
    rec.add("stray-ray-in-dual-cone", False, cg.in_dual_cone(P, rep.walls, Rp))
    rays = cg.extremal_rays(rep)
    r1, r2 = rays[0].coords, rays[1].coords
    det = r1[0] * r2[1] - r1[1] * r2[0]
    a = (Fraction(Rp[0]) * r2[1] - Fraction(Rp[1]) * r2[0]) / det
    b = (r1[0] * Fraction(Rp[1]) - r1[1] * Fraction(Rp[0])) / det
    rec.add("stray-ray-combination", tuple(parse_frac(c) for c in neg["combination"]), (a, b))
    rec.true("stray-ray-outside-ray-cone", min(a, b) < 0)


def _check_tables(fx: dict, rec: _Recorder, seed: int) -> None:
    for case in fx["tables"]:
        n = case["n"]
        tag = f"n={n}"
        ctx = make_context(n)
        rows = wl.enumerate_wall_types(ctx)
        expected = {
            (parse_frac(r["ray_square"]), r["square"], r["div"]) for r in case["rows"]
        }
        rec.add(f"rows[{tag}]", expected, {(t.ray_square, t.square, t.div) for t in rows})
        rec.add(f"row-count[{tag}]", len(case["rows"]), len(rows))
        rec.add(f"certified-equals-candidates[{tag}]", True, wl.certified_wall_types(ctx) == rows)


_CHECKERS = {
    "delta": _check_delta,
    "minus_two_curve": _check_minus_two_curve,
    "p2": _check_p2,
    "pn": _check_pn,
    "pn1_bundle": _check_pn1_bundle,
    "n4_div2": _check_n4_div2,
    "bm2_nef": _check_bm2_nef,
    "tables": _check_tables,
}


# ------------------------------------------------------------------- driver


def verify_fixture(name: str, seed: int = 0) -> FixtureReport:
    fx = load_fixture(name)
    rec = _Recorder()
    _CHECKERS[name](fx, rec, seed)
    return FixtureReport(fixture=name, assertions=tuple(rec.items))


# ------------------------------------------------------------------ emission


def report_json(reports) -> dict:
    return {
        "fixtures": [
            {
                "name": r.fixture,
                "passed": r.passed,
                "assertions": [
                    {
                        "name": a.name,
                        "expected": a.expected,
                        "actual": a.actual,
                        "passed": a.passed,
                    }
                    for a in r.assertions
                ],
            }
            for r in reports
        ],
        "total": sum(len(r.assertions) for r in reports),
        "failures": sum(r.failures for r in reports),
    }


def report_junit(reports) -> str:
    from xml.etree import ElementTree as ET  # only JUnit reports need it

    total = sum(len(r.assertions) for r in reports)
    failures = sum(r.failures for r in reports)
    suites = ET.Element(
        "testsuites", tests=str(total), failures=str(failures), errors="0"
    )
    for r in reports:
        suite = ET.SubElement(
            suites,
            "testsuite",
            name=f"wallkit.fixtures.{r.fixture}",
            tests=str(len(r.assertions)),
            failures=str(r.failures),
            errors="0",
        )
        for a in r.assertions:
            case = ET.SubElement(
                suite, "testcase", classname=f"fixtures.{r.fixture}", name=a.name
            )
            if not a.passed:
                ET.SubElement(
                    case,
                    "failure",
                    message=f"expected {a.expected}, got {a.actual}",
                )
    ET.indent(suites)
    return ET.tostring(suites, encoding="unicode", xml_declaration=True) + "\n"


def report_text(reports) -> str:
    lines = []
    for r in reports:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.fixture}: {verdict} ({len(r.assertions)} checks)")
        for a in r.assertions:
            if not a.passed:
                lines.append(f"  FAIL {a.name}: expected {a.expected}, got {a.actual}")
    total = sum(len(r.assertions) for r in reports)
    failures = sum(r.failures for r in reports)
    lines.append(f"total: {total} checks, {failures} failures")
    return "\n".join(lines) + "\n"

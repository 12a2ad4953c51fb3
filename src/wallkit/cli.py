"""Command-line interface.

Subcommands and the flags each one reads
----------------------------------------
tabulate   wall-type rows for one n
           --n, --format (json / csv / table), --certified, --quiet
wall-test  decide whether a class or a (square, div) type supports a wall
           --n, --format (json / table), --input, --quiet
orbit      compare two primitive classes under the stable orthogonal group
           O~+(L_n), by Eichler's criterion (not under every isometry)
           --n, --format (json / table), --input, --quiet
chamber    supporting walls, certificates, and dual rays for a Picard query
           --format (json / table), --input, --quiet; the search bound is
           the query's optional "bound" key (default 12)
verify     recompute every shipped fixture and emit a report
           --format (json / junit / table), --fixture, --seed

--quiet: tabulate and chamber drop the n >= 5 caveat line (tabulate prints
it on stdout for table output, on stderr for csv) and a json payload keeps
its "note" key; wall-test and orbit print nothing, the exit code answers.

Exit codes: 0 success / detected / same orbit / all fixtures pass;
1 not detected / different orbit / fixture failures; 2 bad input,
configuration, or enumeration budget; 3 reference class exactly on a wall
(the wall is named on stderr); 4 internal error (a broken invariant, a bug
in wallkit rather than bad input).

The environment variable WALLKIT_MAX_CELLS caps enumeration work (default
10^8 lattice cells) so oversized queries fail fast instead of hanging.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, chambers as cg, formats as fmt, walls as wl
from .errors import (
    ConfigurationError,
    EnumerationBudgetExceeded,
    InputError,
    InternalError,
    OnWallError,
)
from .lattice import divisibility

CAVEAT = (
    "note: for n >= 5 the rows are candidates (an upper bound); "
    "types without a wall certificate may be spurious"
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_ON_WALL = 3
EXIT_INTERNAL = 4


_FLAGS = {
    "--n": dict(type=int, required=True, help="family parameter, n >= 2"),
    "--input": dict(help="inline JSON or a path to a JSON file (command-specific payload)"),
    "--certified": dict(
        action="store_true",
        help="restrict to types carrying a verified wall certificate",
    ),
    "--fixture": dict(help="verify a single fixture by name"),
    "--seed": dict(type=int, default=0, help="seed for randomized checks (default: 0)"),
}


# One parser per process: parse_args keeps no state between calls.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wallkit",
        description="Exact wall-and-chamber computations for the K3^[n] lattice family.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags, formats=("json", "table"), quiet=None):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument(
            "--format",
            choices=formats,
            default="table",
            help="output format (default: table)",
        )
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        if quiet:
            sp.add_argument("--quiet", action="store_true", help=quiet)

    caveat_only = "drop the n >= 5 caveat line; json output keeps its note"
    silent = "print nothing; the exit code is the answer"
    command("tabulate", "list wall types for one n", "--n", "--certified",
            formats=("json", "csv", "table"), quiet=caveat_only)
    command("wall-test", "test a class or a (square, div) type", "--n", "--input",
            quiet=silent)
    command("orbit", "compare two primitive classes in L_n", "--n", "--input", quiet=silent)
    command("chamber", "chamber report for a Picard query", "--input", quiet=caveat_only)
    command(
        "verify",
        "recompute the shipped fixtures",
        "--fixture",
        "--seed",
        formats=("json", "junit", "table"),
    )
    return p


def _need_input(args) -> object:
    if not args.input:
        raise InputError("this command needs --input (inline JSON or a file path)")
    return fmt.load_json(args.input)


# ----------------------------------------------------------------- tabulate


def cmd_tabulate(args) -> int:
    ctx = wl.make_context(args.n)
    types = wl.certified_wall_types(ctx) if args.certified else wl.enumerate_wall_types(ctx)
    caveat = args.n >= 5 and not args.certified
    if args.format == "json":
        payload = {"n": args.n, "rows": [fmt.wall_type_row(args.n, t) for t in types]}
        if caveat:
            payload["note"] = CAVEAT
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        sys.stdout.write(fmt.types_to_csv(types))
        if caveat and not args.quiet:
            print(CAVEAT, file=sys.stderr)
    else:
        sys.stdout.write(fmt.types_to_table(types))
        if caveat and not args.quiet:
            print(CAVEAT)
    return EXIT_OK


# ---------------------------------------------------------------- wall-test


def cmd_wall_test(args) -> int:
    ctx = wl.make_context(args.n)
    payload = _need_input(args)
    if not isinstance(payload, dict):
        raise InputError("wall-test input must be a JSON object")

    if "coords" in payload:
        coords = fmt.parse_vector(payload, ctx.ambient.rank)
        D = ctx.ambient.vector(coords)
        if not D.is_primitive():
            raise InputError("wall tests take nonzero primitive classes")
        square, div = D.norm(), divisibility(ctx.ambient, coords)
    elif "square" in payload and "div" in payload:
        square = fmt._int(payload["square"])
        div = fmt._int(payload["div"])
        exists, witness_class = wl.wall_type_exists(ctx, square, div)
        if not exists:
            raise InputError(
                f"no primitive class of square {square} and divisibility {div} exists in L_{args.n}"
            )
        D = witness_class
    else:
        raise InputError('wall-test input needs "coords" or "square"+"div"')

    witness = wl.wall_test(ctx, D)
    detected = witness is not None
    result = {
        "n": args.n,
        "class": list(D.coords),
        "square": square,
        "div": div,
        "detected": detected,
    }
    if detected:
        result["witness"] = fmt.witness_to_json(witness)
    if args.quiet:
        pass
    elif args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        verdict = "detected" if detected else "not detected"
        print(f"wall {verdict}: square {square}, div {div}, class {list(D.coords)}")
        if detected:
            print(f"  condition: {witness.condition.value}")
            print(f"  pairing data: {list(witness.pairing_data)}")
    return EXIT_OK if detected else EXIT_NEGATIVE


# -------------------------------------------------------------------- orbit


def cmd_orbit(args) -> int:
    ctx = wl.make_context(args.n)
    payload = _need_input(args)
    if not isinstance(payload, dict) or "v" not in payload or "w" not in payload:
        raise InputError('orbit input needs "v" and "w" coordinate lists')
    v = fmt.parse_vector(payload["v"], ctx.ambient.rank)
    w = fmt.parse_vector(payload["w"], ctx.ambient.rank)
    inv_v = wl.eichler_invariants(ctx, v)
    inv_w = wl.eichler_invariants(ctx, w)
    same = inv_v == inv_w
    result = {
        "n": args.n,
        "v": {"square": inv_v.square, "div": inv_v.div, "disc": list(inv_v.disc)},
        "w": {"square": inv_w.square, "div": inv_w.div, "disc": list(inv_w.disc)},
        "same_orbit": same,
    }
    if args.quiet:
        pass
    elif args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        for name in ("v", "w"):
            r = result[name]
            print(f"{name}: square {r['square']}, div {r['div']}, disc class {tuple(r['disc'])}")
        print("same orbit" if same else "different orbits")
    return EXIT_OK if same else EXIT_NEGATIVE


# ------------------------------------------------------------------ chamber


def cmd_chamber(args) -> int:
    query = fmt.parse_chamber_query(_need_input(args))
    P: cg.PicardData = query["P"]
    ctx = P.ctx
    types = wl.certified_wall_orbits(ctx)
    omega = query["omega"]

    support = cg.supporting_walls_report(P, omega, types, search_bound=query["bound"])
    rays = cg.extremal_rays(support)
    crossed = None
    if query["alpha"] is not None:
        crossed = cg.walls_between(P, query["alpha"], query["beta"], types)

    report = fmt.chamber_report_to_json(omega, support, rays, walls_crossed=crossed)
    report["n"] = ctx.n
    if ctx.n >= 5:
        report["note"] = CAVEAT

    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"n = {ctx.n}, reference = {report['reference']}, "
              f"{'exact' if support.exact else f'complete up to height {support.search_bound}'}")
        for w in support.walls:
            print(f"  wall D={list(w.D.coords)} type (square {w.wall_type.square}, "
                  f"div {w.wall_type.div}) certificate {list(w.certificate or ())}")
        for r in rays:
            coords = "(" + ", ".join(fmt.frac_str(c) for c in r.coords) + ")"
            print(f"  ray {coords} square {fmt.frac_str(r.square)}")
        if crossed is not None:
            for w in crossed:
                print(f"  crossed D={list(w.D.coords)} type (square {w.wall_type.square}, "
                      f"div {w.wall_type.div})")
        if ctx.n >= 5 and not args.quiet:
            print(CAVEAT)
    return EXIT_OK


# ------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    names = [args.fixture] if args.fixture else catalog.list_fixtures()
    reports = [catalog.verify_fixture(name, seed=args.seed) for name in names]
    ok = all(r.passed for r in reports)
    if args.format == "json":
        print(json.dumps(catalog.report_json(reports), indent=2))
    elif args.format == "junit":
        sys.stdout.write(catalog.report_junit(reports))
    else:
        sys.stdout.write(catalog.report_text(reports))
    return EXIT_OK if ok else EXIT_NEGATIVE


_COMMANDS = {
    "tabulate": cmd_tabulate,
    "wall-test": cmd_wall_test,
    "orbit": cmd_orbit,
    "chamber": cmd_chamber,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OnWallError as exc:
        wall = exc.wall
        print(
            f"error: reference class lies on the wall D={list(wall.D.coords)} "
            f"of type (square {wall.wall_type.square}, div {wall.wall_type.div})",
            file=sys.stderr,
        )
        return EXIT_ON_WALL
    except (InputError, ConfigurationError, EnumerationBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

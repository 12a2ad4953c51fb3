"""Regenerate the benchmark's recorded answers under perfbench/data/.

    PYTHONPATH=src python3 perfbench/record.py

Writes base.json (the base inputs every seed moves, with their answers) and
reference-<workload>-seed<k>.json for the recorded seeds.  Run it only when
the expected answers are meant to change; a run takes a few minutes, most
of it the rank-4 chamber query.  Every recorded output must pass the
independent checks before it is written.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import wallkit
import wallkit.cli  # noqa: F401
import workloads as wk
from checks import RECORDED_SEEDS, Checker, reference_path, summary
from worker import cli_runner, setup, walls_between_runner

POOL_SEED = 2024
POOL_PER_N = 10
POOL_BOUNDS = (3, 4)

# ROADMAP baseline queries at n = 3: (rank, omega, bound).  The bound is one
# at which doubling it leaves the wall set unchanged.
FIXED = ((4, ("7", "4", "1/3", "1/4"), 4),)


def _cli_json(argv):
    out = cli_runner(wallkit, argv)()
    return out["code"], (json.loads(out["out"]) if out["code"] == 0 else None)


def _chamber(n, gram, cols, omega, bound):
    query = wk.chamber_query(n, gram, cols, omega, bound)
    code, report = _cli_json(["chamber", "--format", "json", "--input", json.dumps(query)])
    if code != 0:
        return None
    walls = sorted([w["D"], w["square"], w["div"]] for w in report["supporting"])
    rays = sorted([r["coords"], r["square"]] for r in report["rays"])
    return {"walls": walls, "rays": rays, "exact": report["exact"]}


def chamber_pool():
    """Rank-3 reference classes whose walls do not change when B doubles."""
    rng = random.Random(POOL_SEED)
    pool = []
    for n in wk.CHAMBER_NS:
        gram, cols = wk.rank3_lattice(n)
        found = 0
        while found < POOL_PER_N:
            omega = [Fraction(rng.randint(10, 60), rng.randint(5, 9)),
                     Fraction(rng.randint(10, 60), rng.randint(5, 9)),
                     Fraction(rng.randint(-20, 20), rng.randint(7, 13))]
            if wk.pair(gram, omega, omega) <= 0:
                continue
            for bound in POOL_BOUNDS:
                answer = _chamber(n, gram, cols, omega, bound)
                if answer is None or not answer["walls"]:
                    break
                if answer == _chamber(n, gram, cols, omega, 2 * bound):
                    pool.append({"n": n, "omega": [wk.frac(c) for c in omega], "bound": bound,
                                 **answer})
                    found += 1
                    break
    return pool


def main() -> None:
    base = {"segment": [], "chamber_pool": chamber_pool(), "chamber_fixed": [], "tables": []}
    for n, rank, alpha, beta in wk.acceptance9_pairs():
        gram, cols = (wk.rank2_lattice if rank == 2 else wk.rank3_lattice)(n)
        op = {"n": n, "gram": gram, "embed": wk.embed_rows(cols), "alpha": alpha, "beta": beta}
        walls = walls_between_runner(wallkit, op)()["walls"]
        base["segment"].append(dict(n=n, rank=rank, alpha=alpha, beta=beta, walls=sorted(walls)))
    for rank, omega, bound in FIXED:
        gram, cols = wk.rank4_lattice()
        answer = _chamber(3, gram, cols, [Fraction(c) for c in omega], bound)
        base["chamber_fixed"].append({"rank": rank, "omega": list(omega), "bound": bound, **answer})
    for n in range(2, wk.TABLES_MAX_N + 1):
        _, report = _cli_json(["tabulate", "--n", str(n), "--certified", "--format", "json"])
        base["tables"].append({"n": n, "rows": report["rows"]})
    wk.BASE_PATH.parent.mkdir(exist_ok=True)
    wk.BASE_PATH.write_text(json.dumps(base, indent=1) + "\n")

    for workload in wk.WORKLOADS:
        for seed in RECORDED_SEEDS:
            ops = wk.make_ops(workload, seed, base)
            checker = Checker(wallkit, workload, None, base)
            recorded = {}
            for op, run in zip(ops, setup(wallkit, workload, ops)):
                output = run()
                problems = checker.check(op, output)
                if problems:
                    raise SystemExit(f"{workload} seed {seed} {op['id']}: {problems}")
                recorded[op["query"]] = summary(op, output)
            reference_path(workload, seed).write_text(json.dumps(recorded, indent=1) + "\n")
            print(f"recorded {workload} seed {seed}: {len(ops)} ops")


if __name__ == "__main__":
    main()

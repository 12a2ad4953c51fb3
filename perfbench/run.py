"""wallkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload chamber|segment|tables --seed N \
        --seconds S --trace 0|1

Run from the root of a wallkit checkout; wallkit is imported from ./src.

--trace 0 measures the end-to-end metrics.  The measuring process asks
every query once, then asks the repeated queries (all but those that take
half a second or more) again in turn, one op at a time, until the next call
would end after S seconds.  A timer signal runs a fixed calibration
(calibrate.py) every 0.125 s, and each call's wall time is scaled to
reference seconds by how fast the calibration ran around it, so that a
slow spell of a shared host does not move the figures.  A query's time
is the median of its scaled calls in the run.  run_s is the sum of the
query times, the time to solve the batch once; op_s_p50 is their median,
and op_s_tail the query time with exactly ten queries above it.  setup_s
is timed in SETUP_SAMPLES fresh processes plus the measuring one, from
just before the interpreter starts to the first timed op, scaled the same
way; the median is reported.  peak_rss_mb is the measuring process's
maximum resident set size.  Raw wall-clock figures are printed and written
next to the scaled ones.

--trace 1 asks every query once untraced and once traced, in two fresh
processes, and reports the per-layer metrics of the traced pass, plus
trace.overhead_ratio, the traced pass's raw op time over the untraced one's.
The span tree is written to .bench_out/.

Every output is checked (checks.py); the last line printed is
{"correct", "attempted", "failed", "metrics"}.  Lines before it give the
metrics by name with units, failed_frac, the tail percentile, the Python
version, nproc and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 4
TAIL_ABOVE = 10
WORKER_TIMEOUT_S = 170

END_TO_END = [
    ("run_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # measure the default program: its asserts on, its default cell cap
    env.pop("PYTHONOPTIMIZE", None)
    env.pop("WALLKIT_MAX_CELLS", None)
    return env


def _spawn(job: dict) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    job = dict(job, t_spawn=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=_worker_env(),
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the op time with exactly TAIL_ABOVE samples above it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_ABOVE:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_ABOVE - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def check_outputs(checker, ops, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every call of a worker result."""
    problems = []
    attempted = failed = 0
    for op, output, digests in zip(ops, result["outputs"], result["digests"]):
        attempted += len(digests)
        found = checker.check(op, output)
        if found:
            failed += len(digests)
            problems.append(f"{op['id']}: {'; '.join(found)}")
            continue
        differ = sum(d != digests[0] for d in digests)
        if differ:
            failed += differ
            problems.append(f"{op['id']}: {differ} later calls differ from the first")
    return attempted, failed, problems


def end_to_end(result: dict, ops: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """Metrics over query times in reference seconds (calibrate.py).

    A query's time is the median of its scaled calls in the run.
    """
    query_s = [statistics.median(ts) for ts in result["scaled"]]
    tail_s, tail_pct = tail(query_s)
    values = {
        "run_s": sum(query_s),
        "op_s_p50": statistics.median(query_s),
        "op_s_tail": tail_s,
        "setup_s": statistics.median(r["setup_scaled_s"] for r in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw_s = [statistics.median(ts) for ts in result["times"]]
    info = {
        "calls": sum(len(ts) for ts in result["times"]),
        "queries": len(query_s),
        "op_s_tail_percentile": round(tail_pct, 1),
        "setup_samples": len(setups),
        "calibration_s": result["calibration_s"],
        "calibrations": result["calibrations"],
        "spans": result["spans"],
        "raw_run_s": sum(raw_s),
        "raw_setup_s": statistics.median(r["setup_s"] for r in setups),
        "query_s": {op["id"]: q for op, q in zip(ops, query_s)},
        "query_calls": {op["id"]: ts for op, ts in zip(ops, result["scaled"])},
        "query_raw_calls": {op["id"]: ts for op, ts in zip(ops, result["times"])},
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O (wallkit's asserts would vanish)",
              file=sys.stderr)
        return 2
    if not (SRC / "wallkit" / "__init__.py").is_file():
        print(f"error: no wallkit sources under {SRC}; run from a wallkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wallkit
    from checks import Checker

    base = workloads.load_base()
    ops = workloads.make_ops(args.workload, args.seed, base)
    checker = Checker(wallkit, args.workload, args.seed, base)
    job = {"workload": args.workload, "ops": ops, "seconds": args.seconds}
    attempted = failed = 0
    problems = []
    if args.trace == 0:
        # set-up samples before and after the measured process, so that a
        # slow spell of a shared machine does not cover all of them
        setups = [_spawn(dict(job, mode="setup")) for _ in range(SETUP_SAMPLES // 2)]
        result = _spawn(dict(job, mode="measure"))
        setups.append(result)
        setups += [_spawn(dict(job, mode="setup")) for _ in range(SETUP_SAMPLES // 2)]
        metrics, info = end_to_end(result, ops, setups)
        checked = [result]
    else:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        plain = _spawn(dict(job, mode="measure", seconds=0))
        traced = _spawn(dict(job, mode="trace", trace_path=str(trace_path)))
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (sum(ts[0] for ts in traced["times"])
                                          / sum(ts[0] for ts in plain["times"]))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        info = {"trace_file": str(trace_path.relative_to(ROOT)),
                "self_sum_error_s": traced["self_sum_error_s"]}
        if traced["self_sum_error_s"] > 1e-6:
            problems.append(f"span self times miss the op time by {traced['self_sum_error_s']} s")
            failed += 1
        checked = [plain, traced]
    for result in checked:
        a, f, found = check_outputs(checker, ops, result)
        attempted += a
        failed += f
        problems += found

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "wallkit_max_cells": "unset",
        "failed_frac": failed / attempted,
        **info,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, problems=problems), indent=1))
    for line in problems[:20]:
        print(f"FAIL {line}")
    print(f"# {' '.join(f'{k}={v}' for k, v in record.items() if k not in ('metrics', 'query_s', 'query_calls', 'query_raw_calls', 'calibrations', 'spans'))}")
    for name, m in metrics.items():
        note = ""
        if name == "op_s_tail":
            note = f" (p{info['op_s_tail_percentile']} of {info['queries']} queries)"
        print(f"# {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"# failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

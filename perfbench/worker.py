"""One fresh benchmark process: set up, then time ops back to back.

Started by run.py, never by hand.  Reads a JSON job on stdin:

    {"workload": ..., "ops": [...], "seconds": s, "t_spawn": monotonic time
     the parent took just before starting this process, "mode": "setup" |
     "measure" | "trace", "trace_path": file for the span dump}

and prints one JSON result line on stdout.  "setup" stops after set-up.
"measure" asks every op once, then asks the ops marked ``repeat`` again in
turn, until the next call would end after `seconds`.  An op that is not
repeated (a call of seconds) is asked once per run.  "trace" asks every op
once, with every public wallkit function wrapped by the tracer.  First outputs are returned in full for checking; every call
returns a digest, which must match the op's first.

"setup" and "measure" also time calibrate.work() after set-up, and
"measure" times it from a timer signal while the ops run; each time is
returned scaled by the machine's speed around it (calibrate.py), next to
the raw wall time less the calibrations inside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

from calibrate import Meter

# Calibrations right after set-up, and wall time between two later ones.
SETUP_CALIBRATIONS = 8
CALIBRATE_EVERY_S = 0.125


def cli_runner(wallkit, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = wallkit.cli.main(argv)
            except SystemExit as exc:  # argparse rejects an argument vector
                code = exc.code
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}

    return run


def walls_between_runner(wallkit, op):
    ctx = wallkit.make_context(op["n"])
    pic = wallkit.IntegerLattice(tuple(tuple(r) for r in op["gram"]), label="pic")
    matrix = tuple(tuple(row) for row in op["embed"])
    P = wallkit.PicardData(ctx=ctx, pic=pic, embed=wallkit.Embedding(pic, ctx.ambient, matrix))
    types = wallkit.enumerate_wall_types(ctx)
    alpha = tuple(Fraction(c) for c in op["alpha"])
    beta = tuple(Fraction(c) for c in op["beta"])

    def run():
        walls = wallkit.walls_between(P, alpha, beta, types)
        return {"walls": [[list(w.D.coords), w.wall_type.square, w.wall_type.div] for w in walls]}

    return run


def short_vectors_runner(wallkit, e8, op):
    norm = op["norm"]

    def run():
        return {"vectors": [list(v.coords) for v in wallkit.short_vectors(e8, norm)]}

    return run


def setup(wallkit, workload, ops):
    """Build one zero-argument callable per op; everything here is set-up."""
    import wallkit.cli  # noqa: F401  (the CLI module is part of set-up)

    if workload == "chamber":
        for n in sorted({op["expect"]["n"] for op in ops}):
            wallkit.certified_wall_types(wallkit.make_context(n))
    if workload == "tables":
        for op in ops:
            if op["id"].startswith("tabulate-"):
                wallkit.make_context(int(op["argv"][2]))
    e8 = wallkit.standard_lattice("E8(-1)") if workload == "tables" else None
    runners = []
    for op in ops:
        if op["kind"] == "cli":
            runners.append(cli_runner(wallkit, op["argv"]))
        elif op["kind"] == "walls_between":
            runners.append(walls_between_runner(wallkit, op))
        elif op["kind"] == "short_vectors":
            runners.append(short_vectors_runner(wallkit, e8, op))
        else:
            raise ValueError(f"unknown op kind {op['kind']!r}")
    return runners


def _call(run):
    try:
        return run()
    except Exception as exc:  # one failing op must not end the run
        return {"error": f"{type(exc).__name__}: {exc}"}


def _digest(output) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def main() -> int:
    if sys.flags.optimize:
        print("refusing to run under python -O: wallkit's invariant asserts would vanish",
              file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    mode = job["mode"]
    tracer = None
    import wallkit

    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        runners, _ = tracer.run_op("setup", lambda: setup(wallkit, job["workload"], job["ops"]))
    else:
        runners = setup(wallkit, job["workload"], job["ops"])
    setup_s = time.monotonic() - job["t_spawn"]
    result = {"setup_s": setup_s}
    meter = None
    if mode != "trace":
        meter = Meter(CALIBRATE_EVERY_S)
        for _ in range(SETUP_CALIBRATIONS):
            meter.sample()
        result["setup_scaled_s"] = meter.scale(setup_s, meter.starts[0], meter.starts[-1])
    if mode == "setup":
        print(json.dumps(result))
        return 0

    ops = job["ops"]
    times = [[] for _ in ops]
    spans = [[] for _ in ops]
    digests = [[] for _ in ops]
    outputs = [None] * len(ops)

    def ask(i) -> None:
        if tracer is not None:
            out, dt = tracer.run_op(ops[i]["id"], lambda: _call(runners[i]))
        else:
            t0 = time.perf_counter()
            out = _call(runners[i])
            t1 = time.perf_counter()
            dt = t1 - t0
            spans[i].append((t0, t1))
        times[i].append(dt)
        digests[i].append(_digest(out))
        if outputs[i] is None:
            outputs[i] = out

    if meter is not None:
        meter.start()
    t_begin = time.perf_counter()
    for i in range(len(ops)):
        ask(i)
    repeated = [i for i, op in enumerate(ops) if op.get("repeat", True)]
    k = 0
    while mode != "trace" and repeated:
        i = repeated[k % len(repeated)]
        if time.perf_counter() - t_begin + times[i][-1] > job["seconds"]:
            break
        ask(i)
        k += 1
    if meter is not None:
        meter.stop()
        times = [[meter.op_time(a, b) for a, b in ss] for ss in spans]
        result["scaled"] = [[meter.scale(t, a, b) for t, (a, b) in zip(ts, ss)]
                            for ts, ss in zip(times, spans)]
        result["calibration_s"] = statistics.median(meter.samples)
        result["calibrations"] = [[t - t_begin, dt] for t, dt in zip(meter.starts, meter.samples)]
        result["spans"] = [[[a - t_begin, b - t_begin] for a, b in ss] for ss in spans]
    result.update(
        times=times,
        outputs=outputs,
        digests=digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        from tracer import layer_metrics

        tracer.dump(job["trace_path"])
        result["layers"] = layer_metrics(tracer.nodes)
        result["self_sum_error_s"] = max(
            abs(total - ts[0]) for total, ts in zip(_op_self_sums(tracer.nodes), times)
        )
    print(json.dumps(result))
    return 0


def _op_self_sums(nodes):
    """Per timed op, the sum of its spans' self times, in op order."""
    sums = {}
    for node in nodes:
        if node.op != "setup":
            sums[node.op] = sums.get(node.op, 0.0) + node.self_s
    return list(sums.values())


if __name__ == "__main__":
    sys.exit(main())

"""Golden stdout of `wallkit wall-test --format json`, stdlib only.

The calls are one per `enumerate_wall_types` row for n = 2..10, given as
{"square", "div"}, and one per transvected class of `wall_tests.json`,
given as {"coords"}.  Each is stored with its argv, exit code and stdout.

    PYTHONPATH=src python -O tests/wall_test_golden.py           # check
    PYTHONPATH=src python tests/wall_test_golden.py --record     # rewrite

Checking runs every stored argv through `wallkit.cli.main` in this
process and exits 1 on the first mismatch.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "wall_test_json.json"


def call(argv):
    """(exit code, stdout) of one in-process CLI call."""
    from wallkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def argvs():
    from wallkit import enumerate_wall_types, make_context

    def wall_test(n, payload):
        return ["wall-test", "--n", str(n), "--format", "json", "--input", json.dumps(payload)]

    out = [
        wall_test(n, {"square": t.square, "div": t.div})
        for n in range(2, 11)
        for t in enumerate_wall_types(make_context(n))
    ]
    recorded = json.loads((GOLDEN_DIR / "wall_tests.json").read_text(encoding="utf-8"))
    out += [
        wall_test(case["n"], {"coords": case["class"]})
        for case in recorded["cases"]
        if case["kind"] == "transvected"
    ]
    return out


def load():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["calls"]


def record():
    calls = []
    for argv in argvs():
        code, stdout = call(argv)
        calls.append({"argv": argv, "exit": code, "stdout": stdout})
    lines = ",\n".join("    " + json.dumps(c, separators=(",", ":")) for c in calls)
    note = (
        "argv, exit code and stdout of `wallkit wall-test --format json` for every "
        "enumerate_wall_types row of n = 2..10 and every transvected class of wall_tests.json."
    )
    GOLDEN.write_text(
        '{\n  "note": ' + json.dumps(note) + ',\n  "calls": [\n' + lines + "\n  ]\n}\n",
        encoding="utf-8",
    )
    return len(calls)


def check() -> int:
    calls = load()
    for c in calls:
        got = call(c["argv"])
        if got != (c["exit"], c["stdout"]):
            print(f"mismatch: {c['argv']}\nexit {got[0]} (golden {c['exit']})", file=sys.stderr)
            return 1
    print(f"{len(calls)} wall-test calls match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        print(f"recorded {record()} calls")
    else:
        sys.exit(check())

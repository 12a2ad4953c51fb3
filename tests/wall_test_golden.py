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
    """(exit code, stdout) of one in-process CLI call; stderr is dropped."""
    from wallkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
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


NOTE = (
    "argv, exit code and stdout of `wallkit wall-test --format json` for every "
    "enumerate_wall_types row of n = 2..10 and every transvected class of wall_tests.json."
)


def load(golden=GOLDEN):
    return json.loads(golden.read_text(encoding="utf-8"))["calls"]


def record(golden, argv_list, note):
    calls = []
    for argv in argv_list:
        code, stdout = call(argv)
        calls.append({"argv": argv, "exit": code, "stdout": stdout})
    lines = ",\n".join("    " + json.dumps(c, separators=(",", ":")) for c in calls)
    golden.write_text(
        '{\n  "note": ' + json.dumps(note) + ',\n  "calls": [\n' + lines + "\n  ]\n}\n",
        encoding="utf-8",
    )
    return len(calls)


def check(golden, command) -> int:
    calls = load(golden)
    for c in calls:
        got = call(c["argv"])
        if got != (c["exit"], c["stdout"]):
            print(f"mismatch: {c['argv']}\nexit {got[0]} (golden {c['exit']})", file=sys.stderr)
            return 1
    print(f"{len(calls)} {command} calls match {golden.name}")
    return 0


def main(golden, argvs, note, command):
    """Record with --record, else check; the exit status of the script."""
    if sys.argv[1:] == ["--record"]:
        print(f"recorded {record(golden, argvs(), note)} calls")
        return 0
    return check(golden, command)


if __name__ == "__main__":
    sys.exit(main(GOLDEN, argvs, NOTE, "wall-test"))

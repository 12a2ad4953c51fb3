"""Command-line surface: payload parsing, output formats, caveat routing,
exit codes, and byte-level determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import orbit_golden
import wall_test_golden
from test_chambers import (
    LARGE_OMEGA,
    RANK4_COLS,
    RANK4_GRAM,
    RANK5_COLS,
    RANK5_GRAM,
    flip_first_certificate,
    negate_majorant,
)
from wallkit import chambers, cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env(*paths):
    """os.environ with `paths` and the package sources put on PYTHONPATH,
    so child interpreters import this checkout's wallkit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), str(SRC), env.get("PYTHONPATH", "")])
    return env

N3_CSV = "r2,D2,div\n-2,-2,1\n-1,-4,2\n-3,-12,2\n-1/4,-4,4\n-9/4,-36,4\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ambient_coords(entries):
    out = [0] * 23
    for i, c in entries.items():
        out[i] = c
    return out


def chamber_query(pic_gram, cols, omega, n=2, **extra):
    embed = [[col.get(i, 0) for col in cols] for i in range(23)]
    query = {"n": n, "pic_gram": pic_gram, "embed": embed, "omega": omega}
    query.update(extra)
    return json.dumps(query)


P2_QUERY = lambda **extra: chamber_query(
    [[2, 0], [0, -2]], [{0: 1, 1: 1}, {22: 1}], [2, -1], **extra
)
RK3_QUERY = lambda omega=(5, 3, 1), **extra: chamber_query(
    [[0, 1, 0], [1, 0, 0], [0, 0, -2]],
    [{0: 1}, {1: 1}, {22: 1}],
    list(omega),
    **extra,
)


# -------------------------------------------------------------------- flags

TAIL_CLASS = json.dumps({"coords": ambient_coords({22: 1})})
ROOT_PAIR = json.dumps(
    {"v": ambient_coords({0: 1, 1: -1}), "w": ambient_coords({2: 1, 3: -1})}
)


class TestFlags:
    """Each subcommand declares only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tabulate", "--n", "3", "--bound", "5"],
            ["tabulate", "--n", "3", "--seed", "1"],
            ["tabulate", "--n", "3", "--input", "{}"],
            ["wall-test", "--n", "3", "--input", TAIL_CLASS, "--bound", "5"],
            ["wall-test", "--n", "3", "--input", TAIL_CLASS, "--seed", "1"],
            ["orbit", "--n", "2", "--input", ROOT_PAIR, "--bound", "5"],
            ["orbit", "--n", "2", "--input", ROOT_PAIR, "--seed", "1"],
            ["chamber", "--input", P2_QUERY(), "--seed", "1"],
            ["chamber", "--input", P2_QUERY(), "--bound", "5"],
            ["verify", "--fixture", "delta", "--bound", "5"],
            ["verify", "--fixture", "delta", "--input", "{}"],
            ["verify", "--fixture", "delta", "--quiet"],
            ["wall-test", "--n", "3", "--input", TAIL_CLASS, "--format", "csv"],
            ["orbit", "--n", "2", "--input", ROOT_PAIR, "--format", "csv"],
            ["chamber", "--input", P2_QUERY(), "--format", "csv"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2] if argv[-1] != '--quiet' else ''}{argv[-1]}",
    )
    def test_removed_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        removed_value = argv[-2] == "--format"
        expected = "invalid choice" if removed_value else "unrecognized arguments"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, says",
        [
            ("tabulate", "drop the n >= 5 caveat line"),
            ("chamber", "drop the n >= 5 caveat line"),
            ("wall-test", "print nothing; the exit code is the answer"),
            ("orbit", "print nothing; the exit code is the answer"),
        ],
    )
    def test_quiet_help_says_what_it_does(self, capsys, command, says):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"--quiet {says}" in help_text


# ----------------------------------------------------------------- tabulate


class TestTabulate:
    def test_n3_csv_bytes(self, capsys):
        code, out, err = run(capsys, "tabulate", "--n", "3", "--format", "csv")
        assert code == 0
        assert out == N3_CSV
        assert err == ""

    @pytest.mark.parametrize("n,rows", [(2, 3), (3, 5), (4, 7)])
    def test_row_counts(self, capsys, n, rows):
        code, out, _ = run(capsys, "tabulate", "--n", str(n), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == n
        assert len(payload["rows"]) == rows
        assert "note" not in payload

    def test_json_row_shape(self, capsys):
        _, out, _ = run(capsys, "tabulate", "--n", "2", "--format", "json")
        rows = json.loads(out)["rows"]
        assert {"n": 2, "square": -2, "div": 1, "ray_square": "-2"} in rows
        assert {"n": 2, "square": -10, "div": 2, "ray_square": "-5/2"} in rows

    def test_candidate_caveat_csv_on_stderr(self, capsys):
        code, out, err = run(capsys, "tabulate", "--n", "5", "--format", "csv")
        assert code == 0
        assert out.startswith("r2,D2,div\n")
        assert len(out.strip().splitlines()) == 11  # header + 10 candidates
        assert "candidates" in err

    def test_candidate_caveat_json_note(self, capsys):
        _, out, _ = run(capsys, "tabulate", "--n", "5", "--format", "json")
        payload = json.loads(out)
        assert "note" in payload
        assert len(payload["rows"]) == 10

    def test_certified_drops_caveat_and_rows(self, capsys):
        code, out, err = run(
            capsys, "tabulate", "--n", "5", "--format", "json", "--certified"
        )
        assert code == 0
        payload = json.loads(out)
        assert "note" not in payload
        assert len(payload["rows"]) == 9
        assert {"n": 5, "square": -4, "div": 1, "ray_square": "-4"} not in payload["rows"]

    def test_quiet_suppresses_caveat(self, capsys):
        _, out, err = run(capsys, "tabulate", "--n", "5", "--format", "csv", "--quiet")
        assert err == ""
        assert out.startswith("r2,D2,div\n")

    def test_table_format_mentions_columns(self, capsys):
        code, out, _ = run(capsys, "tabulate", "--n", "2")
        assert code == 0
        assert "r2" in out and "D2" in out and "div" in out

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "tabulate", "--n", "1", "--format", "csv")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["wall-test", "--n", "1", "--input", TAIL_CLASS],
            ["orbit", "--n", "1", "--input", ROOT_PAIR],
            ["chamber", "--input", P2_QUERY(n=1)],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_n_in_other_commands(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    # stdout for n <= 10 recorded before the sparse kernels and the
    # Smith-form reads of `hyperbolic_T`, for n = 11..20 before the type
    # walk by residue; every certified row runs the rank-2 wall test.
    @pytest.mark.parametrize("n", range(2, 21))
    def test_certified_json_golden_stdout(self, capsys, n):
        code, out, err = run(
            capsys, "tabulate", "--n", str(n), "--certified", "--format", "json"
        )
        assert code == 0
        assert err == ""
        golden = GOLDEN / f"tabulate_n{n}_certified_json.txt"
        assert out == golden.read_text(encoding="utf-8")


# ---------------------------------------------------------------- wall-test


WALL_TEST_GOLDEN = wall_test_golden.load()


def wall_test_call_id(i, call):
    n, payload = call["argv"][2], json.loads(call["argv"][-1])
    if "coords" in payload:
        return f"n{n}-coords{i}"
    return f"n{n}-{-payload['square']}-{payload['div']}"


# one call per type table row of n = 2..10 and per transvected class of
# wall_tests.json, recorded before the Markman shortcut moved into wall_test
@pytest.mark.parametrize(
    "call", WALL_TEST_GOLDEN, ids=[wall_test_call_id(i, c) for i, c in enumerate(WALL_TEST_GOLDEN)]
)
def test_wall_test_json_golden_stdout(capsys, call):
    assert run(capsys, *call["argv"]) == (call["exit"], call["stdout"], "")


def test_wall_test_golden_covers_the_type_tables():
    assert [c["argv"] for c in WALL_TEST_GOLDEN] == wall_test_golden.argvs()


# -------------------------------------------------------------- orbit golden


ORBIT_GOLDEN = wall_test_golden.load(orbit_golden.GOLDEN)


# each type table witness of n = 2..20 against a transvected copy, its
# negative and the next row's witness, recorded while the disc class was
# still read off the Smith form of L_n
@pytest.mark.parametrize(
    "call", ORBIT_GOLDEN, ids=[f"{c['argv'][4]}-n{c['argv'][2]}-{i}" for i, c in enumerate(ORBIT_GOLDEN)]
)
def test_orbit_golden_stdout(capsys, call):
    code, out, _ = run(capsys, *call["argv"])
    assert (code, out) == (call["exit"], call["stdout"])


def test_orbit_golden_covers_the_type_tables():
    assert [c["argv"] for c in ORBIT_GOLDEN] == orbit_golden.argvs()


class TestWallTest:
    def test_tail_class_detected(self, capsys):
        coords = json.dumps({"coords": ambient_coords({22: 1})})
        code, out, _ = run(
            capsys, "wall-test", "--n", "3", "--format", "json", "--input", coords
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["detected"] is True
        assert payload["square"] == -4 and payload["div"] == 4
        assert payload["witness"]["condition"] == "MK_isotropic"

    def test_type_input_detected(self, capsys):
        code, out, _ = run(
            capsys,
            "wall-test",
            "--n",
            "3",
            "--format",
            "json",
            "--input",
            '{"square": -36, "div": 4}',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["detected"] is True
        assert payload["witness"]["condition"] == "BM_bounded_root"

    def test_nonexistent_type_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "wall-test", "--n", "3", "--input", '{"square": -8, "div": 2}'
        )
        assert code == 2
        assert "no primitive class" in err

    def test_existing_class_without_wall(self, capsys):
        coords = json.dumps({"coords": ambient_coords({0: 1, 1: -2})})
        code, out, _ = run(
            capsys, "wall-test", "--n", "5", "--format", "json", "--input", coords
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["square"] == -4 and payload["div"] == 1
        assert payload["detected"] is False
        assert "witness" not in payload

    def test_quiet_keeps_exit_code_only(self, capsys):
        coords = json.dumps({"coords": ambient_coords({22: 1})})
        code, out, _ = run(capsys, "wall-test", "--n", "3", "--quiet", "--input", coords)
        assert code == 0
        assert out == ""

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "wall-test", "--n", "3")
        assert code == 2
        assert "--input" in err

    @pytest.mark.parametrize(
        "payload",
        ['{"square": "-5/2", "div": 2}', '{"square": -2, "div": "3/2"}'],
        ids=["square", "div"],
    )
    def test_fractional_type_is_input_error(self, capsys, payload):
        code, out, err = run(capsys, "wall-test", "--n", "2", "--input", payload)
        assert code == 2
        assert out == ""
        assert "expected an integer" in err

    def test_integer_string_type_accepted(self, capsys):
        code, out, _ = run(
            capsys, "wall-test", "--n", "2", "--format", "json",
            "--input", '{"square": "-2", "div": 1}',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["square"] == -2 and payload["div"] == 1
        assert payload["detected"] is True

    def test_imprimitive_class_rejected(self, capsys):
        coords = json.dumps({"coords": ambient_coords({0: 2, 1: -2})})
        code, _, err = run(capsys, "wall-test", "--n", "2", "--input", coords)
        assert code == 2
        assert "primitive" in err

    def test_zero_class_rejected(self, capsys):
        coords = json.dumps({"coords": [0] * 23})
        code, out, err = run(capsys, "wall-test", "--n", "2", "--input", coords)
        assert (code, out) == (2, "")
        assert "nonzero primitive" in err

    def test_missing_type_fails_fast(self, capsys):
        # a residue table over range(2 div^2) would take 32 million steps
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "wall-test", "--n", "2000", "--input", '{"square": -2, "div": 3998}'
        )
        elapsed = time.perf_counter() - t0
        assert (code, out) == (2, "")
        assert "no primitive class of square -2 and divisibility 3998 exists" in err
        assert elapsed < 2, elapsed


# -------------------------------------------------------------------- orbit


class TestOrbit:
    def test_same_orbit(self, capsys):
        payload = json.dumps(
            {
                "v": ambient_coords({0: 1, 1: -1}),
                "w": ambient_coords({2: 1, 3: -1}),
            }
        )
        code, out, _ = run(
            capsys, "orbit", "--n", "2", "--format", "json", "--input", payload
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["same_orbit"] is True
        assert doc["v"] == doc["w"] == {"square": -2, "div": 1, "disc": [0]}

    def test_different_orbit(self, capsys):
        payload = json.dumps(
            {
                "v": ambient_coords({0: 1, 1: -1}),
                "w": ambient_coords({22: 1}),
            }
        )
        code, out, _ = run(
            capsys, "orbit", "--n", "2", "--format", "json", "--input", payload
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["same_orbit"] is False
        assert doc["w"]["div"] == 2

    def test_table_output(self, capsys):
        payload = json.dumps(
            {
                "v": ambient_coords({0: 1, 1: -1}),
                "w": ambient_coords({2: 1, 3: -1}),
            }
        )
        code, out, _ = run(capsys, "orbit", "--n", "2", "--input", payload)
        assert code == 0
        assert "same orbit" in out

    def test_malformed_payload(self, capsys):
        code, _, err = run(capsys, "orbit", "--n", "2", "--input", '{"v": [1, 0]}')
        assert code == 2
        assert "error:" in err


# ------------------------------------------------------------------ chamber


class TestChamber:
    def test_golden_query_json(self, capsys):
        code, out, err = run(
            capsys, "chamber", "--format", "json", "--input", P2_QUERY()
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["exact"] is True
        walls = {(tuple(w["D"]), w["square"], w["div"]) for w in doc["supporting"]}
        assert walls == {((0, 1), -2, 2), ((2, -3), -10, 2)}
        rays = {(tuple(r["coords"]), r["square"]) for r in doc["rays"]}
        assert rays == {(("0", "1/2"), "-1/2"), (("1", "-3/2"), "-5/2")}
        assert "note" not in doc

    def test_segment_crossing_report(self, capsys):
        query = P2_QUERY(alpha=[2, -1], beta=[2, 1])
        code, out, _ = run(capsys, "chamber", "--format", "json", "--input", query)
        assert code == 0
        doc = json.loads(out)
        crossed = {tuple(w["D"]) for w in doc["walls_crossed"]}
        assert crossed == {(0, 1)}

    def test_on_wall_exits_3_naming_wall(self, capsys):
        query = chamber_query([[2, 0], [0, -2]], [{0: 1, 1: 1}, {22: 1}], [1, 0])
        code, out, err = run(capsys, "chamber", "--format", "json", "--input", query)
        assert code == 3
        assert "on the wall" in err
        assert "div 2" in err

    def test_rank3_table_output(self, capsys):
        code, out, _ = run(capsys, "chamber", "--input", RK3_QUERY())
        assert code == 0
        assert "complete up to height 12" in out
        assert out.count("wall D=") == 3

    def test_n5_caveat(self, capsys):
        query = chamber_query(
            [[4, 0], [0, -8]], [{0: 1, 1: 2}, {22: 1}], [7, -2], n=5
        )
        code, out, _ = run(capsys, "chamber", "--format", "json", "--input", query)
        assert code == 0
        assert "note" in json.loads(out)

    def test_budget_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("WALLKIT_MAX_CELLS", "50")
        code, _, err = run(capsys, "chamber", "--format", "json", "--input", RK3_QUERY())
        assert code == 2
        assert "cell cap" in err

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_nonpositive_budget_env_rejected(self, capsys, monkeypatch, env):
        monkeypatch.setenv("WALLKIT_MAX_CELLS", env)
        code, out, err = run(capsys, "chamber", "--format", "json", "--input", RK3_QUERY())
        assert code == 2
        assert out == ""
        assert "WALLKIT_MAX_CELLS must be a positive integer" in err

    def test_invalid_query(self, capsys):
        code, _, err = run(capsys, "chamber", "--input", '{"n": 2}')
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "name", ["query.json", "query\x00.json"], ids=["non_utf8", "nul_in_path"]
    )
    def test_unreadable_input_file_is_input_error(self, capsys, tmp_path, name):
        (tmp_path / "query.json").write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "chamber", "--input", str(tmp_path / name))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read input")

    @pytest.mark.parametrize(
        "key, flat, says",
        [
            ("pic_gram", [2, 1], "gram must be a list of rows"),
            ("embed", [1] + [0] * 22, "embedding matrix must be a list of rows"),
        ],
        ids=["lattice_from_json", "embedding_from_json"],
    )
    def test_non_list_matrix_row_is_input_error(self, capsys, key, flat, says):
        query = json.loads(P2_QUERY())
        query[key] = flat
        code, out, err = run(capsys, "chamber", "--input", json.dumps(query))
        assert code == 2
        assert out == ""
        assert err == f"error: {says}\n"

    @pytest.mark.parametrize(
        "end", [{"alpha": [2, -1]}, {"beta": [2, 1]}], ids=["alpha", "beta"]
    )
    def test_half_segment_rejected(self, capsys, end):
        code, out, err = run(capsys, "chamber", "--input", P2_QUERY(**end))
        assert code == 2
        assert out == ""
        assert "both alpha and beta" in err

    @pytest.mark.parametrize(
        "query",
        [P2_QUERY(), P2_QUERY(alpha=[2, -1], beta=[2, 1])],
        ids=["reference", "segment"],
    )
    def test_one_support_search_per_run(self, capsys, monkeypatch, query):
        calls = []
        search = chambers.supporting_walls_report

        def counting(*args, **kwargs):
            calls.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(chambers, "supporting_walls_report", counting)
        code, _, _ = run(capsys, "chamber", "--format", "json", "--input", query)
        assert code == 0
        assert len(calls) == 1

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            chambers, "_facet_walls", flip_first_certificate(chambers._facet_walls)
        )
        code, out, err = run(capsys, "chamber", "--input", RK3_QUERY())
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err.startswith("internal error: certificate")

    def test_indefinite_majorant_exits_internal(self, capsys, monkeypatch):
        # a search form that is not definite is wallkit's fault, not the query's
        negate_majorant(monkeypatch)
        query = P2_QUERY(alpha=[2, -1], beta=[2, 1])
        code, out, err = run(capsys, "chamber", "--format", "json", "--input", query)
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: search form: form is not positive definite\n"

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("name", ["p2", "rk3"])
    def test_golden_stdout(self, capsys, fmt, name):
        query = {"p2": P2_QUERY, "rk3": RK3_QUERY}[name]()
        code, out, err = run(capsys, "chamber", "--format", fmt, "--input", query)
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / f"chamber_{name}_{fmt}.txt").read_text(encoding="utf-8")

    # ROADMAP's rank-4 and rank-5 baselines; stdout recorded before the
    # integer double description (rk5_b12, out of reach until then, before
    # facets were read off its incidences).  None is the default bound (12).
    @pytest.mark.parametrize(
        "name, rank, bound",
        [
            ("rk4_b8", 4, 8),
            ("rk4_b12", 4, None),
            ("rk5_b2", 5, 2),
            ("rk5_b4", 5, 4),
            ("rk5_b12", 5, 12),
        ],
    )
    def test_big_golden_stdout_within_gate(self, capsys, name, rank, bound):
        gram, cols = {4: (RANK4_GRAM, RANK4_COLS), 5: (RANK5_GRAM, RANK5_COLS)}[rank]
        omega = ["7", "4", "1/3", "1/4", "1/5"][:rank]
        extra = {} if bound is None else {"bound": bound}
        query = chamber_query(gram, cols, omega, n=3, **extra)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "chamber", "--format", "json", "--input", query)
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / f"chamber_{name}_json.txt").read_text(encoding="utf-8")
        assert elapsed < 3, f"{name} took {elapsed:.1f} s against a 3 s gate"

    def test_large_reference_exits_0_in_a_fresh_process(self):
        # the on-wall check of this query once spent the whole default cap
        # and exited 2 after about a minute
        query = chamber_query(RANK4_GRAM, RANK4_COLS, list(LARGE_OMEGA), n=3, bound=2)
        res = run_proc("chamber", "--format", "json", "--input", query)
        assert res.returncode == 0
        assert res.stderr == b""
        assert res.stdout.decode() == (GOLDEN / "chamber_rk4_large_b2_json.txt").read_text(
            encoding="utf-8"
        )


# Known wrong answer (ROADMAP item 11): from n = 7 on, being a wall depends
# on the Eichler orbit of D, not only on (square, div).  Both columns below
# have square -588 and div 12; wall-test detects the first and not its c = 1
# twin, yet the chamber reports of the two Picard lattices agree today.
ITEM11_WALL = {0: 12, 1: -12, 22: 5}
ITEM11_TWIN = {0: 12, 1: -24, 22: 1}


def item11_report(capsys, column):
    """(exact, {(D, square, div)}) of the n = 7 chamber query on <2> + <-588>."""
    query = chamber_query([[2, 0], [0, -588]], [{2: 1, 3: 1}, column], [1, "1/1000"], n=7)
    code, out, _ = run(capsys, "chamber", "--format", "json", "--input", query)
    assert code == 0
    report = json.loads(out)
    return report["exact"], {(tuple(w["D"]), w["square"], w["div"]) for w in report["supporting"]}


class TestOrbitDependentWalls:
    def test_wall_class_bounds_the_chamber(self, capsys):
        assert item11_report(capsys, ITEM11_WALL) == (
            True,
            {((0, -1), -588, 12), ((12, 1), -300, 12)},
        )

    def test_twin_keeps_its_report(self, capsys):
        assert item11_report(capsys, ITEM11_TWIN) == (
            True,
            {((12, -1), -300, 12), ((12, 1), -300, 12)},
        )

    @pytest.mark.parametrize("column, code", [(ITEM11_WALL, 0), (ITEM11_TWIN, 1)], ids=["wall", "twin"])
    def test_wall_test_tells_the_twins_apart(self, capsys, column, code):
        payload = json.dumps({"coords": ambient_coords(column)})
        assert run(capsys, "wall-test", "--n", "7", "--quiet", "--input", payload)[0] == code


# ------------------------------------------------------------------- verify


class TestVerify:
    def test_verify_table(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "total: 195 checks, 0 failures" in out

    def test_verify_single_fixture_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--fixture", "delta", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        assert [f["name"] for f in doc["fixtures"]] == ["delta"]

    def test_verify_junit(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "junit")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag == "testsuites"
        assert root.get("failures") == "0"

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "verify", "--fixture", "bogus")
        assert code == 2
        assert "unknown fixture" in err

    def test_verify_json_golden_stdout(self, capsys):
        code, out, err = run(capsys, "verify", "--format", "json")
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / "verify_json.txt").read_text(encoding="utf-8")


# ------------------------------------------------------------- determinism


def run_proc(*argv, env_extra=None):
    env = subprocess_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "wallkit.cli", *argv],
        capture_output=True,
        env=env,
        timeout=300,
    )


class TestDeterminism:
    def test_tabulate_bytes_identical(self):
        a = run_proc("tabulate", "--n", "3", "--format", "csv")
        b = run_proc("tabulate", "--n", "3", "--format", "csv")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout == N3_CSV.encode()

    def test_chamber_bytes_identical(self):
        a = run_proc("chamber", "--format", "json", "--input", RK3_QUERY())
        b = run_proc("chamber", "--format", "json", "--input", RK3_QUERY())
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert json.loads(a.stdout)["exact"] is False

    def test_invariant_checks_survive_optimize(self):
        # python -O strips asserts; the certificate check must still fire
        script = (
            "import sys; from wallkit import chambers, cli; "
            "from test_chambers import flip_first_certificate as flip; "
            "chambers._facet_walls = flip(chambers._facet_walls); "
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        env = subprocess_env(Path(__file__).resolve().parent)
        res = subprocess.run(
            [sys.executable, "-O", "-c", script, "chamber", "--input", RK3_QUERY()],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert res.returncode == 4
        assert b"internal error" in res.stderr

    def test_input_from_file(self, tmp_path):
        path = tmp_path / "query.json"
        path.write_text(P2_QUERY())
        res = run_proc("chamber", "--format", "json", "--input", str(path))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["exact"] is True


# ----------------------------------------------------------- shared parser


def run_or_exit(capsys, *argv):
    """Like `run`, but an argparse exit (an error or --help) is caught and
    its code returned in place of main's."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    """main parses with one parser per process, which keeps no state from
    one call to the next."""

    # Help texts recorded with COLUMNS=80 before main shared one parser.
    @pytest.mark.parametrize(
        "name", ["top", "tabulate", "wall-test", "orbit", "chamber", "verify"]
    )
    def test_help_golden(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if name == "top" else [name]
        code, out, err = run_or_exit(capsys, *argv, "--help")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"help_{name}.txt").read_text(encoding="utf-8")

    def test_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [
            ["wall-test"],
            ["chamber", "--help"],
            ["tabulate", "--n", "3", "--certified", "--format", "json"],
            ["wall-test", "--n", "3", "--format", "json", "--input", TAIL_CLASS],
            ["orbit", "--n", "2", "--format", "json", "--input", ROOT_PAIR],
            ["chamber", "--format", "json", "--input", P2_QUERY()],
            ["verify", "--fixture", "delta", "--format", "json"],
        ]
        in_process = [run_or_exit(capsys, *argv) for argv in calls]
        assert in_process[0][0] == 2 and "required: --n" in in_process[0][2]
        assert in_process[1][0] == 0
        for argv, (code, out, err) in zip(calls, in_process):
            fresh = run_proc(*argv, env_extra={"COLUMNS": "80"})
            assert (code, out.encode(), err.encode()) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "tabulate", "--n", "2", "--format", "csv")[0] == 0
        built.clear()
        assert run(capsys, "tabulate", "--n", "3", "--format", "csv")[0] == 0
        assert run(capsys, "chamber", "--input", P2_QUERY())[0] == 0
        assert built == []

"""The frozen fixture catalog: every stored expectation recomputes, and
the reports serialize faithfully."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from test_cli import subprocess_env

from wallkit import InputError
from wallkit import chambers
from wallkit.catalog import (
    FIXTURE_ORDER,
    list_fixtures,
    load_fixture,
    report_json,
    report_junit,
    report_text,
    verify_fixture,
)


def verify_all(seed=0):
    return [verify_fixture(name, seed=seed) for name in list_fixtures()]


EXPECTED_NAMES = (
    "delta",
    "minus_two_curve",
    "p2",
    "pn",
    "pn1_bundle",
    "n4_div2",
    "bm2_nef",
    "tables",
)


class TestInventory:
    def test_fixture_names_and_order(self):
        assert tuple(list_fixtures()) == EXPECTED_NAMES
        assert FIXTURE_ORDER == EXPECTED_NAMES

    def test_unknown_fixture_rejected(self):
        with pytest.raises(InputError):
            load_fixture("nonexistent")
        with pytest.raises(InputError):
            verify_fixture("nonexistent")

    def test_fixtures_carry_descriptive_fields(self):
        for name in EXPECTED_NAMES:
            fx = load_fixture(name)
            assert fx["name"] == name
            assert isinstance(fx["description"], str) and fx["description"]
            assert isinstance(fx["origin"], str) and fx["origin"]


class TestVerification:
    def test_all_fixtures_pass_default_seed(self):
        reports = verify_all()
        assert [r.fixture for r in reports] == list(EXPECTED_NAMES)
        for r in reports:
            assert r.passed, report_text([r])
            assert r.failures == 0
            assert len(r.assertions) > 0

    @pytest.mark.parametrize("seed", [1, 7])
    def test_randomized_checks_pass_other_seeds(self, seed):
        for r in verify_all(seed=seed):
            assert r.passed, report_text([r])

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_each_fixture_individually(self, name):
        r = verify_fixture(name)
        assert r.fixture == name
        assert r.passed

    # p2: its one chamber plus the on-wall probe; bm2_nef: its two chambers,
    # the negative control reusing the n=5 report
    @pytest.mark.parametrize("name,searches", [("p2", 2), ("bm2_nef", 2)])
    def test_one_support_search_per_chamber(self, monkeypatch, name, searches):
        calls = []
        search = chambers.supporting_walls_report

        def counting(*args, **kwargs):
            calls.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(chambers, "supporting_walls_report", counting)
        assert verify_fixture(name).passed
        assert len(calls) == searches


@pytest.fixture(scope="module")
def reports():
    return verify_all()


class TestReports:
    def test_json_shape(self, reports):
        doc = report_json(reports)
        assert doc["failures"] == 0
        assert doc["total"] == sum(len(r.assertions) for r in reports)
        assert [f["name"] for f in doc["fixtures"]] == list(EXPECTED_NAMES)
        for f in doc["fixtures"]:
            assert f["passed"] is True
            for a in f["assertions"]:
                assert set(a) == {"name", "expected", "actual", "passed"}
        # round-trips through the json module
        assert json.loads(json.dumps(doc)) == doc

    def test_junit_parses(self, reports):
        xml = report_junit(reports)
        root = ET.fromstring(xml)
        assert root.tag == "testsuites"
        assert root.get("failures") == "0"
        suites = list(root)
        assert [s.get("name") for s in suites] == [
            f"wallkit.fixtures.{n}" for n in EXPECTED_NAMES
        ]
        total = sum(int(s.get("tests")) for s in suites)
        assert total == int(root.get("tests")) == sum(
            len(r.assertions) for r in reports
        )
        assert xml.startswith("<?xml")

    def test_import_leaves_elementtree_unloaded(self):
        # report_junit imports ElementTree itself; importing wallkit must not
        code = "import sys, wallkit, wallkit.cli; print('xml.etree.ElementTree' in sys.modules)"
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=subprocess_env(), timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == b"False"

    def test_junit_marks_failures(self):
        # doctor one report so the failure path is exercised
        from wallkit.catalog import Assertion, FixtureReport

        bad = FixtureReport(
            fixture="delta",
            assertions=(
                Assertion(name="forced", expected="1", actual="2", passed=False),
            ),
        )
        root = ET.fromstring(report_junit([bad]))
        assert root.get("failures") == "1"
        case = root.find("testsuite/testcase")
        failure = case.find("failure")
        assert failure is not None
        assert "expected 1" in failure.get("message")

    def test_text_summary(self, reports):
        txt = report_text(reports)
        assert "total:" in txt
        assert "0 failures" in txt
        for name in EXPECTED_NAMES:
            assert f"{name}: PASS" in txt

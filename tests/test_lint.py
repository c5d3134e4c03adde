"""Tests for repro.analysis — the repro-lint contract checker."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    run_lint,
    to_json,
    to_text,
)
from repro.analysis.cli import main
from repro.analysis.suppressions import scan_pragmas, write_baseline

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

#: A config that does not exclude the fixture tree itself.
OPEN = LintConfig(exclude=())


def lint_fixture(name, *rules, config=OPEN, root=FIXTURES):
    report, sources = run_lint(
        [FIXTURES / name],
        root=root,
        config=config,
        select=list(rules) or None,
    )
    return report, sources


class TestRuleFixtures:
    """Every rule fires on its bad fixture and stays silent on the good one."""

    @pytest.mark.parametrize(
        "rule, bad, good",
        [
            ("rng-discipline", "rng_bad.py", "rng_good.py"),
            ("wallclock-entropy", "entropy_bad.py", "entropy_good.py"),
            ("ordered-iteration", "ordering_bad.py", "ordering_good.py"),
            ("exception-hygiene", "excepts_bad.py", "excepts_good.py"),
            ("registry-completeness", "registry_bad.py", "registry_good.py"),
            ("checkpoint-completeness", "checkpoint_bad.py", "checkpoint_good.py"),
        ],
    )
    def test_bad_fires_good_silent(self, rule, bad, good):
        bad_report, _ = lint_fixture(bad, rule)
        assert bad_report.findings, f"{rule} silent on {bad}"
        assert {f.rule for f in bad_report.findings} == {rule}
        good_report, _ = lint_fixture(good, rule)
        assert good_report.findings == [], f"{rule} fired on {good}"

    def test_exception_hygiene_counts(self):
        report, _ = lint_fixture("excepts_bad.py", "exception-hygiene")
        assert len(report.findings) == 3  # bare, broad-swallow, tuple

    def test_registry_bad_covers_every_contract(self):
        report, _ = lint_fixture("registry_bad.py", "registry-completeness")
        messages = " ".join(f.message for f in report.findings)
        assert "GhostAttack" in messages  # registered but never defined
        assert "prepare(scenario) and run" in messages  # missing surface
        assert "no name attribute" in messages
        assert "already declared" in messages  # duplicate experiment id
        assert "trials=8" in messages and "--smoke" in messages  # fixed trials

    def test_checkpoint_bad_covers_every_contract(self):
        report, _ = lint_fixture("checkpoint_bad.py", "checkpoint-completeness")
        messages = " ".join(f.message for f in report.findings)
        assert "declares no state_fields" in messages
        assert "non-empty tuple of string literals" in messages
        assert "restore never touches it" in messages  # one-sided round-trip
        assert "does not define restore" in messages


class TestTimingTier:
    def test_entropy_allowed_inside_timing_tier(self):
        config = LintConfig(exclude=(), timing_paths=("entropy_bad",))
        report, _ = lint_fixture(
            "entropy_bad.py", "wallclock-entropy", config=config
        )
        assert report.findings == []

    def test_telemetry_wall_module_is_the_only_exempt_reader(self):
        """The tier exempts exactly repro.telemetry.wall, not its siblings."""
        root = FIXTURES / "telemetry"
        report, _ = run_lint(
            [root / "repro"], root=root, config=OPEN, select=["wallclock-entropy"]
        )
        flagged = {Path(f.path).name for f in report.findings}
        assert flagged == {"tracer_bad.py"}


class TestLayering:
    def lint_layering(self):
        root = FIXTURES / "layering"
        report, _ = run_lint(
            [root / "repro"], root=root, config=OPEN, select=["layer-boundary"]
        )
        return report

    def test_upward_imports_flagged(self):
        report = self.lint_layering()
        bad = [f for f in report.findings if f.path.endswith("models/bad.py")]
        messages = " ".join(f.message for f in bad)
        assert "serving" in messages and "attacks" in messages

    def test_direct_queries_flagged_in_attack_modules(self):
        report = self.lint_layering()
        queries = [
            f for f in report.findings if f.path.endswith("bad_query.py")
        ]
        assert len(queries) == 3  # predict_proba, predict and _proba

    def test_downward_imports_clean(self):
        report = self.lint_layering()
        assert not any(f.path.endswith("good.py") for f in report.findings)


class TestPragmas:
    SELECT = ("rng-discipline", "wallclock-entropy", "suppression-hygiene")

    def test_justified_pragma_suppresses(self):
        report, _ = lint_fixture("pragma_ok.py", *self.SELECT)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["rng-discipline"]

    def test_pragma_hygiene(self):
        report, _ = lint_fixture("pragma_bad.py", *self.SELECT)
        assert {f.rule for f in report.findings} == {"suppression-hygiene"}
        messages = " ".join(f.message for f in report.findings)
        assert "no reason" in messages
        assert "suppresses nothing" in messages
        assert "unknown rule id" in messages
        # the reasonless pragma still suppressed its finding
        assert [f.rule for f in report.suppressed] == ["rng-discipline"]

    def test_pragmas_in_docstrings_are_ignored(self):
        text = '"""Example: # repro: allow[rng-discipline] not a pragma"""\n'
        assert scan_pragmas(text) == {}


class TestBaseline:
    def test_baseline_roundtrip(self, tmp_path):
        report, sources = lint_fixture("rng_bad.py", "rng-discipline")
        assert report.findings
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, report.fingerprints(sources))

        after, _ = run_lint(
            [FIXTURES / "rng_bad.py"],
            root=FIXTURES,
            config=OPEN,
            select=["rng-discipline"],
            baseline=baseline,
        )
        assert after.findings == []
        assert len(after.baselined) == len(report.findings)
        assert after.stale_baseline == []
        assert after.exit_code == 0 and after.strict_exit_code() == 0

    def test_stale_entries_fail_strict_only(self, tmp_path):
        report, sources = lint_fixture("rng_bad.py", "rng-discipline")
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, report.fingerprints(sources))

        clean, _ = run_lint(
            [FIXTURES / "rng_good.py"],
            root=FIXTURES,
            config=OPEN,
            select=["rng-discipline"],
            baseline=baseline,
        )
        assert clean.findings == []
        assert clean.stale_baseline  # every entry went stale
        assert clean.exit_code == 0
        assert clean.strict_exit_code() == 1

    def test_fingerprints_survive_line_moves(self):
        report, sources = lint_fixture("rng_bad.py", "rng-discipline")
        entries = report.fingerprints(sources)
        # Re-linting the identical content yields the identical fingerprints.
        again, sources2 = lint_fixture("rng_bad.py", "rng-discipline")
        assert again.fingerprints(sources2).keys() == entries.keys()


class TestReporting:
    def test_json_schema(self):
        report, _ = lint_fixture("rng_bad.py", "rng-discipline")
        payload = json.loads(to_json(report))
        assert payload["schema"] == 1
        assert payload["tool"] == "repro-lint"
        assert payload["files_checked"] == 1
        for entry in payload["findings"]:
            assert set(entry) >= {"path", "line", "col", "rule", "message"}

    def test_text_format(self):
        report, _ = lint_fixture("rng_bad.py", "rng-discipline")
        text = to_text(report)
        first = report.findings[0]
        assert f"{first.path}:{first.line}:{first.col + 1}:" in text
        assert "finding(s)" in text

    def test_output_is_deterministic(self):
        a, _ = lint_fixture("ordering_bad.py", "ordered-iteration")
        b, _ = lint_fixture("ordering_bad.py", "ordered-iteration")
        assert to_json(a) == to_json(b)
        assert a.findings == b.findings

    def test_findings_are_sorted(self):
        report, _ = lint_fixture("ordering_bad.py", "ordered-iteration")
        assert report.findings == sorted(report.findings)


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "rng-discipline",
            "wallclock-entropy",
            "ordered-iteration",
            "layer-boundary",
            "exception-hygiene",
            "registry-completeness",
        ):
            assert rule_id in out

    def test_findings_exit_one(self, capsys):
        code = main(
            [
                str(FIXTURES / "excepts_bad.py"),
                "--root",
                str(FIXTURES),
                "--select",
                "exception-hygiene",
            ]
        )
        assert code == 1
        assert "exception-hygiene" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = main(
            [
                str(FIXTURES / "excepts_good.py"),
                "--root",
                str(FIXTURES),
                "--select",
                "exception-hygiene",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_write_baseline_then_strict_clean(self, tmp_path, capsys):
        baseline = tmp_path / "bl.json"
        argv = [
            str(FIXTURES / "excepts_bad.py"),
            "--root",
            str(FIXTURES),
            "--select",
            "exception-hygiene",
            "--baseline",
            str(baseline),
        ]
        assert main([*argv, "--write-baseline"]) == 0
        assert baseline.is_file()
        capsys.readouterr()
        assert main([*argv, "--strict"]) == 0

    def test_usage_error_exit_two(self, capsys):
        assert main([str(FIXTURES / "missing_file.txt")]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_a_finding(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        code = main([str(broken), "--root", str(tmp_path)])
        assert code == 1
        assert "parse-error" in capsys.readouterr().out


class TestSelfCheck:
    """The repo must satisfy its own contracts."""

    def test_src_is_clean(self):
        report, _ = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.findings == [], to_text(report)
        # every suppression in src is a deliberate, justified pragma
        for finding in report.suppressed:
            assert finding.rule in ("rng-discipline", "wallclock-entropy")

    def test_src_is_strict_clean(self):
        report, _ = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.strict_exit_code() == 0


class TestFindingOrdering:
    def test_finding_sorts_by_path_then_position(self):
        a = Finding("a.py", 1, 0, "rng-discipline", "m")
        b = Finding("a.py", 2, 0, "rng-discipline", "m")
        c = Finding("b.py", 1, 0, "rng-discipline", "m")
        assert sorted([c, b, a]) == [a, b, c]

"""Tests for repro.analysis — the AST invariant linter.

Each checker is proven live against a violating/clean fixture pair under
``tests/analysis_fixtures/``; the driver tests cover inline suppressions,
the baseline round-trip, the JSON report schema, and the ``repro lint`` CLI
wiring.
"""

import json
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis import (
    CHECKERS,
    Diagnostic,
    lint_file,
    lint_paths,
    load_baseline,
    run_lint,
    split_baselined,
    write_baseline,
)
from repro.analysis.registry import LintConfig
from repro.analysis.suppress import parse_suppressions
from repro.cli import main
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "analysis_fixtures"

ALL_CODES = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005")


def fixture_findings(name, code):
    findings, _ = lint_file(str(FIXTURES / name), select=[code])
    return findings


# ----------------------------------------------------------------- checkers
def test_registry_has_all_shipped_checkers():
    for code in ALL_CODES:
        assert code in CHECKERS


@pytest.mark.parametrize("code", ALL_CODES)
def test_violating_fixture_fires(code):
    findings = fixture_findings(f"{code.lower()}_violation.py", code)
    assert findings, f"{code} must fire on its violating fixture"
    assert {d.code for d in findings} == {code}
    assert all(d.suggestion for d in findings)


@pytest.mark.parametrize("code", ALL_CODES)
def test_clean_fixture_passes(code):
    assert fixture_findings(f"{code.lower()}_clean.py", code) == []


def test_rpr001_flags_each_nondeterminism_site():
    findings = fixture_findings("rpr001_violation.py", "RPR001")
    assert sorted(d.line for d in findings) == [11, 16, 20, 24, 24]


def test_rpr002_reports_missing_restorer_and_drifted_key():
    findings = fixture_findings("rpr002_violation.py", "RPR002")
    messages = " | ".join(d.message for d in findings)
    assert len(findings) == 2
    assert "none of from_state" in messages
    assert "'orphan'" in messages


def test_rpr003_taint_reaches_every_mutation_shape():
    findings = fixture_findings("rpr003_violation.py", "RPR003")
    assert sorted(d.line for d in findings) == [8, 14, 20, 21, 28, 34, 35]


def test_rpr003_guards_the_token_column():
    """A corpus's TokenColumn.ids / .offsets are sealed: writing through
    either is flagged."""
    findings = fixture_findings("rpr003_violation.py", "RPR003")
    flagged = {d.line: d.message for d in findings if d.line in (34, 35)}
    assert "'offsets'" in flagged[34]
    assert "'.ids'" in flagged[35]


def test_rpr004_flags_only_the_bare_mutation():
    findings = fixture_findings("rpr004_violation.py", "RPR004")
    assert [d.line for d in findings] == [18]
    assert "_entries" in findings[0].message
    assert "sneak" in findings[0].message


def test_rpr005_flags_import_time_positions_only():
    findings = fixture_findings("rpr005_violation.py", "RPR005")
    assert sorted(d.line for d in findings) == [6, 8, 12]


def test_rng_owner_module_is_exempt_from_rpr001(tmp_path):
    module = tmp_path / "repro" / "utils" / "rng.py"
    module.parent.mkdir(parents=True)
    module.write_text("import random\nrandom.seed(0)\n", encoding="utf-8")
    findings, _ = lint_file(str(module), select=["RPR001"])
    assert findings == []


def test_lint_config_is_overridable(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(view):\n    view.custom_col[0] = 1\n", encoding="utf-8"
    )
    default_findings, _ = lint_file(str(path), select=["RPR003"])
    assert default_findings == []
    config = LintConfig(sealed_attrs=frozenset({"custom_col"}))
    findings, _ = lint_file(str(path), config=config, select=["RPR003"])
    assert [d.code for d in findings] == ["RPR003"]


# ------------------------------------------------------------- suppressions
def test_inline_allow_with_reason_suppresses():
    source = "import time\n\ndef f():\n    return time.time()  # repro: allow[RPR001] test wants wall time\n"
    findings, suppressed = lint_file("x/mod.py", source=source,
                                     select=["RPR001"])
    assert findings == []
    assert suppressed == 1


def test_standalone_allow_applies_to_next_code_line():
    source = (
        "import time\n\ndef f():\n"
        "    # repro: allow[RPR001] test wants wall time\n"
        "    return time.time()\n"
    )
    findings, suppressed = lint_file("x/mod.py", source=source,
                                     select=["RPR001"])
    assert findings == []
    assert suppressed == 1


def test_reasonless_allow_suppresses_nothing_and_is_flagged():
    source = "import time\n\ndef f():\n    return time.time()  # repro: allow[RPR001]\n"
    findings, suppressed = lint_file("x/mod.py", source=source,
                                     select=["RPR001"])
    assert suppressed == 0
    assert sorted(d.code for d in findings) == ["RPR000", "RPR001"]


def test_allow_covers_only_listed_codes():
    source = "import time\n\ndef f():\n    return time.time()  # repro: allow[RPR003] wrong code\n"
    findings, suppressed = lint_file("x/mod.py", source=source,
                                     select=["RPR001"])
    assert suppressed == 0
    assert [d.code for d in findings] == ["RPR001"]


def test_allow_star_covers_everything():
    source = "import time\n\ndef f():\n    return time.time()  # repro: allow[*] fixture shortcut\n"
    findings, suppressed = lint_file("x/mod.py", source=source,
                                     select=["RPR001"])
    assert findings == []
    assert suppressed == 1


def test_parse_suppressions_maps_comment_and_target_lines():
    source = "# repro: allow[RPR001] above\nx = 1\ny = 2  # repro: allow[RPR002,RPR003] inline\n"
    by_line, malformed = parse_suppressions(source, "x.py")
    assert malformed == []
    assert by_line[1].covers("RPR001") and by_line[2].covers("RPR001")
    assert by_line[3].covers("RPR002") and by_line[3].covers("RPR003")
    assert not by_line[3].covers("RPR001")


# ------------------------------------------------------------------ driver
def test_syntax_error_becomes_rpr000(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n", encoding="utf-8")
    findings, _ = lint_file(str(path))
    assert [d.code for d in findings] == ["RPR000"]
    assert "does not parse" in findings[0].message


def test_unknown_select_code_raises():
    with pytest.raises(ConfigurationError):
        lint_file("x.py", source="x = 1\n", select=["RPR999"])


def test_lint_paths_walks_directories():
    report = lint_paths([str(FIXTURES)])
    assert report.files_scanned == 10
    assert report.exit_code == 1
    fired = {d.code for d in report.findings}
    assert fired == set(ALL_CODES)


def test_missing_path_raises():
    with pytest.raises(ConfigurationError):
        lint_paths([str(FIXTURES / "no_such_dir")])


# ---------------------------------------------------------------- baseline
def test_baseline_round_trip(tmp_path):
    diagnostics = [
        Diagnostic(code="RPR001", path="a.py", line=3, message="m1"),
        Diagnostic(code="RPR004", path="b.py", line=9, message="m2"),
    ]
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, diagnostics)
    keys = load_baseline(baseline_path)
    assert keys == {d.baseline_key for d in diagnostics}
    # Matching is line-number free: a moved finding stays grandfathered.
    moved = Diagnostic(code="RPR001", path="a.py", line=30, message="m1")
    fresh = Diagnostic(code="RPR001", path="a.py", line=5, message="new")
    new, grandfathered = split_baselined([moved, fresh], keys)
    assert new == [fresh]
    assert grandfathered == [moved]


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()


def test_non_baseline_json_rejected(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"kind": "something-else"}', encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_baseline(path)


def test_update_baseline_then_lint_is_clean(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    target = str(FIXTURES / "rpr001_violation.py")
    out = StringIO()
    assert run_lint([target], update_baseline=True,
                    baseline=str(baseline_path), stdout=out) == 0
    assert run_lint([target], baseline=str(baseline_path),
                    fmt="json", stdout=(out := StringIO())) == 0
    payload = json.loads(out.getvalue())
    assert payload["summary"]["total"] == 0
    assert payload["summary"]["grandfathered"] == 5


# ------------------------------------------------------------- JSON schema
def test_json_report_schema():
    out = StringIO()
    exit_code = run_lint([str(FIXTURES / "rpr004_violation.py")],
                         fmt="json", stdout=out)
    assert exit_code == 1
    payload = json.loads(out.getvalue())
    assert payload["version"] == 1
    assert set(payload["summary"]) == {
        "total", "by_code", "grandfathered", "suppressed", "files_scanned"
    }
    assert payload["summary"]["total"] == len(payload["findings"]) == 1
    assert payload["summary"]["by_code"] == {"RPR004": 1}
    finding = payload["findings"][0]
    assert set(finding) == {"code", "path", "line", "message", "suggestion"}


# ------------------------------------------------------------------- CLI
def test_cli_lint_exit_codes(capsys):
    assert main(["lint", str(FIXTURES / "rpr001_clean.py")]) == 0
    capsys.readouterr()
    assert main(["lint", str(FIXTURES / "rpr001_violation.py"),
                 "--select", "RPR001"]) == 1
    captured = capsys.readouterr()
    assert "RPR001" in captured.out


def test_cli_lint_json(capsys):
    assert main(["lint", "--format", "json",
                 str(FIXTURES / "rpr002_violation.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["by_code"] == {"RPR002": 2}


def test_src_tree_is_clean_with_empty_committed_baseline():
    """The acceptance gate: repro lint src/ exits 0, no baseline crutch."""
    repo_root = Path(__file__).parent.parent
    report = lint_paths([str(repo_root / "src")])
    assert report.findings == []
    committed = repo_root / ".repro-lint-baseline.json"
    assert load_baseline(committed) == set()

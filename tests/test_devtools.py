"""The `repro check` framework: every rule, suppressions, CLI, config.

Fixture snippets live in ``tests/data/devtools/`` — one known-bad and
one known-good file per rule.  Bad fixtures mark each expected finding
with a trailing ``# violation`` comment, so the assertions pin the exact
(path, line) pairs the checker reports, not just the count.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.devtools import (
    META_RULE,
    CheckConfig,
    Finding,
    Suppressions,
    all_checkers,
    check_file,
    checker_for,
    load_config,
    path_matches,
    rule_table,
    run_check,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data" / "devtools"
RULES = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005")


def violation_lines(path: Path):
    """Line numbers carrying the fixture's ``# violation`` markers."""
    return [
        lineno
        for lineno, text in enumerate(path.read_text().splitlines(), start=1)
        if text.rstrip().endswith("# violation")
    ]


def fixture_config(rule: str) -> CheckConfig:
    """A config scoping ``rule`` onto the fixture directory."""
    return CheckConfig(
        root=REPO_ROOT,
        paths=("tests/data/devtools",),
        rule_paths={rule: ("tests/data/devtools",)},
    )


# ---------------------------------------------------------------------------
# Per-rule fixtures: known-bad files yield exactly the marked lines,
# known-good files yield nothing.

@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_reports_every_marked_line(rule):
    bad = DATA / f"{rule.lower()}_bad.py"
    expected = violation_lines(bad)
    assert expected, f"fixture {bad.name} must mark at least one violation"
    findings = check_file(bad, [checker_for(rule)], fixture_config(rule))
    assert [f.line for f in findings] == expected
    assert all(f.rule == rule for f in findings)
    assert all(f.path == f"tests/data/devtools/{bad.name}" for f in findings)


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_is_clean(rule):
    good = DATA / f"{rule.lower()}_good.py"
    findings = check_file(good, [checker_for(rule)], fixture_config(rule))
    assert findings == []


# ---------------------------------------------------------------------------
# Suppressions: reasoned noqas silence, reason-less noqas are findings.

def test_noqa_with_reason_suppresses(tmp_path):
    src = ("def risky(values=[]):  "
           "# repro: noqa[RPR005] fixture exercising the suppression path\n"
           "    return values\n")
    path = tmp_path / "suppressed.py"
    path.write_text(src)
    config = CheckConfig(root=tmp_path, paths=(".",),
                         rule_paths={"RPR005": (".",)})
    assert check_file(path, [checker_for("RPR005")], config) == []


def test_noqa_without_reason_is_reported(tmp_path):
    path = tmp_path / "lazy.py"
    path.write_text("def risky(values=[]):  # repro: noqa[RPR005]\n"
                    "    return values\n")
    config = CheckConfig(root=tmp_path, paths=(".",),
                         rule_paths={"RPR005": (".",)})
    findings = check_file(path, [checker_for("RPR005")], config)
    rules = sorted(f.rule for f in findings)
    # The reason-less noqa does NOT suppress, and is itself a finding.
    assert rules == [META_RULE, "RPR005"]


def test_suppressions_scan_parses_rule_and_requires_reason():
    sup = Suppressions.scan(
        "x = 1  # repro: noqa[RPR003] injected clock\n"
        "y = 2  # repro: noqa[RPR001]\n"
    )
    assert sup.by_line == {1: ("RPR003",)}
    assert sup.malformed == (2,)
    assert sup.covers(Finding("f.py", 1, "RPR003", "m"))
    assert not sup.covers(Finding("f.py", 1, "RPR001", "m"))


def test_syntax_error_is_a_meta_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    config = CheckConfig(root=tmp_path, paths=(".",))
    findings = check_file(path, all_checkers(), config)
    assert len(findings) == 1
    assert findings[0].rule == META_RULE
    assert "syntax error" in findings[0].message


# ---------------------------------------------------------------------------
# The meta-test: the repo itself is clean; a seeded violation is not.

def test_repro_check_exits_zero_on_the_repo(capsys):
    assert main(["check", "--root", str(REPO_ROOT)]) == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert "0 findings" in out.err


def _seed_project(tmp_path: Path, fixture: Path) -> Path:
    """A throwaway project whose pyproject scopes every rule onto pkg/."""
    rule_tables = "".join(
        f"[tool.repro.check.{rule}]\npaths = [\"pkg\"]\n" for rule in RULES
    )
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.check]\npaths = [\"pkg\"]\n" + rule_tables
    )
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    seeded = pkg / fixture.name
    seeded.write_text(fixture.read_text())
    return seeded


@pytest.mark.parametrize("rule", RULES)
def test_seeded_violation_reported_with_correct_path_and_line(rule, tmp_path):
    fixture = DATA / f"{rule.lower()}_bad.py"
    seeded = _seed_project(tmp_path, fixture)
    findings = [f for f in run_check(root=tmp_path) if f.rule == rule]
    assert [f.line for f in findings] == violation_lines(seeded)
    assert all(f.path == f"pkg/{fixture.name}" for f in findings)
    # ... and the CLI exit status turns red.
    assert main(["check", "--root", str(tmp_path)]) == 1


def test_rule_filter_limits_the_pass(tmp_path, capsys):
    _seed_project(tmp_path, DATA / "rpr005_bad.py")
    assert main(["check", "--root", str(tmp_path), "--rule", "RPR001"]) == 0
    assert main(["check", "--root", str(tmp_path), "--rule", "RPR005"]) == 1
    capsys.readouterr()


def test_json_format_uses_the_shared_emitter(tmp_path, capsys):
    from repro.reporting import render_json

    _seed_project(tmp_path, DATA / "rpr002_bad.py")
    assert main(["check", "--root", str(tmp_path), "--format", "json"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["count"] == len(payload["findings"]) > 0
    finding = payload["findings"][0]
    assert finding["rule"] == "RPR002"
    assert finding["path"] == "pkg/rpr002_bad.py"
    # Byte-identical to the shared reporting emitter's dialect.
    assert out.rstrip("\n") == render_json(payload)


def test_list_rules_names_all_five(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out
    assert rule_table().splitlines() == sorted(rule_table().splitlines())


# ---------------------------------------------------------------------------
# Config plumbing

def test_repo_config_scopes_the_pass():
    config = load_config(REPO_ROOT)
    assert config.root == REPO_ROOT
    assert "src/repro" in config.paths


def test_lock_discipline_covers_every_megis_module_that_binds_a_lock():
    """RPR002's scope — the repo's configured one and the checker's own
    default — names every ``megis`` file that constructs a lock."""
    scopes = (load_config(REPO_ROOT).rule_paths["RPR002"],
              checker_for("RPR002").default_paths)
    binders = [
        path.relative_to(REPO_ROOT).as_posix()
        for path in sorted((REPO_ROOT / "src/repro/megis").rglob("*.py"))
        if any(factory in path.read_text()
               for factory in ("threading.Lock(", "RLock(", "Condition("))
    ]
    assert len(binders) >= 3
    for scope in scopes:
        assert [rel for rel in binders if not path_matches(rel, scope)] == []


@pytest.mark.parametrize("rule", sorted(load_config(REPO_ROOT).rule_paths))
def test_configured_scope_is_the_checkers_default(rule):
    """`repro check` without the pyproject table scans the tree CI scans."""
    configured = load_config(REPO_ROOT).rule_paths[rule]
    assert configured == checker_for(rule).default_paths


def test_ci_strict_typing_flags_are_the_pyproject_list():
    """The ``mypy --strict`` scope is written once, as
    ``[tool.repro.typing] strict``; CI's ``-p`` flags are that list, in
    order."""
    tomllib = pytest.importorskip("tomllib")
    yaml = pytest.importorskip("yaml")
    with (REPO_ROOT / "pyproject.toml").open("rb") as handle:
        strict = tomllib.load(handle)["tool"]["repro"]["typing"]["strict"]
    workflow = yaml.safe_load((REPO_ROOT / ".github/workflows/ci.yml").read_text())
    runs = [
        step["run"]
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if "mypy --strict" in step.get("run", "")
    ]
    assert len(runs) == 1
    assert re.findall(r"-p\s+(\S+)", runs[0]) == strict
    assert len(set(strict)) == len(strict) >= 1


def test_path_matches_prefix_and_glob():
    assert path_matches("src/repro/megis/wire.py", ("src/repro",))
    assert path_matches("src/repro/megis/wire.py", ("src/*/megis/*.py",))
    assert not path_matches("tests/test_wire.py", ("src/repro",))
    # A no-wildcard pattern is a prefix, not a substring.
    assert not path_matches("src/repro_extras/x.py", ("src/repro",))

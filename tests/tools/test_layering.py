"""The import-layering lint must pass on the real tree and catch breaks."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CHECKER_PATH = REPO_ROOT / "tools" / "check_layering.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_layering", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_real_tree_is_layered(checker):
    """The shipped source tree must have zero layering violations."""
    violations = checker.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def test_cli_entry_point_passes(checker, capsys):
    assert checker.main(["--root", str(REPO_ROOT / "src")]) == 0
    assert "layering OK" in capsys.readouterr().out


def test_core_importing_eval_is_flagged(checker, tmp_path):
    """A repro.core module importing repro.eval must fail the lint."""
    package = tmp_path / "repro"
    for sub in ("core", "eval"):
        (package / sub).mkdir(parents=True)
        (package / sub / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "core" / "bad.py").write_text(
        "from repro.eval.experiments import run_model\n"
    )
    violations = checker.check_tree(tmp_path)
    assert len(violations) == 1
    assert "repro.core.bad imports repro.eval.experiments" in violations[0]
    assert checker.main(["--root", str(tmp_path)]) == 1


def test_relative_imports_are_resolved(checker, tmp_path):
    """`from ..cli import x` inside repro.core resolves and is flagged."""
    package = tmp_path / "repro"
    (package / "core").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("")
    (package / "core" / "__init__.py").write_text("")
    (package / "core" / "sneaky.py").write_text("from ..cli import main\n")
    violations = checker.check_tree(tmp_path)
    assert len(violations) == 1
    assert "repro.core.sneaky imports repro.cli" in violations[0]


def test_missing_package_root_errors(checker, tmp_path):
    assert checker.main(["--root", str(tmp_path)]) == 2


def test_clean_tree_passes(checker, tmp_path):
    package = tmp_path / "repro"
    (package / "core").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "core" / "__init__.py").write_text("")
    (package / "core" / "fine.py").write_text(
        "import numpy as np\nfrom repro.core import fine  # self import ok\n"
    )
    assert checker.check_tree(tmp_path) == []


def test_real_tree_has_no_stale_rules(checker):
    assert checker.stale_rules(REPO_ROOT / "src") == []


def test_rule_for_a_missing_module_fails(checker, monkeypatch, capsys):
    """A rule naming a deleted module (as key or prefix) fails the lint."""
    root = REPO_ROOT / "src"
    rules = {
        "repro.nn.gone": ("repro.core",),
        "repro.nn.layers": ("repro.nn.network", "repro.nn.vanished"),
    }
    stale = checker.stale_rules(root, rules)
    assert len(stale) == 2
    assert "repro.nn.gone names no module" in stale[0]
    assert "repro.nn.vanished names no module" in stale[1]
    monkeypatch.setitem(checker.FORBIDDEN, "repro.nn.gone", ("repro.core",))
    assert checker.main(["--root", str(root)]) == 1
    assert "1 stale layering rule(s)" in capsys.readouterr().out

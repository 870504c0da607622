"""The CI workflow and `ci/checks.py` stay in step, and each golden digest
is written once. The workflow is read as text: no YAML library."""

import importlib.util
import os
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import golden

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "test.yml"
# a sha256 (64 hex digits) or a 16-digit short digest, not part of a longer
# hex string
DIGEST = re.compile(
    rb"(?<![0-9a-fA-F])(?:[0-9a-f]{64}|[0-9a-f]{16})(?![0-9a-fA-F])")


def load_checks():
    spec = importlib.util.spec_from_file_location("checks",
                                                  ROOT / "ci" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_every_step_is_called_by_one_workflow_step():
    calls = Counter(re.findall(r"ci/checks\.py\s+(\S+)", WORKFLOW.read_text()))
    assert calls == Counter(list(load_checks().STEPS))


def test_cli_surface_compares_the_console_script_with_the_module(
        tmp_path, monkeypatch):
    # `hm` here is what `pip install` writes for [project.scripts]
    checks = load_checks()
    script = tmp_path / "hm"
    script.write_text(f"#!{sys.executable}\nimport sys\n"
                      f"from healthmap.cli import main\nsys.exit(main())\n")
    script.chmod(0o755)
    monkeypatch.setitem(checks.ENV, "PATH",
                        os.pathsep.join([str(tmp_path), checks.ENV["PATH"]]))
    checks.cli_surface()
    # a script that prints nothing and exits 0 does not pass
    script.write_text(f"#!{sys.executable}\n")
    with pytest.raises(checks.Failed):
        checks.cli_surface()


def test_each_digest_literal_appears_once():
    seen = Counter()
    for top in ("tests", "ci", ".github", "demo"):
        for path in (ROOT / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                seen.update(DIGEST.findall(path.read_bytes()))
    assert [digest for digest, count in seen.items() if count > 1] == []
    # the scan sees every golden digest, so the rule above covers them
    pinned = [value for name, value in vars(golden).items()
              if name.isupper()]
    assert {digest.encode() for value in pinned
            for digest in ([value] if isinstance(value, str) else value)
            } <= set(seen)

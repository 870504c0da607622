"""The CI workflow and `ci/checks.py` stay in step, and each golden digest
is written once. The workflow is read as text: no YAML library."""

import importlib.util
import re
from collections import Counter
from pathlib import Path

import golden

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "test.yml"
# a sha256 (64 hex digits) or a 16-digit short digest, not part of a longer
# hex string
DIGEST = re.compile(
    rb"(?<![0-9a-fA-F])(?:[0-9a-f]{64}|[0-9a-f]{16})(?![0-9a-fA-F])")


def checks_steps() -> list[str]:
    spec = importlib.util.spec_from_file_location("checks",
                                                  ROOT / "ci" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return list(checks.STEPS)


def test_every_step_is_called_by_one_workflow_step():
    calls = Counter(re.findall(r"ci/checks\.py\s+(\S+)", WORKFLOW.read_text()))
    assert calls == Counter(checks_steps())


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

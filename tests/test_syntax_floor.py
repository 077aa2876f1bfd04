"""Every Python file of the project parses at the oldest Python that
``pyproject.toml`` promises (``requires-python``), so syntax from a newer
release cannot slip in unnoticed on a newer interpreter."""

import ast
import re

import pytest

from conftest import REPO_ROOT


def python_floor() -> tuple[int, int]:
    text = (REPO_ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml states no requires-python floor"
    return int(found[1]), int(found[2])


def test_feature_version_refuses_newer_syntax():
    # ``except*`` (3.11) and a ``type`` alias (3.12) are refused at 3.10
    for source in ("try:\n    pass\nexcept* ValueError:\n    pass\n", "type Count = int\n"):
        with pytest.raises(SyntaxError):
            ast.parse(source, feature_version=(3, 10))


def test_every_file_parses_at_the_floor():
    floor = python_floor()
    paths = sorted(path for top in ("src", "tests", "bench")
                   for path in (REPO_ROOT / top).rglob("*.py"))
    assert paths
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as e:
            refused.append(f"{path.relative_to(REPO_ROOT)}:{e.lineno}: {e.msg}")
    assert not refused, refused

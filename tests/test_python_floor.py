"""Every Python file of the project parses as Python 3.10, the floor that
``pyproject.toml`` declares (``requires-python = ">=3.10"``).

``ast.parse(..., feature_version=(3, 10))`` rejects syntax newer than
3.10, such as ``except*`` groups, on a newer interpreter too. It catches
syntax only: a call to a library function that 3.10 lacks, such as
``tomllib`` or ``datetime.UTC``, still parses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src", "tests", "demos", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_every_project_folder_has_sources():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == \
        {"src", "tests", "demos", "bench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

"""The package root exports README's import block, the error classes, the one
helper the benchmark imports from the root, and the version; everything else
is imported from its submodule."""

from __future__ import annotations

import re
from pathlib import Path

import mapdecay

README = Path(__file__).resolve().parent.parent / "README.md"
ERRORS = {"AlignmentError", "ConfigError", "DomainError", "LogError",
          "MapDecayError", "MapFormatError", "ParameterError", "ScenarioError"}


def test_root_is_the_readme_import_block():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^from mapdecay import \((.*?)^\)", text, re.S | re.M).group(1)
    readme = set(re.findall(r"\w+", re.sub(r"#.*", "", block)))
    assert len(mapdecay.__all__) == len(set(mapdecay.__all__)) == 27
    assert set(mapdecay.__all__) == readme | ERRORS | {"ego_pose_at", "__version__"}
    for name in mapdecay.__all__:
        assert getattr(mapdecay, name) is not None, name

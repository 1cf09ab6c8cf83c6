"""The README documents every name the package root exports."""

import re
from pathlib import Path

import pytest

import semimediation

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", semimediation.__all__)
def test_root_export_resolves_and_is_named_in_readme(name):
    assert getattr(semimediation, name) is not None
    assert re.search(rf"\b{re.escape(name)}\b", README), f"{name} is exported but README.md never names it"

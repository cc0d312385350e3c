"""The public surface: every name README's library section uses is
exported, and every exported name resolves."""

import ast
import fnmatch
import re
from pathlib import Path

import pytest

import comsel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_names_are_exported():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :].split("\n## ")[0]
    named = {
        alias.name
        for code in re.findall(r"```python\n(.*?)```", section, flags=re.S)
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "comsel"
        for alias in node.names
    }
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    named |= {span for span in spans if re.fullmatch(r"[A-Za-z_]\w*\*?", span)}
    assert "solve_instance" in named
    assert [n for n in sorted(named) if not fnmatch.filter(comsel.__all__, n)] == []


def test_every_exported_name_resolves(monkeypatch):
    assert len(set(comsel.__all__)) == len(comsel.__all__)
    for name in comsel.__all__:
        getattr(comsel, name)
    assert set(comsel.__all__) <= set(dir(comsel))
    namespace = {}
    exec("from comsel import *", namespace)
    bound = {name for name in namespace if not name.startswith("__")}
    assert bound == set(comsel.__all__) - {"__version__"}
    with pytest.raises(AttributeError):
        comsel.no_such_name
    # names resolve on each access: a patch shows through the package and
    # leaves nothing behind once undone
    from comsel import solve

    original = solve.solve_instance
    with monkeypatch.context() as patch:
        patch.setattr(solve, "solve_instance", lambda *a, **k: None)
        assert comsel.solve_instance is solve.solve_instance is not original
    assert comsel.solve_instance is solve.solve_instance is original

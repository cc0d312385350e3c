"""The public surface: every name README's library section uses is
exported, every exported name resolves, and README's examples run as
written."""

import ast
import contextlib
import fnmatch
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

import comsel
from comsel.cli import main

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
    for span in re.findall(r"`([^`]+)`", prose):
        # a bare name, a ``gen_*`` pattern, or a call such as ``f(x, y)``
        name = re.fullmatch(r"([A-Za-z_]\w*\*?)(\([^()]*\))?", span)
        if name:
            named.add(name[1])
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


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    """Every ``$ `` command in README's shell transcripts, run through
    ``cli.main`` in order, prints the lines shown under it; the instance
    file is the first JSON block, and ``cat`` shows a file's contents."""
    text = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    Path("instance.json").write_text(
        re.search(r"```json\n(.*?)```", text, flags=re.S)[1], encoding="utf-8"
    )
    codes = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        # a command, then the lines up to the next command
        transcript = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", block, flags=re.M)
        for command, shown in transcript:
            if command.startswith("cat "):
                Path(command[4:]).write_text(shown, encoding="utf-8")
                continue
            out = ""
            for stage in command.split(" | "):
                argv = shlex.split(stage)
                assert argv[0] == "comsel", command
                monkeypatch.setattr(sys, "stdin", io.StringIO(out))
                codes.append(main(argv[1:]))
                out = capsys.readouterr().out
            assert out == shown, command
    # solve, check ok, check with violations, then gen and solve
    assert codes == [0, 0, 1, 0, 0]


def test_readme_library_example_prints_its_comment():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :].split("\n## ")[0]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S)[1]
    expected = re.search(r"# (.*)$", code.strip())[1]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, {})
    assert printed.getvalue() == expected + "\n"

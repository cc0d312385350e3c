"""The public surface: every name README's library section uses is
exported, every exported name resolves, and README's examples run as
written."""

import ast
import contextlib
import fnmatch
import functools
import importlib
import inspect
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


def test_each_export_is_listed_under_its_defining_module():
    """A patch of the defining module shows through the package only when
    ``_EXPORTS`` looks the name up there."""
    misplaced = [
        f"{name}: listed under {module}, defined in {obj.__module__}"
        for module, names in comsel._EXPORTS.items()
        for name in names
        if (inspect.isclass(obj := getattr(comsel, name)) or inspect.isfunction(obj))
        and obj.__module__ != f"comsel.{module}"
    ]
    assert misplaced == []


def test_the_package_has_no_import_cycle():
    """Every relative import in ``src/comsel`` is an edge, also one under
    ``if TYPE_CHECKING:`` or inside a function; no edge lies on a cycle."""
    package = Path(comsel.__file__).parent
    imports = {path.stem: set() for path in package.glob("*.py")}
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                # ``from . import x`` names a module; ``from .x import y`` too
                named = [node.module] if node.module else [a.name for a in node.names]
                imports[path.stem].update(n.split(".")[0] for n in named)
    imports = {m: targets & imports.keys() for m, targets in imports.items()}

    def reached(start: str) -> set[str]:
        seen, stack = set(), [start]
        while stack:
            module = stack.pop()
            if module not in seen:
                seen.add(module)
                stack.extend(imports[module])
        return seen

    on_cycle = [
        f"{a} -> {b}" for a in sorted(imports) for b in sorted(imports[a]) if a in reached(b)
    ]
    assert on_cycle == []


def test_the_cli_imports_no_private_name():
    """Each module of the package, ``cli.py`` among them, uses the others
    through their public names only: it imports no underscore name from
    another comsel module and passes no underscore keyword.  How an input
    is read belongs to ``comsel.document``, and how a profile's code string
    is built to ``elections.RankingCoder``."""
    private = []
    for path in sorted(Path(comsel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [
                    f"{path.stem}: {node.module}.{alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
            elif isinstance(node, ast.Call):
                private += [
                    f"{path.stem}: {keyword.arg}="
                    for keyword in node.keywords
                    if keyword.arg and keyword.arg.startswith("_")
                ]
    assert private == []


def test_only_validation_format_and_defaults_ask_which_rule():
    """Each rule scores itself (``rule.scores``), so only the instance's
    validation, the document format and ``gen_random``'s default order test
    a rule's type; ``solve`` imports neither rule module."""
    rules = {"StvRule", "WeaklySeparableRule"}
    asking, solve_imports = set(), set()
    for path in Path(comsel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and rules & {getattr(n, "id", None) for n in ast.walk(node.args[1])}
            ):
                asking.add(path.stem)
            elif path.stem == "solve" and isinstance(node, ast.ImportFrom):
                solve_imports.add(node.module)
    assert sorted(asking - {"instances", "document", "generators"}) == []
    assert solve_imports & {"elections", "stv"} == set()


def test_every_name_perfbench_reaches_resolves():
    """perfbench reaches into the package by name: its ``from comsel...
    import``s, the attributes it reads off what those bind
    (``cli.parse_instance``) and the functions ``spans.TARGETS`` wraps.
    Each must still resolve, or a rename breaks the benchmark."""

    def resolves(dotted: str) -> bool:
        # the longest prefix that imports as a module, then attributes
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                functools.reduce(getattr, parts[cut:], obj)
            except AttributeError:
                return False
            return True
        return False

    def dotted(node: ast.AST) -> list[str]:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        return [node.id, *parts] if isinstance(node, ast.Name) else []

    reached = set()
    for path in (README.parent / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # a local name -> what it binds, dotted from ``comsel``
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):  # ``import comsel.x`` binds comsel
                if any(a.name.split(".")[0] == "comsel" for a in node.names):
                    bound["comsel"] = "comsel"
            elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").split(".")[0] == "comsel"
            ):
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    reached.add(f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Assign) and dotted(node.targets[0]) == ["TARGETS"]:
                reached.update(f"{m}.{a}" for _, m, a in ast.literal_eval(node.value))
        for node in ast.walk(tree):
            parts = dotted(node) if isinstance(node, ast.Attribute) else []
            if parts and parts[0] in bound:
                reached.add(".".join([bound[parts[0]], *parts[1:]]))
    assert len(reached) > 20  # the walk found perfbench's names
    assert sorted(name for name in reached if not resolves(name)) == []


def test_the_readme_error_table_lists_every_code():
    """README's error table has a row for each code the package can print,
    and each row names one: a ``code="..."`` argument, a class-level
    ``code``, ``InputError``'s default, or a code the CLI writes itself."""
    def constant(node):
        return node.value if isinstance(node, ast.Constant) else None

    printed = {inspect.signature(comsel.InputError).parameters["code"].default}
    for path in Path(comsel.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg == "code":
                printed.add(constant(node.value))
            elif isinstance(node, ast.Assign):  # ``code = "..."`` in a class
                if [getattr(t, "id", None) for t in node.targets] == ["code"]:
                    printed.add(constant(node.value))
            elif isinstance(node, ast.JoinedStr):  # the CLI's f"error[io]: ..."
                for part in map(constant, node.values):
                    printed.update(re.findall(r"error\[([a-z-]+)\]", part or ""))
    printed.discard(None)  # a code passed on in a variable
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| code "):].split("\n\n")[0]
    rows = set(re.findall(r"^\| `([a-z-]+)` ", table, flags=re.M))
    assert {"io", "internal", "invalid-input", "budget"} <= printed
    assert sorted(printed - rows) == []
    assert sorted(rows - printed) == []


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

"""Every module of the package uses each name it imports, and every public
function or class it defines has a caller outside the tests; and what a
fresh import of the package loads.

The first two are parsed with `ast`, so nothing is imported or run.
Re-exports in ``__init__.py`` are exempt, and a name used only inside a
string annotation counts as used.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import migratenet

MODULES = sorted(p for p in Path(migratenet.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
# the benchmark drives the package from outside it; its calls count as uses
PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, those inside string annotations included."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_string_annotations_count_as_uses():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n    from x import A, B\n"
                     "def f(a: 'A') -> 'list[B]': ...\n")
    assert not set(imported_names(tree)) - used_names(tree)
    assert "C" not in used_names(ast.parse("import C\n"))


def loaded_names(tree: ast.Module) -> set[str]:
    """The names `used_names` finds, and every attribute read (``mod.name``)."""
    return used_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)
                               and isinstance(node.ctx, ast.Load)}


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert PERFBENCH, "perfbench/ not found beside tests/"
    loaded = set()
    for path in MODULES + PERFBENCH:
        loaded |= loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [f"{path.name}: {node.name}" for path in MODULES
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in loaded]
    assert not unused, f"public names only the tests use: {unused}"


def test_attribute_reads_count_as_loads():
    tree = ast.parse("import m\nm.f()\nx = m.C\nm.g = 1\n")
    assert {"m", "f", "C"} <= loaded_names(tree) and "g" not in loaded_names(tree)


# Run in a fresh interpreter: the modules `import migratenet, migratenet.bench`
# loads (as every `migratenet run` and every benchmark set-up does), and the
# classes defined in them that are dataclasses
FRESH_IMPORT = """
import dataclasses, json, sys
import migratenet, migratenet.bench
modules = {name: module for name, module in sys.modules.items()
           if name.partition(".")[0] == "migratenet"}
print(json.dumps({
    "file": migratenet.__file__,
    "modules": sorted(modules),
    "dataclasses": sorted(name for module in modules.values()
                          for name, value in vars(module).items()
                          if isinstance(value, type) and value.__module__ == module.__name__
                          and dataclasses.is_dataclass(value)),
}))
"""
# the same, for the whole package with the CLI: is `dataclasses` loaded?
FRESH_CLI_IMPORT = """
import json, sys
import migratenet, migratenet.bench, migratenet.cli
print(json.dumps({"file": migratenet.__file__, "dataclasses": "dataclasses" in sys.modules}))
"""


def fresh_import(script: str) -> dict:
    """The JSON that `script` prints, run in a fresh interpreter that
    imports the package from this tree."""
    src = str(Path(migratenet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = json.loads(done.stdout)
    assert Path(loaded["file"]).resolve() == Path(migratenet.__file__).resolve()
    return loaded


def test_a_fresh_import_loads_no_templates_and_only_the_needed_dataclasses():
    loaded = fresh_import(FRESH_IMPORT)
    assert "migratenet.bench" in loaded["modules"]
    assert not {"migratenet.templates", "migratenet.cli"} & set(loaded["modules"])
    # the records are plain classes: an import decorates nothing
    assert loaded["dataclasses"] == []


def test_a_fresh_import_with_the_cli_loads_no_dataclasses_module():
    assert fresh_import(FRESH_CLI_IMPORT)["dataclasses"] is False

"""Every top-level definition in src/soundloc has a caller.

A top-level function or class must be named, as a word, somewhere outside
its own definition: in another part of src/soundloc, in perfbench, or among
the names that the acceptance gate imports from soundloc or reads through a
soundloc module (``ad.grad_check``). The gate's names are read from the file
with ``ast``, so the list follows it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soundloc"


def definitions(source: str) -> list[tuple[str, int, int]]:
    """The module's top-level functions and classes: name, first and last line."""
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def acceptance_names(source: str) -> set[str]:
    """Names the file imports from soundloc, or reads through a module of it."""
    names, modules = set(), set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("soundloc"):
            for alias in node.names:
                names.add(alias.name)
                if node.module == "soundloc":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add(node.attr)
    return names


def uncalled(modules: dict[str, str], others: list[str],
             allowed: set[str]) -> list[str]:
    """``module.name`` of each definition named nowhere outside itself.

    ``modules`` maps a module's name to its source; ``others`` are more
    sources that may name a definition, and ``allowed`` names that count
    as called.
    """
    found = []
    for module, source in modules.items():
        lines = source.splitlines()
        rest = [text for name, text in modules.items() if name != module]
        for name, first, last in definitions(source):
            if name in allowed:
                continue
            outside = "\n".join(lines[:first - 1] + lines[last:])
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in [outside, *rest, *others]):
                found.append(f"{module}.{name}")
    return found


def test_every_definition_has_a_caller():
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    others = [path.read_text(encoding="utf-8")
              for path in sorted((ROOT / "perfbench").glob("*.py"))]
    allowed = acceptance_names(
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    assert {"grad_check", "total_loss", "init_head_params"} <= allowed
    assert uncalled(modules, others, allowed) == []


def test_an_uncalled_function_is_reported():
    lib = ("def used(x):\n    return helper(x)\n\n\n"
           "def helper(x):\n    return x\n\n\n"
           "def orphan(x):\n    # orphan calls itself, which is no caller\n"
           "    return orphan(x - 1) if x else 0\n\n\n"
           "class Kept:\n    pass\n")
    gate = ("from soundloc import lib as lb\n"
            "from soundloc.lib import Kept\n\n"
            "lb.used(1)\n")
    allowed = acceptance_names(gate)
    assert allowed == {"lib", "Kept", "used"}
    assert uncalled({"lib": lib}, [], allowed) == ["lib.orphan"]
    # a caller in another module, or in a further source, counts
    assert uncalled({"lib": lib, "app": "orphan(3)\n"}, [], allowed) == []
    assert uncalled({"lib": lib}, ["orphan(3)\n"], allowed) == []

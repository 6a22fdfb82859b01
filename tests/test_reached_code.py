"""Each function the package defines is reached from the package or the benchmark, not from tests alone.

A function, method or nested function of ``src/fairhrv`` whose name
appears nowhere in ``src/fairhrv`` or ``perfbench`` besides its own
``def`` line has no caller but a test; dunder methods are skipped, as
Python calls them. The repo root holds no script either. The other way
round, each function the benchmark traces by name exists.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fairhrv").glob("*.py"))
SEARCHED = SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))


def defined_functions(source: str) -> set:
    """The names of the functions, methods and nested functions ``source`` defines, dunders excepted."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def unreferenced(names, texts) -> set:
    """The ``names`` that no text holds as a whole word, other than where ``def`` defines them."""
    text = "\n".join(texts)
    return {name for name in names if not re.search(rf"(?<!def )\b{re.escape(name)}\b", text)}


def test_every_function_is_reached_from_the_package_or_the_benchmark():
    defined = set().union(*(defined_functions(path.read_text()) for path in SOURCES))
    # a method, a nested function and a command: a finder that missed them would pass vacuously
    assert {"feature_tensor", "command", "cmd_extract"} <= defined
    unused = unreferenced(defined, [path.read_text() for path in SEARCHED])
    assert not unused, f"defined but referenced only by their def lines: {sorted(unused)}"


def test_unreferenced_reads_nested_functions_and_skips_dunders():
    source = ("class A:\n    def __len__(self):\n        return 0\n\n    def used(self):\n"
              "        def inner():\n            pass\n        return inner\n\n"
              "def lone():\n    return A().used()\n")
    assert defined_functions(source) == {"used", "inner", "lone"}
    assert unreferenced(defined_functions(source), [source]) == {"lone"}


def test_repo_root_holds_no_script():
    assert [path.name for path in ROOT.glob("*.py")] == []


def test_every_traced_function_exists():
    # perfbench/tracer.py imports only the standard library, so it loads by path, without perfbench on sys.path
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr, _ in tracer.LAYER_FUNCTIONS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert tracer.LAYER_FUNCTIONS and not missing, missing

"""Each function the package defines is reached from the package or the benchmark, not from tests alone.

A function, method or nested function of ``src/fairhrv`` whose name
appears nowhere in ``src/fairhrv`` or ``perfbench`` besides its own
``def`` line has no caller but a test; dunder methods are skipped, as
Python calls them. Likewise each field of a ``@dataclass`` there is read
as ``.field`` in ``src/fairhrv`` or ``perfbench``: a field that is only
written holds state no artifact or caller uses. The repo root holds no
script either. The other way round, each function the benchmark traces
by name exists.
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


def dataclass_fields(source: str) -> set:
    """The (class, field) pairs of the annotated fields of each ``@dataclass`` class ``source`` defines."""
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return {(node.name, stmt.target.id) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
            for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}


def attributes_read(source: str) -> set:
    """The attribute names ``source`` reads, as in ``obj.name``; assignments to ``obj.name`` are not reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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


def test_every_dataclass_field_is_read_in_the_package_or_the_benchmark():
    fields = set().union(*(dataclass_fields(path.read_text()) for path in SOURCES))
    # a frozen and a plain dataclass: a finder that missed them would pass vacuously
    assert {("TrainConfig", "mc_passes"), ("ModelParams", "epoch")} <= fields
    read = set().union(*(attributes_read(path.read_text()) for path in SEARCHED))
    unread = sorted(f"{owner}.{name}" for owner, name in fields if name not in read)
    assert not unread, f"dataclass fields never read as .field: {unread}"


def test_field_finder_reads_decorator_forms_and_skips_writes():
    source = ("from dataclasses import dataclass\nimport dataclasses\n\n@dataclass(frozen=True)\nclass A:\n"
              "    x: int\n    y: int = 0\n\n@dataclasses.dataclass\nclass B:\n    z: int\n\nclass C:\n"
              "    w: int\n\ndef f(a, b):\n    b.z = a.x\n")
    assert dataclass_fields(source) == {("A", "x"), ("A", "y"), ("B", "z")}
    assert attributes_read(source) == {"x", "dataclass"}


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

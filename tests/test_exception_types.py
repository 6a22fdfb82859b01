"""Each exception class the package defines is one that some code of the package catches by name.

A failure that no caller tells apart raises a built-in exception with a
message that says what went wrong; a class of its own is kept only where
an ``except`` clause of the package needs it.
"""

import ast
import importlib
import inspect
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fairhrv"
SOURCES = sorted(PACKAGE.glob("*.py"))


def defined_exception_classes() -> set:
    """The names of the exception classes that the package's modules define."""
    names = set()
    for path in SOURCES:
        module = importlib.import_module("fairhrv" if path.stem == "__init__" else f"fairhrv.{path.stem}")
        names.update(name for name, value in vars(module).items() if inspect.isclass(value)
                     and issubclass(value, BaseException) and value.__module__ == module.__name__)
    return names


def caught_names(source: str) -> set:
    """Every name an ``except`` clause of ``source`` lists: ``X`` for ``X`` and ``module.X``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            listed = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(n.attr if isinstance(n, ast.Attribute) else n.id for n in listed)
    return names


def test_every_exception_class_is_caught_somewhere():
    defined = defined_exception_classes()
    caught = set().union(*(caught_names(path.read_text()) for path in SOURCES))
    # the two the CLI catches by name: a finder that missed them would pass vacuously
    assert {"OutOfRange", "TrainingDiverged"} <= defined
    assert defined <= caught, f"defined but caught nowhere: {sorted(defined - caught)}"


def test_caught_names_reads_tuples_and_qualified_names():
    source = "try:\n    pass\nexcept (A, mod.B):\n    pass\nexcept C as exc:\n    pass\nexcept:\n    pass\n"
    assert caught_names(source) == {"A", "B", "C"}

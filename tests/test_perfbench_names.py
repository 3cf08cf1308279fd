"""The palfree names that the benchmark harness in perfbench/ reaches.

perfbench/spans.py wraps each TRACED name and perfbench/child.py calls a
few more; a name deleted or renamed in src/palfree would only show when the
harness runs (with --trace 1 for the traced ones).  Both files are read,
never imported as modules, so no bytecode is written under perfbench/."""

import ast
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced() -> dict:
    path = PERFBENCH / "spans.py"
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["TRACED"]


def _child_calls() -> set:
    """(module, name) for every palfree name child.py imports or reads off
    the imported cli module."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("palfree"):
            names.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cli"):
            names.add(("palfree.cli", node.attr))
    return names


def _importable(module: str, name: str) -> bool:
    """As `from module import name` finds it: an attribute or a submodule."""
    return (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None)


@pytest.mark.parametrize("layer,attr", [(layer, attr) for layer, names in _traced().items()
                                        for attr in names])
def test_traced_names_resolve(layer, attr):
    """Class.method names on the class itself, as Tracer.install reads
    them; the other names on the module."""
    mod = importlib.import_module(f"palfree.{layer}")
    if "." in attr:
        cls, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls)), f"{layer}.{attr}"
    else:
        assert hasattr(mod, attr), f"{layer}.{attr}"


def test_child_calls_resolve():
    calls = _child_calls()
    assert {("palfree.cli", "build_parser"), ("palfree.cli", "run_command"),
            ("palfree.morphisms", "load_morphism"),
            ("palfree.morphisms", "shipped_morphisms")} <= calls
    for module, name in sorted(calls):
        assert _importable(module, name), f"{module}.{name}"

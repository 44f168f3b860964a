"""Source hygiene: no module of the package imports a name it never uses
or an underscore name of another module, every name the package exports
exists, once, and every class attribute the bench's tracer wraps exists."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import ecdnorm
import ecdnorm.cli  # the tracer also wraps the names the CLI imports

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ecdnorm"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (``__future__`` aside) that no
    expression of the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from typing import Callable, Sequence\n"
        "f: Callable = math.sqrt\n"
    )
    assert unused_imports(source) == ["Sequence"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that module-level relative imports take from
    another module of the package."""
    return [
        a.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
        if a.name.startswith("_")
    ]


def test_the_check_finds_a_private_import():
    source = "from .optim import EnergyCap, _stalled\nfrom numpy import _pytesttester\n"
    assert private_imports(source) == ["_stalled"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    """A module's underscore names are its own: another module that needs
    one calls a public function instead."""
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_every_export_resolves_once():
    """A stale entry of __all__ would break only `from ecdnorm import *`."""
    assert [n for n, k in Counter(ecdnorm.__all__).items() if k > 1] == []
    assert [n for n in ecdnorm.__all__ if not hasattr(ecdnorm, n)] == []


def test_every_traced_method_exists(monkeypatch):
    """`perfbench/tracing.py` wraps class attributes by name, so renaming one
    would make `perfbench/run.py --trace 1` raise."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install(ecdnorm)
    finally:
        tracer.uninstall()
    methods = [t for targets in tracing.METHOD_SPANS.values() for t in targets]
    assert [t for t in methods if t[2] not in vars(getattr(getattr(ecdnorm, t[0]), t[1]))] == []

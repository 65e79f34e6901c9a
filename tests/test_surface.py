"""Every name the package exports has a reader outside the tests.

A name in ``mlcpcm.__all__`` (modules aside) must be read somewhere in
``src/mlcpcm/`` other than its own definition and ``__init__``, be wrapped
by the benchmark tracer (``bench/tracing.py``'s ``TRACED``), or be named in
backticks in the README. Reads are AST names and attributes, so a docstring
or an import is not a reader. A name that only the tests read belongs in
``tests/``.
"""

import ast
import importlib.util
import re
import types
from pathlib import Path

import mlcpcm

ROOT = Path(__file__).resolve().parents[1]


def _src_reads() -> set[str]:
    """Names and attributes read in src/mlcpcm/ outside __init__, each
    top-level definition's own name excluded within it."""
    reads = set()
    for path in (ROOT / "src" / "mlcpcm").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    reads.add(name)
    return reads


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {span.rsplit(".", 1)[-1] for _, span in tracing.TRACED}


def _readme_names() -> set[str]:
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_exported_name_has_a_reader_outside_the_tests():
    exported = [name for name in mlcpcm.__all__
                if not isinstance(getattr(mlcpcm, name), types.ModuleType)]
    read = _src_reads() | _traced() | _readme_names()
    assert exported
    assert [name for name in exported if name not in read] == []

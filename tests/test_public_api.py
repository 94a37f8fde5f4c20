"""The package's public surface: the README quick start runs as printed,
and ``graspfield.__all__`` holds exactly what the demos and the README
import from the package, each name resolving."""

import ast
import contextlib
import io
import re
from pathlib import Path

import graspfield

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _package_imports(source: str) -> set[str]:
    """Names a piece of code imports with ``from graspfield import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "graspfield" and node.level == 0
        for alias in node.names
    }


def test_readme_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), "README quick start", "exec"), {})
    assert out.getvalue().split() == ["1.0", "1.0", "1.0"]


def test_demo_and_readme_imports_are_public():
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    used = set().union(*map(_package_imports, sources + [_quick_start()]))
    assert len(sources) == 8 and used
    assert used <= set(graspfield.__all__), sorted(used - set(graspfield.__all__))


def test_every_public_name_resolves():
    assert len(graspfield.__all__) == len(set(graspfield.__all__))
    for name in graspfield.__all__:
        assert getattr(graspfield, name) is not None, name
    namespace = {}
    exec("from graspfield import *", namespace)
    assert set(graspfield.__all__) <= set(namespace)

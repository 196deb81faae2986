"""The package holds only what its command runs: every module is reached
from `cli` through the package's own imports, and README's "Modules"
table lists exactly those modules."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weingarten"


def package_imports(path):
    """Names of the package's modules that one module imports; the package
    imports itself relatively, as `from .x import ...` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.partition(".")[0])
    return found


def modules():
    return {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def reachable_from_cli():
    seen, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(package_imports(PACKAGE / f"{name}.py") & modules())
    return seen


def test_every_module_is_reached_from_cli():
    assert reachable_from_cli() == modules()


def test_readme_modules_table_lists_the_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` +\|", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == reachable_from_cli()

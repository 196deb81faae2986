"""The package holds only what its command runs: every module is reached
from `cli` through the package's own imports, every top-level function,
class and constant from the commands themselves, and README's "Modules"
table lists exactly those modules, whose names README cites as they are."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weingarten"


def relative_bindings(tree):
    """Local name -> (module, name) for `from .x import name as local`,
    and local name -> (module, None) for `from . import module as local`:
    the package imports itself relatively."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (node.module, alias.name) if node.module else (alias.name, None)
                found[alias.asname or alias.name] = target
    return found


def package_imports(path):
    """Names of the package's modules that one module imports."""
    bindings = relative_bindings(ast.parse(path.read_text(encoding="utf-8")))
    return {module.partition(".")[0] for module, _ in bindings.values()}


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


#: top-level names that no command reads, kept for a reason outside `src/`
UNREACHED_BY_DESIGN = {
    # perfbench/layertrace.py binds `spla.spsolve` when it installs its
    # tracer; ROADMAP item 17 removes both
    ("linsolve", "spsolve"),
}


def definitions(tree):
    """Top-level functions, classes and constants of a module, by name,
    each with the node whose names it reads; dunder names such as
    `__all__` describe the module and are left out."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    found[target.id] = node
    return found


def parsed_modules():
    return {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
            for name in modules()}


def reached_from_commands(trees):
    """(module, name) of every top-level definition that `cli.main` and the
    `cmd_*` functions read, directly or through other definitions: names in
    bodies, defaults, decorators, bases and module-level values, followed
    through the package's relative imports."""
    defs = {name: definitions(tree) for name, tree in trees.items()}
    imports = {name: relative_bindings(tree) for name, tree in trees.items()}
    seen = set()
    todo = [("cli", name) for name in defs["cli"] if name == "main" or name.startswith("cmd_")]
    while todo:
        module, name = key = todo.pop()
        if key in seen or name not in defs.get(module, {}):
            continue
        seen.add(key)
        for node in ast.walk(defs[module][name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in defs[module]:
                    todo.append((module, node.id))
                elif node.id in imports[module]:
                    todo.append(imports[module][node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                # `module.name` through `from . import module`
                target = imports[module].get(node.value.id)
                if target is not None and target[1] is None:
                    todo.append((target[0], node.attr))
    return seen


def test_every_top_level_name_is_reached_from_the_commands():
    trees = parsed_modules()
    defined = {(module, name) for module, tree in trees.items() for name in definitions(tree)}
    unreached = defined - reached_from_commands(trees)
    assert unreached == UNREACHED_BY_DESIGN, sorted(unreached - UNREACHED_BY_DESIGN)


def test_readme_module_references_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", readme)
             if module in modules()}
    assert cited
    stale = [f"{module}.{name}" for module, name in sorted(cited)
             if not hasattr(importlib.import_module(f"weingarten.{module}"), name)]
    assert not stale

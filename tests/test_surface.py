"""``src/`` holds only what the protocol runs.

Every public module-level function or class in ``src/vtrain`` must be used
somewhere else in ``src/vtrain``, or be named in ``bench/*.py``, which
drives the package from outside. A helper only the tests call belongs in
``tests/``. Re-exports in ``__init__.py`` and bare imports do not count as
uses. Click command callbacks run from the command line and are exempt.
"""

import ast

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "vtrain"

# "module.name": why it stays although nothing calls it yet
ALLOWED = {
    "cli.load_weights": "ROADMAP direction 2: fine-tuning starts from given weights",
}


def _trees(paths) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _used_names(tree: ast.Module, strings: bool) -> set[str]:
    """Names the module reads, as identifiers or attributes, and its strings if asked."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _is_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and not _is_command(node)]


def unused_definitions() -> tuple[list[str], list[str]]:
    """Public definitions nothing uses, and allowlist entries that something now uses."""
    modules = _trees(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    used = set().union(*(_used_names(t, strings=False) for t in modules.values()))
    used |= set().union(*(_used_names(t, strings=True)
                          for t in _trees(sorted((REPO_ROOT / "bench").glob("*.py"))).values()))
    unused, stale = [], []
    for module, tree in modules.items():
        for name in _public_definitions(tree):
            qualified = f"{module}.{name}"
            if name not in used and qualified not in ALLOWED:
                unused.append(qualified)
            elif name in used and qualified in ALLOWED:
                stale.append(qualified)
    return unused, stale


def test_every_public_definition_is_used():
    unused, stale = unused_definitions()
    assert not unused, f"used only by tests, or by nothing: {unused}; move to tests/ or delete"
    assert not stale, f"allowlisted but now used; drop from ALLOWED: {stale}"


def test_allowlist_names_real_definitions():
    modules = _trees(PACKAGE.glob("*.py"))
    for qualified in ALLOWED:
        module, name = qualified.split(".")
        assert name in _public_definitions(modules[module]), qualified

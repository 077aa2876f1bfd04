"""``src/`` holds only what the protocol runs.

Every module-level function or class in ``src/vtrain``, public or
private, and every public method or property of a public class, must be
used somewhere in ``src/vtrain``, or be named in ``bench/*.py``, which
drives the package from outside. A helper only the tests call belongs in
``tests/``.
Re-exports in ``__init__.py`` and bare imports do not count as uses.
Click command callbacks run from the command line and are exempt.

The package root and the modules of the dispute game (``merkle``, ``game``
and ``cli``) import nothing numeric when they are imported: numpy and the
replay engine load only inside the commands that compute.
"""

import ast

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "vtrain"

# "module.name": why it stays although nothing calls it yet
ALLOWED = {
    "cli.load_weights": "ROADMAP direction 4: fine-tuning starts from given weights",
    "simnet.Rng.next_u64": "the scalar reference the block draws are tested against",
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


def _definitions(nodes, private: bool) -> list:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and (private or not node.name.startswith("_")) and not _is_command(node)]


def _checked_definitions(tree: ast.Module) -> list[str]:
    """Module-level names, public and private, and ``Class.member`` for each
    public class's public methods and properties."""
    names = []
    for node in _definitions(tree.body, private=True):
        names.append(node.name)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [f"{node.name}.{member.name}"
                      for member in _definitions(node.body, private=False)]
    return names


def unused_definitions() -> tuple[list[str], list[str]]:
    """Public definitions nothing uses, and allowlist entries that something now uses."""
    modules = _trees(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    used = set().union(*(_used_names(t, strings=False) for t in modules.values()))
    used |= set().union(*(_used_names(t, strings=True)
                          for t in _trees(sorted((REPO_ROOT / "bench").glob("*.py"))).values()))
    unused, stale = [], []
    for module, tree in modules.items():
        for name in _checked_definitions(tree):
            qualified = f"{module}.{name}"
            if name.rpartition(".")[2] not in used and qualified not in ALLOWED:
                unused.append(qualified)
            elif name.rpartition(".")[2] in used and qualified in ALLOWED:
                stale.append(qualified)
    return unused, stale


def test_every_public_definition_is_used():
    unused, stale = unused_definitions()
    assert not unused, f"used only by tests, or by nothing: {unused}; move to tests/ or delete"
    assert not stale, f"allowlisted but now used; drop from ALLOWED: {stale}"


def test_allowlist_names_real_definitions():
    modules = _trees(PACKAGE.glob("*.py"))
    for qualified in ALLOWED:
        module, name = qualified.split(".", 1)
        assert name in _checked_definitions(modules[module]), qualified


# modules a challenger imports, and what they must not import until a command computes
LIGHT = ("__init__.py", "merkle.py", "game.py", "cli.py")
HEAVY = {"numpy", "protocol", "simnet", "fpround", "roundlog"}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def import_time_imports(nodes):
    """(line, names) of each import among ``nodes`` that runs when the module
    is imported: in blocks and class bodies too, not in a function or under
    ``if TYPE_CHECKING:``. The names are the dotted parts of the module and
    the imported names, so ``from . import protocol`` yields ``protocol``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from import_time_imports(node.orelse)
        elif isinstance(node, ast.Import):
            yield node.lineno, {part for a in node.names for part in a.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, {*(node.module or "").split("."), *(a.name for a in node.names)}
        else:
            yield from import_time_imports(ast.iter_child_nodes(node))


def heavy_imports(path, root=REPO_ROOT) -> list[str]:
    """``file:line imports names`` for each import-time import of a heavy module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(root)}:{line} imports {', '.join(sorted(names & HEAVY))}"
            for line, names in import_time_imports(tree.body) if names & HEAVY]


def test_dispute_game_modules_import_nothing_numeric():
    found = [hit for name in LIGHT for hit in heavy_imports(PACKAGE / name)]
    assert not found, found


def test_layering_check_sees_every_import_time_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import numpy.linalg\n"                      # 1: flagged
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .protocol import TrainConfig\n"    # 4: annotations only
        "else:\n"
        "    from . import roundlog\n"               # 6: flagged
        "def f():\n"
        "    from . import simnet\n"                 # 8: runs in the call
        "try:\n"
        "    from .fpround import DOWN\n"            # 10: flagged
        "except ImportError:\n"
        "    import numpy as np\n"                   # 12: flagged
        "class C:\n"
        "    from vtrain import protocol\n"          # 14: flagged
        "    def g(self):\n"
        "        import numpy\n"                     # 16: runs in the call
        "from . import game, merkle\n"
    )
    assert heavy_imports(source, tmp_path) == [
        "sample.py:1 imports numpy", "sample.py:6 imports roundlog",
        "sample.py:10 imports fpround", "sample.py:12 imports numpy",
        "sample.py:14 imports protocol"]

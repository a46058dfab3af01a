"""Source-layout guards: no orphan modules under ``src/repro``, and no
module there importing the tests.

Every module other than a ``__main__`` needs a user — another module under
``src/repro`` or a script under ``examples/`` (tier-1 runs them) — that
imports it or names it in a string constant (as
``repro.experiments.runner.REGISTRY`` names the experiments).  A module
that only its own tests import is dead code.  The reference
implementations the tests hold the product to live in ``tests/oracles``;
a source module importing ``tests`` would let one flow back into the
product.  Read with ``ast`` alone: nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def named_modules(path: Path) -> Set[str]:
    """Every dotted name ``path`` imports or names in a string constant
    (docstrings and other bare string statements excepted), with the
    parent packages an import also loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bare = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module_name(path).split(".")
                if path.name != "__init__.py":
                    package = package[:-1]
                anchor = package[: len(package) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in bare):
            names.add(node.value)
    parents = {
        ".".join(name.split(".")[:i])
        for name in names for i in range(1, name.count(".") + 1)
    }
    return names | parents


def orphans() -> Dict[str, Path]:
    """Modules under ``src/repro`` that no other source module and no
    example names."""
    modules = {
        module_name(path): path
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name != "__main__.py"
    }
    users = sorted((SRC / "repro").rglob("*.py")) + sorted(EXAMPLES.glob("*.py"))
    used: Set[str] = set()
    for user in users:
        own = module_name(user) if user.is_relative_to(SRC) else None
        used.update(name for name in named_modules(user) if name != own)
    return {name: path for name, path in modules.items() if name not in used}


def test_every_source_module_has_a_user():
    found = orphans()
    assert not found, (
        "modules with no user in src/repro or examples/ (delete them, or "
        f"give them a caller): {sorted(found)}"
    )


def test_the_guard_sees_imports_and_registry_strings():
    """The guard's own reading: an experiment is used through the
    runner's registry string, a package through its submodules' imports,
    and a module an example imports counts as used."""
    runner = named_modules(SRC / "repro" / "experiments" / "runner.py")
    assert "repro.experiments.fig19_pim" in runner
    session = named_modules(SRC / "repro" / "megis" / "session.py")
    assert {"repro.megis.host", "repro.megis", "repro"} <= session
    assert "repro.sequences.quality" in named_modules(EXAMPLES / "full_workflow.py")


def imports_of_tests(source: str) -> List[str]:
    """The ``tests`` modules ``source`` imports (absolute imports only: a
    relative one stays inside its own package)."""
    found: List[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "tests"]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and (node.module or "").split(".")[0] == "tests"):
            found.append(node.module)
    return found


def test_no_source_module_imports_the_tests():
    found = {
        str(path.relative_to(ROOT)): names
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (names := imports_of_tests(path.read_text(encoding="utf-8")))
    }
    assert not found, f"source modules importing tests/: {found}"


def test_the_guard_sees_every_form_of_a_tests_import():
    source = (
        "import tests\n"
        "import tests.oracles as oracles\n"
        "from tests.oracles import kss_store\n"
        "from tests import oracles\n"
        "from . import tests\n"
        "import testsuite\n"
    )
    assert imports_of_tests(source) == ["tests", "tests.oracles", "tests.oracles", "tests"]

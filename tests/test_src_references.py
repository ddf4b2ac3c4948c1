"""Every function, method and class defined in src/featforge is used by the program.

A name counts as used when code in src/featforge or in the benchmark harness
(perfbench/*.py) reads it outside its own definition.  Tests do not count: a
helper that only tests reach is code the program carries for nothing.

Likewise every name imported by a module in src/featforge or tests is read by
that module (or listed in its ``__all__``).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# called only by the acceptance criteria: entropy and mutual_information (1),
# group_distance (2) and gradient_check (3); the program reads all MI from MIEngine
ALLOWED = {"entropy", "mutual_information", "group_distance", "gradient_check"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree) -> Counter:
    """How often each identifier is read as a name or an attribute under ``tree``."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
    return reads


def unreferenced(src_dir: Path, other_dirs) -> list[str]:
    """``file:line name`` of each definition under ``src_dir`` that nothing else reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src_dir.glob("*.py"))}
    reads = Counter()
    for path, tree in trees.items():
        reads += _reads(tree)
    for directory in other_dirs:
        for path in sorted(directory.glob("*.py")):
            reads += _reads(ast.parse(path.read_text(encoding="utf-8")))
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name in ALLOWED or (name.startswith("__") and name.endswith("__")):
                continue
            if reads[name] - _reads(node)[name] == 0:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def unused_imports(directories) -> list[str]:
    """``file:line name`` of each name a module imports and then never reads or exports."""
    found = []
    for directory in directories:
        for path in sorted(directory.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                    loaded.update(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_src_definition_is_used_by_the_program():
    assert unreferenced(ROOT / "src" / "featforge", [ROOT / "perfbench"]) == []


def test_guard_sees_an_unused_helper(tmp_path):
    src = tmp_path / "featforge"
    src.mkdir()
    (src / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def only_itself(n):\n    return only_itself(n - 1) if n else used()\n\n\n"
        "class Box:\n    def read(self):\n        return self.read\n"
    )
    assert unreferenced(src, []) == ["mod.py:5 only_itself", "mod.py:9 Box", "mod.py:10 read"]


def test_every_import_is_read():
    assert unused_imports([ROOT / "src" / "featforge", ROOT / "tests"]) == []


def test_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "from json import dumps as _dumps, loads\n\n"
        "__all__ = ['loads']\n\n\n"
        "@dataclass\nclass Box:\n    size: np.ndarray\n\n    def field(self):\n        return os.path\n"
    )
    assert unused_imports([tmp_path]) == ["mod.py:4 field", "mod.py:6 _dumps"]

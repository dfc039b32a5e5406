"""The package's public surface."""

import ast
import re
import types
from pathlib import Path

import poncelet

SRC = Path(poncelet.__file__).parent


def test_all_lists_names_not_modules():
    assert len(set(poncelet.__all__)) == len(poncelet.__all__)
    for name in poncelet.__all__:
        assert not isinstance(getattr(poncelet, name), types.ModuleType), name


def test_private_definitions_have_a_caller():
    # every module-level _name function or class is referenced somewhere in
    # src/ outside its own definition: code with no caller is deleted
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_"):
                continue
            own = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
            rest = [own] + [t for p, t in texts.items() if p != path]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            assert any(word.search(t) for t in rest), f"{path.name}: {node.name} has no caller"

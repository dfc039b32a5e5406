"""The package's public surface."""

import ast
import importlib
import re
import types
from pathlib import Path

import poncelet
from poncelet import verify

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


def _package_imports(tree: ast.Module) -> set[tuple[str, str | None]]:
    """(module, name) for each package module a source file imports, at any
    depth: name is None where the module itself is imported."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {(a.name.split(".")[1], None) for a in node.names if a.name.startswith("poncelet.")}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("poncelet")):
            module = (node.module or "").removeprefix("poncelet").lstrip(".")
            if module:
                out |= {(module, a.name) for a in node.names}
            else:
                out |= {(a.name, None) for a in node.names}
    return out


def test_oracle_shares_no_code_with_the_exact_side():
    # the float oracle imports nothing from the exact modules, and they take
    # nothing from it but the exception for p = 0
    exact = {"polycore", "cayley", "classify", "verify"}
    imports = {m: _package_imports(ast.parse((SRC / f"{m}.py").read_text())) for m in exact | {"geometry"}}
    assert not {m for m, _ in imports["geometry"]} & exact, imports["geometry"]
    assert ("geometry", "DegenerateParabola") in imports["cayley"]  # the reader sees imports
    for m in exact:
        taken = {name for module, name in imports[m] if module == "geometry"}
        assert taken <= {"DegenerateParabola"}, (m, taken)


def _is_self_module(node, modules: set[str]) -> bool:
    """node is `self.<module>` for one of the modules."""
    return (isinstance(node, ast.Attribute) and node.attr in modules
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _perfbench_reads(tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """(module, attribute) for each attribute read off a poncelet module in
    the benchmark worker: off `self.<module>`, or off a name that the same
    function binds to `self.<module>` or imports from poncelet."""
    reads = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        alias = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.module == "poncelet":
                alias.update((a.asname or a.name, a.name) for a in node.names if a.name in modules)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = [(target, node.value)]
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    for t, v in pairs:
                        if isinstance(t, ast.Name) and _is_self_module(v, modules):
                            alias[t.id] = v.attr
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in alias:
                    reads.add((alias[node.value.id], node.attr))
                elif _is_self_module(node.value, modules):
                    reads.add((node.value.attr, node.attr))
    return reads


def test_perfbench_worker_reads_exist():
    # the benchmark runs untraced, so a name that only its traced path reads
    # (say cayley.atilde_sequence) would break `--trace 1` unseen; read the
    # worker's source, without importing it
    tree = ast.parse((SRC.parents[1] / "perfbench" / "worker.py").read_text())
    modules = {"cayley", "classify", "geometry", "polycore", "verify"}
    reads = _perfbench_reads(tree, modules)
    assert {("cayley", "atilde_sequence"), ("polycore", "sturm_chain"), ("verify", "checks")} <= reads
    for module, attr in sorted(reads):
        assert hasattr(importlib.import_module(f"poncelet.{module}"), attr), f"perfbench reads {module}.{attr}"
    n_checks = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "N_CHECKS" for t in node.targets))
    assert len(verify.checks()) == n_checks

"""The package's public surface."""

import ast
import copy
import importlib
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import poncelet
from poncelet import verify
from poncelet.cayley import LocusPolynomial, PencilCoeffs
from poncelet.classify import Center, PairClassification, QuarticShape
from poncelet.geometry import Circle, Parabola, TraceResult
from poncelet.painleve import Jet2, PVIParams, PVISolutionPoint
from poncelet.polycore import LaurentPoly3, RootList

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


_RECORDS = [
    (PencilCoeffs, (LaurentPoly3.const(-1), LaurentPoly3.var_p(), LaurentPoly3.var_x(), LaurentPoly3.var_y())),
    (LocusPolynomial, (3, (), LaurentPoly3.var_p())),
    (Center, (Fraction(1, 3), Fraction(-2))),
    (QuarticShape, ("FourRealSimple", 1, -1, 1, 0, 1)),
    (PairClassification, (5, Center(2, 0), RootList([(1.5, 1, (Fraction(1), Fraction(2)))]), "outside", 1, False)),
    (Circle, ((0.5 + 0j, -1j),)),
    (Parabola, (0.5,)),
    (TraceResult, (((0j, 1j), (1 + 0j, 0j)), (0.5j, 2 + 0j), 1e-12, True, 2)),
    (PVIParams, (Fraction(1, 8), Fraction(-1, 8), Fraction(1, 8), Fraction(3, 8))),
    (Jet2, (1j, 2.0, 3.0)),
    (PVISolutionPoint, ("N3", 2 + 0j, 1.5 + 0j, 0.5j, 1j, 1 + 0j, 2j, -1 + 0j, 1e-15, 2e-15)),
]


@pytest.mark.parametrize("cls, values", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_are_frozen_value_types(cls, values):
    names = list(cls.__annotations__)
    rec = cls(*values)
    assert [getattr(rec, k) for k in names] == list(values)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(names, values))})"
    # built by keyword, mixed or copied, it is the same value: == by class
    # and fields, hash of the field tuple
    kw = dict(zip(names, values))
    same = [cls(**kw), cls(values[0], **dict(zip(names[1:], values[1:]))),
            copy.copy(rec), pickle.loads(pickle.dumps(rec))]
    for other in same:
        assert type(other) is cls and other == rec and hash(other) == hash(rec) == hash(values)
    assert rec != values and rec.__eq__(values) is NotImplemented
    changed = cls.__new__(cls)
    changed.__dict__.update(kw, **{names[-1]: object()})
    assert rec != changed
    for name in names + ["other"]:
        with pytest.raises(AttributeError):
            setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    for bad in (lambda: cls(*values, values[0]), lambda: cls(values[0], **kw), lambda: cls(**kw, other=1)):
        with pytest.raises(TypeError):
            bad()
    assert vars(rec) == kw


def test_record_defaults_and_conversion():
    # Circle's and Parabola's checks are in test_geometry
    assert Jet2(1j) == Jet2(1j, 0.0, 0.0) and Jet2(1j, d2=2.0) == Jet2(1j, 0.0, 2.0)
    # Center takes int or Fraction only: a float or a text would reach an
    # exact decision as some other rational (Center(0.1, 0.3) classified
    # 3602879701896397/2**55).  A Fraction is kept, not copied.
    half = Fraction(1, 2)
    center = Center(1, half)
    assert (center.x, center.y) == (1, half) and type(center.x) is Fraction and center.y is half
    for bad in (None, "1/2", 0.1, 1j):
        for args in ((bad, 1), (1, bad)):
            with pytest.raises(TypeError, match=type(bad).__name__):
                Center(*args)


def test_import_loads_no_dataclasses_or_inspect():
    # the records are built without dataclasses, whose module imports
    # inspect, ast, dis and tokenize: that import was most of import poncelet
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "before = set(sys.modules)\n"
            "import poncelet, poncelet.cli\n"
            "new = {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
            "assert not new, new\n")
    subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True, capture_output=True)


def test_cold_locus_text_imports_nothing():
    # a cold locus(3..12) with its text (the cold `poncelet cayley --n 12`)
    # imports no module once poncelet is imported: an import inside that
    # path, such as a lazy decimal, is paid by every cold call
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC.parent)!r})\n"
            "import poncelet\n"
            "before = set(sys.modules)\n"
            "texts = [poncelet.format_poly(poncelet.locus(n).canonical) for n in range(3, 13)]\n"
            "new = set(sys.modules) - before\n"
            "assert not new, sorted(new)\n"
            "assert len(texts) == 10 and all(texts)\n")
    subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True, capture_output=True)

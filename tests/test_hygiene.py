"""Source hygiene of the package, checked on its syntax trees.

No certificate may rest on an `assert`, which `python -O` strips, every
imported name must be used, and numpy is the only third-party import, so a
cold command line process loads nothing heavier.
"""
import ast
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import localaut
from localaut.autos import SIGMA_ID, STANDARD, Automorphism, make_automorphism
from localaut.matrices import QR, GroupTag, identity
from localaut.serialize import auto_to_json

SRC = Path(localaut.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_sources_found():
    assert len(MODULES) > 10


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue  # the package root re-exports what it imports
        tree = _parse(path)
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == []


RUNTIME_DEPENDENCIES = {"numpy"}


def _third_party_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in RUNTIME_DEPENDENCIES | {"localaut"}:
                yield node.lineno, top


def test_only_numpy_beyond_the_standard_library():
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for line, name in _third_party_imports(_parse(path))
    ]
    assert found == []


# the scalar-character rules live in scalarmaps on top of mullattice;
# acceptance keeps its own brute-force reference for criterion 7
FACTORING_MODULES = {"mullattice.py", "scalarmaps.py", "acceptance.py"}


def _calls(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                yield node.lineno, name


def test_only_the_scalar_layer_factors():
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        if path.name not in FACTORING_MODULES
        for line, name in _calls(_parse(path), {"factor", "dep_exponent"})
    ]
    assert found == []


def test_only_the_criterion_7_reference_factors():
    """Relations and lattices read exponents over a coprime base; prime
    factoring is left to acceptance's brute-force reference."""
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        if path.name != "acceptance.py"
        for line, name in _calls(_parse(path), {"factor"})
    ]
    assert found == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[-1]
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[-1] for alias in node.names)


@pytest.mark.parametrize("module", ["localcheck.py", "gallery.py"])
def test_checkers_do_not_import_the_recovery_engines(module):
    assert "recover" not in set(_imported_modules(_parse(SRC / module)))


# Mat's integer grid and its kernel memo belong to matrices; the grid
# helpers of scalars serve the kernel module; the ring and field-row helpers
# the grid superseded are gone, and exactlinalg reads int rows only
GRID_SLOTS = {"_grid", "_entries", "_det", "_inv", "_charpoly"}
GRID_PRIVATE = {"_grid_mat", "_canon"}
SCALAR_GRID_HELPERS = {"clear_row", "rational", "gauss"}
SUPERSEDED = {"ring_row", "exact_quotient", "quotient", "field_row", "int_width"}


def _imports_from(tree, module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_only_matrices_touches_the_grid():
    found = []
    for path in MODULES:
        if path.name == "matrices.py":
            continue
        tree = _parse(path)
        found += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in GRID_SLOTS
        ]
        found += [f"{path.name}:{line} {name}" for line, name in _imports_from(tree, "matrices") if name in GRID_PRIVATE]
    assert found == []


def test_grid_helpers_serve_the_kernels_and_the_ring_helpers_are_gone():
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for line, name in _imports_from(_parse(path), "scalars")
        if name in SUPERSEDED or (name in SCALAR_GRID_HELPERS and path.name != "matrices.py")
    ]
    assert found == []
    assert list(_imports_from(_parse(SRC / "exactlinalg.py"), "scalars")) == []
    defined = {node.name for path in MODULES for node in ast.walk(_parse(path)) if isinstance(node, ast.FunctionDef)}
    assert defined & SUPERSEDED == set()


# a branch (kind, sigma) acts as autos.op; numeric spectra are compared by
# matrices.charpolys_match
def _owned_calls(node, owner=""):
    """(name of the innermost enclosing def, call) for every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _owned_calls(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _owned_calls(child, owner)


def _call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _through_sigma(node):
    """node, or what it applies sigma to: op may conjugate between the
    transpose and the inverse."""
    while isinstance(node, ast.Call) and _call_name(node) in {"apply_sigma", "conj"} and node.args:
        node = node.args[0]
    return node


def test_only_autos_op_transposes_an_inverse():
    found = [
        f"{path.name}:{call.lineno} {owner}"
        for path in MODULES
        for owner, call in _owned_calls(_parse(path))
        if call.args
        and isinstance(inner := _through_sigma(call.args[0]), ast.Call)
        and {_call_name(call), _call_name(inner)} == {"transpose", "inv"}
        and (path.name, owner) != ("autos.py", "op")
    ]
    assert found == []


def test_only_matrices_computes_numeric_spectra():
    found = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        if path.name != "matrices.py"
        for line, name in _calls(_parse(path), {"poly", "eigvals"})
    ]
    assert found == []


# a scalar character is read only where its class rules live (scalarmaps)
# and where it crosses the wire (serialize); every other module asks those
CHARACTER_FIELDS = {"c", "k", "m", "neg", "ambient"}
CHARACTER_READERS = {"scalarmaps.py", "serialize.py"}


def _field_reads(tree, fields=CHARACTER_FIELDS):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in fields:
            yield node.lineno, node.attr
        elif (
            isinstance(node, ast.Call)
            and _call_name(node) in {"getattr", "hasattr"}
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in fields
        ):
            yield node.lineno, node.args[1].value


def test_only_the_scalar_layer_reads_character_fields():
    found = [
        f"{path.name}:{line} .{name}"
        for path in MODULES
        if path.name not in CHARACTER_READERS
        for line, name in _field_reads(_parse(path))
    ]
    assert found == []


# a Gaussian rational computes on its int grid (p, s, q); its Fraction views
# re and im are read only where they are built (scalars) and where they cross
# the wire (serialize), so no kernel goes back through Fractions
FRACTION_VIEWS = {"re", "im"}
FRACTION_VIEW_READERS = {"scalars.py", "serialize.py"}


def test_only_the_scalar_layer_reads_the_fraction_views():
    found = [
        f"{path.name}:{line} .{name}"
        for path in MODULES
        if path.name not in FRACTION_VIEW_READERS
        for line, name in _field_reads(_parse(path), FRACTION_VIEWS)
    ]
    assert found == []


# which ambient a group's character lives on, the point it reads, its pair
# screen and its witness table are decided in scalarmaps alone; the modules
# that check, apply and recover automorphisms ask it through `ambient`,
# `character_point`, `pair_screen` and `witness_character`
AMBIENT_NAMES = {
    "RSTAR", "CSTAR", "CIRCLE", "TableFunc",
    "point_ok_rclass", "pair_ok_rclass", "pair_ok_cstar", "pair_ok_mu",
}


def _names(tree):
    """Every name, attribute and imported name that tree mentions."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return names


@pytest.mark.parametrize("module", ["localcheck.py", "autos.py", "recover.py"])
def test_only_the_scalar_layer_decides_the_ambient(module):
    assert _names(_parse(SRC / module)) & AMBIENT_NAMES == set()


# recovery screens its g table with `table_screen`, the one table screen
# behind `check_character`, in its one g stage, and keeps no pair loop or
# relation check of its own; recovery and the local check build their models
# and witnesses without g, which joins only after its one screen
def test_recovery_has_no_class_screen_of_its_own():
    recover = _parse(SRC / "recover.py")
    assert _names(recover) & {"pair_screen", "det_relation_refutations"} == set()
    stages = {node.name for node in ast.walk(recover) if isinstance(node, ast.FunctionDef)}
    assert {name for name in stages if name.startswith("_fit_g")} == {"_fit_g"}
    for module in ("recover.py", "localcheck.py"):
        builds = [
            node
            for node in ast.walk(_parse(SRC / module))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "make_automorphism"
        ]
        assert builds, module
        for node in builds:
            assert len(node.args) <= 4 and "g" not in {kw.arg for kw in node.keywords}, (module, node.lineno)


# every definition of the package is called, or bound by name, from outside
# its own body: by another definition of the package (the root's re-exports
# do not count), or by the benchmark and the tools, which call it by name
ROOT = Path(__file__).resolve().parent.parent
CALLER_FILES = [path for path in MODULES if path.name != "__init__.py"]
CALLER_FILES += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _named(node):
    """Each name that node's subtree mentions, once per mention."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def _definitions(tree):
    """(qualified name, name, node) for each module-level function and class
    and each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_definition_has_a_caller():
    mentions = Counter(name for path in CALLER_FILES for name in _named(_parse(path)))
    found = [
        f"{path.name} {qualified}"
        for path in CALLER_FILES
        if path.parent == SRC
        for qualified, name, node in _definitions(_parse(path))
        if mentions[name] == Counter(_named(node))[name]
    ]
    assert found == []


# recovery fits only through `localcheck.fit_map`: it names no branch op (so
# op never acts on an oracle reply there), no spectrum test and no
# similarity solver of its own
FIT_NAMES = {"op", "charpoly", "charpolys_match", "simultaneous_similarity", "unitary_intertwiner"}


def test_recovery_fits_only_through_the_local_check():
    recover = _parse(SRC / "recover.py")
    assert _names(recover) & FIT_NAMES == set()
    assert [name for _, name in _imports_from(recover, "localcheck")] == ["fit_map"]


# one tolerance policy: the numeric thresholds are named once in scalars, and
# only the comparison primitives take a tol, which no caller floors
TOL_PRIMITIVES = {
    ("matrices.py", "close"),
    ("matrices.py", "scalar_close"),
    ("matrices.py", "member"),
    ("matrices.py", "ratio"),
    ("autos.py", "apply"),
    ("scalarmaps.py", "TableFunc.lookup"),
}


def _functions(node, prefix=""):
    """(qualified name, def) for every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")


def _is_tol(node):
    return (isinstance(node, ast.Name) and node.id == "tol") or (isinstance(node, ast.Attribute) and node.attr == "tol")


def test_only_the_comparison_primitives_take_a_tol():
    found = [
        f"{path.name} {name}"
        for path in MODULES
        for name, func in _functions(_parse(path))
        if "tol" in {a.arg for a in (*func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs)}
        and (path.name, name) not in TOL_PRIMITIVES
    ]
    assert found == []


def test_no_tol_is_floored():
    found = [
        f"{path.name}:{call.lineno}"
        for path in MODULES
        for call in ast.walk(_parse(path))
        if isinstance(call, ast.Call)
        and _call_name(call) == "max"
        and any(_is_tol(arg) for arg in (*call.args, *(kw.value for kw in call.keywords)))
    ]
    assert found == []


def test_an_automorphism_holds_only_what_its_file_holds():
    """An Automorphism is exactly the fields `auto_to_json` writes, so no
    value derived from T, such as its inverse, rides beside it: T's det,
    inverse and characteristic polynomial live in T's memo."""
    auto = make_automorphism(GroupTag("SL", "R", 3), STANDARD, SIGMA_ID, identity(3, QR))
    assert [f.name for f in fields(Automorphism)] == list(auto_to_json(auto)) == ["group", "kind", "sigma", "t", "g"]

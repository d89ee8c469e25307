"""Static checks of the package's module structure."""

import ast
import graphlib
import re
from pathlib import Path

import pytest

import approxinv

PACKAGE = Path(approxinv.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _imported_names(node: ast.AST) -> list[str]:
    """Dotted names an import statement may bind, e.g. ``from . import c0``
    in the package gives ``approxinv`` and ``approxinv.c0``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            base = "approxinv" + (f".{base}" if base else "")
        return [base] + [f"{base}.{alias.name}" for alias in node.names]
    return []


def _import_graph() -> dict[str, set[str]]:
    """Module -> package modules it imports anywhere in its source,
    including inside functions; ``__init__`` is left out."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    graph = {}
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        graph[module] = {
            name.split(".")[1]
            for node in ast.walk(tree)
            for name in _imported_names(node)
            if name.startswith("approxinv.") and name.split(".")[1] in modules
        }
    return graph


def test_package_import_graph_has_no_cycle():
    graph = _import_graph()
    assert {"scenarios", "errors"} <= graph["cli"]
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle: {' -> '.join(err.args[1])}")


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public names a module binds at top level: functions, classes and
    plainly assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _referenced_identifiers(tree: ast.AST) -> set[str]:
    """Identifiers a source file reads: loaded names, attribute names and
    imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _reader_identifiers() -> set[str]:
    """Identifiers the lab reads: the package modules (the import lines of
    ``__init__`` left out, since a re-export reads nothing) and the
    console-script targets in ``pyproject.toml``.  The demos, the tests and
    the benchmark harness do not count."""
    referenced = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path == PACKAGE / "__init__.py":
            tree.body = [
                node for node in tree.body
                if not isinstance(node, (ast.Import, ast.ImportFrom))
            ]
        referenced |= _referenced_identifiers(tree)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    referenced |= set(re.findall(r':(\w+)"', scripts.group(1)))
    return referenced


#: Public names the lab does not read yet, each with the ROADMAP item that
#: gives it a lab reader: the circle certification route (item 7).  The dict
#: may only shrink.
AWAITING_LAB_READER = {
    "wiener.wiener_division_net": "item 7",
}


def test_every_public_name_has_a_reader():
    """A public name is read by the lab, or waits in ``AWAITING_LAB_READER``
    for the item that gives it a reader; an exempt name must still be
    unread, so the entry goes when its reader lands."""
    referenced = _reader_identifiers()
    names = {
        f"{path.stem}.{name}": name
        for path in PACKAGE.glob("*.py")
        for name in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    }
    orphans = sorted(
        qualified for qualified, name in names.items()
        if name not in referenced and qualified not in AWAITING_LAB_READER
    )
    assert not orphans, f"public names nobody reads: {orphans}"
    stale = sorted(
        qualified for qualified in AWAITING_LAB_READER
        if qualified not in names or names[qualified] in referenced
    )
    assert not stale, f"exempt names that are gone or now read: {stale}"


def test_no_unused_module_level_import():
    """Every name a module imports at top level is read in that module.
    ``__init__`` (whose imports are the package surface), ``__future__``
    imports and explicit ``import x as x`` re-exports are exempt."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
            if alias.asname != alias.name
        ]
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{path.stem}.{name}" for name in bound if name not in loaded)
    assert not unused, f"module-level imports nobody uses: {unused}"


#: Defaulted parameters that no call in the lab needs to set: the entry point
#: that the tests and the benchmark harness drive with an explicit argv.
ENTRY_POINT_DEFAULTS = {"cli.main(argv)"}


def _defaulted_parameters():
    """(module, function, parameter, position) of every defaulted parameter
    of a public module-level function; keyword-only ones have no position."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for position in range(first, len(positional)):
                yield path.stem, node.name, positional[position].arg, position
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.stem, node.name, arg.arg, None


def _called_name(node: ast.AST):
    """The bare name a call or raise targets: ``f`` of ``f(...)``,
    ``m.f(...)`` or ``raise f``; None for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _set_arguments() -> set[tuple[str, object]]:
    """(called name, keyword or position) of every argument that some call
    in the package or the demos passes; calls match by the called name."""
    found = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                found.update((name, keyword.arg) for keyword in node.keywords)
                found.update((name, position) for position in range(len(node.args)))
    return found


def test_every_defaulted_parameter_is_set():
    """A default that no caller overrides is a constant in disguise."""
    passed = _set_arguments()
    unset = sorted(
        f"{module}.{function}({parameter})"
        for module, function, parameter, position in _defaulted_parameters()
        if (function, parameter) not in passed and (function, position) not in passed
    )
    unset = [name for name in unset if name not in ENTRY_POINT_DEFAULTS]
    assert not unset, f"defaulted parameters no call sets: {unset}"


INVERSE_FFTS = {"ifft", "irfft", "hfft"}


def _scoped_nodes(node: ast.AST, scope: tuple[str, ...] = ()):
    """(scope, node) of every node under ``node``, where scope is the chain
    of enclosing class and function names."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
        yield inner, child
        yield from _scoped_nodes(child, inner)


def _sites(found) -> set[tuple[str, str]]:
    """(module, dotted scope) of every package node for which ``found`` holds."""
    return {
        (path.stem, ".".join(scope))
        for path in PACKAGE.glob("*.py")
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if found(node)
    }


def test_values_is_the_only_synthesis_site():
    sites = _sites(
        lambda node: isinstance(node, ast.Call) and _called_name(node) in INVERSE_FFTS
    )
    assert sites == {("wiener", "CircleSignal.values")}, sites


def test_rank_threshold_is_read_in_one_function():
    sites = _sites(
        lambda node: isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id == "RANK_THRESHOLD_REL"
    )
    assert sites == {("operators", "_rank_threshold")}, sites


def test_config_is_validated_in_one_function():
    sites = _sites(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "validate"
    )
    assert sites == {("cli", "main")}, sites


def test_aliasing_error_is_raised_in_one_function():
    sites = _sites(
        lambda node: isinstance(node, ast.Raise)
        and node.exc is not None
        and _called_name(node.exc) == "AliasingError"
    )
    assert sites == {("wiener", "_check_band")}, sites


def test_one_function_divides_by_stored_coefficients():
    """The spectral division member is the package's one band quotient: no
    other function divides by a signal's coefficients cut to a band."""
    sites = _sites(
        lambda node: isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and _called_name(node.right) == "_packed_at"
    )
    assert sites == {("wiener", "wiener_division")}, sites


def test_signal_arithmetic_reaches_the_coefficients_through_one_helper():
    """The difference and the product read no coefficient array themselves:
    ``_coefficientwise`` alone turns a band into the bins an operation
    computes."""
    operations = {("wiener", "CircleSignal.__sub__"), ("wiener", "convolve")}
    callers = _sites(
        lambda node: isinstance(node, ast.Call) and _called_name(node) == "_coefficientwise"
    )
    assert callers == operations, callers
    readers = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "_packed")
    assert not readers & operations, readers


def test_circle_signal_defines_only_what_the_lab_runs():
    """The lab reaches a signal through its one constructor, ``from_band``,
    the difference and the convolution of ``wiener``; the member checks
    above skip dunders, so this pins them."""
    tree = ast.parse((PACKAGE / "wiener.py").read_text(encoding="utf-8"))
    (cls,) = (
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CircleSignal"
    )
    bound, classmethods = set(), set()
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            bound.add(item.name)
            if any(isinstance(d, ast.Name) and d.id == "classmethod" for d in item.decorator_list):
                classmethods.add(item.name)
        elif isinstance(item, ast.Assign):
            bound.update(t.id for t in item.targets if isinstance(t, ast.Name))
    dunders = {name for name in bound if name.startswith("__") and name.endswith("__")}
    assert dunders - {"__slots__"} == {"__init__", "__setattr__", "__sub__", "__repr__"}
    assert classmethods == {"from_band"}


def _pads_to_every_bin(node: ast.AST) -> bool:
    """A ``_packed_at`` call whose band reads ``grid_size`` (the band M//2
    of all M bins), or any read of a dense ``coeffs`` or ``_dense``."""
    if isinstance(node, ast.Call) and _called_name(node) == "_packed_at":
        return any(
            isinstance(inner, ast.Attribute) and inner.attr == "grid_size"
            for inner in ast.walk(node.args[1])
        )
    return isinstance(node, ast.Attribute) and node.attr in {"coeffs", "_dense"}


def test_only_complex_synthesis_pads_a_signal_to_all_bins():
    """A signal stores its band alone, and every operation pads its
    operands to its result's band only; complex synthesis alone pads a
    signal to all M bins for their own sake, so no lab path, the p = 2
    norm included, materializes M bins by accident."""
    sites = _sites(_pads_to_every_bin)
    assert sites == {("wiener", "CircleSignal.values")}, sites


def test_scenarios_decompose_each_operator_once():
    """``pure-state`` reads the stacked singular values of its blocks, and
    ``um-net`` takes the one full decomposition per draw that
    ``_full_rank_operator`` hands back with the operator."""
    for name, scope in (("singular_values", "_pure_state"), ("svd", "_full_rank_operator")):
        sites = _sites(
            lambda node: isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and getattr(node.func.value, "id", None) == "operators"
        )
        assert {site for site in sites if site[0] == "scenarios"} == {
            ("scenarios", scope)
        }, (name, sites)


def _public_members():
    """(module, class, member) of every public field, property and method of
    a public top-level class: annotated class-body names (dataclass fields)
    and functions defined in the class body."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                else:
                    continue
                if not name.startswith("_"):
                    yield path.stem, node.name, name


def _read_attributes() -> set[str]:
    """Attribute names the lab and its users read, in the package and the
    demos: loaded ``x.name``, ``getattr(x, "name")`` and every field of a
    class named in a ``fields(Class)`` call, which reads them all by name.
    Tests and the benchmark harness do not count, as for the names test."""
    found = set()
    fields_of: dict[str, set[str]] = {}
    whole = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                found.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                fields_of[node.name] = {
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                }
            elif isinstance(node, ast.Call) and node.args:
                name, args = _called_name(node), node.args
                if name == "getattr" and len(args) >= 2 and isinstance(args[1], ast.Constant):
                    found.add(args[1].value)
                elif name == "fields" and isinstance(args[0], ast.Name):
                    whole.add(args[0].id)
    for name in whole & fields_of.keys():
        found |= fields_of[name]
    return found


#: Members that only exist at check time and have no reader yet, each with
#: the ROADMAP item that gives it one: the run manifest (item 9).  The dict
#: may only shrink.
AWAITING_READER = {
    "core.TraceEntry.left": "item 9",
    "core.TraceEntry.right": "item 9",
    "core.ApproxInvCertificate.left_trace": "item 9",
    "core.ApproxInvCertificate.reason": "item 9",
    "core.ApproxInvCertificate.sup_member_norm": "item 9",
}


def test_every_public_member_is_read():
    """A field, property or method nothing reads is state or code kept for
    nobody; members match by name, so a read of any same-named attribute
    counts.  A member in ``AWAITING_READER`` must still be unread, so the
    entry goes when its reader lands."""
    read = _read_attributes()
    members = {
        f"{module}.{cls}.{member}": member for module, cls, member in _public_members()
    }
    unread = sorted(
        name for name, member in members.items()
        if member not in read and name not in AWAITING_READER
    )
    assert not unread, f"public members nobody reads: {unread}"
    stale = sorted(
        name for name in AWAITING_READER
        if name not in members or members[name] in read
    )
    assert not stale, f"exempt members that are gone or now read: {stale}"


#: Every ``@dataclass`` class of the package.  A record whose fields only
#: repeat what its callers hold should be plain values instead, so a new one
#: must add itself here.
DATACLASSES = {
    "c0.GridSpace",
    "core.AlgebraModel",
    "core.ApproxInvCertificate",
    "core.TraceEntry",
    "disk.CircleSampling",
    "operators.SingularSystem",
    "scenarios.ReportRow",
    "scenarios.ScenarioConfig",
    "scenarios.ScenarioSpec",
}


def test_dataclass_records_are_pinned():
    found = {
        f"{path.stem}.{node.name}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(_called_name(d) == "dataclass" for d in node.decorator_list)
    }
    assert found == DATACLASSES, (
        f"new: {sorted(found - DATACLASSES)}, gone: {sorted(DATACLASSES - found)}"
    )


def test_algebra_model_fields_are_read_by_the_verifiers():
    """``AlgebraModel`` is the seam between the models and the verifiers, so
    each of its fields must be read off a model in ``core``; a field only
    the factories write is declared for nobody."""
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    record = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "AlgebraModel"
    )
    fields = [
        item.target.id for item in record.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    models = {
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if getattr(arg.annotation, "id", None) == "AlgebraModel"
    }
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and getattr(node.value, "id", None) in models
    }
    unread = [name for name in fields if name not in read]
    assert fields and models and not unread, f"AlgebraModel fields core never reads: {unread}"

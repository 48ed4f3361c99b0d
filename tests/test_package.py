"""The package: every export resolves on first use, the float tolerance is one
constant, the family coefficients have one source, certificates have one
evaluator, the certificate checker shares no code with it, the randomized
suites have one runner, exact weights have one builder, moment values are
checked in one place, which family applies where is read in one place,
family rows are solved for the families alone, no object writes another's
frozen fields, and every module-level import is read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventbounds

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(eventbounds.__file__)))


def _modules_after(statement):
    """The eventbounds modules a fresh interpreter has loaded after the statement."""
    path = [SOURCE_ROOT, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = f"{statement}\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('eventbounds'))))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_importing_the_engine_skips_the_suites_and_the_cli():
    loaded = _modules_after("import eventbounds.engine")
    assert "eventbounds.engine" in loaded
    assert "eventbounds.verification" not in loaded
    assert "eventbounds.cli" not in loaded


def test_the_cli_loads_the_suites_only_to_verify():
    assert "eventbounds.verification" not in _modules_after("import eventbounds.cli")


def test_every_export_resolves_to_its_module_attribute():
    namespace = {}
    exec("from eventbounds import *", namespace)
    assert set(eventbounds.__all__) <= set(namespace)
    for name in eventbounds.__all__:
        assert getattr(eventbounds, name) is namespace[name]
        assert name in dir(eventbounds)
    assert eventbounds.verification.run_all is eventbounds.run_all
    assert {"engine", "families", "verification"} <= set(dir(eventbounds))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        eventbounds.no_such_export


def test_the_float_tolerance_is_no_parameter():
    """Float comparisons use one slack, numerics.DEFAULT_TOLERANCE: no
    function takes a tolerance and no class stores one."""
    offenders = []
    for path in sorted(Path(eventbounds.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                every = args.posonlyargs + args.args + args.kwonlyargs
                names = [arg.arg for arg in every + [args.vararg, args.kwarg] if arg]
            elif isinstance(node, ast.ClassDef):
                names = [
                    name.id
                    for stmt in node.body
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                    for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                ]
            else:
                continue
            if "tolerance" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"a tolerance parameter or field at {offenders}"


def test_the_family_modules_state_index_sets_only():
    """A family's coefficients come from one place, families.solved_row:
    bounds_l2 and bounds_l3 use no rational arithmetic, binomial or
    solver, and cache nothing."""
    banned = {"rational", "Fraction", "binomial", "lru_cache", "cache"}
    offenders = []
    for name in ("bounds_l2", "bounds_l3"):
        path = Path(eventbounds.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.alias):
                word = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Attribute):
                word = node.attr
            elif isinstance(node, ast.Name):
                word = node.id
            else:
                continue
            if word in banned or word.startswith("solve_"):
                offenders.append(f"{name}.py:{node.lineno} {word}")
    assert not offenders, f"coefficient arithmetic or a cache at {offenders}"


def test_the_engine_and_dispatch_build_no_certificate():
    """Evaluation lives in families: engine and dispatch construct no
    BoundCertificate or BoundTerm, directly or through certificate_from_terms."""
    banned = {"BoundCertificate", "BoundTerm", "certificate_from_terms"}
    offenders = []
    for name in ("engine", "dispatch"):
        path = Path(eventbounds.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            word = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if word in banned:
                offenders.append(f"{name}.py:{node.lineno} {word}")
    assert not offenders, f"a certificate built outside families at {offenders}"


def test_exact_weights_have_one_builder():
    """Exact weights are checked in one place: every ExactWeights in the
    package is constructed inside core._exact_weights."""
    built, inside = [], set()
    for path in sorted(Path(eventbounds.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_exact_weights":
                inside.update((path.name, line) for line in range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, ast.Call):
                func = node.func
                word = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if word == "ExactWeights":
                    built.append((path.name, node.lineno))
    offenders = [f"{name}:{line}" for name, line in built if (name, line) not in inside]
    assert built and not offenders, f"an ExactWeights built outside _exact_weights at {offenders}"


def _text(node):
    """A string constant's text, an f-string's with {} for each field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return "".join(_text(part) if isinstance(part, ast.Constant) else "{}" for part in node.values)


def test_moment_values_are_checked_in_one_place():
    """A moment value is checked where a file is read: the four value
    messages appear in src/ only inside MomentSet.from_payload, and the
    records MomentVector and OccurrenceDistribution check nothing."""
    messages = {
        "expected {} moment values, got {}", "moment {} is not finite",
        "negative moment {}", "s_1 = {} exceeds 1",
    }
    found, inside, records = [], set(), {}
    for path in sorted(Path(eventbounds.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                methods = {getattr(item, "name", None): item for item in node.body}
                records[node.name] = set(methods)
                if node.name == "MomentSet":
                    method = methods["from_payload"]
                    lines = range(method.lineno, method.end_lineno + 1)
                    inside.update((path.name, line) for line in lines)
            elif isinstance(node, ast.JoinedStr) or (
                isinstance(node, ast.Constant) and isinstance(node.value, str)
            ):
                if _text(node) in messages:
                    found.append((path.name, node.lineno, _text(node)))
    assert {text for _, _, text in found} == messages, found
    offenders = [f"{name}:{line}" for name, line, _ in found if (name, line) not in inside]
    assert not offenders, f"a moment-value message outside from_payload at {offenders}"
    for name in ("MomentVector", "OccurrenceDistribution"):
        assert "__post_init__" not in records[name], f"{name} checks its fields"


def test_applicability_has_one_reader():
    """Which family applies where is decided in one place: in src/, the
    attribute applies is read only inside dispatch._plan."""
    reads, inside = [], set()
    for path in sorted(Path(eventbounds.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_plan":
                if path.name == "dispatch.py":
                    inside.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, ast.Attribute) and node.attr == "applies":
                reads.append((path.name, node.lineno))
    offenders = [
        f"{name}:{line}" for name, line in reads if name != "dispatch.py" or line not in inside
    ]
    assert reads and not offenders, f"applies read outside dispatch._plan at {offenders}"


def test_family_rows_are_solved_for_the_families_alone():
    """families.solved_row serves the closed-form families: in src/ it is
    named, imported or called only in bounds_l2, bounds_l3 and families, so
    every other request, the full-order one included, reads the search."""
    allowed = {"bounds_l2.py", "bounds_l3.py", "families.py"}
    uses, offenders = [], []
    for path in sorted(Path(eventbounds.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            word = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                word = node.name
            if word == "solved_row":
                uses.append(path.name)
                if path.name not in allowed:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert uses and not offenders, f"solved_row used at {offenders}"


def test_no_frozen_field_is_written_from_outside():
    """object.__setattr__, which gets round a frozen dataclass, is called in
    src/ only on self: no object writes another's fields."""
    offenders = []
    for path in sorted(Path(eventbounds.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            func, first = node.func, node.args[0] if node.args else None
            if (
                func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
                and not (isinstance(first, ast.Name) and first.id == "self")
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"object.__setattr__ on another object at {offenders}"


def test_the_checker_imports_no_solver_module():
    """check_certificate re-derives feasibility from the moment matrix alone:
    checker imports none of the modules that solve or evaluate rows, and
    importing it loads none of them."""
    solver = {"engine", "families", "bounds_l2", "bounds_l3", "dispatch"}
    path = Path(eventbounds.__file__).parent / "checker.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            if node.module in (None, "eventbounds"):  # from . import engine
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert {"certificates", "moments", "numerics"} <= imported
    assert not imported & solver, f"checker imports {sorted(imported & solver)}"
    loaded = _modules_after("import eventbounds.checker")
    assert not loaded & {f"eventbounds.{name}" for name in solver}, sorted(loaded)


def test_only_the_runner_times_and_reports_a_suite():
    """Inside verification, only _run calls time.perf_counter or builds a
    SuiteReport, so every suite is counted, timed and reported one way."""
    banned = {"perf_counter", "SuiteReport"}
    path = Path(eventbounds.__file__).parent / "verification.py"
    callers = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            word = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if word in banned:
                callers.add(getattr(top, "name", f"line {top.lineno}"))
    assert callers == {"_run"}, sorted(callers)


def test_every_module_level_import_is_read():
    """Each name a module of src/ imports at module level is read somewhere
    in that module, so no dead import outlives the code that used it."""
    offenders = []
    for path in sorted(Path(eventbounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for top in tree.body:
            if isinstance(top, ast.ImportFrom) and top.module == "__future__":
                continue
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                for alias in top.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        offenders.append(f"{path.name}:{top.lineno} {name}")
    assert not offenders, f"imports nothing reads at {offenders}"

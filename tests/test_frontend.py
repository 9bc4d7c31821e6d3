"""The command line's front end and the package's lazy public names.

``activefoil --version``, ``--help`` and usage errors are answered by
``activefoil.frontend``, which imports the standard library only;
``import activefoil`` loads no numpy either, and each public name is
imported from its submodule on first use.
"""

import argparse
import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

import pytest

import activefoil
from activefoil import frontend

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _console_script(*argv):
    """Python arguments that run the ``[project.scripts]`` entry with ``argv``."""
    module, func = PROJECT["scripts"]["activefoil"].split(":")
    return ("-c", f"import sys; from {module} import {func}; sys.exit({func}())", *argv)


def _run_with_imports(*python_args):
    """(completed process, modules it imported) for ``python -X importtime ...``."""
    out = subprocess.run([sys.executable, "-X", "importtime", *python_args],
                         capture_output=True, text=True)
    lines = out.stderr.splitlines()
    modules = {line.rsplit("|", 1)[1].strip() for line in lines
               if line.startswith("import time:")}
    out.stderr = "\n".join(line for line in lines if not line.startswith("import time:"))
    return out, modules


def _numerical(modules) -> list:
    """The numpy and activefoil modules, the front end aside, among ``modules``."""
    return sorted(m for m in modules if m.split(".")[0] == "numpy"
                  or (m.startswith("activefoil.") and m != "activefoil.frontend"))


@pytest.mark.parametrize("python_args, code", [
    (("-m", "activefoil", "--version"), 0),
    (_console_script("--version"), 0),
    (("-m", "activefoil", "--help"), 0),
    (("-m", "activefoil", "run-all", "--help"), 0),
    (("-m", "activefoil", "sample", "--n", "5"), 2),
    (("-m", "activefoil", "bootstrap", "--data", "x.csv", "--nboot", "0"), 2),
    (("-c", "import activefoil"), 0),
], ids=["version", "console-script-version", "help", "run-all-help", "usage-error",
        "bootstrap-nboot", "import"])
def test_front_end_loads_no_numpy(python_args, code):
    out, modules = _run_with_imports(*python_args)
    assert out.returncode == code, out.stderr
    if code == 2:
        assert json.loads(out.stderr)["error"] == "UsageError"
    assert _numerical(modules) == []


_PARETO = ("pareto", "--data1", "a.csv", "--eigs1", "a.json", "--data2", "b.csv",
           "--eigs2", "b.json")
_CONVERGENCE = ("convergence", "--box", "unit:3", "--qoi", "quadratic")
_RUN_ALL = ("run-all", "--box", "unit:3", "--qoi", "quadratic")
_RIDGE = ("run-all", "--box", "unit:3", "--qoi", "ridge")


@pytest.mark.parametrize("argv, needle", [
    (("bootstrap", "--data", "x.csv", "--nboot", "0"),
     "argument --nboot: must be at least 1, got 0"),
    ((*_CONVERGENCE, "--nboot", "0"), "argument --nboot: must be at least 1, got 0"),
    ((*_RUN_ALL, "--nboot", "-5"), "argument --nboot: must be at least 1, got -5"),
    ((*_PARETO, "--gammas", "1"), "argument --gammas: must be at least 2, got 1"),
    ((*_PARETO, "--grid-n", "1"), "argument --grid-n: must be at least 2, got 1"),
    ((*_RUN_ALL, "--gammas", "1"), "argument --gammas: must be at least 2, got 1"),
    ((*_RUN_ALL, "--grid-n", "0"), "argument --grid-n: must be at least 2, got 0"),
    ((*_CONVERGENCE, "--schedule", "100,x"),
     "argument --schedule: must be a comma list of strictly ascending integers, "
     "got '100,x'"),
    ((*_CONVERGENCE, "--schedule", "100,,200"), "argument --schedule: must be a comma list"),
    ((*_CONVERGENCE, "--schedule", ""), "argument --schedule: must be a comma list"),
    ((*_CONVERGENCE, "--schedule", "200,100"), "argument --schedule: must be a comma list"),
    ((*_CONVERGENCE, "--schedule", "100,100"), "argument --schedule: must be a comma list"),
    ((*_CONVERGENCE, "--schedule", "0,10"), "argument --schedule: sizes must be at least 1, got 0"),
    ((*_CONVERGENCE, "--schedule=-4,10"), "argument --schedule: sizes must be at least 1, got -4"),
    (("shadow", "--data", "x.csv", "--eigs", "e.json", "--dim", "3"),
     "argument --dim: invalid choice: 3"),
    (("sample", "--box", "unit:3", "--n", "0"), "argument --n: must be at least 1, got 0"),
    ((*_RUN_ALL, "--n", "0"), "argument --n: must be at least 1, got 0"),
    (("run-all", "--box", "unit:2", "--qoi", "ridge", "--n", "-4"),
     "argument --n: must be at least 1, got -4"),
    (("shapes", "--parameterization", "cst", "--grid", "2"),
     "argument --grid: must be at least 3, got 2"),
    (("validate", "--parameterization", "parsec", "--grid", "2"),
     "argument --grid: must be at least 3, got 2"),
    (("bootstrap", "--data", "x.csv", "--nboot", "x"), "argument --nboot: invalid int value: 'x'"),
    ((*_PARETO, "--gammas", "1.5"), "argument --gammas: invalid int value: '1.5'"),
    (("shadow", "--data", "x.csv", "--eigs", "e.json", "--dim", "one"),
     "argument --dim: invalid int value: 'one'"),
    (("sample", "--box", "unit:0", "--n", "5"),
     "argument --box: unit:M needs an integer M >= 1, got 'unit:0'"),
    (("sample", "--box", "unit:x", "--n", "5"),
     "argument --box: unit:M needs an integer M >= 1, got 'unit:x'"),
    (("run-all", "--box", "unit:3", "--qoi", "bogus"), "argument --qoi: unknown QoI 'bogus'"),
    (("run-all", "--box", "unit:3", "--qoi", "ridge:cubic"),
     "argument --qoi: unknown QoI 'ridge:cubic'"),
    ((*_RUN_ALL, "--noise-std", "-1"),
     "argument --noise-std: must be finite and at least 0, got -1.0"),
    ((*_RUN_ALL, "--noise-std", "inf"),
     "argument --noise-std: must be finite and at least 0, got inf"),
    ((*_RUN_ALL, "--noise-std", "nan"),
     "argument --noise-std: must be finite and at least 0, got nan"),
    (("evaluate", "--samples", "x.csv", "--qoi", "dataset:x.csv"),
     "argument --qoi: 'dataset:x.csv' is for run-all only: study a dataset with "
     "`run-all --qoi dataset:PATH`"),
    (("evaluate", "--samples", "x.csv", "--qoi", "panel"),
     "argument --qoi: 'panel' is for run-all only"),
    (("convergence", "--box", "unit:3", "--qoi", "panel"),
     "both panel objectives with `run-all --qoi panel`"),
    ((*_RIDGE, "--direction", "1,x"), "argument --direction: must be a comma list of finite "
     "numbers, not all zero, got '1,x'"),
    ((*_RIDGE, "--direction", "nan,1,1"), "argument --direction: must be a comma list of "
     "finite numbers, not all zero, got 'nan,1,1'"),
    ((*_RIDGE, "--direction", "inf,1,1"), "argument --direction: must be a comma list of "
     "finite numbers, not all zero, got 'inf,1,1'"),
    ((*_RIDGE, "--direction", "0,0,0"), "argument --direction: must be a comma list of "
     "finite numbers, not all zero, got '0,0,0'"),
], ids=["bootstrap-nboot", "convergence-nboot", "run-all-nboot", "pareto-gammas",
        "pareto-grid-n", "run-all-gammas", "run-all-grid-n", "convergence-schedule-not-integer",
        "convergence-schedule-empty-field", "convergence-schedule-empty",
        "convergence-schedule-descending", "convergence-schedule-repeated",
        "convergence-schedule-zero", "convergence-schedule-negative", "shadow-dim",
        "sample-n", "run-all-n-zero", "run-all-n-negative", "shapes-grid", "validate-grid",
        "bootstrap-nboot-not-integer",
        "pareto-gammas-not-integer", "shadow-dim-not-integer", "box-unit-zero",
        "box-unit-not-integer", "qoi-unknown", "qoi-ridge-profile", "noise-std-negative",
        "noise-std-inf", "noise-std-nan", "evaluate-dataset", "evaluate-panel",
        "convergence-panel", "direction-not-number", "direction-nan", "direction-inf",
        "direction-zero"])
def test_out_of_range_flags_are_usage_errors(tmp_path, argv, needle):
    """A flag range that needs no data is the parser's: exit 2 before numpy or --out."""
    out, modules = _run_with_imports("-m", "activefoil", *argv, "--out", str(tmp_path / "out"))
    assert out.returncode == 2, out.stderr
    payload = json.loads(out.stderr)
    assert payload["error"] == "UsageError" and needle in payload["message"], payload
    assert not (tmp_path / "out").exists()
    assert _numerical(modules) == []


def test_version_matches_pyproject_and_both_entry_points_print_it():
    assert activefoil.__version__ == PROJECT["version"]
    for python_args in (("-m", "activefoil", "--version"), _console_script("--version")):
        out = subprocess.run([sys.executable, *python_args], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == f"activefoil {PROJECT['version']}\n"


def test_public_names_are_their_submodules_objects():
    assert activefoil.__all__ == sorted(set(activefoil.__all__))
    assert set(activefoil.__all__) <= set(dir(activefoil))
    for name in activefoil.__all__:
        obj = getattr(activefoil, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        activefoil.no_such_name


def test_public_name_inventory():
    """Every public name: a new one shows up as an edit here."""
    assert activefoil.__all__ == [
        "BasisKind", "BasisSpec", "BootstrapSummary",
        "Eigenpairs", "PanelSurrogate", "ParameterBox",
        "ParetoSegment", "QoiEvaluator", "QuadraticModel",
        "Ridge", "SampleSet",
        "SyntheticQuadratic", "bootstrap",
        "camber_lift", "choose_dimension", "class_function",
        "coefficient_count", "cst_surface", "cube_minimum", "denormalize", "derive_seed",
        "eigendecompose", "eval_shape", "eval_shape_t", "evaluate_batch",
        "fit_link_function", "fit_quadratic",
        "gradient_outer_matrix", "inactive_sensitivity_check", "make_box",
        "pareto_front", "pareto_segment", "quadratic_features", "sample",
        "seeded_quadratic", "shadow_project", "shape_derivative", "shape_derivative_t",
        "solve_coefficients", "subspace_distance", "thickness_drag", "unit_box",
        "validate_airfoil",
    ]


SRC = ROOT / "src" / "activefoil"
# Reached from outside src/: the entry point, and the writer of the box JSON
# that --box takes (--params files have no writer in src/).  The _cmd_
# functions, which frontend.main dispatches to by name, are reached too.
_ALLOWED = {"frontend.main", "sampling.ParameterBox.save"}


def _names(node) -> Counter:
    """How often each name and attribute name is read under ``node``; a stored
    name, such as a dataclass field, is no read."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute))
                   and isinstance(sub.ctx, ast.Load))


def _definitions(trees):
    """(qualified name, class name or None, node) of every module-level function
    and class, every method and every ``__init__``, named as its class; other
    dunders are reached by the language."""
    for stem, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("__"):
                yield f"{stem}.{top.name}", None, top
            for node in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield f"{stem}.{top.name}.{node.name}", top.name, node
                elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    yield f"{stem}.{top.name}", top.name, node


def _passes(call, index, name) -> bool:
    """Whether ``call`` passes the parameter ``name``, at position ``index`` unless
    it is keyword-only (``index`` None); a * or ** argument passes every one."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _unreached_parameters(qualified, owner, node, calls):
    """The parameters with a default of the function ``node`` that no call of its
    name in ``calls`` passes; an ``__init__`` is called by its class's name."""
    args = node.args
    name = owner if node.name == "__init__" else node.name
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    positional = args.posonlyargs + args.args
    defaulted = [(i - bound, a.arg) for i, a in enumerate(positional)
                 if i >= len(positional) - len(args.defaults)]
    defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
    own = {id(sub) for sub in ast.walk(node)}
    mine = [c for c in calls if id(c) not in own and name in (
        getattr(c.func, "id", None), getattr(c.func, "attr", None))]
    return [f"{qualified}({param}=)" for index, param in defaulted
            if not any(_passes(c, index, param) for c in mine)]


def _option_reads(tree) -> dict:
    """cli function -> (the ``args`` attributes it reads, the cli functions it names).

    A read inside a ``_meta`` call or as a value of a dict display only records
    the option, so it does not count; ``getattr(args, "name", ...)`` reads it.
    """
    funcs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    graph = {}
    for name, node in funcs.items():
        recorded = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_meta":
                recorded.update(id(n) for n in ast.walk(sub))
            elif isinstance(sub, ast.Dict):
                recorded.update(id(n) for value in sub.values for n in ast.walk(value))
        reads = set()
        for sub in ast.walk(node):
            if id(sub) in recorded:
                continue
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id == "args"):
                reads.add(sub.attr)
            elif (isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "getattr"
                  and getattr(sub.args[0], "id", None) == "args"):
                reads.add(sub.args[1].value)
        graph[name] = reads, {n.id for n in ast.walk(node)
                              if isinstance(n, ast.Name) and n.id in funcs}
    return graph


def _unreached_options(graph):
    """Each subcommand option that the command's ``_cmd_`` function, and the cli
    functions it reaches other than ``_meta`` and ``_config_hash``, never read."""
    parser = frontend.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, cmd in sub.choices.items():
        todo, seen, reads = ["_cmd_" + command.replace("-", "_")], set(), set()
        while todo:
            name = todo.pop()
            if name in seen or name in ("_meta", "_config_hash"):
                continue
            seen.add(name)
            reads |= graph[name][0]
            todo.extend(graph[name][1])
        yield from (f"{command} {action.option_strings[0]}" for action in cmd._actions
                    if action.dest not in reads and action.dest != "help")


def test_every_public_name_is_reached():
    """A definition, parameter or option stays only when something reaches it.

    A module-level function or class, or a method, is reached when its name
    is read in src/ outside its own definition, is wrapped by the
    benchmark's tracer, is read by one of the tracer's count functions (as
    ``perfbench/tracer.py::_infeasible`` reads ``StackValidity.bounded``) or
    is read by an acceptance criterion.  A parameter
    with a default is reached when a call of its function's name in src/,
    outside that function, or in an acceptance criterion passes it.  An
    option of a subcommand is reached when the command reads it for more
    than recording it in the artifacts' metadata.  An ``_ALLOWED`` entry
    must name a definition, so a deleted one cannot stay allowed.
    """
    tracer_path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    counts = {fn.__name__ for _, _, fn in tracer.WRAPS if fn is not None}
    counted = [node for node in ast.parse(tracer_path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name in counts]
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    read = sum(map(_names, trees.values()), Counter())
    reached = ({name for _, name, _ in tracer.WRAPS} | set(_names(acceptance))
               | set(sum(map(_names, counted), Counter())))
    calls = [sub for tree in (*trees.values(), acceptance) for sub in ast.walk(tree)
             if isinstance(sub, ast.Call)]
    definitions = list(_definitions(trees))
    unreached = sorted(f"{name} (allowed, but defined nowhere)"
                       for name in _ALLOWED - {qualified for qualified, _, _ in definitions})
    for qualified, owner, node in definitions:
        if qualified in _ALLOWED or node.name.startswith("_cmd_"):
            continue
        if node.name != "__init__" and node.name not in reached and (
                read[node.name] == _names(node)[node.name]):
            unreached.append(qualified)
        if isinstance(node, ast.FunctionDef):
            unreached += _unreached_parameters(qualified, owner, node, calls)
    unreached += _unreached_options(_option_reads(trees["cli"]))
    assert not unreached, f"unreached: {', '.join(unreached)}"


def test_activesubspace_has_one_least_squares_solver():
    """The certified QR solve is the only quadratic fit, of the model and of the
    Pareto links: no ``lstsq`` beside it in either module."""
    for module in ("activesubspace", "analysis"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "lstsq"], module


def test_readme_python_session_runs():
    readme = (ROOT / "README.md").read_text()
    session = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(session, "README.md", "exec"), namespace)
    assert namespace["W1"].shape == (8, namespace["n"])

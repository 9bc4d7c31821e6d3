"""The command line's front end and the package's lazy public names.

``activefoil --version``, ``--help`` and usage errors are answered by
``activefoil.frontend``, which imports the standard library only;
``import activefoil`` loads no numpy either, and each public name is
imported from its submodule on first use.
"""

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import activefoil

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


@pytest.mark.parametrize("python_args, code", [
    (("-m", "activefoil", "--version"), 0),
    (_console_script("--version"), 0),
    (("-m", "activefoil", "--help"), 0),
    (("-m", "activefoil", "run-all", "--help"), 0),
    (("-m", "activefoil", "sample", "--n", "5"), 2),
    (("-c", "import activefoil"), 0),
], ids=["version", "console-script-version", "help", "run-all-help", "usage-error",
        "import"])
def test_front_end_loads_no_numpy(python_args, code):
    out, modules = _run_with_imports(*python_args)
    assert out.returncode == code, out.stderr
    if code == 2:
        assert json.loads(out.stderr)["error"] == "UsageError"
    numerical = sorted(m for m in modules if m.split(".")[0] == "numpy"
                       or (m.startswith("activefoil.") and m != "activefoil.frontend"))
    assert numerical == []


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
        "CstParams", "Eigenpairs", "PanelSurrogate", "ParameterBox",
        "ParetoSegment", "ParsecParams", "QoiEvaluator", "QuadraticModel",
        "ResponseSurface", "Ridge", "SampleSet", "ShadowData", "ShapeCoefficients",
        "SyntheticQuadratic", "ValidityReport", "bootstrap",
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


def _reads(path, skip=None):
    """Names and attribute names the code of ``path`` reads, outside the
    top-level definition named ``skip``."""
    names = set()
    for top in ast.parse(path.read_text()).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


# Public names reached only as the reader of a file format a command writes.
_FORMAT_NAMES = set()


def test_every_public_name_is_reached():
    """A public name is used in src/ outside its own definition, wrapped by the
    benchmark's tracer, or used by an acceptance criterion."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    reached = {name for _, name, _ in tracer.WRAPS}
    reached |= _reads(ROOT / "tests" / "test_acceptance.py")
    unreached = []
    for name in activefoil.__all__:
        home = activefoil._SOURCE[name]
        if name not in reached and not any(
                name in _reads(path, name if path.stem == home else None)
                for path in (ROOT / "src" / "activefoil").glob("*.py")):
            unreached.append(name)
    assert unreached == sorted(_FORMAT_NAMES)


def test_activesubspace_has_one_least_squares_solver():
    """The certified QR solve is the only quadratic fit: no ``lstsq`` beside it."""
    tree = ast.parse((ROOT / "src" / "activefoil" / "activesubspace.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "lstsq"]


def test_readme_python_session_runs():
    readme = (ROOT / "README.md").read_text()
    session = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(compile(session, "README.md", "exec"), namespace)
    assert namespace["W1"].shape == (8, namespace["n"])

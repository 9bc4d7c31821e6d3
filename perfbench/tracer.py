"""Run one ``activefoil`` command in-process with a span around every layer call.

Usage::

    python3 perfbench/tracer.py SPANS_PATH ARG...

Before ``activefoil.cli.main(ARGS)`` runs, each public function named in
``WRAPS`` is replaced, at the module where the caller looks it up, by a
wrapper that records a span: name, start, end, parent span and the trace id
of this run, plus a few exact counts taken from the arguments or the result.
A wrapped name that is missing aborts the run with exit code 3, so a renamed
function can never read as a layer that took no time.  Spans stay in memory
and are written to SPANS_PATH as JSON lines when the command ends: a header
line, then one line per span in the order the spans ended.

The program under test is not modified; nothing here is imported by it.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import uuid
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MISSING_NAME_EXIT = 3


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _sampled_rows(args, kwargs, result):
    return {"rows": int(result.matrix.shape[0])}


def _evaluated_rows(args, kwargs, result):
    values, failed = result
    return {"rows": int(len(values)), "failed": int(len(failed))}


def _infeasible(args, kwargs, result):
    return {"infeasible": int(not (result.feasible and result.bounded))}


def _replicates(args, kwargs, result):
    return {"replicates": int(result.n_boot), "skipped": int(result.n_skipped)}


def _pareto_points(args, kwargs, result):
    return {"points": int(result.gamma.size), "feasible": int(result.feasible.sum())}


# (module, name looked up there, counts taken from the call).  The span of a
# wrapper is named "<module tail>.<name>", e.g. "qoi.validate_airfoil".
WRAPS = (
    ("activefoil.cli", "read_matrix_csv", _file_bytes),
    ("activefoil.cli", "write_matrix_csv", _file_bytes),
    ("activefoil.sampling", "sample", _sampled_rows),
    ("activefoil.parsec", "solve_coefficients", None),
    ("activefoil.cst", "surface_pair", None),
    ("activefoil.qoi", "evaluate_batch", _evaluated_rows),
    ("activefoil.qoi", "validate_airfoil", _infeasible),
    ("activefoil.qoi", "camber_lift", None),
    ("activefoil.qoi", "thickness_drag", None),
    ("activefoil.activesubspace", "fit_quadratic", None),
    ("activefoil.activesubspace", "gradient_outer_matrix", None),
    ("activefoil.activesubspace", "eigendecompose", None),
    ("activefoil.activesubspace", "choose_dimension", None),
    ("activefoil.activesubspace", "bootstrap", _replicates),
    ("activefoil.activesubspace", "subspace_distance", None),
    ("activefoil.analysis", "shadow_project", None),
    ("activefoil.analysis", "fit_link_function", None),
    ("activefoil.analysis", "cube_minimum", None),
    ("activefoil.analysis", "pareto_segment", None),
    ("activefoil.analysis", "pareto_front", _pareto_points),
    ("activefoil.analysis", "write_shadow_csv", None),
    ("activefoil.analysis", "emit_shadow_gnuplot", None),
    ("activefoil.analysis", "write_pareto_csv", None),
    ("activefoil.analysis", "export_surface_grid", None),
    ("activefoil.analysis", "emit_pareto_gnuplot", None),
)

ROOT_SPAN = "cli.main"


def span_name(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


class Tracer:
    """In-memory span recorder for one traced command."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans = []
        self._open = []
        self._next_id = 0

    def call(self, name, counts, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        attrs = {}
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append((span_id, parent, name, start, end, attrs))
        if counts is not None:
            attrs.update(counts(args, kwargs, result))
        return result

    def wrap(self, name, fn, counts=None):
        def wrapper(*args, **kwargs):
            return self.call(name, counts, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, wraps) -> None:
        """Patch every (module, name); LookupError names the first one missing."""
        for module_name, name, counts in wraps:
            module = importlib.import_module(module_name)
            fn = getattr(module, name, None)
            if not callable(fn):
                raise LookupError(
                    f"{module_name}.{name} is missing; the tracer wraps it to time "
                    "its layer, so update perfbench/tracer.py and layers.json"
                )
            setattr(module, name, self.wrap(span_name(module_name, name), fn, counts))

    def write(self, path, header: dict) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(json.dumps({"trace_id": self.trace_id, **header}) + "\n")
            for span_id, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "trace_id": self.trace_id, "id": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end, "attrs": attrs,
                }) + "\n")


def main(argv) -> int:
    if len(argv) < 2:
        sys.stderr.write("usage: tracer.py SPANS_PATH ARG...\n")
        return 2
    spans_path, command = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter_ns()
    cli = importlib.import_module("activefoil.cli")
    import_ns = time.perf_counter_ns() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"imported {cli.__file__}, not the package under {SRC}\n")
        return MISSING_NAME_EXIT
    tracer = Tracer()
    try:
        tracer.install(WRAPS)
    except LookupError as exc:
        sys.stderr.write(f"tracer: {exc}\n")
        return MISSING_NAME_EXIT
    code = 0
    try:
        code = tracer.call(ROOT_SPAN, None, cli.main, (command,), {})
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.write(spans_path, {"import_ns": import_ns, "argv": command})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

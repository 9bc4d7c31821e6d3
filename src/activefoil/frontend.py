"""The ``activefoil`` command line up to the point where a command runs.

This module imports the standard library only, so ``--version``,
``--help`` and usage errors answer before numpy loads.  ``main`` parses
first and imports ``activefoil.cli``, with numpy and the numerical
modules, only once a command will run.  Subcommand ``NAME`` runs
``cli._cmd_NAME``, with dashes as underscores.  Flag rules that need no
data, the grammar of ``--box`` and ``--qoi`` specs too, are the parser's.
On stderr, errors leave as one JSON object (usage errors exit 2, failures
of a command exit 1) and a warning as one ``Category: message`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import __version__

_HINTS = {
    "ContractViolation": "run the subcommand with --help for the flag schema",
    "ConditioningError": "constraint rows are nearly dependent; move crest "
                         "positions away from 0 and 1",
    "DatasetError": "check the file against its format in the README",
    "DomainError": "a PARSEC --params value lies outside its admissible range; "
                   "the message names the parameter",
    "EvaluationError": "evaluate and run-all accept --skip-infeasible to drop "
                       "failing designs instead of stopping",
    "FileNotFoundError": "check the path; inputs must exist before the command runs",
    "IllPosedFitError": "the quadratic design is rank-deficient or too ill-conditioned "
                        "to certify; increase --n (need (m+1)(m+2)/2 well-spread rows)",
    "NoStructureError": "eigenvalues carry no usable gap; check that f varies "
                        "over the box",
}


def _fail(error: str, message: str, code: int) -> None:
    hint = _HINTS.get(error, "run with --help for the flag schema; "
                             "see README for file formats")
    payload = {"error": error, "hint": hint, "message": message}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """argparse front end whose usage errors are machine readable."""

    def error(self, message):
        _fail("UsageError", message, 2)


def _add_out(cmd, default_out: str = ".") -> None:
    cmd.add_argument("--out", default=default_out,
                     help="output directory (created if missing)")


def _add_seed_out(cmd, default_out: str = ".") -> None:
    """--seed, for the commands that draw, and --out."""
    cmd.add_argument("--seed", type=int, default=0,
                     help="root seed; children are derived by labeled hashing")
    _add_out(cmd, default_out)


def _one_line(text: str) -> str:
    """--name, the first line of loop.dat: a line break would add points."""
    if "\r" in text or "\n" in text:
        raise argparse.ArgumentTypeError(f"must be one line, got {text!r}")
    return text


def _number_from(low, kind=int):
    """argparse type: a finite ``kind``, int or float, of at least ``low``; "invalid
    int value" or "invalid float value" if the text is not one."""
    def parse(text):
        if not low <= (value := kind(text)) < float("inf"):
            finite = "finite and " if kind is float else ""
            raise argparse.ArgumentTypeError(f"must be {finite}at least {low}, got {value}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _schedule(text: str) -> list:
    """--schedule: a comma list of strictly ascending integers, each at least 1."""
    try:
        sizes = [int(v) for v in text.split(",")]
    except ValueError:
        sizes = []
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError(
            f"must be a comma list of strictly ascending integers, got {text!r}")
    if sizes[0] < 1:
        raise argparse.ArgumentTypeError(f"sizes must be at least 1, got {sizes[0]}")
    return sizes


def _box(text: str) -> str:
    """--box: parsec-table2, cst-table3, unit:M with an integer M >= 1, or a path,
    which cli opens; the value is the text itself."""
    if text.startswith("unit:") and not (text[5:].isdecimal() and int(text[5:]) >= 1):
        raise argparse.ArgumentTypeError(f"unit:M needs an integer M >= 1, got {text!r}")
    return text


def _direction(text: str) -> str:
    """--direction: "" for the default, or a comma list of finite numbers that are not
    all zero; the value is the text itself, whose length cli checks against m."""
    if not text:
        return text
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not any(values) or not all(abs(v) < float("inf") for v in values):
        raise argparse.ArgumentTypeError(
            f"must be a comma list of finite numbers, not all zero, got {text!r}")
    return text


# the ridge profiles are qoi.RIDGE_PROFILES, named here without loading numpy
_QOI_FORMS = ("quadratic", "ridge", "ridge:linear", "ridge:quadratic", "ridge:exp",
              "panel:lift", "panel:drag")
_QOI_HELP = " | ".join(_QOI_FORMS) + "; run-all only: panel (lift and drag) | dataset:PATH"


def _qoi_from(run_all: bool):
    """argparse type of --qoi: a _QOI_FORMS entry, or in run-all also panel or dataset:PATH."""
    def parse(text):
        run_all_only = text == "panel" or text.startswith("dataset:")
        if text in _QOI_FORMS or run_all and run_all_only:
            return text
        raise argparse.ArgumentTypeError(
            f"{text!r} is for run-all only: study a dataset with `run-all --qoi dataset:PATH`, "
            "both panel objectives with `run-all --qoi panel`" if run_all_only
            else f"unknown QoI {text!r}; use {_QOI_HELP}")

    return parse


def _add_qoi_flags(cmd, run_all: bool = False) -> None:
    cmd.add_argument("--qoi", required=True, type=_qoi_from(run_all), help=_QOI_HELP)
    cmd.add_argument("--direction", default="", type=_direction,
                     help="comma list of ridge direction components "
                          "(default 1, 1/2, ..., 1/m)")
    cmd.add_argument("--noise-std", type=_number_from(0, float), default=0.0,
                     help="ridge noise level (deterministic per point)")
    cmd.add_argument("--noise-seed", type=int, default=0,
                     help="seed folded into the per-point ridge noise")


def _add_skip_infeasible(cmd) -> None:
    cmd.add_argument("--skip-infeasible", action="store_true",
                     help="drop designs the evaluator rejects instead of failing")


def _add_shape_flags(cmd) -> None:
    cmd.add_argument("--parameterization", choices=("parsec", "cst"),
                     required=True)
    cmd.add_argument("--params", default=None,
                     help="parameter JSON (default: built-in box center)")
    cmd.add_argument("--grid", type=_number_from(3), default=201,
                     help="surface grid resolution")
    cmd.add_argument("--sharp-te", action="store_true",
                     help="also require a closed trailing edge")


def build_parser() -> _Parser:
    parser = _Parser(prog="activefoil",
                     description="active-subspace airfoil pipelines")
    parser.add_argument("--version", action="version",
                        version=f"activefoil {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("sample", help="draw uniform designs from a box")
    cmd.add_argument("--box", required=True, type=_box,
                     help="parsec-table2 | cst-table3 | unit:M | box JSON path")
    cmd.add_argument("--n", type=_number_from(1), required=True)
    cmd.add_argument("--physical", action="store_true",
                     help="write physical instead of normalized coordinates")
    _add_seed_out(cmd)

    cmd = sub.add_parser("shapes", help="decode parameters to surfaces")
    _add_shape_flags(cmd)
    cmd.add_argument("--name", default="airfoil", type=_one_line,
                     help="label written as the first line of the coordinate loop")
    _add_out(cmd)

    cmd = sub.add_parser("evaluate", help="run a QoI over sampled designs")
    cmd.add_argument("--samples", required=True,
                     help="normalized samples.csv from `sample`")
    _add_qoi_flags(cmd)
    _add_skip_infeasible(cmd)
    _add_seed_out(cmd)

    cmd = sub.add_parser("fit", help="least-squares quadratic model")
    cmd.add_argument("--data", required=True, help="evals.csv with an f column")
    _add_out(cmd)

    cmd = sub.add_parser("eigs", help="outer-product matrix eigenpairs")
    cmd.add_argument("--model", required=True, help="model.json from `fit`")
    cmd.add_argument("--dim", type=int, default=None,
                     help="override the log-gap dimension choice")
    _add_out(cmd)

    cmd = sub.add_parser("bootstrap", help="replicate spread of the eigenpairs")
    cmd.add_argument("--data", required=True, help="evals.csv with an f column")
    cmd.add_argument("--nboot", type=_number_from(1), default=100)
    cmd.add_argument("--dim", type=int, default=None,
                     help="override the log-gap dimension choice")
    _add_seed_out(cmd)

    cmd = sub.add_parser("shadow", help="project outputs onto active coordinates")
    cmd.add_argument("--data", required=True, help="evals.csv with an f column")
    cmd.add_argument("--eigs", required=True, help="eigs.json from `eigs`")
    cmd.add_argument("--dim", type=int, choices=(1, 2), default=None,
                     help="active coordinates to keep (1 or 2)")
    _add_out(cmd)

    cmd = sub.add_parser("pareto",
                         help="two-objective Pareto front over the reachable plane")
    cmd.add_argument("--data1", required=True, help="objective-1 evals.csv")
    cmd.add_argument("--eigs1", required=True, help="objective-1 eigs.json")
    cmd.add_argument("--data2", required=True, help="objective-2 evals.csv")
    cmd.add_argument("--eigs2", required=True, help="objective-2 eigs.json")
    cmd.add_argument("--gammas", type=_number_from(2), default=101,
                     help="rows along the Pareto front")
    cmd.add_argument("--grid-n", type=_number_from(2), default=101,
                     help="contour grid resolution per axis")
    _add_out(cmd)

    cmd = sub.add_parser("convergence",
                         help="bootstrap error across sample sizes")
    cmd.add_argument("--box", required=True, type=_box)
    cmd.add_argument("--schedule", type=_schedule, default="100,200,400,800,1600,3200,6400",
                     help="comma list of ascending sample sizes")
    cmd.add_argument("--nboot", type=_number_from(1), default=100)
    cmd.add_argument("--dim", type=int, default=1,
                     help="subspace dimension tracked by the study")
    _add_qoi_flags(cmd)
    _add_seed_out(cmd)

    cmd = sub.add_parser("validate", help="grid feasibility check of one design")
    _add_shape_flags(cmd)
    cmd.add_argument("--out", default=None,
                     help="also write validity.json here")

    cmd = sub.add_parser("run-all", help="full pipeline into one directory")
    cmd.add_argument("--box", default=None, type=_box,
                     help="required unless --qoi is dataset:PATH, which takes none")
    cmd.add_argument("--n", type=_number_from(1), default=1000)
    cmd.add_argument("--nboot", type=_number_from(1), default=100)
    cmd.add_argument("--dim", type=int, default=None,
                     help="override the log-gap dimension choice")
    cmd.add_argument("--gammas", type=_number_from(2), default=101)
    cmd.add_argument("--grid-n", type=_number_from(2), default=101)
    _add_qoi_flags(cmd, run_all=True)
    _add_skip_infeasible(cmd)
    _add_seed_out(cmd, default_out="run")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    from . import cli

    try:
        getattr(cli, "_cmd_" + args.command.replace("-", "_"))(args)
    except SystemExit:
        raise
    except Exception as exc:
        _fail(type(exc).__name__, str(exc), 1)
    return 0

"""The ``activefoil`` command line up to the point where a command runs.

This module imports the standard library only, so ``--version``,
``--help`` and usage errors answer before numpy loads.  ``main`` parses
first and imports ``activefoil.cli``, with numpy and the numerical
modules, only once a command will run.  Subcommand ``NAME`` runs
``cli._cmd_NAME``, with dashes as underscores.  Errors leave as one JSON
object on stderr: usage errors exit 2, failures of a command exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__

_HINTS = {
    "ContractViolation": "run the subcommand with --help for the flag schema",
    "ConditioningError": "constraint rows are nearly dependent; move crest "
                         "positions away from 0 and 1",
    "DatasetError": "check the file against the x1..xm[,f] CSV schema in the README",
    "DegenerateIntervalError": "zero centers cannot be scaled multiplicatively; "
                               "provide explicit bounds in a box JSON file",
    "DomainError": "surface evaluations are defined on [0, 1] only",
    "EvaluationError": "evaluate and run-all accept --skip-infeasible to drop "
                       "failing designs instead of stopping",
    "FileNotFoundError": "check the path; inputs must exist before the command runs",
    "IllPosedFitError": "the quadratic design matrix is rank-deficient; "
                        "increase --n (need (m+1)(m+2)/2 well-spread rows)",
    "NoStructureError": "eigenvalues carry no usable gap; check that f varies "
                        "over the box",
    "OutOfBoxError": "point lies outside the box; sample and evaluate must "
                     "use the same --box",
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


def _add_seed_out(cmd, default_out: str = ".") -> None:
    cmd.add_argument("--seed", type=int, default=0,
                     help="root seed; children are derived by labeled hashing")
    cmd.add_argument("--out", default=default_out,
                     help="output directory (created if missing)")


def _add_qoi_flags(cmd) -> None:
    cmd.add_argument("--qoi", required=True,
                     help="quadratic | ridge[:linear|quadratic|exp] | panel:lift | "
                          "panel:drag; run-all only: panel (both) | dataset:PATH")
    cmd.add_argument("--direction", default="",
                     help="comma list of ridge direction components "
                          "(default 1, 1/2, ..., 1/m)")
    cmd.add_argument("--noise-std", type=float, default=0.0,
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
    cmd.add_argument("--grid", type=int, default=201,
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
    cmd.add_argument("--box", required=True,
                     help="parsec-table2 | cst-table3 | unit:M | box JSON path")
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--physical", action="store_true",
                     help="write physical instead of normalized coordinates")
    _add_seed_out(cmd)

    cmd = sub.add_parser("shapes", help="decode parameters to surfaces")
    _add_shape_flags(cmd)
    cmd.add_argument("--name", default="airfoil",
                     help="label written on the coordinate loop")
    _add_seed_out(cmd)

    cmd = sub.add_parser("evaluate", help="run a QoI over sampled designs")
    cmd.add_argument("--samples", required=True,
                     help="normalized samples.csv from `sample`")
    _add_qoi_flags(cmd)
    _add_skip_infeasible(cmd)
    _add_seed_out(cmd)

    cmd = sub.add_parser("fit", help="least-squares quadratic model")
    cmd.add_argument("--data", required=True, help="evals.csv with an f column")
    _add_seed_out(cmd)

    cmd = sub.add_parser("eigs", help="outer-product matrix eigenpairs")
    group = cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="evals.csv with an f column")
    group.add_argument("--model", help="model.json from `fit`")
    cmd.add_argument("--dim", type=int, default=None,
                     help="override the log-gap dimension choice")
    _add_seed_out(cmd)

    cmd = sub.add_parser("bootstrap", help="replicate spread of the eigenpairs")
    cmd.add_argument("--data", required=True, help="evals.csv with an f column")
    cmd.add_argument("--nboot", type=int, default=100)
    cmd.add_argument("--dim", type=int, default=None,
                     help="override the log-gap dimension choice")
    _add_seed_out(cmd)

    cmd = sub.add_parser("shadow", help="project outputs onto active coordinates")
    cmd.add_argument("--data", required=True, help="evals.csv with an f column")
    cmd.add_argument("--eigs", required=True, help="eigs.json from `eigs`")
    cmd.add_argument("--dim", type=int, default=None,
                     help="active coordinates to keep (1 or 2)")
    _add_seed_out(cmd)

    cmd = sub.add_parser("pareto",
                         help="two-objective segment with response surfaces")
    cmd.add_argument("--data1", required=True, help="objective-1 evals.csv")
    cmd.add_argument("--eigs1", required=True, help="objective-1 eigs.json")
    cmd.add_argument("--data2", required=True, help="objective-2 evals.csv")
    cmd.add_argument("--eigs2", required=True, help="objective-2 eigs.json")
    cmd.add_argument("--degree", type=int, default=2,
                     help="link-function polynomial degree")
    cmd.add_argument("--gammas", type=int, default=101,
                     help="points on the segment")
    cmd.add_argument("--grid-n", type=int, default=101,
                     help="contour grid resolution per axis")
    _add_seed_out(cmd)

    cmd = sub.add_parser("convergence",
                         help="bootstrap error across sample sizes")
    cmd.add_argument("--box", required=True)
    cmd.add_argument("--schedule", default="100,200,400,800,1600,3200,6400",
                     help="comma list of ascending sample sizes")
    cmd.add_argument("--nboot", type=int, default=100)
    cmd.add_argument("--dim", type=int, default=1,
                     help="subspace dimension tracked by the study")
    _add_qoi_flags(cmd)
    _add_seed_out(cmd)

    cmd = sub.add_parser("validate", help="grid feasibility check of one design")
    _add_shape_flags(cmd)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--out", default=None,
                     help="also write validity.json here")

    cmd = sub.add_parser("run-all", help="full pipeline into one directory")
    cmd.add_argument("--box", default=None,
                     help="required unless --qoi is dataset:PATH, which takes none")
    cmd.add_argument("--n", type=int, default=1000)
    cmd.add_argument("--nboot", type=int, default=100)
    cmd.add_argument("--dim", type=int, default=None,
                     help="override the log-gap dimension choice")
    cmd.add_argument("--degree", type=int, default=2)
    cmd.add_argument("--gammas", type=int, default=101)
    cmd.add_argument("--grid-n", type=int, default=101)
    _add_qoi_flags(cmd)
    _add_skip_infeasible(cmd)
    _add_seed_out(cmd, default_out="run")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import cli

    try:
        getattr(cli, "_cmd_" + args.command.replace("-", "_"))(args)
    except SystemExit:
        raise
    except Exception as exc:
        _fail(type(exc).__name__, str(exc), 1)
    return 0

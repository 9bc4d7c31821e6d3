"""Command-line pipelines over the library modules.

Artifacts are plain CSV / JSON / gnuplot text with LF endings and no
timestamps: rerunning a command with identical flags reproduces every
output byte for byte.  Each table and JSON artifact records the tool
version and a short hash of the resolved configuration, and the root seed
when the command takes one.  Commands share state only through files in
the output directory.

Only the commands that draw (sample, evaluate, bootstrap, convergence
and run-all) take ``--seed``, and all their randomness flows from it;
consumers derive child streams by labeled hashing
(``sampling.derive_seed``), so the sampling stream does not shift when,
say, ``--nboot`` changes.  Every bootstrap draws from the label
``bootstrap``: ``run-all`` fits and decomposes each of its outputs (one,
or the panel's lift and drag) once, and then bootstraps them around
those point estimates in one call that resamples each replicate's rows
once for all of them, so a chain's bootstrap tables are those of the
``bootstrap`` command, which builds its point estimate the same way, on
that chain's evals file.

The parser, which holds each flag rule that needs no data, and the entry
point live in ``activefoil.frontend``, which loads no numpy; ``main`` here
is that entry point.  ``_resolve_box`` and ``_build_evaluator`` give a
parsed ``--box`` or ``--qoi`` spec its meaning.  Each ``_cmd_`` function
below checks its flags against the data and composes ``sampling.sample``,
``qoi.evaluate_batch`` (the one failure policy of evaluations) and the
stages of this module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, cst, parsec, qoi, sampling
from . import activesubspace as asub
from .activesubspace import QuadraticModel
from .errors import ContractViolation, DatasetError
from .frontend import build_parser, main  # noqa: F401
from .geometry import nose_resolving_grid, validate_airfoil, write_coordinate_loop
from .sampling import (
    ParameterBox,
    derive_seed,
    read_json_file,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
    write_table,
)

_BUILTIN_BOXES = {"parsec-table2": "parsec", "cst-table3": "cst"}


def _config_hash(args: argparse.Namespace) -> str:
    pairs = sorted(f"{key}={value}" for key, value in vars(args).items())
    return hashlib.sha256("\n".join(pairs).encode()).hexdigest()[:12]


def _meta(args: argparse.Namespace, **extra) -> dict:
    """Tool version, the root seed of a command that takes one, config hash and ``extra``."""
    seed = {"seed": args.seed} if "seed" in vars(args) else {}
    return {"tool": f"activefoil {__version__}", **seed, "config": _config_hash(args), **extra}


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_box(spec: str) -> ParameterBox:
    """The box of a --box spec, whose grammar the parser checked."""
    if spec == "parsec-table2":
        return parsec.baseline_box()
    if spec == "cst-table3":
        return cst.baseline_box()
    if spec.startswith("unit:"):
        return sampling.unit_box(int(spec[5:]))
    if os.path.exists(spec):
        return ParameterBox.load(spec)
    raise ContractViolation(f"unknown box {spec!r}; use parsec-table2, cst-table3, unit:M, "
                            "or the path of a box JSON file")


def _check_dim_flag(dim, m: int) -> None:
    """At least two parameters, and --dim, when given, in [1, m-1]."""
    if m < 2:
        raise ContractViolation(
            f"an active subspace needs at least 2 parameters, the input has {m}")
    if dim is not None and not 1 <= dim < m:
        raise ContractViolation(f"--dim must lie in [1, {m - 1}], got {dim}")


def _check_rows(n_rows: int, m: int, flag: str) -> None:
    """Enough rows, set by ``flag``, for the quadratic fit; checked before any write."""
    p = asub.coefficient_count(m)
    if n_rows < p:
        raise ContractViolation(
            f"need at least {p} samples for m={m}, got {n_rows} from {flag}")


def _check_columns(X, data_flag: str, m: int, eigs_flag: str) -> None:
    if X.shape[1] != m:
        raise ContractViolation(f"{data_flag} has {X.shape[1]} columns but the "
                                f"eigenvectors of {eigs_flag} have {m} components")


def _parse_direction(text: str, m: int) -> np.ndarray:
    """The --direction vector, whose grammar the parser checked, or the default."""
    if not text:
        # reproducible mixed default, no zero components
        return 1.0 / np.arange(1.0, m + 1.0)
    w = np.array([float(v) for v in text.split(",")])
    if w.size != m:
        raise ContractViolation(f"--direction has {w.size} components, box has {m} parameters")
    return w


def _build_evaluator(spec: str, m: int, args, box_spec: str | None):
    """(evaluator, a (prefix, qoi meta) chain per output) of a --qoi spec that the
    parser accepted, dataset:PATH aside; panel gives the lift_ and drag_ chains."""
    if spec == "quadratic":
        child = derive_seed(args.seed, "qoi:quadratic")
        return qoi.seeded_quadratic(m, child), [("", {"qoi": spec, "qoi_seed": child})]
    if spec.startswith("ridge"):
        profile = spec[6:] or "linear"
        ev = qoi.Ridge(_parse_direction(args.direction, m), profile,
                       noise_std=args.noise_std, noise_seed=args.noise_seed)
        return ev, [("", {"qoi": f"ridge:{profile}", "noise_std": args.noise_std,
                          "noise_seed": args.noise_seed})]
    parameterization = _BUILTIN_BOXES.get(box_spec)
    if parameterization is None:
        raise ContractViolation(
            f"panel QoIs decode in a built-in box only, got box {box_spec!r}; "
            "use parsec-table2 or cst-table3")
    if spec != "panel":
        return qoi.PanelSurrogate(parameterization, spec[6:]), [
            ("", {"qoi": spec, "parameterization": parameterization})]
    return qoi.PanelSurrogate(parameterization, "both"), [
        (f"{objective}_", {"qoi": f"panel:{objective}", "parameterization": parameterization})
        for objective in ("lift", "drag")]


def _read_evals(path):
    """(X, f, labels) of an evals file, which must have an f column."""
    X, f, labels, _ = read_matrix_csv(path)
    if f is None:
        raise DatasetError(f"{path} has no f column; produce one with `activefoil evaluate`")
    return X, f, labels


def _load_eigs(path):
    """The (Eigenpairs, n) that ``_eigs_stage`` wrote to the eigs.json ``path``."""
    def build(saved):
        eig = asub.Eigenpairs(np.transpose(saved["eigenvectors"]), saved["eigenvalues"])
        if not 1 <= saved["n"] < eig.values.size:
            raise ContractViolation(f"n must lie in [1, {eig.values.size - 1}], got {saved['n']}")
        return eig, int(saved["n"])

    return read_json_file(path, {"eigenvalues": "a list of numbers", "n": "an integer",
                                 "eigenvectors": "a matrix of numbers"}, "eigenpair", build)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sample(args) -> None:
    box = _resolve_box(args.box)
    child = derive_seed(args.seed, "sample")
    drawn = sampling.sample(box, args.n, child)
    matrix = drawn.matrix
    coords = "normalized"
    if args.physical:
        matrix = sampling.denormalize(matrix, box)
        coords = "physical"
    meta = _meta(args, box=args.box, n=args.n, child_seed=child,
                 scheme=sampling.RNG_SCHEME, coords=coords)
    out = _out_dir(args)
    write_matrix_csv(out / "samples.csv", matrix, labels=box.labels, meta=meta)
    print(f"wrote {out / 'samples.csv'} ({args.n} rows, {coords})")


def _design_from(args):
    """(1-row stack of --params or of the box centre, the report dict of its --grid check).

    A design that fails to decode raises its error.
    """
    module = parsec if args.parameterization == "parsec" else cst
    row = (module.read_params(Path(args.params).read_text()) if args.params
           else module.baseline_box().center)
    stack = qoi._decode(args.parameterization, row[np.newaxis])
    if stack.errors:
        raise stack.errors[0]
    return stack, validate_airfoil(stack, args.grid, sharp_trailing_edge=args.sharp_te).row(0)


def _cmd_shapes(args) -> None:
    stack, report = _design_from(args)
    meta = _meta(args, parameterization=args.parameterization,
                 params=args.params or "baseline-center", grid=args.grid)
    out = _out_dir(args)
    _, ell = nose_resolving_grid(args.grid)
    for name, heights in zip(("upper", "lower"), next(stack.grid_blocks(ell))[0]):
        write_table(out / f"{name}.csv", "ell,height", np.column_stack([ell, heights]), meta)
    write_coordinate_loop(stack, out / "loop.dat", n=args.grid, name=args.name)
    report["meta"] = meta
    write_json(out / "shape_report.json", report)
    print(f"wrote {out / 'loop.dat'} (feasible={report['feasible']})")


def _cmd_evaluate(args) -> None:
    X, _, labels, smeta = read_matrix_csv(args.samples)
    if smeta.get("coords") == "physical":
        raise ContractViolation(
            "evaluators consume normalized coordinates; "
            "re-run `activefoil sample` without --physical"
        )
    ev, [(_, qmeta)] = _build_evaluator(args.qoi, X.shape[1], args, smeta.get("box"))
    X, values, n_failed = _evaluate_kept(ev, X, args)
    meta = _meta(args, n_failed=n_failed, **qmeta)
    out = _out_dir(args)
    write_matrix_csv(out / "evals.csv", X, f=values, labels=labels, meta=meta)
    print(f"wrote {out / 'evals.csv'} ({values.size} rows, {n_failed} failed)")


def _cmd_fit(args) -> None:
    X, f, _ = _read_evals(args.data)
    _check_rows(*X.shape, "--data")
    out = _out_dir(args)
    model = _fit_stage(X, f, out, "", _meta(args))
    print(f"wrote {out / 'model.json'} (residual_rms={model.residual_rms:.3e})")


def _cmd_eigs(args) -> None:
    model = read_json_file(
        args.model, {"hessian": "a matrix of numbers", "linear": "a list of numbers",
                     "constant": "a number"}, "model",
        lambda saved: QuadraticModel(saved["hessian"], saved["linear"], saved["constant"]))
    _check_dim_flag(args.dim, model.dim)
    out = _out_dir(args)
    _, n = _eigs_stage(model, args, out, "", _meta(args))
    print(f"wrote {out / 'eigs.json'} (n={n})")


def _cmd_bootstrap(args) -> None:
    X, f, _ = _read_evals(args.data)
    _check_dim_flag(args.dim, X.shape[1])
    _check_rows(*X.shape, "--data")
    eig, n = _point_estimate(asub.fit_quadratic(X, f), args.dim)
    out = _out_dir(args)
    summary = _bootstrap_stage(X, f[:, np.newaxis], [(eig, n)], args, out, [("", _meta(args))])
    print(f"wrote {out / 'bootstrap_eigenvalues.csv'} (n={n}, skipped={summary.n_skipped})")


def _cmd_shadow(args) -> None:
    eig, n = _load_eigs(args.eigs)
    _check_dim_flag(args.dim, eig.values.size)
    n = min(n, 2) if args.dim is None else args.dim
    X, f, _ = _read_evals(args.data)
    _check_columns(X, "--data", eig.values.size, "--eigs")
    out = _out_dir(args)
    _shadow_stage(X, f, eig.vectors[:, :n], out, "", _meta(args))
    print(f"wrote {out / 'shadow.csv'} (n_active={n})")


def _plane_directions(w1, raw):
    """Leading directions w1 and raw, with w2 = raw orthonormalized against w1."""
    w1, raw = np.array(w1, dtype=float), np.array(raw, dtype=float)
    if w1.size != raw.size:
        raise ContractViolation(f"--eigs1 has {w1.size}-component eigenvectors, "
                                f"--eigs2 has {raw.size}")
    overlap = abs(float(w1 @ raw))
    if overlap > 0.99:
        raise ContractViolation(
            f"leading directions are nearly collinear (|w1.w2|={overlap:.3f}); "
            "no usable two-objective plane"
        )
    w2 = raw - (w1 @ raw) * w1
    w2 = w2 / np.linalg.norm(w2)
    return w1, w2, overlap


def _pareto_artifacts(X1, f1, X2, f2, directions, args, out: Path,
                      meta_extra: dict) -> None:
    """Pareto artifacts on the plane of ``directions``, from ``_plane_directions``."""
    w1, w2, overlap = directions
    column, plane = w1.reshape(-1, 1), np.column_stack([w1, w2])
    lift = analysis.fit_link_function(X1, f1, column)
    drag = analysis.fit_link_function(X2, f2, plane)
    candidates = analysis.pareto_segment(w1, w2, gamma_count=args.gammas)
    front = analysis.pareto_front(candidates, lift.predict(candidates.designs @ column),
                                  drag.predict(candidates.coords))
    coords = X2 @ plane
    sampled = analysis.in_polygon(analysis.convex_hull(coords), front.coords)
    meta = _meta(args, overlap=f"{overlap:.17g}", n_feasible=int(front.feasible.sum()),
                 n_extrapolated=int(np.sum(~sampled)), **meta_extra)
    analysis.write_pareto_csv(front, out / "pareto.csv", meta=meta)
    low, high = coords.min(axis=0), coords.max(axis=0)
    pad = np.where(high > low, 0.0, 0.5)
    analysis.export_surface_grid(drag, low - pad, high + pad,
                                 out / "pareto_grid.dat", front.region, n=args.grid_n,
                                 meta=meta)
    analysis.emit_pareto_gnuplot("pareto.csv", "pareto_grid.dat",
                                 out / "pareto.gp", skip_lines=len(meta) + 1)


def _cmd_pareto(args) -> None:
    points = [_load_eigs(args.eigs1), _load_eigs(args.eigs2)]
    directions = _plane_directions(*(eig.vectors[:, 0] for eig, _ in points))
    X1, f1, _ = _read_evals(args.data1)
    X2, f2, _ = _read_evals(args.data2)
    _check_columns(X1, "--data1", directions[0].size, "--eigs1")
    _check_columns(X2, "--data2", directions[0].size, "--eigs2")
    out = _out_dir(args)
    _pareto_artifacts(X1, f1, X2, f2, directions, args, out, {})
    print(f"wrote {out / 'pareto.csv'} ({args.gammas} points)")


def _cmd_convergence(args) -> None:
    box = _resolve_box(args.box)
    _check_dim_flag(args.dim, box.dim)
    ev, [(_, qmeta)] = _build_evaluator(args.qoi, box.dim, args, args.box)
    _check_rows(args.schedule[0], box.dim, "--schedule")  # ascending: every cell fits
    child = derive_seed(args.seed, "convergence")
    rows = []
    for i, n in enumerate(args.schedule):
        X = sampling.sample(box, n, derive_seed(child, f"cell{i}:sample")).matrix
        values, _ = qoi.evaluate_batch(ev, X)
        point, _ = _point_estimate(asub.fit_quadratic(X, values), args.dim)
        summary = asub.bootstrap(X, values[:, np.newaxis], args.nboot,
                                 derive_seed(child, f"cell{i}:boot"), [point])
        rows.append((n, *summary.column(0).error_row(args.dim)))
    out = _out_dir(args)
    write_table(out / "convergence.csv", "n,error_mean,error_min,error_max",
                np.array(rows), _meta(args, child_seed=child, **qmeta))
    print(f"wrote {out / 'convergence.csv'} ({len(rows)} cells)")


def _cmd_validate(args) -> None:
    _, payload = _design_from(args)
    payload["parameterization"] = args.parameterization
    payload["meta"] = _meta(args, params=args.params or "baseline-center")
    print(json.dumps(payload, sort_keys=True, indent=2))
    if args.out:
        write_json(_out_dir(args) / "validity.json", payload)


# ---------------------------------------------------------------------------
# pipeline stages: each computes one step and writes its artifacts into
# ``out`` under ``prefix``, with the metadata its caller passes


def _evaluate_kept(ev, X, args):
    """(kept rows, their values, failed count); failures raise unless
    --skip-infeasible drops them."""
    mode = "skip" if args.skip_infeasible else "raise"
    values, failed = qoi.evaluate_batch(ev, X, on_error=mode)
    keep = np.ones(X.shape[0], dtype=bool)
    keep[failed] = False
    return X[keep], values[keep], len(failed)


def _fit_stage(X, f, out: Path, prefix: str, meta: dict) -> QuadraticModel:
    model = asub.fit_quadratic(X, f)
    write_json(out / f"{prefix}model.json", {
        "m": X.shape[1],
        "n_samples": X.shape[0],
        "constant": model.constant,
        "linear": model.linear.tolist(),
        "hessian": model.hessian.tolist(),
        "residual_rms": model.residual_rms,
        "meta": meta,
    })
    return model


def _point_estimate(model: QuadraticModel, dim):
    """(Eigenpairs of the model's C, n from ``dim``, which callers check first, or the log gap)."""
    eig = asub.eigendecompose(asub.gradient_outer_matrix(model))
    return eig, asub.choose_dimension(eig.values) if dim is None else dim


def _eigs_stage(model: QuadraticModel, args, out: Path, prefix: str, meta: dict):
    """The (Eigenpairs, n) of ``_point_estimate``, written to eigs.json."""
    eig, n = _point_estimate(model, args.dim)
    write_json(out / f"{prefix}eigs.json", {
        "eigenvalues": eig.values.tolist(),
        "eigenvectors": eig.vectors.T.tolist(),
        "n": n,
        "meta": meta,
    })
    return eig, n


def _bootstrap_stage(X, F, points, args, out: Path, chains) -> asub.BootstrapSummary:
    """One bootstrap of every column of the (N, k) outputs F, then each column's two tables.

    ``points`` holds each column's (Eigenpairs, n) from ``_point_estimate``,
    and ``chains`` its (prefix, meta) pair.  Every chain draws its
    replicates from the one label ``bootstrap``, so the columns share each
    replicate's rows, and a column's tables are those of the ``bootstrap``
    command on that column alone.
    """
    child = derive_seed(args.seed, "bootstrap")
    summary = asub.bootstrap(X, F, args.nboot, child, [eig for eig, _ in points])
    for j, ((prefix, meta), (eig, n)) in enumerate(zip(chains, points)):
        column = summary.column(j)
        meta = {**meta, "child_seed": child, "n_active": n, "n_skipped": summary.n_skipped}
        write_table(out / f"{prefix}bootstrap_eigenvalues.csv", "index,point,min,mean,max",
                    np.column_stack([np.arange(1, eig.values.size + 1),
                                     eig.values, column.eigenvalues_min,
                                     column.eigenvalues_mean, column.eigenvalues_max]), meta)
        write_table(out / f"{prefix}bootstrap_dimensions.csv",
                    "dim,error_mean,error_min,error_max",
                    np.column_stack([np.arange(1, eig.values.size), column.error_mean,
                                     column.error_min, column.error_max]), meta)
    return summary


def _shadow_stage(X, f, basis, out: Path, prefix: str, meta: dict) -> None:
    """Shadow of f on the (m, n) active ``basis``."""
    n = basis.shape[1]
    meta = {**meta, "n_active": n}
    analysis.write_shadow_csv(analysis.shadow_project(X, basis), f,
                              out / f"{prefix}shadow.csv", meta=meta)
    analysis.emit_shadow_gnuplot(f"{prefix}shadow.csv",
                                 out / f"{prefix}shadow.gp", n,
                                 skip_lines=len(meta) + 1)


def _chains(X, F, labels, args, out: Path, chains, evals_meta) -> list:
    """evals -> model -> eigs per column of F, one bootstrap of them all
    around those point estimates, then each column's shadow; ``chains``
    holds a (prefix, qoi meta) pair per column.  Returns each column's
    (Eigenpairs, n)."""
    F = F.reshape(len(F), -1)
    metas = [(prefix, _meta(args, **qmeta)) for prefix, qmeta in chains]
    points = []
    for f, (prefix, meta) in zip(F.T, metas):
        write_matrix_csv(out / f"{prefix}evals.csv", X, f=f, labels=labels,
                         meta={**meta, **evals_meta})
        points.append(_eigs_stage(_fit_stage(X, f, out, prefix, meta), args, out, prefix, meta))
    _bootstrap_stage(X, F, points, args, out, metas)
    for f, (prefix, meta), (eig, n) in zip(F.T, metas, points):
        _shadow_stage(X, f, eig.vectors[:, :min(n, 2)], out, prefix, meta)
    return points


def _cmd_run_all(args) -> None:
    dataset = args.qoi.startswith("dataset:")
    if dataset == bool(args.box):
        raise ContractViolation("run-all needs --box or --qoi dataset:PATH, whose rows "
                                "are the designs, but not both")
    if dataset:
        X, F, labels = _read_evals(args.qoi[8:])
        chains, shape, flag = [("", {"qoi": args.qoi})], X.shape, "--qoi dataset:PATH"
    else:
        box = _resolve_box(args.box)
        ev, chains = _build_evaluator(args.qoi, box.dim, args, args.box)
        shape, flag, labels = (args.n, box.dim), "--n", box.labels
    _check_dim_flag(args.dim, shape[1])
    _check_rows(*shape, flag)
    out = _out_dir(args)
    evals_meta = {}
    if not dataset:
        X = sampling.sample(box, args.n, derive_seed(args.seed, "sample")).matrix
        X, F, n_failed = _evaluate_kept(ev, X, args)
        evals_meta = {"n_failed": n_failed}
    points = _chains(X, F, labels, args, out, chains, evals_meta)
    if len(points) == 2:
        directions = _plane_directions(*(eig.vectors[:, 0] for eig, _ in points))
        _pareto_artifacts(X, F[:, 0], X, F[:, 1], directions, args, out, {
            "qoi": args.qoi, "parameterization": chains[0][1]["parameterization"]})
    print(f"pipeline artifacts in {out} ({len(X)} rows, --qoi {args.qoi})")


if __name__ == "__main__":
    sys.exit(main())

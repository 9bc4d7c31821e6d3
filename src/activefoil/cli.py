"""Command-line pipelines over the library modules.

Artifacts are plain CSV / JSON / gnuplot text with LF endings and no
timestamps: rerunning a command with identical flags reproduces every
output byte for byte.  Each artifact records the tool version, the root
seed and a short hash of the resolved configuration.  Commands share
state only through files in the output directory.

All randomness flows from the single ``--seed`` value; consumers derive
child streams by labeled hashing (``sampling.derive_seed``), so the
sampling stream does not shift when, say, ``--nboot`` changes.

The parser and the entry point live in ``activefoil.frontend``, which
loads no numpy; ``main`` here is that entry point, and each subcommand
runs the ``_cmd_`` function of its name below.  Commands, ``convergence``
included, compose ``sampling.sample``, ``qoi.evaluate_batch`` (the one
failure policy of evaluations) and the stages at the end of this module.
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
from .geometry import validate_airfoil, write_coordinate_loop, write_surface_table
from .sampling import (
    ParameterBox,
    derive_seed,
    read_matrix_csv,
    write_matrix_csv,
    write_table,
)

_BUILTIN_BOXES = {"parsec-table2": "parsec", "cst-table3": "cst"}


def _config_hash(args: argparse.Namespace) -> str:
    pairs = sorted(f"{key}={value}" for key, value in vars(args).items())
    return hashlib.sha256("\n".join(pairs).encode()).hexdigest()[:12]


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {
        "tool": f"activefoil {__version__}",
        "seed": getattr(args, "seed", 0),
        "config": _config_hash(args),
    }
    meta.update(extra)
    return meta


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _resolve_box(spec: str) -> ParameterBox:
    if spec == "parsec-table2":
        return parsec.baseline_box()
    if spec == "cst-table3":
        return cst.baseline_box()
    if spec.startswith("unit:"):
        try:
            dim = int(spec.split(":", 1)[1])
        except ValueError:
            raise ContractViolation(
                f"box {spec!r} needs an integer dimension, as in unit:4"
            ) from None
        return sampling.unit_box(dim)
    if os.path.exists(spec):
        return ParameterBox.load(spec)
    raise ContractViolation(
        f"unknown box {spec!r}; use parsec-table2, cst-table3, unit:M, "
        "or the path of a box JSON file"
    )


def _parameterization_for(box_spec: str | None) -> str:
    """Decoder of a built-in box: panel QoIs decode in that box only."""
    builtin = _BUILTIN_BOXES.get(box_spec)
    if builtin is None:
        raise ContractViolation(
            f"panel QoIs decode in a built-in box only, got box {box_spec!r}; "
            "use parsec-table2 or cst-table3"
        )
    return builtin


def _check_dim_flag(dim, m: int) -> None:
    """At least two parameters, and --dim, when given, in [1, m-1]."""
    if m < 2:
        raise ContractViolation(
            f"an active subspace needs at least 2 parameters, the input has {m}")
    if dim is not None and not 1 <= dim < m:
        raise ContractViolation(f"--dim must lie in [1, {m - 1}], got {dim}")


def _check_pareto_sizes(args) -> None:
    """--gammas, --degree and --grid-n, checked before anything is written."""
    if args.gammas < 2:
        raise ContractViolation(f"--gammas must be at least 2, got {args.gammas}")
    if args.degree < 0:
        raise ContractViolation(f"--degree must be non-negative, got {args.degree}")
    if args.grid_n < 2:
        raise ContractViolation(f"--grid-n must be at least 2, got {args.grid_n}")


def _check_boot_flags(args, m: int) -> None:
    """--dim and --nboot, checked before any sampling, fit or write."""
    _check_dim_flag(args.dim, m)
    if args.nboot < 1:
        raise ContractViolation(f"--nboot must be at least 1, got {args.nboot}")


def _check_rows(n_rows: int, m: int) -> None:
    """Enough rows for the quadratic fit, checked before anything is written."""
    p = asub.coefficient_count(m)
    if n_rows < p:
        raise ContractViolation(f"need at least {p} samples for m={m}, got {n_rows}")


def _check_run_sizes(args, n_rows: int, m: int) -> None:
    """run-all's size flags and row count, checked before anything is written."""
    _check_boot_flags(args, m)
    _check_pareto_sizes(args)
    _check_rows(n_rows, m)


def _check_columns(X, data_flag: str, m: int, eigs_flag: str) -> None:
    if X.shape[1] != m:
        raise ContractViolation(f"{data_flag} has {X.shape[1]} columns but the "
                                f"eigenvectors of {eigs_flag} have {m} components")


def _parse_direction(text: str, m: int) -> np.ndarray:
    if not text:
        # reproducible mixed default, no zero components
        return 1.0 / np.arange(1.0, m + 1.0)
    try:
        w = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ContractViolation(
            f"--direction must be a comma list of numbers, got {text!r}"
        ) from None
    if w.size != m:
        raise ContractViolation(
            f"--direction has {w.size} components, box has {m} parameters"
        )
    return w


def _build_evaluator(spec: str, m: int, args, box_spec: str | None):
    """Returns (evaluator, meta entries describing it)."""
    if spec == "quadratic":
        child = derive_seed(args.seed, "qoi:quadratic")
        return qoi.seeded_quadratic(m, child), {"qoi": spec, "qoi_seed": child}
    if spec == "ridge" or spec.startswith("ridge:"):
        profile = spec.split(":", 1)[1] if ":" in spec else "linear"
        w = _parse_direction(getattr(args, "direction", ""), m)
        ev = qoi.Ridge(w, profile, noise_std=args.noise_std,
                       noise_seed=args.noise_seed)
        return ev, {
            "qoi": f"ridge:{profile}",
            "noise_std": args.noise_std,
            "noise_seed": args.noise_seed,
        }
    if spec in ("panel:lift", "panel:drag"):
        objective = spec.split(":", 1)[1]
        parameterization = _parameterization_for(box_spec)
        ev = qoi.PanelSurrogate(parameterization, objective)
        return ev, {"qoi": spec, "parameterization": parameterization}
    if spec.startswith("dataset:"):
        raise ContractViolation(
            "--qoi dataset:PATH holds precomputed rows and cannot evaluate designs; "
            "study a dataset with `run-all --qoi dataset:PATH`")
    raise ContractViolation(
        f"unknown QoI {spec!r}; use quadratic, ridge[:profile], panel:lift or panel:drag"
    )


def _require_outputs(f, path) -> np.ndarray:
    if f is None:
        raise DatasetError(
            f"{path} has no f column; produce one with `activefoil evaluate`"
        )
    return f


def _load_json(path, kind: str, keys) -> dict:
    """JSON object in ``path``; a missing key raises a DatasetError naming it."""
    with open(path) as fh:
        payload = json.load(fh)
    for key in keys:
        if key not in payload:
            raise DatasetError(f"{path} is missing {kind} key {key!r}")
    return payload


def _load_eigs(path) -> dict:
    return _load_json(path, "eigenpair", ("eigenvalues", "eigenvectors", "n"))


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


def _surface_pair_from(args):
    if args.parameterization == "parsec":
        if args.params:
            params = parsec.ParsecParams.from_json(Path(args.params).read_text())
        else:
            params = parsec.baseline_center()
        return parsec.solve_coefficients(params)
    if args.params:
        params = cst.CstParams.from_json(Path(args.params).read_text())
    else:
        params = cst.baseline_center()
    return cst.surface_pair(params)


def _cmd_shapes(args) -> None:
    pair = _surface_pair_from(args)
    report = validate_airfoil(pair, args.grid, sharp_trailing_edge=args.sharp_te)
    meta = _meta(args, parameterization=args.parameterization,
                 params=args.params or "baseline-center", grid=args.grid)
    out = _out_dir(args)
    write_surface_table(pair.upper, out / "upper.csv", n=args.grid, meta=meta)
    write_surface_table(pair.lower, out / "lower.csv", n=args.grid, meta=meta)
    write_coordinate_loop(pair, out / "loop.dat", n=args.grid, name=args.name)
    payload = report.to_dict()
    payload["meta"] = meta
    _write_json(out / "shape_report.json", payload)
    print(f"wrote {out / 'loop.dat'} (feasible={report.feasible})")


def _cmd_evaluate(args) -> None:
    X, _, labels, smeta = read_matrix_csv(args.samples)
    if smeta.get("coords") == "physical":
        raise ContractViolation(
            "evaluators consume normalized coordinates; "
            "re-run `activefoil sample` without --physical"
        )
    ev, qmeta = _build_evaluator(args.qoi, X.shape[1], args, smeta.get("box"))
    X, values, n_failed = _evaluate_kept(ev, X, args)
    meta = _meta(args, n_failed=n_failed, **qmeta)
    out = _out_dir(args)
    write_matrix_csv(out / "evals.csv", X, f=values, labels=labels, meta=meta)
    print(f"wrote {out / 'evals.csv'} ({values.size} rows, {n_failed} failed)")


def _cmd_fit(args) -> None:
    X, f, _, _ = read_matrix_csv(args.data)
    f = _require_outputs(f, args.data)
    _check_rows(*X.shape)
    out = _out_dir(args)
    model = _fit_stage(X, f, out, "", _meta(args))
    print(f"wrote {out / 'model.json'} (residual_rms={model.residual_rms:.3e})")


def _model_from(args) -> QuadraticModel:
    """The model of --model, or the fit of --data; --dim is checked before the fit."""
    if args.model:
        payload = _load_json(args.model, "model", ("hessian", "linear", "constant"))
        model = QuadraticModel(
            np.array(payload["hessian"], dtype=float),
            np.array(payload["linear"], dtype=float),
            float(payload["constant"]),
            float(payload.get("residual_rms", 0.0)),
        )
        _check_dim_flag(args.dim, model.dim)
        return model
    X, f, _, _ = read_matrix_csv(args.data)
    _check_dim_flag(args.dim, X.shape[1])
    return asub.fit_quadratic(X, _require_outputs(f, args.data))


def _cmd_eigs(args) -> None:
    model = _model_from(args)
    out = _out_dir(args)
    payload = _eigs_stage(model, args, out, "", _meta(args))
    print(f"wrote {out / 'eigs.json'} (n={payload['n']})")


def _cmd_bootstrap(args) -> None:
    X, f, _, _ = read_matrix_csv(args.data)
    _check_boot_flags(args, X.shape[1])
    f = _require_outputs(f, args.data)
    _check_rows(*X.shape)
    out = _out_dir(args)
    summary = _bootstrap_stage(X, f, args.dim, args, out, "", "bootstrap", _meta(args))
    print(f"wrote {out / 'bootstrap_eigenvalues.csv'} "
          f"(n={summary.n}, skipped={summary.n_skipped})")


def _cmd_shadow(args) -> None:
    payload = _load_eigs(args.eigs)
    n = min(int(payload["n"]), 2) if args.dim is None else args.dim
    if n not in (1, 2):
        raise ContractViolation(
            f"shadow plots support 1 or 2 active coordinates (--dim), got {n}")
    X, f, _, _ = read_matrix_csv(args.data)
    _check_columns(X, "--data", len(payload["eigenvectors"][0]), "--eigs")
    f = _require_outputs(f, args.data)
    out = _out_dir(args)
    _shadow_stage(X, f, payload, n, out, "", _meta(args))
    print(f"wrote {out / 'shadow.csv'} (n_active={n})")


def _plane_directions(eigs1: dict, eigs2: dict):
    """Leading directions with w2 orthonormalized against w1."""
    w1 = np.array(eigs1["eigenvectors"][0], dtype=float)
    raw = np.array(eigs2["eigenvectors"][0], dtype=float)
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
    lift_surface = analysis.fit_link_function(
        analysis.shadow_project(X1, f1, w1.reshape(-1, 1)), args.degree)
    plane = np.column_stack([w1, w2])
    drag_surface = analysis.fit_link_function(
        analysis.shadow_project(X2, f2, plane), args.degree)
    front = analysis.pareto_front(analysis.pareto_segment(w1, w2, gamma_count=args.gammas),
                                  lift_surface, drag_surface)
    coords = X2 @ plane
    sampled = analysis.in_polygon(analysis.convex_hull(coords), front.coords)
    meta = _meta(args, overlap=f"{overlap:.17g}", n_feasible=int(front.feasible.sum()),
                 n_extrapolated=int(np.sum(~sampled)), **meta_extra)
    analysis.write_pareto_csv(front, out / "pareto.csv", meta=meta)
    low, high = coords.min(axis=0), coords.max(axis=0)
    pad = np.where(high > low, 0.0, 0.5)
    analysis.export_surface_grid(drag_surface, low - pad, high + pad,
                                 out / "pareto_grid.dat", n=args.grid_n,
                                 meta=meta, region=front.region)
    analysis.emit_pareto_gnuplot("pareto.csv", "pareto_grid.dat",
                                 out / "pareto.gp", skip_lines=len(meta) + 1)


def _cmd_pareto(args) -> None:
    _check_pareto_sizes(args)
    directions = _plane_directions(_load_eigs(args.eigs1), _load_eigs(args.eigs2))
    X1, f1, _, _ = read_matrix_csv(args.data1)
    X2, f2, _, _ = read_matrix_csv(args.data2)
    _check_columns(X1, "--data1", directions[0].size, "--eigs1")
    _check_columns(X2, "--data2", directions[0].size, "--eigs2")
    f1 = _require_outputs(f1, args.data1)
    f2 = _require_outputs(f2, args.data2)
    out = _out_dir(args)
    _pareto_artifacts(X1, f1, X2, f2, directions, args, out, {})
    print(f"wrote {out / 'pareto.csv'} ({args.gammas} points)")


def _cmd_convergence(args) -> None:
    box = _resolve_box(args.box)
    _check_boot_flags(args, box.dim)
    ev, qmeta = _build_evaluator(args.qoi, box.dim, args, args.box)
    try:
        schedule = [int(v) for v in args.schedule.split(",")]
    except ValueError:
        raise ContractViolation(
            f"--schedule must be a comma list of integers, got {args.schedule!r}"
        ) from None
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ContractViolation(f"--schedule must be strictly ascending, got {args.schedule!r}")
    _check_rows(schedule[0], box.dim)  # so every size is positive and every cell fits
    child = derive_seed(args.seed, "convergence")
    rows = []
    for i, n in enumerate(schedule):
        X = sampling.sample(box, n, derive_seed(child, f"cell{i}:sample")).matrix
        values, _ = qoi.evaluate_batch(ev, X)
        summary = asub.bootstrap(X, values, args.nboot, derive_seed(child, f"cell{i}:boot"),
                                 n=args.dim)
        rows.append((n, *summary.error_row(args.dim)))
    out = _out_dir(args)
    write_table(out / "convergence.csv", "n,error_mean,error_min,error_max",
                rows, _meta(args, child_seed=child, **qmeta))
    print(f"wrote {out / 'convergence.csv'} ({len(rows)} cells)")


def _cmd_validate(args) -> None:
    pair = _surface_pair_from(args)
    report = validate_airfoil(pair, args.grid, sharp_trailing_edge=args.sharp_te)
    payload = report.to_dict()
    payload["parameterization"] = args.parameterization
    payload["meta"] = _meta(args, params=args.params or "baseline-center")
    print(json.dumps(payload, sort_keys=True, indent=2))
    if args.out:
        _write_json(_out_dir(args) / "validity.json", payload)


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
    _write_json(out / f"{prefix}model.json", {
        "m": X.shape[1],
        "n_samples": X.shape[0],
        "constant": model.constant,
        "linear": model.linear.tolist(),
        "hessian": model.hessian.tolist(),
        "residual_rms": model.residual_rms,
        "meta": meta,
    })
    return model


def _eigs_stage(model: QuadraticModel, args, out: Path, prefix: str,
                meta: dict) -> dict:
    """Eigenpairs with n from --dim, which callers check first, or the log gap."""
    m = model.dim
    eig = asub.eigendecompose(asub.gradient_outer_matrix(model))
    payload = {
        "eigenvalues": eig.values.tolist(),
        "eigenvectors": [eig.vectors[:, j].tolist() for j in range(m)],
        "n": asub.choose_dimension(eig.values) if args.dim is None else args.dim,
        "seed": args.seed,
        "meta": meta,
    }
    _write_json(out / f"{prefix}eigs.json", payload)
    return payload


def _bootstrap_stage(X, f, n, args, out: Path, prefix: str, label: str,
                     meta: dict):
    child = derive_seed(args.seed, label)
    summary = asub.bootstrap(X, f, args.nboot, child, n=n)
    meta = {**meta, "child_seed": child, "n_active": summary.n,
            "n_skipped": summary.n_skipped}
    write_table(out / f"{prefix}bootstrap_eigenvalues.csv",
                "index,point,min,mean,max",
                zip(range(1, summary.eigenvalues.size + 1), summary.eigenvalues,
                    summary.eigenvalues_min, summary.eigenvalues_mean,
                    summary.eigenvalues_max), meta)
    write_table(out / f"{prefix}bootstrap_dimensions.csv",
                "dim,error_mean,error_min,error_max",
                zip(summary.dimensions.tolist(), summary.error_mean,
                    summary.error_min, summary.error_max), meta)
    return summary


def _shadow_stage(X, f, eigs: dict, n: int, out: Path, prefix: str,
                  meta: dict) -> None:
    vectors = np.array(eigs["eigenvectors"], dtype=float)
    shadow = analysis.shadow_project(X, f, vectors[:n].T)
    meta = {**meta, "n_active": n}
    analysis.write_shadow_csv(shadow, out / f"{prefix}shadow.csv", meta=meta)
    analysis.emit_shadow_gnuplot(f"{prefix}shadow.csv",
                                 out / f"{prefix}shadow.gp", n,
                                 skip_lines=len(meta) + 1)


def _single_chain(X, f, labels, args, out: Path, prefix: str,
                  boot_label: str, qmeta: dict, evals_meta=None) -> dict:
    """evals -> model -> eigs -> bootstrap -> shadow for one output."""
    meta = _meta(args, **qmeta)
    write_matrix_csv(out / f"{prefix}evals.csv", X, f=f, labels=labels,
                     meta={**meta, **(evals_meta or {})})
    model = _fit_stage(X, f, out, prefix, meta)
    eigs = _eigs_stage(model, args, out, prefix, meta)
    _bootstrap_stage(X, f, eigs["n"], args, out, prefix, boot_label, meta)
    _shadow_stage(X, f, eigs, min(eigs["n"], 2), out, prefix, meta)
    return eigs


def _cmd_run_all(args) -> None:
    if args.qoi.startswith("dataset:"):
        if args.box:
            raise ContractViolation("--box does not apply to --qoi dataset:PATH, "
                                    "whose rows are the designs; drop --box")
        path = args.qoi.split(":", 1)[1]
        X, f, labels, _ = read_matrix_csv(path)
        f = _require_outputs(f, path)
        _check_run_sizes(args, *X.shape)
        out = _out_dir(args)
        _single_chain(X, f, labels, args, out, "", "bootstrap",
                      {"qoi": args.qoi})
        print(f"pipeline artifacts in {out} (dataset, {f.size} rows)")
        return

    if not args.box:
        raise ContractViolation("run-all needs --box unless --qoi is dataset:PATH")
    box = _resolve_box(args.box)
    _check_run_sizes(args, args.n, box.dim)
    if args.qoi == "panel":
        parameterization = _parameterization_for(args.box)
        ev = qoi.PanelSurrogate(parameterization, "both")
    else:
        ev, qmeta = _build_evaluator(args.qoi, box.dim, args, args.box)
    out = _out_dir(args)
    child = derive_seed(args.seed, "sample")
    X, values, n_failed = _evaluate_kept(ev, sampling.sample(box, args.n, child).matrix, args)

    if args.qoi != "panel":
        _single_chain(X, values, box.labels, args, out, "", "bootstrap", qmeta,
                      {"n_failed": n_failed})
        print(f"pipeline artifacts in {out} ({values.size} rows)")
        return

    eigs = []
    for column, objective in enumerate(("lift", "drag")):
        qmeta = {"qoi": f"panel:{objective}",
                 "parameterization": parameterization}
        eigs.append(_single_chain(X, values[:, column], box.labels, args, out,
                                  f"{objective}_", f"bootstrap:{objective}",
                                  qmeta, {"n_failed": n_failed}))
    _pareto_artifacts(X, values[:, 0], X, values[:, 1], _plane_directions(*eigs),
                      args, out, {"qoi": "panel", "parameterization": parameterization})
    print(f"pipeline artifacts in {out} (panel two-objective)")


if __name__ == "__main__":
    sys.exit(main())

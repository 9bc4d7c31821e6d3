import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import activefoil
from activefoil import activesubspace, cli, parsec
from activefoil.activesubspace import (
    eigendecompose,
    quadratic_features,
    subspace_distance,
)
from activefoil.errors import EvaluationError
from activefoil.qoi import QoiEvaluator, seeded_quadratic
from activefoil.sampling import ParameterBox, derive_seed, read_matrix_csv, write_matrix_csv


def run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "activefoil", *argv],
        capture_output=True,
        text=True,
    )


def tree_digest(root):
    chunks = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        chunks.append(path.name.encode() + b"\0" + path.read_bytes())
    return hashlib.sha256(b"\0".join(chunks)).hexdigest()


def test_version_and_help():
    out = run("--version")
    assert out.returncode == 0
    assert out.stdout.startswith("activefoil ")
    assert run("sample", "--help").returncode == 0


def test_usage_error_is_json_exit_2():
    out = run("sample", "--n", "5")  # --box missing
    assert out.returncode == 2
    payload = json.loads(out.stderr)
    assert payload["error"] == "UsageError"
    assert set(payload) == {"error", "hint", "message"}


def test_runtime_error_is_json_exit_1(tmp_path):
    out = run("fit", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path))
    assert out.returncode == 1
    payload = json.loads(out.stderr)
    assert payload["error"] == "FileNotFoundError"
    assert payload["message"]


def test_bad_input_files_fail_with_dataset_errors(tmp_path, capsys):
    # a NaN output and a model file without its linear term each stop the
    # command before it writes anything
    evals = tmp_path / "evals.csv"
    write_matrix_csv(evals, [[0.1, 0.2], [0.3, 0.4]], f=[1.0, float("nan")],
                     labels=["x1", "x2"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"hessian": [[1.0]], "constant": 0.0}))
    for argv, needle in ((["fit", "--data", str(evals)], "line 3"),
                         (["eigs", "--model", str(model)], "'linear'")):
        out = tmp_path / argv[0]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--out", str(out)])
        assert exit_info.value.code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "DatasetError" and needle in payload["message"]
        assert not out.exists() or not any(out.iterdir())


def test_sample_is_reproducible(tmp_path):
    out_dir = tmp_path / "s"
    args = ("sample", "--box", "cst-table3", "--n", "40", "--seed", "7",
            "--out", str(out_dir))
    assert run(*args).returncode == 0
    first = (out_dir / "samples.csv").read_bytes()
    assert run(*args).returncode == 0
    assert (out_dir / "samples.csv").read_bytes() == first

    matrix, f, labels, meta = read_matrix_csv(out_dir / "samples.csv")
    assert matrix.shape == (40, 10) and f is None
    assert labels == [f"x{i}" for i in range(1, 11)]
    assert meta["coords"] == "normalized"
    assert meta["box"] == "cst-table3"
    assert meta["scheme"] == "pcg64-rowwise-v1"
    assert int(meta["child_seed"]) == derive_seed(7, "sample")
    assert np.all(np.abs(matrix) <= 1.0)
    assert b"\r" not in first


def test_physical_samples_are_refused_by_evaluate(tmp_path):
    out_dir = tmp_path / "p"
    run("sample", "--box", "cst-table3", "--n", "5", "--physical",
        "--out", str(out_dir))
    _, _, _, meta = read_matrix_csv(out_dir / "samples.csv")
    assert meta["coords"] == "physical"
    out = run("evaluate", "--samples", str(out_dir / "samples.csv"),
              "--qoi", "quadratic", "--out", str(out_dir))
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"] == "ContractViolation"


def test_chain_recovers_seeded_quadratic(tmp_path, capsys):
    d = tmp_path
    seed = "7"
    assert run("sample", "--box", "unit:6", "--n", "400", "--seed", seed,
               "--out", str(d)).returncode == 0
    assert run("evaluate", "--samples", str(d / "samples.csv"),
               "--qoi", "quadratic", "--seed", seed,
               "--out", str(d)).returncode == 0
    assert run("fit", "--data", str(d / "evals.csv"), "--seed", seed,
               "--out", str(d)).returncode == 0
    assert run("eigs", "--model", str(d / "model.json"), "--seed", seed,
               "--out", str(d)).returncode == 0

    model = json.loads((d / "model.json").read_text())
    assert model["m"] == 6 and model["n_samples"] == 400
    assert model["residual_rms"] < 1e-10

    payload = json.loads((d / "eigs.json").read_text())
    truth = seeded_quadratic(6, derive_seed(7, "qoi:quadratic"))
    # the exact C of the uniform cube, HH/3 + vv'
    expected = eigendecompose(
        truth.hessian @ truth.hessian / 3.0 + np.outer(truth.linear, truth.linear)
    )
    np.testing.assert_allclose(payload["eigenvalues"], expected.values, rtol=1e-8)
    lead = np.array(payload["eigenvectors"][0])
    assert subspace_distance(lead, expected.vectors[:, 0]) < 1e-8
    assert set(payload) == {"eigenvalues", "eigenvectors", "n", "seed", "meta"}
    assert 1 <= payload["n"] < 6

    # bootstrap artifacts: one row per eigenvalue, one per dimension
    assert run("bootstrap", "--data", str(d / "evals.csv"), "--nboot", "20",
               "--seed", seed, "--out", str(d)).returncode == 0
    eig_lines = [
        line for line in (d / "bootstrap_eigenvalues.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert eig_lines[0] == "index,point,min,mean,max"
    assert len(eig_lines) == 1 + 6
    dim_lines = [
        line for line in (d / "bootstrap_dimensions.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert dim_lines[0] == "dim,error_mean,error_min,error_max"
    assert len(dim_lines) == 1 + 5

    # shadow artifacts follow the chosen dimension, capped at 2
    assert run("shadow", "--data", str(d / "evals.csv"),
               "--eigs", str(d / "eigs.json"), "--seed", seed,
               "--out", str(d)).returncode == 0
    coords, fcol, labels, meta = read_matrix_csv(d / "shadow.csv")
    n_active = min(payload["n"], 2)
    assert labels == [f"y{i}" for i in range(1, n_active + 1)]
    assert coords.shape == (400, n_active)
    gp = (d / "shadow.gp").read_text()
    assert f"skip {len(meta) + 1}" in gp

    # an eigs.json written when it still had a "convention" key loads as before
    legacy = dict(payload, convention="identity")
    (d / "legacy_eigs.json").write_text(json.dumps(legacy))
    assert run("shadow", "--data", str(d / "evals.csv"),
               "--eigs", str(d / "legacy_eigs.json"), "--seed", seed,
               "--out", str(d / "legacy")).returncode == 0
    assert _data_lines(d / "legacy" / "shadow.csv") == _data_lines(d / "shadow.csv")

    # out-of-range dimensions, bootstrap, Pareto and sample sizes, malformed
    # boxes, and panel QoIs outside their built-in box are refused before
    # any artifact is written
    box = parsec.baseline_box()
    upper = box.upper.copy()
    upper[10] += 0.5  # a custom box the panel decoder would silently ignore
    ParameterBox(box.lower, upper, box.labels).save(d / "wide.json")
    evals_X, evals_f, _, _ = read_matrix_csv(d / "evals.csv")
    write_matrix_csv(d / "few.csv", evals_X[:20], f=evals_f[:20])  # m=6 needs 28 rows
    bad = d / "bad"
    for argv in (("run-all", "--box", "unit:4", "--qoi", "quadratic",
                  "--n", "60", "--dim", "7"),
                 ("run-all", "--box", "unit:4", "--qoi", "quadratic",
                  "--n", "60", "--nboot", "0"),
                 ("run-all", "--box", "unit:4", "--qoi", "quadratic",
                  "--n", "60", "--nboot", "-5"),
                 ("run-all", "--box", "unit:4", "--qoi", "quadratic",
                  "--n", "10"),
                 ("run-all", "--box", "unit:x", "--qoi", "quadratic",
                  "--n", "60"),
                 ("run-all", "--qoi", f"dataset:{d / 'few.csv'}"),
                 ("run-all", "--qoi", f"dataset:{d / 'evals.csv'}", "--dim", "6"),
                 ("run-all", "--box", str(d / "wide.json"), "--qoi", "panel",
                  "--n", "200"),
                 ("evaluate", "--samples", str(d / "samples.csv"),
                  "--qoi", "panel:lift"),
                 ("run-all", "--box", "cst-table3", "--qoi", "panel",
                  "--n", "200", "--gammas", "1"),
                 ("run-all", "--box", "cst-table3", "--qoi", "panel",
                  "--n", "200", "--degree", "-1"),
                 ("run-all", "--box", "cst-table3", "--qoi", "panel",
                  "--n", "200", "--grid-n", "1"),
                 *(("pareto", "--data1", str(d / "evals.csv"), "--eigs1", str(d / "eigs.json"),
                    "--data2", str(d / "evals.csv"), "--eigs2", str(d / "eigs.json"),
                    flag, value)
                   for flag, value in (("--gammas", "1"), ("--degree", "-1"),
                                       ("--grid-n", "1"))),
                 ("shadow", "--data", str(d / "evals.csv"),
                  "--eigs", str(d / "eigs.json"), "--dim", "3"),
                 ("shadow", "--data", str(d / "evals.csv"),
                  "--eigs", str(d / "eigs.json"), "--dim", "0"),
                 ("shadow", "--data", str(d / "evals.csv"),
                  "--eigs", str(d / "eigs.json"), "--dim", "-2"),
                 ("eigs", "--model", str(d / "model.json"), "--dim", "6")):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--out", str(bad)])
        assert exit_info.value.code == 1, argv
        assert json.loads(capsys.readouterr().err)["error"] == "ContractViolation"
        assert not bad.exists(), argv


@pytest.mark.parametrize("argv, flags, error", [
    (("eigs", "--data", "{data}", "--dim", "0"), ("--dim",), "ContractViolation"),
    (("bootstrap", "--data", "{data}", "--dim", "5"), ("--dim",), "ContractViolation"),
    (("bootstrap", "--data", "{data}", "--nboot", "0"), ("--nboot",), "ContractViolation"),
    (("convergence", "--box", "unit:3", "--qoi", "quadratic", "--dim", "3"), ("--dim",),
     "ContractViolation"),
    (("convergence", "--box", "unit:3", "--qoi", "quadratic", "--nboot", "0"), ("--nboot",),
     "ContractViolation"),
    (("run-all", "--qoi", "dataset:{missing}", "--box", "cst-table3"), ("--box", "--qoi"),
     "ContractViolation"),
    (("shadow", "--data", "{data}", "--eigs", "{eigs}", "--dim", "3"), ("--dim",),
     "ContractViolation"),
    (("pareto", "--data1", "{data}", "--eigs1", "{eigs}", "--data2", "{data}",
      "--eigs2", "{eigs}"), (), "ContractViolation"),
    (("eigs", "--data", "{one}"), ("2 parameters", "has 1"), "ContractViolation"),
    (("eigs", "--model", "{one_model}"), ("2 parameters", "has 1"), "ContractViolation"),
    (("bootstrap", "--data", "{one}"), ("2 parameters", "has 1"), "ContractViolation"),
    (("convergence", "--box", "unit:1", "--qoi", "quadratic"), ("2 parameters", "has 1"),
     "ContractViolation"),
    (("run-all", "--box", "unit:1", "--qoi", "ridge", "--n", "20", "--nboot", "2"),
     ("2 parameters", "has 1"), "ContractViolation"),
    (("run-all", "--qoi", "dataset:{one}"), ("2 parameters", "has 1"), "ContractViolation"),
    (("pareto", "--data1", "{data}", "--eigs1", "{eigs}", "--data2", "{data}",
      "--eigs2", "{eigs4}"), ("--eigs1", "--eigs2"), "ContractViolation"),
    (("pareto", "--data1", "{wide}", "--eigs1", "{eigs}", "--data2", "{data}",
      "--eigs2", "{eigs_e2}"), ("--data1", "--eigs1"), "ContractViolation"),
    (("pareto", "--data1", "{data}", "--eigs1", "{eigs}", "--data2", "{wide}",
      "--eigs2", "{eigs_e2}"), ("--data2", "--eigs2"), "ContractViolation"),
    (("shadow", "--data", "{wide}", "--eigs", "{eigs}"), ("--data", "--eigs"),
     "ContractViolation"),
    # an evaluator that cannot be built is refused before sampling
    (("run-all", "--box", "unit:3", "--qoi", "ridge", "--direction", "1,2"), ("--direction",),
     "ContractViolation"),
    (("run-all", "--box", "unit:3", "--qoi", "bogus"), ("bogus",), "ContractViolation"),
    (("run-all", "--box", "unit:3", "--qoi", "ridge:cubic"), ("profile",), "ContractViolation"),
    (("run-all", "--box", "unit:3", "--qoi", "ridge", "--noise-std", "-1"), ("noise_std",),
     "ContractViolation"),
    (("run-all", "--box", "unit:3", "--qoi", "panel:lift"), ("built-in box",),
     "ContractViolation"),
    (("fit", "--data", "{nof}"), ("no f column",), "DatasetError"),
    (("fit", "--data", "{few}"), ("at least 10", "got 8"), "ContractViolation"),
    (("bootstrap", "--data", "{nof}"), ("no f column",), "DatasetError"),
    (("bootstrap", "--data", "{few}"), ("at least 10", "got 8"), "ContractViolation"),
    (("shadow", "--data", "{nof}", "--eigs", "{eigs}"), ("no f column",), "DatasetError"),
    (("convergence", "--box", "unit:3", "--qoi", "dataset:{data}"),
     ("--qoi", "run-all --qoi dataset:PATH"), "ContractViolation"),
    (("evaluate", "--samples", "{data}", "--qoi", "dataset:{data}"),
     ("run-all --qoi dataset:PATH",), "ContractViolation"),
    (("convergence", "--box", "unit:3", "--qoi", "quadratic", "--schedule", "200,100"),
     ("--schedule", "ascending"), "ContractViolation"),
    (("convergence", "--box", "unit:3", "--qoi", "quadratic", "--schedule", "0,100"),
     ("at least 10", "got 0"), "ContractViolation"),
    (("convergence", "--box", "unit:4", "--qoi", "quadratic", "--schedule", "10,100"),
     ("at least 15", "got 10"), "ContractViolation"),
], ids=["eigs-dim", "bootstrap-dim", "bootstrap-nboot", "convergence-dim",
        "convergence-nboot", "dataset-box", "shadow-dim", "pareto-collinear",
        "eigs-data-one-parameter", "eigs-model-one-parameter",
        "bootstrap-one-parameter", "convergence-one-parameter",
        "run-all-box-one-parameter", "run-all-dataset-one-parameter",
        "pareto-eigs-lengths", "pareto-data1-columns", "pareto-data2-columns",
        "shadow-data-columns", "run-all-ridge-direction", "run-all-unknown-qoi",
        "run-all-ridge-profile", "run-all-noise-std", "run-all-panel-unit-box",
        "fit-no-f", "fit-few-rows", "bootstrap-no-f", "bootstrap-few-rows", "shadow-no-f",
        "convergence-dataset", "evaluate-dataset", "convergence-descending",
        "convergence-zero-size", "convergence-first-size-below-fit"])
def test_bad_flags_are_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, flags,
                                                 error):
    """Refused before sampling, fitting, reading a dataset or creating --out."""
    X = np.random.default_rng(2).uniform(-1.0, 1.0, (40, 4))
    write_matrix_csv(tmp_path / "data.csv", X[:, :3], f=X[:, 0])
    write_matrix_csv(tmp_path / "wide.csv", X, f=X[:, 0])
    write_matrix_csv(tmp_path / "one.csv", X[:, :1], f=X[:, 0])
    write_matrix_csv(tmp_path / "nof.csv", X[:, :3])
    write_matrix_csv(tmp_path / "few.csv", X[:8, :3], f=X[:8, 0])  # m = 3 needs 10 rows
    (tmp_path / "one_model.json").write_text(json.dumps(
        {"hessian": [[1.0]], "linear": [0.5], "constant": 0.0}))
    # eigs.json as both Pareto objectives has collinear leading directions;
    # eigs_e2.json leads with e2, and eigs4.json has four components
    for name, vectors in (("eigs", np.eye(3)), ("eigs_e2", np.eye(3)[[1, 0, 2]]),
                          ("eigs4", np.eye(4))):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"eigenvalues": list(range(len(vectors), 0, -1)),
             "eigenvectors": vectors.tolist(), "n": 1}))

    def reached(*args, **kwargs):
        raise AssertionError("the command did work before checking its flags")

    for name in ("fit_quadratic", "bootstrap"):
        monkeypatch.setattr(activesubspace, name, reached)
    monkeypatch.setattr(cli.sampling, "sample", reached)
    paths = {name: tmp_path / f"{name}.csv"
             for name in ("data", "wide", "one", "nof", "few", "missing")}
    paths.update({name: tmp_path / f"{name}.json"
                  for name in ("eigs", "eigs_e2", "eigs4", "one_model")})
    argv = [a.format(**paths) for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == error
    assert all(flag in payload["message"] for flag in flags), payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schedule", ["100,x", "100,,200", ""])
def test_bad_schedule_is_a_contract_violation(tmp_path, capsys, schedule):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["convergence", "--box", "unit:4", "--qoi", "quadratic",
                  "--schedule", schedule, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ContractViolation"
    assert "--schedule" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_option_inventory():
    """Every option of every subcommand: a new knob shows up as an edit here."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    inventory = {name: tuple(sorted(a.dest for a in cmd._actions if a.dest != "help"))
                 for name, cmd in sub.choices.items()}
    assert inventory == {
        "sample": ("box", "n", "out", "physical", "seed"),
        "shapes": ("grid", "name", "out", "parameterization", "params", "seed", "sharp_te"),
        "evaluate": ("direction", "noise_seed", "noise_std", "out", "qoi", "samples", "seed",
                     "skip_infeasible"),
        "fit": ("data", "out", "seed"),
        "eigs": ("data", "dim", "model", "out", "seed"),
        "bootstrap": ("data", "dim", "nboot", "out", "seed"),
        "shadow": ("data", "dim", "eigs", "out", "seed"),
        "pareto": ("data1", "data2", "degree", "eigs1", "eigs2", "gammas", "grid_n", "out",
                   "seed"),
        "convergence": ("box", "dim", "direction", "nboot", "noise_seed", "noise_std",
                        "out", "qoi", "schedule", "seed"),
        "validate": ("grid", "out", "parameterization", "params", "seed", "sharp_te"),
        "run-all": ("box", "degree", "dim", "direction", "gammas", "grid_n", "n",
                    "nboot", "noise_seed", "noise_std", "out", "qoi", "seed",
                    "skip_infeasible"),
    }


def _data_lines(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def _without_meta(path):
    payload = json.loads(path.read_text())
    del payload["meta"]
    return payload


def test_fit_accepts_one_parameter(tmp_path):
    # only the eigen stages need two parameters; a 1-D quadratic still fits
    x = np.linspace(-1.0, 1.0, 9)[:, np.newaxis]
    write_matrix_csv(tmp_path / "one.csv", x, f=1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 0] ** 2)
    assert cli.main(["fit", "--data", str(tmp_path / "one.csv"),
                     "--out", str(tmp_path / "out")]) == 0
    model = json.loads((tmp_path / "out" / "model.json").read_text())
    np.testing.assert_allclose(model["hessian"], [[6.0]], rtol=1e-12)


def test_run_all_is_the_single_step_chain(tmp_path):
    """run-all composes the same stages as sample -> ... -> shadow."""
    common = ("--seed", "5")
    whole, steps = tmp_path / "whole", tmp_path / "steps"
    assert cli.main(["run-all", "--box", "unit:4", "--qoi", "quadratic",
                     "--n", "150", "--nboot", "12", *common,
                     "--out", str(whole)]) == 0
    for argv in (
        ("sample", "--box", "unit:4", "--n", "150"),
        ("evaluate", "--samples", str(steps / "samples.csv"), "--qoi", "quadratic"),
        ("fit", "--data", str(steps / "evals.csv")),
        ("eigs", "--model", str(steps / "model.json")),
        ("bootstrap", "--data", str(steps / "evals.csv"), "--nboot", "12"),
        ("shadow", "--data", str(steps / "evals.csv"),
         "--eigs", str(steps / "eigs.json")),
    ):
        assert cli.main([*argv, *common, "--out", str(steps)]) == 0
    for name in ("evals.csv", "bootstrap_eigenvalues.csv",
                 "bootstrap_dimensions.csv", "shadow.csv"):
        assert _data_lines(whole / name) == _data_lines(steps / name), name
    for name in ("model.json", "eigs.json"):
        assert _without_meta(whole / name) == _without_meta(steps / name), name
    assert "# n_failed=0" in (whole / "evals.csv").read_text().splitlines()


def test_eigen_stage_and_bootstrap_build_the_same_c(tmp_path):
    """The bootstrap's point column is the eigen stage's spectrum, float for float."""
    assert cli.main(["run-all", "--box", "unit:5", "--qoi", "quadratic", "--n", "120",
                     "--nboot", "4", "--seed", "3", "--out", str(tmp_path)]) == 0
    eigenvalues = json.loads((tmp_path / "eigs.json").read_text())["eigenvalues"]
    rows = _data_lines(tmp_path / "bootstrap_eigenvalues.csv")[1:]
    assert [float(row.split(",")[1]) for row in rows] == eigenvalues


def test_nboot_does_not_shift_the_sampling_stream(tmp_path):
    outs = [tmp_path / f"nboot{k}" for k in ("3", "9")]
    for k, out in zip(("3", "9"), outs):
        assert cli.main(["run-all", "--box", "unit:4", "--qoi", "quadratic",
                         "--n", "60", "--seed", "11", "--nboot", k,
                         "--out", str(out)]) == 0
    for name in ("evals.csv", "shadow.csv"):
        assert _data_lines(outs[0] / name) == _data_lines(outs[1] / name), name
    for name in ("model.json", "eigs.json"):
        assert _without_meta(outs[0] / name) == _without_meta(outs[1] / name), name


def test_evaluate_requires_known_qoi(tmp_path):
    run("sample", "--box", "unit:3", "--n", "12", "--out", str(tmp_path))
    out = run("evaluate", "--samples", str(tmp_path / "samples.csv"),
              "--qoi", "magic", "--out", str(tmp_path))
    assert out.returncode == 1
    payload = json.loads(out.stderr)
    assert payload["error"] == "ContractViolation"
    assert "magic" in payload["message"]


def test_ridge_direction_flag(tmp_path):
    d = tmp_path
    run("sample", "--box", "unit:3", "--n", "60", "--out", str(d))
    assert run("evaluate", "--samples", str(d / "samples.csv"),
               "--qoi", "ridge:linear", "--direction", "1,0,0",
               "--out", str(d)).returncode == 0
    X, f, _, meta = read_matrix_csv(d / "evals.csv")
    np.testing.assert_allclose(f, X[:, 0], atol=1e-15)
    assert meta["qoi"] == "ridge:linear"

    out = run("evaluate", "--samples", str(d / "samples.csv"),
              "--qoi", "ridge", "--direction", "1,2", "--out", str(d))
    assert out.returncode == 1
    assert "3 parameters" in json.loads(out.stderr)["message"]

    out = run("evaluate", "--samples", str(d / "samples.csv"),
              "--qoi", "ridge", "--direction", "1,x,2", "--out", str(d))
    assert out.returncode == 1
    payload = json.loads(out.stderr)
    assert payload["error"] == "ContractViolation"
    assert "--direction" in payload["message"]


def test_validate_baseline_is_feasible(tmp_path):
    out = run("validate", "--parameterization", "parsec",
              "--out", str(tmp_path))
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["feasible"] is True
    assert payload["parameterization"] == "parsec"
    assert payload["meta"]["params"] == "baseline-center"
    on_disk = json.loads((tmp_path / "validity.json").read_text())
    assert on_disk == payload


def test_shapes_artifacts(tmp_path):
    out = run("shapes", "--parameterization", "cst", "--grid", "101",
              "--name", "probe", "--out", str(tmp_path))
    assert out.returncode == 0
    loop = (tmp_path / "loop.dat").read_text().splitlines()
    assert loop[0] == "probe"
    assert len(loop) == 1 + 2 * 101 - 1
    report = json.loads((tmp_path / "shape_report.json").read_text())
    assert report["feasible"] is True and report["grid_size"] == 101
    upper = (tmp_path / "upper.csv").read_text().splitlines()
    assert upper[0].startswith("#")
    assert len([line for line in upper if not line.startswith("#")]) == 101


def test_convergence_csv(tmp_path):
    out = run("convergence", "--box", "unit:3", "--qoi", "ridge:linear",
              "--schedule", "30,60", "--nboot", "8", "--seed", "3",
              "--out", str(tmp_path))
    assert out.returncode == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "n,error_mean,error_min,error_max"
    assert [int(row.split(",")[0]) for row in body[1:]] == [30, 60]
    meta = dict(
        line[2:].split("=", 1) for line in lines if line.startswith("# ")
    )
    assert meta["qoi"] == "ridge:linear"
    assert int(meta["child_seed"]) == derive_seed(3, "convergence")


def test_convergence_fits_a_noiseless_quadratic_ridge_exactly(tmp_path):
    cli.main(["convergence", "--box", "unit:3", "--qoi", "ridge:quadratic",
              "--direction", "1,2,-1", "--schedule", "30,60", "--nboot", "10",
              "--seed", "21", "--out", str(tmp_path)])
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    cells = [[float(v) for v in line.split(",")] for line in lines
             if not line.startswith(("#", "n,"))]
    assert [n for n, *_ in cells] == [30, 60]
    for _, error_mean, error_min, error_max in cells:
        assert 0.0 <= error_min <= error_mean <= error_max
        assert error_max < 1e-6  # noiseless quadratic ridge is fit exactly


def test_convergence_raises_the_first_evaluator_failure_with_its_index(tmp_path,
                                                                       monkeypatch):
    class Flaky(QoiEvaluator):
        dim = 3

        def evaluate_many(self, X):
            values = X[:, 0].copy()
            values[2] = np.nan
            return values, {2: RuntimeError("boom")}

    monkeypatch.setattr(cli, "_build_evaluator", lambda *args: (Flaky(), {}))
    args = cli.build_parser().parse_args(
        ["convergence", "--box", "unit:3", "--qoi", "quadratic", "--schedule", "30",
         "--nboot", "5", "--seed", "2", "--out", str(tmp_path / "out")])
    with pytest.raises(EvaluationError) as info:
        cli._cmd_convergence(args)
    assert info.value.index == 2


@pytest.mark.slow
def test_run_all_panel_pipeline_and_rerun_bytes(tmp_path):
    d = tmp_path / "run"
    args = ("run-all", "--box", "parsec-table2", "--qoi", "panel",
            "--n", "200", "--nboot", "12", "--gammas", "11",
            "--grid-n", "11", "--seed", "5", "--skip-infeasible",
            "--out", str(d))
    first = run(*args)
    assert first.returncode == 0, first.stderr

    expected = set()
    for prefix in ("lift_", "drag_"):
        expected |= {
            f"{prefix}evals.csv", f"{prefix}model.json", f"{prefix}eigs.json",
            f"{prefix}bootstrap_eigenvalues.csv",
            f"{prefix}bootstrap_dimensions.csv",
            f"{prefix}shadow.csv", f"{prefix}shadow.gp",
        }
    expected |= {"pareto.csv", "pareto_grid.dat", "pareto.gp"}
    assert {p.name for p in d.iterdir()} == expected

    pareto = (d / "pareto.csv").read_text().splitlines()
    header = [line for line in pareto if not line.startswith("#")][0]
    assert header == "gamma,y1,y2,feasible,drag_pred,lift_pred"

    digest = tree_digest(d)
    second = run(*args)
    assert second.returncode == 0
    assert tree_digest(d) == digest  # byte-identical rerun

    eigs = json.loads((d / "lift_eigs.json").read_text())
    vectors = np.array(eigs["eigenvectors"], dtype=float)
    # rows of the payload are eigenvectors: orthonormal set
    np.testing.assert_allclose(vectors @ vectors.T, np.eye(11), atol=1e-8)


def test_run_all_factors_each_sample_matrix_once(tmp_path, monkeypatch):
    """One QR per sample matrix, shared by both panel chains, and no lstsq on it."""
    qr_inputs, lstsq_inputs = [], []
    qr, lstsq = np.linalg.qr, np.linalg.lstsq

    def counting_qr(a, *args, **kwargs):
        qr_inputs.append(np.asarray(a).tobytes())
        return qr(a, *args, **kwargs)

    def counting_lstsq(a, *args, **kwargs):
        lstsq_inputs.append(np.asarray(a).tobytes())
        return lstsq(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    activesubspace._factored.cache_clear()
    X = np.random.default_rng(4).uniform(-1.0, 1.0, (300, 3))
    write_matrix_csv(tmp_path / "data.csv", X, f=X[:, 0] + 0.5 * X[:, 1] ** 2)
    for name, flags in (
        ("panel", ("--box", "cst-table3", "--qoi", "panel", "--n", "200",
                   "--skip-infeasible", "--gammas", "11", "--grid-n", "11")),
        ("dataset", ("--qoi", f"dataset:{tmp_path / 'data.csv'}")),
    ):
        qr_inputs.clear()
        lstsq_inputs.clear()
        out = tmp_path / name
        assert cli.main(["run-all", *flags, "--nboot", "4", "--seed", "7",
                         "--out", str(out)]) == 0
        evals = out / ("lift_evals.csv" if name == "panel" else "evals.csv")
        design = quadratic_features(read_matrix_csv(evals)[0]).tobytes()
        assert qr_inputs == [design], name
        assert design not in lstsq_inputs, name


def test_run_all_dataset_mode(tmp_path):
    d = tmp_path / "ds"
    src = tmp_path / "previous"
    run("sample", "--box", "unit:3", "--n", "80", "--seed", "2", "--out", str(src))
    run("evaluate", "--samples", str(src / "samples.csv"), "--qoi", "quadratic",
        "--seed", "2", "--out", str(src))
    out = run("run-all", "--qoi", f"dataset:{src / 'evals.csv'}",
              "--nboot", "10", "--seed", "2", "--out", str(d))
    assert out.returncode == 0, out.stderr
    assert {p.name for p in d.iterdir()} == {
        "evals.csv", "model.json", "eigs.json", "bootstrap_eigenvalues.csv",
        "bootstrap_dimensions.csv", "shadow.csv", "shadow.gp",
    }

    missing_box = run("run-all", "--qoi", "quadratic", "--out", str(d))
    assert missing_box.returncode == 1
    assert json.loads(missing_box.stderr)["error"] == "ContractViolation"


def test_run_all_never_imports_scipy(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, (200, 3))
    data = tmp_path / "data.csv"
    write_matrix_csv(data, X, f=seeded_quadratic(3, 3)(X))
    # numpy.ma and numpy.polynomial are not needed either; np.unique and
    # np.setdiff1d import numpy.ma, and numpy.polynomial loads 8 submodules
    script = (
        "import sys\n"
        "from activefoil import cli\n"
        "cli.main(sys.argv[1:])\n"
        "leaked = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] == 'scipy'\n"
        "                or m.split('.')[:2] in (['numpy', 'ma'], ['numpy', 'polynomial']))\n"
        "sys.exit(f'modules imported: {leaked[:5]}' if leaked else 0)\n"
    )
    for name, flags in (
        ("box", ("--box", "unit:4", "--qoi", "quadratic", "--n", "60")),
        ("dataset", ("--qoi", f"dataset:{data}")),
        ("panel", ("--box", "cst-table3", "--qoi", "panel", "--n", "200",
                   "--skip-infeasible", "--gammas", "5", "--grid-n", "5")),
    ):
        out = subprocess.run(
            [sys.executable, "-c", script, "run-all", *flags, "--nboot", "5",
             "--seed", "4", "--out", str(tmp_path / name)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _thread_env(**values):
    """This environment without the BLAS thread variables, plus ``values``.

    Importing activefoil here has already set the variables in this process,
    so a child would inherit them.  The package's own parent directory goes
    on PYTHONPATH, so a child started in another directory still finds it.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    src = str(Path(activefoil.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, **values}


def test_import_defaults_blas_threads_to_one_and_keeps_a_set_value():
    script = ("import activefoil, os\n"
              f"print(*(os.environ.get(k) for k in {BLAS_THREAD_VARIABLES!r}))\n")
    for values, expected in (({}, "1 1 1"),
                             ({"OPENBLAS_NUM_THREADS": "2"}, "2 1 1")):
        out = subprocess.run([sys.executable, "-c", script], env=_thread_env(**values),
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == expected.split()


def test_run_all_artifacts_do_not_depend_on_blas_threads(tmp_path):
    artifacts = {}
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        out = subprocess.run(
            [sys.executable, "-m", "activefoil", "run-all", "--box", "parsec-table2",
             "--qoi", "panel", "--n", "200", "--nboot", "8", "--skip-infeasible",
             "--out", "out"],
            cwd=cwd, env=_thread_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        artifacts[threads] = {p.name: p.read_bytes() for p in (cwd / "out").iterdir()}
    assert "pareto_grid.dat" in artifacts["1"]
    assert artifacts["1"].keys() == artifacts["2"].keys()
    differ = [name for name in artifacts["1"] if artifacts["1"][name] != artifacts["2"][name]]
    assert differ == []

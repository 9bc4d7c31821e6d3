"""The reference runs and the SHA-256 digests of every file they write.

Each run is one ``activefoil`` command, run as a subprocess from its own
directory with ``--out out``, so the resolved configuration, whose hash
every artifact records, is the same wherever the runs are made.  The
run-all runs use the benchmark's flags (``perfbench/run.py``) at its two
seeds; the ridge dataset comes from ``perfbench/run.py::write_ridge_dataset``.
The two convergence runs pin ``convergence.csv`` for a panel QoI and for a
noisy ridge.

The digests depend on the floating-point library, so
``tests/reference_digests.json`` records the numpy version, the BLAS
vendor and the machine next to them.  After an intended change of the
outputs, rewrite the file with

    PYTHONPATH=src python tests/reference_runs.py

and list the files whose digest moved in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"
SEEDS = (7, 1702)
RIDGE_DATA = "ridge.csv"


def _panel(box, seed):
    return ("run-all", "--box", box, "--qoi", "panel", "--n", "1000", "--nboot", "100",
            "--skip-infeasible", "--seed", str(seed), "--out", "out")


RUNS = {
    **{f"parsec-panel-{s}": _panel("parsec-table2", s) for s in SEEDS},
    **{f"cst-panel-{s}": _panel("cst-table3", s) for s in SEEDS},
    **{f"ridge-dataset-{s}": ("run-all", "--nboot", "1000", "--seed", str(s),
                              "--qoi", f"dataset:{RIDGE_DATA}", "--out", "out")
       for s in SEEDS},
    **{f"shapes-{p}": ("shapes", "--parameterization", p, "--out", "out")
       for p in ("parsec", "cst")},
    **{f"validate-{p}": ("validate", "--parameterization", p, "--sharp-te", "--out", "out")
       for p in ("parsec", "cst")},
    "convergence-parsec-drag": ("convergence", "--box", "parsec-table2", "--qoi", "panel:drag",
                                "--schedule", "200,400,800", "--nboot", "20", "--seed", "7",
                                "--out", "out"),
    "convergence-ridge": ("convergence", "--box", "unit:5", "--qoi", "ridge:linear",
                          "--direction", "1,2,0,0,-0.5", "--noise-std", "0.1",
                          "--noise-seed", "11", "--schedule", "100,200,400", "--nboot", "50",
                          "--seed", "101", "--out", "out"),
}


def _write_ridge_dataset(path: Path, seed: int) -> None:
    module = sys.modules.get("perfbench_run")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      ROOT / "perfbench" / "run.py")
        module = sys.modules["perfbench_run"] = importlib.util.module_from_spec(spec)
        sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports gate and tracer
        try:
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(str(ROOT / "perfbench"))
    module.write_ridge_dataset(path, 1000, seed)


def run_references(workdir: Path, src: Path = ROOT / "src") -> dict:
    """Make every run of ``RUNS`` under ``workdir``; returns name -> output directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    outputs = {}
    for name, argv in RUNS.items():
        cwd = Path(workdir) / name
        cwd.mkdir(parents=True)
        if name.startswith("ridge-dataset-"):
            _write_ridge_dataset(cwd / RIDGE_DATA, int(name.rsplit("-", 1)[1]))
        proc = subprocess.run([sys.executable, "-m", "activefoil", *argv], cwd=cwd, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        outputs[name] = cwd / "out"
    return outputs


def digests(outputs: dict) -> dict:
    """'<run>/<file>' -> SHA-256 of every file the runs wrote."""
    return {f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for name, out in sorted(outputs.items())
            for path in sorted(out.iterdir())}


def fingerprint() -> dict:
    """The numpy version, BLAS vendor and machine that the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "machine": platform.machine()}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        payload = {"fingerprint": fingerprint(),
                   "digests": digests(run_references(Path(work)))}
    DIGESTS.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {DIGESTS} ({len(payload['digests'])} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

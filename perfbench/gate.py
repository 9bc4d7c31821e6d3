"""Correctness gate for one ``activefoil run-all`` output directory.

The gate reads the artifacts with its own small parsers, so it does not
depend on the reader it is checking.  It never loosens: a run that breaks any
rule below is a failed operation of the benchmark.

* every expected artifact exists and is not empty;
* each ``*eigs.json`` has m non-increasing eigenvalues and an n in [1, m-1];
* each bootstrap table has one row per index with min <= mean <= max;
* each ``*evals.csv`` has finite rows, and both panel chains keep the same rows;
* ``pareto.csv`` has one row per segment point;
* on a dataset with a known direction w, n == 1 and 1 - |w1.w| < 1e-6.

Whether the runs of one set agree byte for byte is checked by the caller from
the digests returned here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

CHAIN_ARTIFACTS = (
    "evals.csv",
    "model.json",
    "eigs.json",
    "bootstrap_eigenvalues.csv",
    "bootstrap_dimensions.csv",
    "shadow.csv",
    "shadow.gp",
)
PARETO_ARTIFACTS = ("pareto.csv", "pareto_grid.dat", "pareto.gp")
ALIGNMENT_LIMIT = 1e-6


@dataclass
class Outcome:
    """What one run produced: digests, derived facts and broken rules."""

    digests: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def read_table(path: Path):
    """('# key=value' metadata, header fields, rows of floats) of a CSV artifact."""
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


def expected_artifacts(chains, pareto: bool):
    names = [prefix + name for prefix in chains for name in CHAIN_ARTIFACTS]
    return names + list(PARETO_ARTIFACTS if pareto else ())


def _check_eigs(path: Path, problems) -> dict:
    payload = json.loads(path.read_text())
    values = payload["eigenvalues"]
    m, n = len(values), payload["n"]
    if any(a < b for a, b in zip(values, values[1:])):
        problems.append(f"{path.name}: eigenvalues increase somewhere")
    if not 1 <= n < m:
        problems.append(f"{path.name}: n={n} outside [1, {m - 1}]")
    if len(payload["eigenvectors"]) != m:
        problems.append(f"{path.name}: {len(payload['eigenvectors'])} eigenvectors for m={m}")
    return payload


def _check_spread(path: Path, low: int, mean: int, high: int, rows_expected: int,
                  problems) -> dict:
    meta, _, rows = read_table(path)
    if len(rows) != rows_expected:
        problems.append(f"{path.name}: {len(rows)} rows, expected {rows_expected}")
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            problems.append(f"{path.name}: non-finite value in row {row[0]:g}")
        elif not row[low] <= row[mean] <= row[high]:
            problems.append(f"{path.name}: min <= mean <= max fails in row {row[0]:g}")
    return meta


def check_outputs(out: Path, chains, pareto: bool, gammas: int | None = None,
                  direction=None) -> Outcome:
    """Check one run's output directory; ``direction`` is the known ridge w."""
    result = Outcome()
    try:
        _check(out, chains, pareto, gammas, direction, result)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        result.problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return result


def _check(out, chains, pareto, gammas, direction, result: Outcome) -> None:
    problems = result.problems
    for name in expected_artifacts(chains, pareto):
        path = out / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"missing or empty artifact {name}")
    if problems:
        return
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        result.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    kept, skipped = [], 0
    for prefix in chains:
        eigs = _check_eigs(out / f"{prefix}eigs.json", problems)
        m = len(eigs["eigenvalues"])
        meta = _check_spread(out / f"{prefix}bootstrap_eigenvalues.csv", 2, 3, 4, m,
                             problems)
        skipped += int(meta["n_skipped"])
        _check_spread(out / f"{prefix}bootstrap_dimensions.csv", 2, 1, 3, m - 1,
                      problems)
        _, header, rows = read_table(out / f"{prefix}evals.csv")
        if header[-1] != "f" or len(header) != m + 1:
            problems.append(f"{prefix}evals.csv: header {header} is not x1..x{m},f")
        if not all(math.isfinite(v) for row in rows for v in row):
            problems.append(f"{prefix}evals.csv: non-finite value")
        kept.append([row[:-1] for row in rows])
        result.facts[f"{prefix}n"] = eigs["n"]
        if direction is not None:
            lead = eigs["eigenvectors"][0]
            misalignment = 1.0 - abs(sum(a * b for a, b in zip(lead, direction)))
            result.facts["misalignment"] = misalignment
            if eigs["n"] != 1:
                problems.append(f"{prefix}eigs.json: n={eigs['n']} on a ridge, expected 1")
            if not misalignment < ALIGNMENT_LIMIT:
                problems.append(f"{prefix}eigs.json: 1-|w1.w| = {misalignment:.3e} "
                                f"is not below {ALIGNMENT_LIMIT:g}")
    if any(rows != kept[0] for rows in kept[1:]):
        problems.append("the chains kept different designs")
    result.facts["rows_kept"] = len(kept[0])
    result.facts["boot_skipped"] = skipped

    if pareto:
        _, _, rows = read_table(out / "pareto.csv")
        if gammas is not None and len(rows) != gammas:
            problems.append(f"pareto.csv: {len(rows)} rows, expected {gammas}")
        result.facts["pareto_rows"] = len(rows)
        result.facts["pareto_infeasible"] = sum(1 for row in rows if row[3] == 0.0)

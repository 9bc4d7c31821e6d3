"""Parameter boxes, normalization, and deterministic sampling.

Physical parameters live in axis-aligned boxes; all estimation happens
in normalized coordinates on [-1, 1]^m.  Sampling is reproducible and
order-independent: row ``i`` of a sample draws from its own stream
``PCG64(SeedSequence(seed, spawn_key=(i,)))`` (scheme tag
``pcg64-rowwise-v1``), so generating rows in any order or in parallel
yields identical matrices.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    DatasetError,
    DegenerateIntervalError,
    OutOfBoxError,
)

RNG_SCHEME = "pcg64-rowwise-v1"
# Slack applied to box membership tests, relative to interval width.
_EDGE_SLACK = 1e-12


def _freeze(obj, **fields) -> None:
    """Set fields of a frozen dataclass instance; array values become read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class ParameterBox:
    """Axis-aligned box with one label per coordinate."""

    lower: np.ndarray
    upper: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        up = np.array(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != up.shape or lo.size == 0:
            raise ContractViolation("lower and upper must be equal-length 1-D vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
            raise ContractViolation("box bounds must be finite")
        if not np.all(lo < up):
            i = int(np.argmin(up - lo))
            raise ContractViolation(
                f"box interval {i + 1} is empty or degenerate: [{lo[i]}, {up[i]}]"
            )
        labels = self.labels
        if labels is None:
            labels = tuple(f"x{i}" for i in range(1, lo.size + 1))
        labels = tuple(str(s) for s in labels)
        if len(labels) != lo.size:
            raise ContractViolation("one label per coordinate required")
        _freeze(self, lower=lo, upper=up, labels=labels)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def save(self, path):
        payload = {
            "labels": list(self.labels),
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
        }
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ParameterBox":
        with open(path) as fh:
            payload = json.load(fh)
        try:
            return cls(
                lower=np.asarray(payload["lower"], dtype=float),
                upper=np.asarray(payload["upper"], dtype=float),
                labels=tuple(payload["labels"]),
            )
        except KeyError as exc:
            raise DatasetError(f"box file {path} missing key {exc}") from exc


def make_box(center, fraction: float = 0.2, labels=None) -> ParameterBox:
    """Multiplicative box: each interval is centre_i * (1 -/+ fraction), sorted.

    Sorting canonicalizes negative centres (their raw bounds come out
    reversed).  A zero centre collapses its interval and is rejected.
    """
    c = np.asarray(center, dtype=float)
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ContractViolation("center must be a finite 1-D vector")
    if not 0.0 < fraction < 1.0:
        raise ContractViolation("fraction must lie in (0, 1)")
    if np.any(c == 0.0):
        i = int(np.argmin(np.abs(c)))
        raise DegenerateIntervalError(
            f"center coordinate {i + 1} is zero; its interval would be degenerate"
        )
    raw_lo = c * (1.0 - fraction)
    raw_up = c * (1.0 + fraction)
    return ParameterBox(
        lower=np.minimum(raw_lo, raw_up),
        upper=np.maximum(raw_lo, raw_up),
        labels=labels,
    )


def unit_box(dim: int) -> ParameterBox:
    """The normalized box [-1, 1]^dim itself."""
    if dim < 1:
        raise ContractViolation("dim must be positive")
    return ParameterBox(lower=-np.ones(dim), upper=np.ones(dim))


def _check_dim(x, box: ParameterBox) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1:] != (box.dim,):
        raise ContractViolation(
            f"last axis must have length {box.dim}, got shape {arr.shape}"
        )
    return arr


def normalize(x, box: ParameterBox) -> np.ndarray:
    """Affine map of physical coordinates onto [-1, 1]^m; errors outside the box."""
    arr = _check_dim(x, box)
    slack = _EDGE_SLACK * box.width
    low = arr < box.lower - slack
    high = arr > box.upper + slack
    if np.any(low) or np.any(high):
        j = int(np.argmax(np.any(low | high, axis=tuple(range(arr.ndim - 1)))))
        raise OutOfBoxError(
            f"coordinate {box.labels[j]} outside [{box.lower[j]}, {box.upper[j]}]",
            coordinate=box.labels[j],
        )
    return (2.0 * arr - (box.lower + box.upper)) / box.width


def denormalize(u, box: ParameterBox) -> np.ndarray:
    """Inverse of :func:`normalize`; total affine map, no range check."""
    arr = _check_dim(u, box)
    return box.center + 0.5 * arr * box.width


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Normalized sample matrix with the seed and box that produced it."""

    matrix: np.ndarray
    seed: int
    box: ParameterBox

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self.box.dim:
            raise ContractViolation("matrix must be N x dim(box)")
        _freeze(self, matrix=mat, seed=int(self.seed))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def physical(self) -> np.ndarray:
        return denormalize(self.matrix, self.box)


def sample(box: ParameterBox, n: int, seed: int) -> SampleSet:
    """n uniform draws on [-1, 1]^m with per-row substreams (order-independent)."""
    if n < 1:
        raise ContractViolation("sample count must be positive")
    rows = np.empty((n, box.dim))
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))
        rows[i] = rng.uniform(-1.0, 1.0, box.dim)
    return SampleSet(matrix=rows, seed=seed, box=box)


def derive_seed(root: int, label: str) -> int:
    """Deterministic 63-bit child seed from a root seed and a text label."""
    digest = hashlib.sha256(f"{int(root)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def write_table(path, header: str, rows, meta=None):
    """Sorted ``# key=value`` lines, the header, then comma-separated rows.

    Numbers are written with 17 significant digits (so floats read back
    bit for bit) and LF endings.  An empty row writes an empty line, the
    block break of a gnuplot grid.
    """
    with open(path, "w", newline="\n") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_matrix_csv(path, matrix, f=None, labels=None, meta=None):
    """``x1,...,xm[,f]`` table in the :func:`write_table` format."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    m = mat.shape[1]
    if labels is None:
        labels = [f"x{i}" for i in range(1, m + 1)]
    if len(labels) != m:
        raise ContractViolation("one label per column required")
    header = list(labels)
    if f is not None:
        f = np.asarray(f, dtype=float)
        if f.shape != (mat.shape[0],):
            raise ContractViolation("f must have one value per row")
        header.append("f")
        mat = np.column_stack([mat, f])
    write_table(path, ",".join(header), mat, meta)


def read_matrix_csv(path):
    """Strict reader for the :func:`write_table` format.

    Returns (matrix, f_or_None, labels, meta).  Any malformed row raises
    :class:`DatasetError` carrying the 1-based line number.
    """
    meta = {}
    labels = None
    rows = []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if labels is None:
                labels = [s.strip() for s in line.split(",")]
                if any(not s for s in labels):
                    raise DatasetError(f"line {lineno}: empty column name", line=lineno)
                continue
            parts = line.split(",")
            if len(parts) != len(labels):
                raise DatasetError(
                    f"line {lineno}: expected {len(labels)} fields, got {len(parts)}",
                    line=lineno,
                )
            try:
                rows.append([float(s) for s in parts])
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: {exc}", line=lineno) from exc
    if labels is None:
        raise DatasetError("file has no header line")
    if not rows:
        raise DatasetError("file has no data rows")
    data = np.asarray(rows, dtype=float)
    if labels[-1] == "f":
        return data[:, :-1], data[:, -1], labels[:-1], meta
    return data, None, labels, meta

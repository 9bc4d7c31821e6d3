"""Parameter boxes, normalization, and deterministic sampling.

Physical parameters live in axis-aligned boxes; all estimation happens
in normalized coordinates on [-1, 1]^m.  Sampling is reproducible and
order-independent: row ``i`` of a sample draws from its own stream
``PCG64(SeedSequence(seed, spawn_key=(i,)))`` (scheme tag
``pcg64-rowwise-v1``), so generating rows in any order or in parallel
yields identical matrices.  :func:`substream` builds that stream, and
bootstrap replicate ``k`` resamples from stream ``k`` of its own seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DatasetError, DegenerateIntervalError

RNG_SCHEME = "pcg64-rowwise-v1"
# write_table formats at most this many rows with one % operation; 1,024 rows
# of a 12-column table held about 1 MB more peak memory for no measurable speed.
_CHUNK_ROWS = 256


def _is_number(value) -> bool:
    """A float, or an int within float range; a boolean is not a number."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# The kinds of value read_json_object checks, named as its messages name them;
# a matrix is a non-empty list of equal-length lists.
_JSON_KINDS = {
    "a number": _is_number,
    "an integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
    "a list of numbers": _is_numbers,
    "a matrix of numbers": lambda v: (
        isinstance(v, list) and all(map(_is_numbers, v)) and len({len(r) for r in v}) == 1),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
}


def read_json_object(text: str, kinds: dict, noun: str, fail, optional=()) -> dict:
    """The JSON object in ``text`` whose value under each key of ``kinds`` is of that kind.

    ``kinds`` maps each key to a kind of ``_JSON_KINDS``; booleans and
    integers beyond float range are not numbers.  Keys in ``optional`` may
    be absent.  Text that is not JSON, is not an object, misses a key or
    holds a value of another kind raises ``fail(message)``; a missing key
    gives "missing {noun} keys: [...]", which lists every key for a value
    that is not an object.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise fail(f"{noun} file is not JSON: {exc}") from None
    present = payload if isinstance(payload, dict) else {}
    missing = [key for key in kinds if key not in present and key not in optional]
    if missing:
        raise fail(f"missing {noun} keys: {missing}")
    for key, kind in kinds.items():
        if key in present and not _JSON_KINDS[kind](present[key]):
            raise fail(f"{noun} key {key!r} must be {kind}")
    return payload


def read_json_file(path, kinds: dict, noun: str, build=None):
    """:func:`read_json_object` of the file ``path``, failing with a DatasetError that names it.

    ``build``, when given, makes the returned value from the object; a
    ContractViolation it raises, such as mismatched shapes, is that
    file's DatasetError too.
    """
    def fail(message):
        return DatasetError(f"{path}: {message}")

    with open(path) as fh:
        payload = read_json_object(fh.read(), kinds, noun, fail)
    if build is None:
        return payload
    try:
        return build(payload)
    except ContractViolation as exc:
        raise fail(str(exc)) from None


def write_json(path, payload: dict) -> None:
    """``payload`` as JSON with sorted keys, two-space indents and a final LF."""
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
        for label in labels:
            if (not label or label != label.strip() or label.startswith("#") or label == "f"
                    or any(c in label for c in ",\r\n")):
                raise ContractViolation(
                    f"label {label!r} cannot head a CSV column: it is empty, 'f', starts "
                    "with '#', has surrounding whitespace or holds a comma or line break")
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
        write_json(path, {
            "labels": list(self.labels),
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
        })

    @classmethod
    def load(cls, path) -> "ParameterBox":
        return read_json_file(path, {"lower": "a list of numbers", "upper": "a list of numbers",
                                     "labels": "a list of strings"}, "box",
                              lambda box: cls(box["lower"], box["upper"], box["labels"]))


def make_box(center, fraction: float = 0.2) -> ParameterBox:
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
    return ParameterBox(lower=np.minimum(raw_lo, raw_up), upper=np.maximum(raw_lo, raw_up))


def unit_box(dim: int) -> ParameterBox:
    """The normalized box [-1, 1]^dim itself."""
    if dim < 1:
        raise ContractViolation("dim must be positive")
    return ParameterBox(lower=-np.ones(dim), upper=np.ones(dim))


def denormalize(u, box: ParameterBox) -> np.ndarray:
    """Affine map of normalized coordinates on [-1, 1]^m onto the box; no range check."""
    arr = np.asarray(u, dtype=float)
    if arr.shape[-1:] != (box.dim,):
        raise ContractViolation(f"last axis must have length {box.dim}, got shape {arr.shape}")
    return box.center + 0.5 * arr * box.width


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Normalized sample matrix with the box that it was drawn in."""

    matrix: np.ndarray
    box: ParameterBox

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self.box.dim:
            raise ContractViolation("matrix must be N x dim(box)")
        _freeze(self, matrix=mat)

    def physical(self) -> np.ndarray:
        return denormalize(self.matrix, self.box)


def sample(box: ParameterBox, n: int, seed: int) -> SampleSet:
    """n uniform draws on [-1, 1]^m with per-row substreams (order-independent)."""
    if n < 1:
        raise ContractViolation("sample count must be positive")
    rows = np.empty((n, box.dim))
    for i in range(n):
        rows[i] = substream(seed, i).uniform(-1.0, 1.0, box.dim)
    return SampleSet(matrix=rows, box=box)


def substream(seed: int, i: int) -> np.random.Generator:
    """Stream i of ``seed``: row i of a sample, or replicate i of a bootstrap."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))))


def derive_seed(root: int, label: str) -> int:
    """Deterministic 63-bit child seed from a root seed and a text label."""
    digest = hashlib.sha256(f"{int(root)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def write_table(path, header: str, table, meta=None):
    """Sorted ``# key=value`` lines, the header, then comma-separated rows.

    ``table`` is a float array: 2-D rows, or 3-D blocks of rows that each
    end with an empty line, the block break of a gnuplot grid.  Numbers
    are written as ``%.17g`` (so floats read back bit for bit; 1.0 is
    ``1`` and NaN is ``nan``) with LF endings, whole blocks of up to
    _CHUNK_ROWS rows at a time through one ``%`` on a repeated template.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim not in (2, 3):
        raise ContractViolation("a table is a 2-D array of rows or a 3-D array of blocks")
    blocks = table if table.ndim == 3 else table[:, np.newaxis]  # a row is a block here
    template = (",".join(["%.17g"] * table.shape[-1]) + "\n") * blocks.shape[1]
    template += "\n" if table.ndim == 3 else ""
    step = max(1, _CHUNK_ROWS // max(1, blocks.shape[1]))
    with open(path, "w", newline="\n") as fh:
        for key in sorted(meta or {}):
            fh.write(f"# {key}={meta[key]}\n")
        fh.write(header + "\n")
        for start in range(0, len(blocks), step):
            chunk = blocks[start:start + step]
            fh.write(template * len(chunk) % tuple(chunk.ravel().tolist()))


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

    Returns (matrix, f_or_None, labels, meta).  A malformed row, or else
    the first field that parses to NaN or +-inf, raises
    :class:`DatasetError` carrying the 1-based line number.
    """
    meta = {}
    labels = None
    rows, linenos = [], []
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
            linenos.append(lineno)
    if labels is None:
        raise DatasetError("file has no header line")
    if not rows:
        raise DatasetError("file has no data rows")
    data = np.asarray(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        (i, j), line = bad[0], linenos[bad[0][0]]
        raise DatasetError(f"line {line}: {labels[j]} is {data[i, j]}, not finite", line=line)
    if labels[-1] == "f":
        return data[:, :-1], data[:, -1], labels[:-1], meta
    return data, None, labels, meta

"""Classification datasets: CSV I/O, deterministic splitting, synthesis.

A :class:`Dataset` is an n-by-p float64 feature matrix plus integer class
labels.  Feature values must be finite and non-negative (they model
percentage concentrations of ingredients in a formulation).  In composition
mode every row is additionally required to sum to 100.

The train/test split is part of the reproducibility contract: it shuffles
row indices with a dedicated PRNG stream instead of delegating to an
external library, so the same (n, fraction, seed) always yields the same
partition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .prng import RngState, SPLIT_STREAM, SYNTH_STREAM, derive_stream, next_u64_block, shuffle

COMPOSITION_SUM = 100.0
COMPOSITION_TOL = 1e-6


@dataclass(eq=False)
class Dataset:
    """Immutable feature matrix with class labels.

    features : (n, p) float64, finite and >= 0
    labels   : (n,) int64, values in [0, c)
    c is always 1 + max(labels).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    composition: bool = False
    n: int = field(init=False)
    p: int = field(init=False)
    c: int = field(init=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.feature_names = tuple(self.feature_names)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        self.n, self.p = self.features.shape
        if self.labels.shape != (self.n,):
            raise ValueError(f"labels must have shape ({self.n},), got {self.labels.shape}")
        if len(self.feature_names) != self.p:
            raise ValueError("feature_names length must match feature count")
        if self.p == 0:
            raise ValueError("dataset has no feature column")
        if self.n == 0:
            raise ValueError("dataset must contain at least one row")
        bad = ~np.isfinite(self.features)
        if bad.any():
            r, col = np.argwhere(bad)[0]
            raise ValueError(f"non-finite feature value at row {r}, column {self.feature_names[col]!r}")
        neg = self.features < 0
        if neg.any():
            r, col = np.argwhere(neg)[0]
            raise ValueError(f"negative feature value at row {r}, column {self.feature_names[col]!r}")
        if self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        self.c = int(self.labels.max()) + 1
        if self.composition:
            sums = self.features.sum(axis=1)
            off = np.abs(sums - COMPOSITION_SUM) > COMPOSITION_TOL
            if off.any():
                r = int(np.argwhere(off)[0][0])
                raise ValueError(f"row {r} sums to {sums[r]!r}, expected {COMPOSITION_SUM}")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/test row indices covering [0, n)."""

    train: tuple[int, ...]
    test: tuple[int, ...]


def load_csv(path: str, label_column: str, composition: bool = False) -> Dataset:
    """Load a dataset from a headered CSV file.

    Feature columns keep file order.  Labels that are all plain non-negative
    integers are used as-is; anything else is mapped to 0, 1, 2, ... by
    first appearance.  Parse failures name the offending row and column
    (row numbers count data rows from 1, excluding the header).

    A feature cell is any string ``float()`` accepts, except NaN.  Plain
    files (see _NOT_PLAIN) are parsed by numpy's C reader; every other file,
    and every file that reader refuses, by the per-cell loop, which accepts
    the same values and alone builds the error messages.
    """
    parsed = _load_plain(path, label_column)
    if parsed is None:
        try:
            parsed = _load_cells(path, label_column)
        except csv.Error as exc:  # such as a cell over csv.field_size_limit()
            raise ValueError(f"cannot parse {path!r} as CSV: {exc}") from None
    features, raw_labels, feature_names = parsed
    return Dataset(features, _map_labels(raw_labels, label_column), feature_names, composition=composition)


def _read_header(reader, path: str, label_column: str) -> tuple[list[str], int]:
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path!r} is empty, expected a header row") from None
    count = header.count(label_column)
    if count != 1:
        where = "not in" if count == 0 else f"appears {count} times in"
        raise ValueError(f"label column {label_column!r} {where} header {header}")
    return header, header.index(label_column)


def _load_cells(path: str, label_column: str) -> tuple[np.ndarray, list[str], list[str]]:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header, label_idx = _read_header(reader, path, label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for r, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise ValueError(f"row {r} has {len(record)} cells, expected {len(header)}")
            vals = []
            for i, cell in enumerate(record):
                if i == label_idx:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(f"non-numeric cell at row {r}, column {header[i]!r}: {cell!r}") from None
                if math.isnan(v):
                    raise ValueError(f"NaN cell at row {r}, column {header[i]!r}")
                vals.append(v)
            rows.append(vals)
            raw_labels.append(record[label_idx])

    if not rows:
        raise ValueError(f"{path!r} contains no data rows")
    return np.array(rows, dtype=np.float64), raw_labels, feature_names


# Plain rows split on each "\n" and "," exactly as csv.reader splits them:
# they hold no quote, no carriage return outside a "\r\n" pair, no blank
# line (csv.reader reads it as a row of no cells, numpy's reader skips it)
# and no NUL (csv.reader refuses it before Python 3.11).  numpy's C reader
# parses them without a Python float per cell, through
# PyOS_string_to_double, the routine float() uses, so the values are the
# same bits.  It refuses the cells only float() accepts (underscores,
# non-ASCII digits), and the caller then falls back.  It strips
# "\x1c"-"\x1f" around a number as whitespace, which float() does only in
# a cell with a non-ASCII character, so those stay out too.  A line longer
# than csv.field_size_limit() stays out as well: csv.reader refuses a cell
# over that limit, and numpy's reader does not.
_NOT_PLAIN = ('"', "\0", "\x1c", "\x1d", "\x1e", "\x1f")
_SCAN_CHARS = 1 << 20


def _load_plain(path: str, label_column: str) -> tuple[np.ndarray, list[str], list[str]] | None:
    """The file parsed by numpy's C reader, or None if it is not plain or holds a bad cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # readline, not iteration, keeps fh.tell() usable after the header.
            header, k = _read_header(csv.reader(iter(fh.readline, "")), path, label_column)
            start = fh.tell()
            if not _rows_are_plain(fh):
                return None
            fh.seek(start)
            p = len(header) - 1
            dtype = np.dtype(
                [("before", np.float64, (k,)), ("label", object), ("after", np.float64, (p - k,))]
            )
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except (OSError, ValueError, csv.Error):
        return None
    features = np.hstack([rows["before"], rows["after"]])
    if np.isnan(features).any():  # the C reader accepts NaN
        return None
    return features, rows["label"].tolist(), header[:k] + header[k + 1 :]


def _rows_are_plain(fh) -> bool:
    """Whether the rest of fh has rows, and no blank line, lone carriage return,
    _NOT_PLAIN character or line longer than csv.field_size_limit()."""
    limit = csv.field_size_limit()
    empty, last, line = True, "\n", 0  # the header ended a line
    while chunk := fh.read(_SCAN_CHARS):
        if chunk[-1] == "\r":
            chunk += fh.read(1)
        text = last + chunk
        # `line` characters of the current line were read before `start`.
        start = 0
        while (end := chunk.find("\n", start, start + limit + 1 - line)) >= 0:
            start, line = end + 1, 0
        line += len(chunk) - start
        if (
            line > limit
            or any(c in chunk for c in _NOT_PLAIN)
            or "\n\n" in text
            or "\n\r\n" in text
            or chunk.count("\r") != chunk.count("\r\n")
        ):
            return False
        empty, last = False, chunk[-1]
    return not empty


def _map_labels(raw: list[str], label_column: str) -> np.ndarray:
    try:
        ints = [int(cell) for cell in raw]
    except ValueError:
        ints = None
    if ints is not None and min(ints) >= 0:
        if max(ints) >= 2**63:
            r = next(r for r, label in enumerate(ints, start=1) if label >= 2**63)
            raise ValueError(f"label {raw[r - 1]!r} at row {r}, column {label_column!r} is above 2**63 - 1")
        return np.array(ints, dtype=np.int64)
    seen: dict[str, int] = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, cell in enumerate(raw):
        if cell not in seen:
            seen[cell] = len(seen)
        out[i] = seen[cell]
    return out


def save_csv(ds: Dataset, path: str, label_column: str = "label") -> None:
    """Write a dataset as CSV; floats use repr so a reload is bit-identical.

    A label column named like a feature raises ValueError before the file
    is opened, since load_csv could not tell them apart.
    """
    if label_column in ds.feature_names:
        raise ValueError(f"label column {label_column!r} is also a feature name")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # Names may need quoting; float reprs and integer labels never do.
        # Rows become Python floats one at a time, which keeps the peak
        # memory at one row's worth of them.
        csv.writer(fh, lineterminator="\n").writerow(list(ds.feature_names) + [label_column])
        for row, label in zip(ds.features, ds.labels.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{label}\n")


def train_test_split(ds: Dataset, train_fraction: float, seed: int) -> SplitIndices:
    """Deterministic shuffle-split on the dedicated SPLIT_STREAM.

    Shuffles [0, n), takes the first floor(train_fraction * n) indices as
    the training set.  Depends only on (ds.n, train_fraction, seed).
    """
    if ds.n < 2:
        raise ValueError("need at least 2 rows to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    k = math.floor(train_fraction * ds.n)
    if k < 1 or k >= ds.n:
        raise ValueError(f"train_fraction {train_fraction} leaves an empty train or test set for n={ds.n}")
    perm, _ = shuffle(derive_stream(seed, SPLIT_STREAM), ds.n)
    return SplitIndices(train=tuple(perm[:k]), test=tuple(perm[k:]))


def _quantile_linear(sorted_values: np.ndarray, q: float) -> float:
    """Empirical quantile with linear interpolation between order statistics.

    Pinned rule: pos = q * (len - 1); interpolate linearly between the
    floor and ceil order statistics.
    """
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return float(sorted_values[lo])
    return float(sorted_values[lo] + frac * (sorted_values[lo + 1] - sorted_values[lo]))


def generate_synthetic_formulas(n: int, p: int, seed: int) -> Dataset:
    """Synthesize composition-style data with a planted 3-class rule.

    Each row draws p uniforms in (0, 1] from the SYNTH_STREAM (row-major
    draw order), maps them to exponentials e = -ln(u), and rescales the row
    to sum to 100.  The class of row x is determined by the score
    s = 2*x[0] + x[1] - x[2]: class 2 above the 85th percentile of s,
    class 1 above the 60th, class 0 otherwise (percentiles computed on the
    generated rows, linear interpolation), giving roughly a 60/25/15 split.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 4:
        raise ValueError(f"p must be >= 4 (planted rule uses 3 features plus filler), got {p}")
    raw, _ = next_u64_block(derive_stream(seed, SYNTH_STREAM), n * p)
    # (v >> 11) spans [0, 2**53); +1 shifts the unit mapping onto (0, 1].
    u = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    e = -np.log(u.reshape(n, p))
    features = e * (COMPOSITION_SUM / e.sum(axis=1, keepdims=True))

    s = 2.0 * features[:, 0] + features[:, 1] - features[:, 2]
    s_sorted = np.sort(s)
    t1 = _quantile_linear(s_sorted, 0.60)
    t2 = _quantile_linear(s_sorted, 0.85)
    labels = np.where(s > t2, 2, np.where(s > t1, 1, 0)).astype(np.int64)

    names = [f"x{i}" for i in range(p)]
    return Dataset(features, labels, names, composition=True)

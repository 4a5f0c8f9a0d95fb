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
# Values per row block in generate_synthetic_formulas.
SYNTH_BLOCK_VALUES = 1 << 16


@dataclass(eq=False)
class Dataset:
    """Immutable feature matrix with class labels.

    features : (n, p) float64, finite and >= 0, given as integers or floats
    labels   : (n,) int64, values in [0, c), given as integers
    c is always 1 + max(labels).
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    composition: bool = False
    n: int = field(init=False)
    p: int = field(init=False)
    c: int = field(init=False)
    # (features, rank_keys(features)): the keys hold only for that array.
    _keys: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.features = numeric_array(self.features, "features").astype(np.float64, copy=False)
        self.labels = np.asarray(self.labels)
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
        if self.n == 0:  # before the labels' dtype: np.asarray(()) is float64
            raise ValueError("dataset must contain at least one row")
        labels = numeric_array(self.labels, "labels", integers=True)
        # min() is NaN, and fails the test, if any value is NaN; the boolean
        # matrices that locate the first bad cell are built only on failure.
        if not (self.features.min() >= 0.0 and self.features.max() < np.inf):
            bad, kind = ~np.isfinite(self.features), "non-finite"
            if not bad.any():
                bad, kind = self.features < 0, "negative"
            r, col = np.argwhere(bad)[0]
            raise ValueError(f"{kind} feature value at row {r}, column {self.feature_names[col]!r}")
        if labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if int(labels.max()) > 2**63 - 1:  # before the cast, which would wrap it negative
            raise ValueError(f"label {labels.max()} is above 2**63 - 1")
        self.labels = labels.astype(np.int64, copy=False)
        self.c = int(self.labels.max()) + 1
        if self.composition:
            sums = self.features.sum(axis=1)
            off = np.abs(sums - COMPOSITION_SUM) > COMPOSITION_TOL
            if off.any():
                r = int(np.argwhere(off)[0][0])
                raise ValueError(f"row {r} sums to {sums[r]!r}, expected {COMPOSITION_SUM}")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    def rank_keys(self) -> np.ndarray:
        """The read-only (p, n) dense ranks of the features, one row per feature.

        keys[j, i] is the number of distinct values of column j below
        features[i, j]: equal values (0.0 and -0.0 among them) share a key,
        and keys rise with the value, so sorting a column's keys sorts its
        values.  The keys are uint16 while every key fits and uint32
        otherwise.  They are built on first use, one column at a time, and
        kept with the feature array they were built from: a Dataset given
        another array builds new keys.  Memory is the keys plus one column's
        temporaries, and, at a switch to uint32, the uint16 keys so far.
        """
        if self._keys is None or self._keys[0] is not self.features:
            self._keys = (self.features, _rank_keys(self.features))
        return self._keys[1]


def numeric_array(values, what: str, integers: bool = False) -> np.ndarray:
    """values as an array of integers, or of integers or floats, else ValueError.

    numpy would otherwise drop an imaginary part, parse strings, read bools
    as 0 and 1 and, for integers, truncate floats.
    """
    x = np.asarray(values)
    kinds, name = ("iu", "integers") if integers else ("iuf", "integers or floats")
    if x.dtype.kind not in kinds:
        raise ValueError(f"{what} must be {name}, got dtype {x.dtype}")
    return x


def _rank_keys(features: np.ndarray) -> np.ndarray:
    """Dataset.rank_keys of a feature matrix, built one column at a time."""
    n, p = features.shape
    keys = np.empty((p, n), dtype=np.uint16)
    for j in range(p):
        ranks = np.unique(features[:, j], return_inverse=True)[1]
        if ranks.max() > np.iinfo(keys.dtype).max:
            keys = keys.astype(np.uint32)
        keys[j] = ranks
    keys.setflags(write=False)
    return keys


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/test row indices covering [0, n)."""

    train: tuple[int, ...]
    test: tuple[int, ...]


def load_csv(path: str, label_column: str, composition: bool = False) -> Dataset:
    """Load a dataset from a headered CSV file.

    Feature columns keep file order.  A label's class id is its rank among
    the distinct labels: by value if int() reads all (each in [-2**63,
    2**63 - 1]), else by the strings' code points.  So ids do not depend on
    row order, and labels 0..k-1 keep their values.  Parse failures name the
    offending row and column (data rows count from 1 after the header).

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
            lines = _plain_lines(fh)
            if lines is None:
                return None
            fh.seek(start)
            p = len(header) - 1
            dtype = np.dtype(
                [("before", np.float64, (k,)), ("label", object), ("after", np.float64, (p - k,))]
            )
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except (OSError, ValueError, csv.Error):
        return None
    # numpy's reader skips blank lines, so a row short means a blank line.
    if rows.size != lines:
        return None
    features = np.hstack([rows["before"], rows["after"]])
    # min() is NaN if any value is NaN, which the C reader accepts.
    if math.isnan(features.min(initial=math.inf)):
        return None
    return features, rows["label"].tolist(), header[:k] + header[k + 1 :]


def _plain_lines(fh) -> int | None:
    """The number of lines in the rest of fh, or None if there is none, or if
    the first is blank, or if any holds a lone carriage return, a _NOT_PLAIN
    character or more than csv.field_size_limit() characters.

    A later blank line is counted, and the caller finds it as a row that
    numpy's reader skipped.  The scan makes no Python call per line: each
    search for a line end takes the last one within the limit.
    """
    limit = csv.field_size_limit()
    lines, line, last = 0, 0, "\n"  # the header ended a line
    while chunk := fh.read(_SCAN_CHARS):
        if chunk[-1] == "\r":
            chunk += fh.read(1)
        # Only the first chunk starts a line with no line read before it.
        # numpy's reader would skip a blank first line, and warn of a file
        # with no data if every line were blank.
        if lines == 0 and last == "\n" and chunk.startswith(("\n", "\r\n")):
            return None
        # `line` characters of the current line were read before `start`.
        start = 0
        while (end := chunk.rfind("\n", start, start + limit + 1 - line)) >= 0:
            start, line = end + 1, 0
        line += len(chunk) - start
        if (
            line > limit
            or any(c in chunk for c in _NOT_PLAIN)
            or ("\r" in chunk and chunk.count("\r") != chunk.count("\r\n"))
        ):
            return None
        lines += chunk.count("\n")
        last = chunk[-1]
    # A last line without a line end counts; nothing read at all is None.
    return lines + (last != "\n") or None


def _map_labels(raw: list[str], label_column: str) -> np.ndarray:
    try:
        keys = [int(cell) for cell in raw]
    except ValueError:
        keys = raw
    else:
        if min(keys) < -(2**63) or max(keys) >= 2**63:
            r = next(r for r, label in enumerate(keys) if not -(2**63) <= label < 2**63)
            side = "above 2**63 - 1" if keys[r] > 0 else "below -2**63"
            raise ValueError(f"label {raw[r]!r} at row {r + 1}, column {label_column!r} is {side}")
    # A dict, not np.unique: numpy's str dtype drops trailing NULs.
    rank = {label: i for i, label in enumerate(sorted(set(keys)))}
    return np.array([rank[label] for label in keys], dtype=np.int64)


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

    The rows are made in blocks of max(1, SYNTH_BLOCK_VALUES // p) rows,
    written in place into the preallocated output.  A block's draws continue
    the stream where the previous block's stopped, so the draw order stays
    row-major; each element goes through the same numpy operations
    (shift, cast, +1, scale, log, negate, one multiply), and each row is
    summed by the same numpy row sum, as when the whole matrix is made at
    once, so the bytes do not depend on the block size.  Memory is the
    output plus one block's temporaries.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 4:
        raise ValueError(f"p must be >= 4 (planted rule uses 3 features plus filler), got {p}")
    features = np.empty((n, p))
    rows = max(1, SYNTH_BLOCK_VALUES // p)
    rng = derive_stream(seed, SYNTH_STREAM)
    for start in range(0, n, rows):
        block = features[start : start + rows]
        raw, rng = next_u64_block(rng, block.size)
        # (v >> 11) spans [0, 2**53); +1 shifts the unit mapping onto (0, 1].
        raw >>= np.uint64(11)
        block[...] = raw.reshape(block.shape)
        block += 1.0
        block *= 2.0**-53
        np.log(block, out=block)
        np.negative(block, out=block)
        block *= COMPOSITION_SUM / block.sum(axis=1, keepdims=True)

    s = 2.0 * features[:, 0] + features[:, 1] - features[:, 2]
    s_sorted = np.sort(s)
    t1 = _quantile_linear(s_sorted, 0.60)
    t2 = _quantile_linear(s_sorted, 0.85)
    labels = np.where(s > t2, 2, np.where(s > t1, 1, 0)).astype(np.int64)

    names = [f"x{i}" for i in range(p)]
    return Dataset(features, labels, names, composition=True)

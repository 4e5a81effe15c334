"""Sweep result tables.

A :class:`SweepResult` is a small column table: one column per sweep
axis plus one per computed metric, all aligned with the spec's
enumeration order.  It supports the three things downstream analysis
actually does with sweep output — filter to a slice, extract crossover
points along an axis, and export (JSON/CSV) — without dragging in a
dataframe dependency.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError

__all__ = ["SweepResult"]


def _as_column(values: Any) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in "fiub":
        return arr
    out = np.empty(len(values), dtype=object)
    out[:] = list(values)
    return out


def _factorize(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Integer codes for one group column (np.unique for sortable
    dtypes, dict fallback for arbitrary objects)."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O":
        try:
            arr = arr.astype("U")
        except (TypeError, ValueError):
            mapping: Dict[Any, int] = {}
            codes = np.empty(len(values), dtype=np.int64)
            for i, v in enumerate(values):
                codes[i] = mapping.setdefault(v, len(mapping))
            return codes, len(mapping)
    uniq, inverse = np.unique(arr, return_inverse=True)
    return inverse.astype(np.int64), len(uniq)


def _run_heads(values: np.ndarray) -> Optional[np.ndarray]:
    """Start index of each run of repeated values in a numeric block
    (the outer axes of a grid repeat in long runs), or ``None`` when
    runs average under two rows and compressing them would not pay."""
    if values.dtype.kind not in "biuf" or len(values) < 2:
        return None
    change = values[1:] != values[:-1]
    if 2 * np.count_nonzero(change) < len(values):
        return np.flatnonzero(np.concatenate(([True], change)))
    return None


def _group_order(
    cols: Sequence[np.ndarray], n: int, x: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """A stable row order that makes each group (equal values across
    ``cols``) one contiguous segment, plus each segment's start.

    Inside a segment rows keep their table order, or are sorted by
    ``x`` when given (ties keep table order, like ``sorted``).  A single
    numeric group column is its own sort key; otherwise the columns are
    factorized and combined into one integer code per row.
    """
    if len(cols) == 1 and cols[0].dtype.kind in "biuf":
        key = cols[0]
    else:
        key = np.zeros(n, dtype=np.int64)
        for col in cols:
            codes, size = _factorize(col)
            key = key * size + codes
    order = np.argsort(key, kind="stable") if x is None else np.lexsort((x, key))
    k = key[order]
    starts = np.flatnonzero(np.concatenate(([n > 0], k[1:] != k[:-1])))
    return order, starts


def _first_crossings(
    xs: np.ndarray,
    ms: np.ndarray,
    starts: np.ndarray,
    threshold: float,
    carry: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per group segment of ``xs``/``ms`` (segments start at ``starts``,
    each ascending in x): does ``ms`` reach ``threshold``, and at which
    linearly interpolated x does it first?

    ``carry`` is ``(has_prev, prev_x, prev_m)`` per segment: the last
    row of the group seen before these rows (a shard boundary), which
    brackets a crossing at the segment's first row.  A group whose very
    first row is already above ``threshold`` reports that row's x.
    Returns ``(found, crossing)``; ``crossing`` is meaningless where
    ``found`` is false.
    """
    n = len(xs)
    hits = np.where(ms >= threshold, np.arange(n), n)
    first = np.minimum.reduceat(hits, starts)
    found = first < np.append(starts[1:], n)
    j = np.minimum(first, n - 1)
    at_start = first == starts
    has_prev, prev_x, prev_m = carry or (np.zeros(len(starts), dtype=bool), 0.0, 0.0)
    x0 = np.where(at_start, prev_x, xs[j - 1])
    m0 = np.where(at_start, prev_m, ms[j - 1])
    x1, m1 = xs[j], ms[j]
    edge = at_start & ~has_prev
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        frac = np.where(m1 == m0, 0.0, (threshold - m0) / (m1 - m0))
        crossing = np.where(edge, x1, x0 + frac * (x1 - x0))
    return found, crossing


class SweepResult:
    """Column table of sweep output.

    Parameters
    ----------
    columns:
        Ordered mapping of column name to a 1-D sequence; all columns
        must share one length.  Axis columns come first by convention.
    axis_names:
        Which columns are sweep axes (the rest are metrics).
    """

    def __init__(
        self, columns: Dict[str, Sequence[Any]], axis_names: Sequence[str] = ()
    ) -> None:
        if not columns:
            raise ValidationError("a SweepResult needs at least one column")
        self.columns: Dict[str, np.ndarray] = {
            name: _as_column(vals) for name, vals in columns.items()
        }
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise ValidationError(
                f"all columns must share one length, got {sorted(lengths)}"
            )
        self.axis_names: Tuple[str, ...] = tuple(axis_names)
        missing = [a for a in self.axis_names if a not in self.columns]
        if missing:
            raise ValidationError(f"axis columns missing from table: {missing}")

    # ------------------------------------------------------------------
    # Shape and access
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of scenario points in the table."""
        return len(next(iter(self.columns.values())))

    def __len__(self) -> int:
        return self.n_rows

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Every non-axis column."""
        return tuple(n for n in self.columns if n not in self.axis_names)

    def column(self, name: str) -> np.ndarray:
        """One column by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise ValidationError(
                f"unknown column {name!r}; have {list(self.columns)}"
            ) from None

    def row(self, i: int) -> Dict[str, Any]:
        """One row as a ``{column: value}`` dict."""
        return {name: col[i] for name, col in self.columns.items()}

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate rows in sweep order."""
        for i in range(self.n_rows):
            yield self.row(i)

    def unique(self, name: str) -> List[Any]:
        """Distinct values of one column, in first-appearance order."""
        seen: Dict[Any, None] = {}
        for v in self.column(name):
            seen.setdefault(v, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    def _masked(self, mask: np.ndarray) -> "SweepResult":
        return SweepResult(
            {name: col[mask] for name, col in self.columns.items()},
            axis_names=self.axis_names,
        )

    def filter(self, **conditions: Any) -> "SweepResult":
        """Rows where every named column equals the given value."""
        mask = np.ones(self.n_rows, dtype=bool)
        for name, value in conditions.items():
            mask &= self.column(name) == value
        return self._masked(mask)

    def where(self, predicate: Callable[[Dict[str, Any]], bool]) -> "SweepResult":
        """Rows where ``predicate(row_dict)`` is true."""
        mask = np.fromiter(
            (bool(predicate(row)) for row in self.rows()),
            dtype=bool,
            count=self.n_rows,
        )
        return self._masked(mask)

    def argmin(self, metric: str) -> Dict[str, Any]:
        """The row minimising ``metric``."""
        return self.row(int(np.argmin(np.asarray(self.column(metric), dtype=float))))

    def argmax(self, metric: str) -> Dict[str, Any]:
        """The row maximising ``metric``."""
        return self.row(int(np.argmax(np.asarray(self.column(metric), dtype=float))))

    # ------------------------------------------------------------------
    # Crossover extraction
    # ------------------------------------------------------------------
    def crossover(
        self,
        x: str,
        metric: str = "speedup",
        threshold: float = 1.0,
        group_by: Sequence[str] = (),
    ) -> List[Dict[str, Any]]:
        """Where does ``metric`` first cross ``threshold`` along ``x``?

        For each distinct combination of the ``group_by`` columns, rows
        are sorted by ``x`` and the first sign change of
        ``metric - threshold`` is located; the returned dicts carry the
        group values plus ``x`` set to the linearly interpolated
        crossing (``None`` when the metric stays below ``threshold``
        over the whole swept range).  When the metric is already above
        ``threshold`` at the smallest ``x``, that smallest ``x`` is
        reported — the true crossing lies at or below the grid edge
        (same convention as the regime-boundary locator in
        :mod:`repro.analysis.regimes`); widen the grid to resolve it.
        This is the grid-based counterpart of the closed-form
        :func:`repro.analysis.crossover.crossover_bandwidth`.
        """
        x_col = np.asarray(self.column(x), dtype=float)
        m_col = np.asarray(self.column(metric), dtype=float)
        cols = [self.column(g) for g in group_by]
        order, starts = _group_order(cols, self.n_rows, x=x_col)
        found, where = _first_crossings(x_col[order], m_col[order], starts, threshold)
        firsts = np.minimum.reduceat(order, starts)  # first row per group
        out: List[Dict[str, Any]] = []
        for seg in np.argsort(firsts).tolist():
            entry = {g: col[firsts[seg]] for g, col in zip(group_by, cols)}
            entry[x] = float(where[seg]) if found[seg] else None
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @staticmethod
    def _jsonable(value: Any) -> Any:
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        if isinstance(value, (np.bool_,)):
            return bool(value)
        if isinstance(value, (int, float, bool, str)) or value is None:
            return value
        return str(value)

    def to_json(self, path: Optional[str] = None) -> str:
        """Serialise the table (column-oriented JSON); optionally write
        it to ``path``."""
        payload = {
            "axis_names": list(self.axis_names),
            "n_rows": self.n_rows,
            "columns": {
                name: [self._jsonable(v) for v in col]
                for name, col in self.columns.items()
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=False)
        if path is not None:
            pathlib.Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Rebuild a table from :meth:`to_json` output."""
        payload = json.loads(text)
        return cls(payload["columns"], axis_names=payload.get("axis_names", ()))

    def to_shards(
        self, directory: str, shard_size: int = 100_000, compress: bool = False
    ) -> "Any":
        """Write the table as a sharded columnar store (``.npz`` shards
        plus a manifest; see :mod:`repro.sweep.shards`) and return the
        lazy :class:`~repro.sweep.shards.ShardedSweepResult` view.

        The in-memory table is split into ``shard_size``-row blocks; the
        columnar layout round-trips exactly through :meth:`from_shards`
        (``compress=True`` writes ``np.savez_compressed`` shards).
        """
        from .shards import ShardedSweepResult, ShardWriter

        if self.n_rows == 0:
            raise ValidationError(
                "cannot shard an empty table (0 rows); shards need at "
                "least one point"
            )
        with ShardWriter(
            directory,
            shard_size=shard_size,
            axis_names=self.axis_names,
            compress=compress,
        ) as writer:
            for lo in range(0, self.n_rows, writer.shard_size):
                writer.append(
                    {
                        name: col[lo : lo + writer.shard_size]
                        for name, col in self.columns.items()
                    }
                )
        return ShardedSweepResult(writer.directory)

    @classmethod
    def from_shards(cls, source: str) -> "SweepResult":
        """Materialise a shard directory (or manifest path) written by
        :meth:`to_shards` / :class:`~repro.sweep.shards.ShardWriter`
        back into one in-memory table."""
        from .shards import ShardedSweepResult

        return ShardedSweepResult(source).to_result()

    def to_csv(self, path: Optional[str] = None) -> str:
        """Serialise the table as CSV (header + one row per point)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = list(self.columns)
        writer.writerow(names)
        for row in self.rows():
            writer.writerow([self._jsonable(row[name]) for name in names])
        text = buf.getvalue()
        if path is not None:
            pathlib.Path(path).write_text(text)
        return text

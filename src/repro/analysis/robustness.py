"""Strategy robustness under link faults.

A faulted Table-2 sweep (``repro sweep --simnet-table2 --outage ...``)
measures every grid cell under one or more link-fault scenarios.  This
module reduces such a table to the question a facility actually asks:
*how much does each strategy degrade when the link browns out?*  Per
group (by default the per-flow congestion-control code — the transport
strategy) and per fault scenario it tallies

- the mean worst-case completion time and its **inflation** over the
  same group's fault-free scenario,
- the **completion rate** relative to the fault-free scenario (clients
  a severe outage prevented from ever finishing),
- the flow **abort rate** among settled flows, plus the raw retry /
  stall totals.

The reduction is a per-block tally merged associatively, in the style
of :func:`repro.analysis.regimes.regime_tally_from_sweep`: it consumes
an in-memory :class:`~repro.sweep.result.SweepResult`, a lazy sharded
store, or a path to a shard directory, loading only the needed columns
one shard at a time, and distributes independent shards across a
process pool with ``workers > 1`` — the answer is identical for any
sharding or worker count.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from ..sweep.result import _factorize

__all__ = ["FAULT_AXES", "strategy_robustness_from_sweep"]

#: The float-coded fault axes a faulted Table-2 sweep carries.
FAULT_AXES: Tuple[str, ...] = ("outage_s", "degrade_frac", "fault_start_s")

#: Accumulator layout per (group, scenario) key — every slot is a plain
#: sum, so merging block tallies is exact for any block boundaries.
_SLOTS = (
    "n_points",
    "t_worst_sum_s",
    "finite_points",
    "completed_clients",
    "finished_flows",
    "aborted",
    "retries",
    "stall_time_s",
)


def _robustness_block_tally(
    block: Dict[str, np.ndarray], group_by: Tuple[str, ...]
) -> Dict[Tuple[Any, ...], np.ndarray]:
    """Per-(group, scenario) sums of one column block (module-level so
    it pickles onto worker processes).  Grouping is factorized per
    column and combined into one integer code per row, so the per-row
    work stays in numpy."""
    key_names = group_by + FAULT_AXES
    key_cols = [np.asarray(block[name]) for name in key_names]
    n = len(key_cols[0])
    combined = np.zeros(n, dtype=np.int64)
    for col in key_cols:
        codes, size = _factorize(col)
        combined = combined * size + codes
    _, first, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    k = int(inverse.max()) + 1 if n else 0

    t_worst = np.asarray(block["t_worst_s"], dtype=float)
    finite = np.isfinite(t_worst)
    completed = np.asarray(block["completed_clients"], dtype=float)
    flows = np.asarray(block["parallel_flows"], dtype=float)

    def tally(weights: np.ndarray) -> np.ndarray:
        return np.bincount(inverse, weights=weights, minlength=k)

    sums = np.stack(
        [
            tally(np.ones(n)),
            tally(np.where(finite, t_worst, 0.0)),
            tally(finite.astype(float)),
            tally(completed),
            # Every flow of a completed client finished; aborted flows
            # are the other settled outcomes.
            tally(completed * flows),
            tally(np.asarray(block["aborted"], dtype=float)),
            tally(np.asarray(block["retries"], dtype=float)),
            tally(np.asarray(block["stall_time_s"], dtype=float)),
        ],
        axis=1,
    )
    keys = [tuple(col[i] for col in key_cols) for i in first]
    return dict(zip(keys, sums))


def strategy_robustness_from_sweep(
    table: Any,
    group_by: Optional[Sequence[str]] = None,
    workers: int = 1,
) -> List[Dict[str, Any]]:
    """Robustness tally of a faulted Table-2 sweep.

    Returns one row (a plain dict) per *(group, fault scenario)*, in
    group order then scenario order, carrying the group and fault-axis
    values plus:

    - ``n_points`` — grid cells aggregated,
    - ``mean_t_worst_s`` — mean worst-case completion time over cells
      that finished at least one client (``nan`` when none did),
    - ``t_inflation`` — that mean over the same group's fault-free
      (``outage_s == 0``) scenario mean (``nan`` without a baseline),
    - ``completion_rate`` — completed clients over the fault-free
      scenario's completed clients (``nan`` without a baseline),
    - ``abort_rate`` — aborted flows over settled flows (aborted +
      flows of completed clients),
    - ``completed_clients`` / ``aborted`` / ``retries`` /
      ``stall_time_s`` — raw sums.

    ``group_by`` defaults to ``("cc",)`` when the table carries a
    ``cc`` column and to no grouping otherwise; pass any column set
    (e.g. a precomputed decision code) to slice robustness by a
    different strategy axis.
    """
    from ._tables import load_sweep_table, map_table_blocks

    table = load_sweep_table(table)
    available = set(
        table.column_names
        if hasattr(table, "column_names")
        else table.columns
    )
    missing = [a for a in FAULT_AXES if a not in available]
    if missing:
        raise ValidationError(
            f"sweep table has no fault axes {missing}; robustness needs a "
            "faulted sweep — run `repro sweep --simnet-table2 --outage ...`"
        )
    if group_by is None:
        group_by = ("cc",) if "cc" in available else ()
    group_by = tuple(group_by)
    unknown = [g for g in group_by if g not in available]
    if unknown:
        raise ValidationError(
            f"unknown group_by columns {unknown}; table has "
            f"{sorted(available)}"
        )
    needed = group_by + FAULT_AXES + (
        "t_worst_s",
        "completed_clients",
        "parallel_flows",
        "aborted",
        "retries",
        "stall_time_s",
    )
    missing_metrics = [m for m in needed if m not in available]
    if missing_metrics:
        raise ValidationError(
            f"sweep table is missing columns {missing_metrics} needed for "
            "the robustness tally; rerun the sweep with this build"
        )
    parts = map_table_blocks(
        table,
        needed,
        partial(_robustness_block_tally, group_by=group_by),
        workers=workers,
    )
    acc: Dict[Tuple[Any, ...], np.ndarray] = {}
    for part in parts:
        for key, vec in part.items():
            prior = acc.get(key)
            acc[key] = vec if prior is None else prior + vec

    n_group = len(group_by)
    # Fault-free baseline per group: the outage_s == 0 scenario.
    baselines: Dict[Tuple[Any, ...], Tuple[float, float]] = {}
    for key, vec in acc.items():
        sums = dict(zip(_SLOTS, vec))
        if float(key[n_group]) == 0.0:
            mean_t = (
                sums["t_worst_sum_s"] / sums["finite_points"]
                if sums["finite_points"]
                else math.nan
            )
            baselines[key[:n_group]] = (mean_t, sums["completed_clients"])

    def sort_value(v: Any) -> Tuple[int, Any]:
        try:
            return (0, float(v))
        except (TypeError, ValueError):
            return (1, str(v))

    rows: List[Dict[str, Any]] = []
    for key in sorted(acc, key=lambda k: tuple(sort_value(v) for v in k)):
        sums = dict(zip(_SLOTS, acc[key]))
        mean_t = (
            sums["t_worst_sum_s"] / sums["finite_points"]
            if sums["finite_points"]
            else math.nan
        )
        base = baselines.get(key[:n_group])
        settled = sums["aborted"] + sums["finished_flows"]
        row: Dict[str, Any] = {
            name: (v.item() if isinstance(v, np.generic) else v)
            for name, v in zip(group_by, key[:n_group])
        }
        row.update(zip(FAULT_AXES, (float(v) for v in key[n_group:])))
        row.update(
            n_points=int(sums["n_points"]),
            mean_t_worst_s=float(mean_t),
            t_inflation=(
                float(mean_t / base[0])
                if base is not None and base[0] and not math.isnan(base[0])
                else math.nan
            ),
            completion_rate=(
                float(sums["completed_clients"] / base[1])
                if base is not None and base[1]
                else math.nan
            ),
            abort_rate=(
                float(sums["aborted"] / settled) if settled else math.nan
            ),
            completed_clients=int(sums["completed_clients"]),
            aborted=int(sums["aborted"]),
            retries=int(sums["retries"]),
            stall_time_s=float(sums["stall_time_s"]),
        )
        rows.append(row)
    return rows

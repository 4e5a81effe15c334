"""Crossover analysis: where does the winning strategy flip?

The model's practical output is a *map* of parameter space showing
where local processing, remote streaming, or remote file-based staging
wins.  This module computes:

- :func:`crossover_bandwidth` — the link speed above which remote
  processing beats local (closed form),
- :func:`crossover_complexity` — the compute intensity above which
  shipping the data pays off,
- :func:`decision_map` — a 2-D grid of winning strategies over any two
  swept parameters (vectorised evaluation, no Python-loop per cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from ..core import kernel
from ..core.decision import STRATEGIES_BY_CODE, Strategy, Tier
from ..core.parameters import ModelParameters
from ..errors import ValidationError
from ..sweep.result import _run_heads
from ..units import BITS_PER_BYTE

__all__ = [
    "crossover_bandwidth",
    "crossover_complexity",
    "crossover_from_sweep",
    "decision_surface_from_sweep",
    "decision_tally_from_sweep",
    "tier_tally_from_sweep",
    "DecisionMap",
    "decision_map",
]


def crossover_bandwidth(params: ModelParameters) -> float:
    """Bandwidth (Gbps) at which remote processing ties local.

    From ``T_pct = T_local``:

    .. math::

        Bw^* = \\frac{\\theta / \\alpha}
                     {\\frac{C}{R_{local}} (1 - 1/r)}

    (independent of :math:`S_{unit}`, which cancels).  Returns ``inf``
    when :math:`r \\le 1` (remote can never win) and ``0`` when the
    workload has no compute (pure data movement never favours remote).
    """
    if params.r <= 1.0:
        return float("inf")
    c_over_rl = params.complexity_flop_per_gb / (params.r_local_tflops * 1e12)
    margin = c_over_rl * (1.0 - 1.0 / params.r)  # s per GB freed by remote
    if margin <= 0:
        return 0.0 if params.complexity_flop_per_gb == 0 else float("inf")
    bw_gbytes = params.theta / (params.alpha * margin)
    return bw_gbytes * BITS_PER_BYTE


def crossover_complexity(params: ModelParameters) -> float:
    """Complexity (FLOP/GB) above which remote processing wins.

    Inverting the same tie condition for :math:`C`:

    .. math::

        C^* = \\frac{\\theta R_{local} \\cdot 8 / (\\alpha Bw)}
                    {1 - 1/r}

    Returns ``inf`` when :math:`r \\le 1`.
    """
    if params.r <= 1.0:
        return float("inf")
    transfer_s_per_gb = params.theta / (
        params.alpha * params.bandwidth_gbps / BITS_PER_BYTE
    )
    return (
        transfer_s_per_gb
        * params.r_local_tflops
        * 1e12
        / (1.0 - 1.0 / params.r)
    )


def crossover_from_sweep(
    table,
    x: str = "bandwidth_gbps",
    metric: str = "speedup",
    threshold: float = 1.0,
    group_by: Tuple[str, ...] = (),
):
    """Grid-based crossover extraction from a sweep table.

    ``table`` is a :class:`repro.sweep.SweepResult`, its JSON export
    (the string produced by ``SweepResult.to_json``), a lazy
    :class:`repro.sweep.ShardedSweepResult`, or a path to a shard
    directory/manifest written by the out-of-core sweep path.  For each
    combination of the ``group_by`` columns the first crossing of
    ``metric`` over ``threshold`` along ``x`` is located by linear
    interpolation — the empirical counterpart of the closed-form
    :func:`crossover_bandwidth`, usable for quantities with no closed
    form (e.g. queued or simulated completion times).  Returns a list
    of dicts carrying the group values plus the interpolated ``x``
    (``None`` where the metric never crosses in the swept range).

    Sharded input is scanned *incrementally*: the crossing bracket
    advances shard-by-shard over just the ``x``/``metric``/``group_by``
    columns, so the full table is never loaded (see
    :meth:`repro.sweep.ShardedSweepResult.crossover`).
    """
    from ._tables import load_sweep_table

    table = load_sweep_table(table)
    return table.crossover(x, metric=metric, threshold=threshold, group_by=group_by)


def _block_codes(
    block: Dict[str, np.ndarray], column: str, n_codes: int, kind: str = ""
) -> np.ndarray:
    """One integer-coded column block, checked to lie in ``[0, n_codes)``."""
    codes = np.asarray(block[column])
    if codes.dtype.kind not in "iu":
        codes = codes.astype(np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= n_codes):
        raise ValidationError(
            f"column {column!r} must hold {kind}codes in [0, {n_codes}), got "
            f"range [{int(codes.min())}, {int(codes.max())}]"
        )
    return codes


def _code_block_tally(
    block: Dict[str, np.ndarray], column: str, n_codes: int
) -> np.ndarray:
    """Per-code counts of one integer-coded column block (module-level
    so it pickles onto worker processes)."""
    return np.bincount(_block_codes(block, column, n_codes), minlength=n_codes)


def _tally_from_sweep(table, column: str, n_codes: int, workers: int) -> np.ndarray:
    """Per-code counts of one integer-coded column over a sweep table."""
    from ._tables import map_table_blocks

    tally = partial(_code_block_tally, column=column, n_codes=n_codes)
    return np.sum(map_table_blocks(table, (column,), tally, workers=workers), axis=0)


def decision_tally_from_sweep(
    table, column: str = "decision", workers: int = 1
) -> Dict[Strategy, int]:
    """Point counts per winning :class:`Strategy` over a sweep table.

    ``table`` accepts the same inputs as :func:`crossover_from_sweep`
    and must carry the kernel's integer-coded ``decision`` column
    (``repro sweep --metrics decision,...``).  Sharded stores are
    scanned block-by-block loading only that column — ``workers > 1``
    distributes independent shards across a process pool and merges the
    (associative) per-block counts, so a million-point decision surface
    reduces to three numbers in O(shard) memory.
    """
    total = _tally_from_sweep(table, column, len(STRATEGIES_BY_CODE), workers)
    return {
        strategy: int(total[code])
        for code, strategy in enumerate(STRATEGIES_BY_CODE)
    }


def tier_tally_from_sweep(
    table, column: str = "tier", workers: int = 1
) -> Dict[Optional[Tier], int]:
    """Point counts per feasible latency :class:`Tier` over a sweep table.

    Consumes the kernel's integer-coded ``tier`` column (the highest
    tier the winning strategy meets); the ``None`` key counts points
    missing even Tier 3.  Scanning behaviour and ``workers`` semantics
    match :func:`decision_tally_from_sweep`.
    """
    total = _tally_from_sweep(table, column, len(Tier) + 1, workers)
    out: Dict[Optional[Tier], int] = {
        tier: int(total[tier.value]) for tier in Tier
    }
    out[None] = int(total[0])
    return out


@dataclass
class DecisionMap:
    """Winning strategy over a 2-D parameter grid."""

    x_name: str
    y_name: str
    x_values: np.ndarray
    y_values: np.ndarray
    #: integer grid, shape (len(y), len(x)): 0 local, 1 streaming, 2 file
    winners: np.ndarray

    STRATEGIES: Tuple[Strategy, ...] = STRATEGIES_BY_CODE

    def winner_at(self, ix: int, iy: int) -> Strategy:
        """Strategy winning at grid cell (ix, iy)."""
        return self.STRATEGIES[int(self.winners[iy, ix])]

    def share(self, strategy: Strategy) -> float:
        """Fraction of the grid won by ``strategy``."""
        idx = self.STRATEGIES.index(strategy)
        return float(np.mean(self.winners == idx))

    def boundary_x(self, iy: int) -> float | None:
        """Along row ``iy``, the first x value where the winner differs
        from the winner at x[0] — a crossover locator for monotone maps.
        ``None`` if the row is uniform."""
        row = self.winners[iy]
        changes = np.nonzero(row != row[0])[0]
        if changes.size == 0:
            return None
        return float(self.x_values[changes[0]])


def _axis_cells(axis: np.ndarray, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of a block of coordinates in ``axis`` (distinct values,
    first-appearance order), found with ``np.searchsorted`` over the
    sorted axis — once per run of a repeated value — plus a mask of the
    coordinates that are exactly on the axis."""
    perm = np.argsort(axis, kind="stable")
    ordered = axis[perm]
    heads = _run_heads(coords)
    keys = coords if heads is None else coords[heads]
    pos = np.minimum(np.searchsorted(ordered, keys), len(ordered) - 1)
    index, exact = perm[pos], ordered[pos] == keys
    if heads is None:
        return index, exact
    lengths = np.diff(heads, append=len(coords))
    return np.repeat(index, lengths), np.repeat(exact, lengths)


def decision_surface_from_sweep(
    table, x: str, y: str, column: str = "decision"
) -> DecisionMap:
    """Reassemble a sweep's integer-coded ``decision`` column into a
    2-D :class:`DecisionMap` over the ``x`` and ``y`` axes.

    ``table`` accepts the same inputs as :func:`crossover_from_sweep`
    (in-memory :class:`~repro.sweep.SweepResult`, JSON export, lazy
    :class:`~repro.sweep.ShardedSweepResult`, or a shard-directory
    path).  The rows must form a *complete* grid over the distinct
    ``x`` × ``y`` values — every cell exactly once, which holds for any
    ``SweepSpec.grid`` sweep of exactly those two axes.

    Each block is reduced with segment operations, no per-point Python:
    coordinates map to cells with ``np.searchsorted`` over each axis's
    sorted distinct values (permuted back to first-appearance order,
    and looked up once per run of a repeated value), a coordinate that
    is not exactly on an axis fills no cell, and ``np.bincount`` over
    the flat cell index keeps the exactly-once accounting.  Sharded
    input is scanned block-by-block loading only the three needed
    columns; peak memory is O(grid cells), never O(table width).
    """
    from ._tables import load_sweep_table

    if x == y:
        raise ValidationError("decision map axes x and y must differ")
    table = load_sweep_table(table)
    x_vals, y_vals = np.asarray(table.unique(x)), np.asarray(table.unique(y))
    nx, ny = len(x_vals), len(y_vals)
    if table.n_rows != nx * ny:
        raise ValidationError(
            f"decision map needs a full {x} x {y} grid: the table has "
            f"{table.n_rows} rows but {nx} x {ny} = {nx * ny} distinct cells; "
            "sweep exactly these two axes as a cartesian grid (e.g. two "
            "--axis flags, no zipped block over them)"
        )
    # Scan into int8 (codes < 3); the int64 result reuses counts' memory.
    winners = np.zeros(ny * nx, dtype=np.int8)
    counts = np.zeros(ny * nx, dtype=np.int64)
    if hasattr(table, "iter_blocks"):
        blocks = table.iter_blocks(columns=(x, y, column))
    else:
        blocks = [{name: table.column(name) for name in (x, y, column)}]
    x_major = None
    for block in blocks:
        codes = _block_codes(block, column, len(STRATEGIES_BY_CODE), "decision ")
        if not codes.size:
            continue
        ix, x_hit = _axis_cells(x_vals, np.asarray(block[x]))
        iy, y_hit = _axis_cells(y_vals, np.asarray(block[y]))
        if x_major is None:  # lay the grid out the way the rows run
            x_major = np.ptp(ix * ny + iy) < np.ptp(iy * nx + ix)
        cells = ix * ny + iy if x_major else iy * nx + ix
        hit = x_hit & y_hit
        if not hit.all():  # an off-axis value fills no cell: caught below
            cells, codes = cells[hit], codes[hit]
        winners[cells] = codes
        if cells.size:
            lo = int(cells.min())
            counts[lo : int(cells.max()) + 1] += np.bincount(cells - lo)
    if np.any(counts != 1):
        raise ValidationError(
            f"decision map needs each ({x}, {y}) cell exactly once; "
            f"{int(np.count_nonzero(counts != 1))} cells are duplicated "
            "or missing — is a third axis swept alongside these two?"
        )
    del counts
    winners = winners.reshape(nx, ny).T if x_major else winners.reshape(ny, nx)
    return DecisionMap(
        x_name=x,
        y_name=y,
        x_values=x_vals,
        y_values=y_vals,
        winners=winners.astype(np.int64, order="C"),
    )


_SWEEPABLE_2D = (
    "s_unit_gb",
    "complexity_flop_per_gb",
    "bandwidth_gbps",
    "alpha",
    "theta",
    "r_remote_tflops",
)


def decision_map(
    params: ModelParameters,
    x_name: str,
    x_values: np.ndarray,
    y_name: str,
    y_values: np.ndarray,
    streaming_alpha: float | None = None,
) -> DecisionMap:
    """Winning strategy over the (x, y) grid.

    Strategies compared with the same semantics as
    :func:`repro.core.decision.decide`: LOCAL, REMOTE_STREAMING
    (``theta=1``, ``streaming_alpha``), REMOTE_FILE (``params.theta``,
    ``params.alpha``).  When an axis sweeps ``alpha`` or ``theta``, the
    swept values apply to *both* remote strategies (the sweep then asks
    "how good must the coefficient get?").  The whole grid is one
    validated :class:`~repro.core.kernel.ParamBlock` handed to the
    kernel's vectorized :func:`~repro.core.kernel.decide_block` — the
    same code path behind the sweep engine's ``decision`` column.
    """
    if x_name == y_name:
        raise ValidationError("x_name and y_name must differ")
    for name in (x_name, y_name):
        if name not in _SWEEPABLE_2D:
            raise ValidationError(
                f"unknown decision-map parameter {name!r}; expected one of "
                f"{_SWEEPABLE_2D}"
            )
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size == 0 or y.size == 0:
        raise ValidationError("x_values and y_values must be non-empty 1-D arrays")
    xx, yy = np.meshgrid(x, y)

    columns = {x_name: xx.ravel(), y_name: yy.ravel()}
    block = kernel.ParamBlock.from_columns(columns, base=params, n=xx.size)
    # A swept alpha/theta reaches both remote strategies through the
    # block; otherwise streaming gets its own alpha and theta=1.
    alpha_swept = "alpha" in (x_name, y_name)
    theta_swept = "theta" in (x_name, y_name)
    codes = kernel.decide_block(
        block,
        streaming_alpha=None if alpha_swept else streaming_alpha,
        streaming_theta=block.theta if theta_swept else None,
    )
    winners = np.broadcast_to(codes, (xx.size,)).reshape(xx.shape)
    return DecisionMap(
        x_name=x_name,
        y_name=y_name,
        x_values=x,
        y_values=y,
        winners=winners.copy(),
    )

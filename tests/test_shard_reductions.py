"""Property tests for the segment reductions the survey answers from.

The sharded crossover and the decision-map reassembly reduce each shard
with vectorized segment operations and carry one boundary row per group
between shards.  These tests pin them to plain reference loops kept
here (the per-group / per-point algorithms they replaced), at every
shard size from one row to the whole table, so a crossing that
straddles a shard boundary, a group whose first row is already above
the threshold, a group that never crosses, metric plateaus and
unsorted x (the load-and-sort fallback) all have to agree bit for bit.
"""

from __future__ import annotations

import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.crossover import decision_surface_from_sweep
from repro.errors import ValidationError
from repro.sweep import ShardedSweepResult, ShardWriter, SweepResult

THRESHOLD = 1.0
#: Metric values: below, at and above the threshold, with repeats so
#: plateaus (m1 == m0) and exact hits of the threshold occur.
METRICS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 4.0])
#: x steps between a group's consecutive rows; 0 makes ties.
STEPS = st.sampled_from([0.0, 0.1, 1.0, 2.5, 7.0])


def reference_crossover(x, m, keys, threshold=THRESHOLD):
    """The per-group Python loop: groups in first-appearance order, rows
    stably sorted by x, first row at or above ``threshold`` linearly
    interpolated against the row before it."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = []
    for key, idx in groups.items():
        rows = sorted(idx, key=lambda i: x[i])
        xs = [float(x[i]) for i in rows]
        ms = [float(m[i]) for i in rows]
        crossing = None
        for j, value in enumerate(ms):
            if value >= threshold:
                if j == 0:
                    crossing = xs[0]
                else:
                    x0, x1, m0, m1 = xs[j - 1], xs[j], ms[j - 1], ms[j]
                    frac = 0.0 if m1 == m0 else (threshold - m0) / (m1 - m0)
                    crossing = x0 + frac * (x1 - x0)
                break
        out.append((key, crossing))
    return out


def as_pairs(result, x, group_by):
    return [(tuple(e[g] for g in group_by), e[x]) for e in result]


def same_crossings(got, want):
    """Equal keys and bit-identical crossings (``None`` where none)."""
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, a), (_, b) in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert type(a) is float and a.hex() == b.hex()


def write_shards(directory, columns, shard_size, axis_names=()):
    with ShardWriter(
        directory, shard_size=shard_size, axis_names=axis_names, integrity=False
    ) as writer:
        writer.append(columns)
    return ShardedSweepResult(directory)


@st.composite
def crossover_tables(draw):
    """Random tables: 1-3 groups interleaved in random row order, x
    ascending per group (or arbitrary when ``sorted_x`` is false)."""
    n = draw(st.integers(min_value=1, max_value=12))
    n_groups = draw(st.integers(min_value=1, max_value=3))
    group = draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n))
    metric = draw(st.lists(METRICS, min_size=n, max_size=n))
    sorted_x = draw(st.booleans())
    steps = draw(st.lists(STEPS, min_size=n, max_size=n))
    if sorted_x:
        level = {}
        x = []
        for g, step in zip(group, steps):
            level[g] = level.get(g, 10.0 * g) + step
            x.append(level[g])
    else:
        x = [10.0 - 3.0 * s + i % 3 for i, s in enumerate(steps)]
    return (
        np.asarray(x, dtype=float),
        np.asarray(metric, dtype=float),
        np.asarray(group, dtype=float) * 0.5,
    )


class TestShardedCrossover:
    @settings(max_examples=60, deadline=None)
    @given(table=crossover_tables(), grouped=st.booleans())
    def test_every_shard_size_matches_reference(self, table, grouped):
        x, m, g = table
        group_by = ("g",) if grouped else ()
        keys = [(v,) for v in g.tolist()] if grouped else [()] * len(x)
        want = reference_crossover(x, m, keys)
        columns = {"x": x, "g": g, "speedup": m}
        in_memory = SweepResult(columns).crossover("x", group_by=group_by)
        same_crossings(as_pairs(in_memory, "x", group_by), want)
        with tempfile.TemporaryDirectory() as tmp:
            for size in range(1, len(x) + 1):
                sharded = write_shards(pathlib.Path(tmp) / f"s{size}", columns, size)
                got = sharded.crossover("x", group_by=group_by)
                same_crossings(as_pairs(got, "x", group_by), want)

    @settings(max_examples=30, deadline=None)
    @given(table=crossover_tables())
    def test_two_group_columns_and_string_labels(self, table):
        x, m, g = table
        label = np.array([f"L{i % 2}" for i in range(len(g))], dtype=object)
        keys = list(zip(g.tolist(), label.tolist()))
        want = reference_crossover(x, m, keys)
        columns = {"x": x, "g": g, "label": label, "speedup": m}
        group_by = ("g", "label")
        with tempfile.TemporaryDirectory() as tmp:
            for size in (1, 2, 5, len(x)):
                sharded = write_shards(pathlib.Path(tmp) / f"s{size}", columns, size)
                got = sharded.crossover("x", group_by=group_by)
                same_crossings(as_pairs(got, "x", group_by), want)

    def test_group_values_keep_their_stored_types(self, tmp_path):
        columns = {
            "x": np.array([1.0, 1.0, 2.0, 2.0]),
            "g": np.array([0.5, 1.5, 0.5, 1.5]),
            "speedup": np.array([0.5, 0.5, 2.0, 0.7]),
        }
        got = write_shards(tmp_path, columns, 3).crossover("x", group_by=("g",))
        assert got == SweepResult(columns).crossover("x", group_by=("g",))
        assert [type(e["g"]) for e in got] == [np.float64, np.float64]
        assert got[1]["x"] is None

    @pytest.mark.parametrize(
        "metric, expected",
        [
            # crossing between rows 1 and 2: straddles every even boundary
            ([0.0, 0.5, 2.0, 3.0], 2.0 + (1.0 - 0.5) / (2.0 - 0.5) * 1.0),
            # first row already above: the grid edge is reported
            ([1.5, 0.0, 0.0, 0.0], 1.0),
            # exactly at the threshold on a boundary row
            ([0.0, 0.0, 1.0, 1.0], 3.0),
            # plateau below the threshold, then never crossing
            ([0.5, 0.5, 0.5, 0.5], None),
        ],
    )
    def test_boundary_cases(self, tmp_path, metric, expected):
        columns = {"x": np.array([1.0, 2.0, 3.0, 4.0]), "speedup": np.array(metric)}
        for size in (1, 2, 3, 4):
            [entry] = write_shards(tmp_path / f"s{size}", columns, size).crossover("x")
            assert entry["x"] == expected

    def test_sorted_groups_stream_without_the_fallback(self, tmp_path, monkeypatch):
        # Interleaved groups, each ascending in x, but each group starts
        # below the previous group's last x: still the streaming path.
        x = np.array([5.0, 1.0, 6.0, 2.0, 7.0, 3.0])
        g = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        m = np.array([0.5, 0.0, 2.0, 0.5, 3.0, 1.5])
        want = reference_crossover(x, m, [(v,) for v in g.tolist()])
        sharded = write_shards(tmp_path, {"x": x, "g": g, "speedup": m}, 4)

        def no_fallback(name):
            raise AssertionError("the fallback loaded a whole column")

        monkeypatch.setattr(sharded, "column", no_fallback)
        got = sharded.crossover("x", group_by=("g",))
        same_crossings(as_pairs(got, "x", ("g",)), want)

    def test_descending_x_falls_back_to_sorted_answer(self, tmp_path):
        x = np.array([4.0, 3.0, 2.0, 1.0])
        m = np.array([3.0, 2.0, 0.5, 0.0])
        want = reference_crossover(x, m, [()] * 4)
        for size in (1, 2, 4):
            got = write_shards(tmp_path / f"s{size}", {"x": x, "speedup": m}, size)
            same_crossings(as_pairs(got.crossover("x"), "x", ()), want)


def reference_decision_map(xs, ys, codes):
    """The per-point dict lookup the vectorized mapping replaced."""
    x_vals = list(dict.fromkeys(xs.tolist()))
    y_vals = list(dict.fromkeys(ys.tolist()))
    xi = {v: i for i, v in enumerate(x_vals)}
    yi = {v: i for i, v in enumerate(y_vals)}
    winners = np.zeros((len(y_vals), len(x_vals)), dtype=np.int64)
    for u, v, c in zip(xs.tolist(), ys.tolist(), codes.tolist()):
        winners[yi[v], xi[u]] = c
    return np.asarray(x_vals), np.asarray(y_vals), winners


AXIS = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def shuffled_grids(draw):
    x_axis = draw(AXIS)
    y_axis = draw(AXIS)
    n = len(x_axis) * len(y_axis)
    perm = draw(st.permutations(range(n)))
    codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    xx, yy = np.meshgrid(x_axis, y_axis, indexing="ij")
    rows = np.asarray(perm)
    return (
        xx.ravel()[rows] + 0.0,  # normalise -0.0: one cell per value
        yy.ravel()[rows] + 0.0,
        np.asarray(codes, dtype=np.int64),
    )


class TestDecisionMap:
    @settings(max_examples=50, deadline=None)
    @given(grid=shuffled_grids())
    def test_shuffled_grid_matches_reference(self, grid):
        xs, ys, codes = grid
        x_vals, y_vals, winners = reference_decision_map(xs, ys, codes)
        columns = {"x": xs, "y": ys, "decision": codes}
        in_memory = decision_surface_from_sweep(SweepResult(columns), "x", "y")
        np.testing.assert_array_equal(in_memory.winners, winners)
        np.testing.assert_array_equal(in_memory.x_values, x_vals)
        np.testing.assert_array_equal(in_memory.y_values, y_vals)
        with tempfile.TemporaryDirectory() as tmp:
            for size in sorted({1, 2, 3, len(xs)}):
                sharded = write_shards(pathlib.Path(tmp) / f"s{size}", columns, size)
                dmap = decision_surface_from_sweep(sharded, "x", "y")
                assert dmap.winners.flags.c_contiguous
                np.testing.assert_array_equal(dmap.winners, winners)
                np.testing.assert_array_equal(dmap.x_values, x_vals)
                np.testing.assert_array_equal(dmap.y_values, y_vals)

    @settings(max_examples=40, deadline=None)
    @given(grid=shuffled_grids(), data=st.data())
    def test_duplicated_cell_rejected(self, grid, data):
        xs, ys, codes = grid
        if len(xs) < 2:
            return
        src, dst = data.draw(
            st.lists(st.integers(0, len(xs) - 1), min_size=2, max_size=2, unique=True)
        )
        xs, ys = xs.copy(), ys.copy()
        xs[dst], ys[dst] = xs[src], ys[src]  # one cell twice, one missing
        columns = {"x": xs, "y": ys, "decision": codes}
        with pytest.raises(ValidationError, match="exactly once|full .* grid"):
            decision_surface_from_sweep(SweepResult(columns), "x", "y")
        with tempfile.TemporaryDirectory() as tmp:
            sharded = write_shards(pathlib.Path(tmp), columns, 2)
            with pytest.raises(ValidationError, match="exactly once|full .* grid"):
                decision_surface_from_sweep(sharded, "x", "y")

    def test_missing_cell_rejected(self, tmp_path):
        # Four rows over a 2 x 2 grid, but (2, 20) is never swept and
        # (1, 10) is swept twice.
        columns = {
            "x": np.array([1.0, 1.0, 2.0, 1.0]),
            "y": np.array([10.0, 20.0, 10.0, 10.0]),
            "decision": np.array([0, 1, 2, 0]),
        }
        for size in (1, 4):
            sharded = write_shards(tmp_path / f"s{size}", columns, size)
            with pytest.raises(ValidationError, match="2 cells are duplicated"):
                decision_surface_from_sweep(sharded, "x", "y")

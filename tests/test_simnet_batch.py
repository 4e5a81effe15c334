"""Experiment-batched simulation: bit-equivalence and isolation.

The batched engine's contract is *bit-identity*: stacking experiments
into one vectorized update must not change a single bit of any
experiment's outputs relative to running it alone on the sequential
:class:`FluidTcpSimulator` with the same seed — for any batch
composition, batch size or worker split.  These tests pin that
contract, plus the adaptive time advance and the columnar result views.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.iperfsim.runner import (
    run_experiment,
    run_experiments_batched,
    run_sweep,
)
from repro.iperfsim.spec import ExperimentSpec, SpawnStrategy
from repro.simnet.batch import BatchFluidSimulator
from repro.simnet.faults import brownout_schedule
from repro.simnet.link import Link, fabric_link
from repro.simnet.tcp import FluidTcpSimulator, TcpConfig
from repro.simnet.topology import cross_facility_testbed


def assert_results_bit_identical(a, b, label=""):
    """Two SimulationResults must match in every column and scalar."""
    assert a.end_time_s == b.end_time_s, label
    assert a.capacity_bytes_per_s == b.capacity_bytes_per_s, label
    for name, col in a.flow_columns.items():
        np.testing.assert_array_equal(
            col, b.flow_columns[name], err_msg=f"{label} flow col {name}"
        )
    for name, col in a.sample_columns.items():
        np.testing.assert_array_equal(
            col, b.sample_columns[name], err_msg=f"{label} sample col {name}"
        )


def sequential_run(link, flows, config=None, seed=0, max_time_s=300.0):
    sim = FluidTcpSimulator(link, config=config, seed=seed)
    for f in flows:
        sim.add_flow(*f)
    return sim.run(max_time_s=max_time_s)


def batched_run(cases, max_time_s=300.0):
    """cases: list of (link, config, seed, flows)."""
    bat = BatchFluidSimulator()
    for link, config, seed, flows in cases:
        e = bat.add_experiment(link, config=config, seed=seed)
        for f in flows:
            bat.add_flow(e, *f)
    return bat.run(max_time_s=max_time_s)


def mixed_cases():
    tiny = Link(capacity_gbps=25.0, rtt_s=0.016, buffer_bdp=0.05)
    return [
        (fabric_link(), None, 0, [(0.0, 0.5e9, 0), (0.0, 0.5e9, 1)]),
        (fabric_link(), None, 1, [(float(c) * 0.5, 0.2e9, c) for c in range(6)]),
        (tiny, None, 3, [(0.0, 0.25e9 / 8, c) for c in range(16)]),
        (fabric_link(), None, 2, [(2.5, 30e6, 0), (9.0, 30e6, 1)]),
        (
            fabric_link(),
            TcpConfig(hystart_delay_frac=0.125),
            5,
            [(0.0, 0.5e9, c) for c in range(8)],
        ),
    ]


class TestBitEquivalence:
    def test_mixed_batch_matches_sequential(self):
        cases = mixed_cases()
        batched = batched_run(cases)
        for i, ((link, config, seed, flows), b) in enumerate(zip(cases, batched)):
            a = sequential_run(link, flows, config=config, seed=seed)
            assert_results_bit_identical(a, b, label=f"case {i}")

    def test_max_time_truncation_matches_sequential(self):
        cases = [
            (fabric_link(), None, 0, [(0.0, 100e9, 0)]),  # cannot finish
            (fabric_link(), None, 1, [(0.5, 10e6, 0)]),
        ]
        batched = batched_run(cases, max_time_s=1.0)
        for (link, config, seed, flows), b in zip(cases, batched):
            a = sequential_run(link, flows, config=config, seed=seed, max_time_s=1.0)
            assert_results_bit_identical(a, b)
        assert not batched[0].all_completed
        assert batched[1].all_completed

    def test_idle_skip_schedule_matches_sequential(self):
        """Sparse spawn schedules exercise the adaptive time advance."""
        flows = [(10.0 * k, 5e6, k) for k in range(8)]
        (b,) = batched_run([(fabric_link(), None, 0, flows)], max_time_s=200.0)
        a = sequential_run(fabric_link(), flows, seed=0, max_time_s=200.0)
        assert_results_bit_identical(a, b)
        assert b.all_completed

    def test_single_experiment_batch_is_sequential(self):
        flows = [(float(c), 0.5e9 / 4, c) for c in range(4)]
        (b,) = batched_run([(fabric_link(), None, 7, flows)])
        a = sequential_run(fabric_link(), flows, seed=7)
        assert_results_bit_identical(a, b)

    def test_heterogeneous_links_same_dt(self):
        fat = Link(capacity_gbps=100.0, rtt_s=0.016)
        cases = [
            (fat, None, 0, [(0.0, 1e9, 0), (0.2, 1e9, 1)]),
            (fabric_link(), None, 0, [(0.0, 1e9, 0), (0.2, 1e9, 1)]),
        ]
        for (link, config, seed, flows), b in zip(cases, batched_run(cases)):
            a = sequential_run(link, flows, config=config, seed=seed)
            assert_results_bit_identical(a, b)


def cc_mixed_cases():
    """Batch compositions that exercise every congestion-control rule:
    same-CC congested batches per kind, kinds mixed on one bottleneck,
    tiny buffers with forced marking + exogenous loss, and tuned
    delay-controller knobs.  Flow tuples carry (start, size, client,
    cc) and pass straight through ``add_flow``."""
    tiny = Link(capacity_gbps=25.0, rtt_s=0.016, buffer_bdp=0.05)
    return [
        (fabric_link(), None, 0, [(0.0, 0.5e9, c, "dctcp") for c in range(8)]),
        (fabric_link(), None, 1, [(0.0, 0.5e9, c, "delay") for c in range(8)]),
        (
            fabric_link(),
            None,
            2,
            [
                (0.0, 0.4e9, 0, "reno"),
                (0.0, 0.4e9, 1, "dctcp"),
                (0.1, 0.4e9, 2, "delay"),
                (0.2, 0.4e9, 3, "dctcp"),
            ],
        ),
        (
            tiny,
            TcpConfig(dctcp_marking_bdp=0.02, loss_rate=1e-4),
            3,
            [
                (0.0, 0.25e9 / 8, c, ("reno", "dctcp", "delay")[c % 3])
                for c in range(12)
            ],
        ),
        (
            fabric_link(),
            TcpConfig(
                delay_threshold=1.05,
                delay_backoff=0.3,
                delay_gain=1.0,
                hystart_delay_frac=0.125,
            ),
            5,
            [(0.0, 0.3e9, c, "delay") for c in range(6)]
            + [(0.5, 0.3e9, 6, "reno")],
        ),
    ]


class TestCcBitEquivalence:
    """Per-CC and mixed-CC batches must stay bit-identical to the
    sequential reference engine — the tentpole contract of the zoo."""

    @pytest.mark.parametrize("cc", ["reno", "dctcp", "delay"])
    def test_single_cc_batch_matches_sequential(self, cc):
        flows = [(0.0, 0.5e9, c, cc) for c in range(6)]
        (b,) = batched_run([(fabric_link(), None, 0, flows)])
        a = sequential_run(fabric_link(), flows, seed=0)
        assert_results_bit_identical(a, b, label=f"cc={cc}")

    def test_mixed_cc_batch_matches_sequential(self):
        cases = cc_mixed_cases()
        batched = batched_run(cases)
        for i, ((link, config, seed, flows), b) in enumerate(zip(cases, batched)):
            a = sequential_run(link, flows, config=config, seed=seed)
            assert_results_bit_identical(a, b, label=f"cc case {i}")

    def test_cc_batch_order_does_not_matter(self):
        cases = cc_mixed_cases()
        forward = batched_run(cases)
        backward = batched_run(list(reversed(cases)))
        for f, b in zip(forward, reversed(backward)):
            assert_results_bit_identical(f, b, label="cc order")

    def cc_specs(self):
        return [
            ExperimentSpec(
                concurrency=c, parallel_flows=2, duration_s=2.0, cc=cc
            )
            for c in (2, 4)
            for cc in ("reno", "dctcp", "delay")
        ]

    @pytest.mark.parametrize("batch_size", [1, 2, 5, 100])
    def test_mixed_cc_batch_size_invariance(self, batch_size):
        """Any chunking of a mixed-CC unit stack reproduces the
        per-experiment sequential reference exactly."""
        units = [(spec, seed) for spec in self.cc_specs() for seed in (0,)]
        chunked = run_experiments_batched(units, batch_size=batch_size)
        for (spec, seed), b in zip(units, chunked):
            a = run_experiment(spec, seed=seed)
            assert a.client_times_s == b.client_times_s
            assert a.achieved_utilization == b.achieved_utilization

    @pytest.mark.parametrize("workers", [2, 3])
    def test_mixed_cc_workers_bit_identical(self, workers):
        specs = self.cc_specs()
        serial = run_sweep(specs, seeds=(0, 1), workers=1)
        split = run_sweep(specs, seeds=(0, 1), workers=workers)
        for ea, eb in zip(serial.experiments, split.experiments):
            assert ea.client_times_s == eb.client_times_s
            assert ea.achieved_utilization == eb.achieved_utilization


class TestCcRuleEquivalence:
    """Hypothesis-driven isolation of each new cwnd rule: randomly
    tuned controller knobs must never open a batch/sequential gap."""

    @settings(max_examples=8, deadline=None)
    @given(
        gain=st.floats(0.01, 1.0),
        marking=st.floats(0.01, 0.3),
        seed=st.integers(0, 20),
    )
    def test_dctcp_backoff_rule(self, gain, marking, seed):
        config = TcpConfig(dctcp_gain=gain, dctcp_marking_bdp=marking)
        flows = [(0.0, 0.4e9, c, "dctcp") for c in range(6)]
        (b,) = batched_run([(fabric_link(), config, seed, flows)])
        a = sequential_run(fabric_link(), flows, config=config, seed=seed)
        assert_results_bit_identical(a, b, label="dctcp rule")

    @settings(max_examples=8, deadline=None)
    @given(
        threshold=st.floats(1.0, 1.5),
        backoff=st.floats(0.05, 1.0),
        gain=st.floats(0.05, 2.0),
        seed=st.integers(0, 20),
    )
    def test_delay_backoff_and_ramp_rules(self, threshold, backoff, gain, seed):
        config = TcpConfig(
            delay_threshold=threshold, delay_backoff=backoff, delay_gain=gain
        )
        flows = [(0.0, 0.4e9, c, "delay") for c in range(6)]
        (b,) = batched_run([(fabric_link(), config, seed, flows)])
        a = sequential_run(fabric_link(), flows, config=config, seed=seed)
        assert_results_bit_identical(a, b, label="delay rule")

    @settings(max_examples=8, deadline=None)
    @given(loss=st.floats(1e-6, 1e-3), seed=st.integers(0, 20))
    def test_exogenous_loss_rule(self, loss, seed):
        config = TcpConfig(loss_rate=loss)
        flows = [
            (0.0, 0.3e9, c, ("reno", "dctcp", "delay")[c % 3])
            for c in range(6)
        ]
        (b,) = batched_run([(fabric_link(), config, seed, flows)])
        a = sequential_run(fabric_link(), flows, config=config, seed=seed)
        assert_results_bit_identical(a, b, label="loss rule")

    @settings(max_examples=10, deadline=None)
    @given(
        seed_a=st.integers(0, 30),
        seed_b=st.integers(0, 30),
        cc_extra=st.sampled_from(["reno", "dctcp", "delay"]),
        n_extra=st.integers(1, 3),
        extra_size=st.floats(1e6, 5e8),
    )
    def test_foreign_cc_experiment_never_perturbs(
        self, seed_a, seed_b, cc_extra, n_extra, extra_size
    ):
        """A joining experiment of any CC kind must not move a single
        bit of a mixed-CC experiment already in the batch."""
        flows_a = [
            (0.0, 0.3e9, 0, "reno"),
            (0.2, 0.3e9, 1, "dctcp"),
            (0.4, 0.3e9, 2, "delay"),
        ]
        (alone,) = batched_run([(fabric_link(), None, seed_a, flows_a)])
        extra = [
            (0.1 * k, extra_size, k, cc_extra) for k in range(n_extra)
        ]
        together = batched_run(
            [
                (fabric_link(), None, seed_a, flows_a),
                (fabric_link(), None, seed_b, extra),
            ]
        )
        assert_results_bit_identical(alone, together[0], label="cc isolation")


class TestExperimentIsolation:
    @settings(max_examples=15, deadline=None)
    @given(
        seed_a=st.integers(0, 50),
        seed_b=st.integers(0, 50),
        n_extra=st.integers(1, 3),
        retires_first=st.booleans(),
        size_frac=st.floats(0.0, 1.0),
        start_frac=st.floats(0.0, 1.0),
        routed=st.booleans(),
        outage=st.booleans(),
        joins_first=st.booleans(),
    )
    def test_adding_experiments_never_changes_another(
        self, seed_a, seed_b, n_extra, retires_first, size_frac, start_frac,
        routed, outage, joins_first,
    ):
        """Block-diagonal sharing: an unrelated experiment joining the
        batch must not perturb another experiment's outputs at all —
        whether it is a single link or a 3-hop route (optionally with a
        WAN outage), whether it registers before or after the other
        experiment, and whether it retires (and is compacted out of the
        stacked arrays) before or after it."""
        dt_s = 0.004  # fabric RTT / 4; also valid for the 18.5 ms route
        flows_a = [(0.0, 0.3e9, 0), (0.5, 0.3e9, 1), (1.0, 0.2e9, 2)]

        def add_a(bat):
            ea = bat.add_experiment(fabric_link(), seed=seed_a)
            for f in flows_a:
                bat.add_flow(ea, *f)
            return ea

        def add_extra(bat):
            # A alone ends at ~1.2 s; the outage opens after the
            # early-retiring extras are done.
            sched = brownout_schedule(1.0, 0.0, start_s=0.8) if outage else ()
            if routed:
                eb = bat.add_experiment(
                    links=cross_facility_testbed().route("edge", "hpc").links,
                    link_faults=[(), sched, ()],
                    seed=seed_b,
                )
            else:
                eb = bat.add_experiment(fabric_link(), seed=seed_b, faults=sched)
            if retires_first:
                size, start = 1e5 + size_frac * (1e7 - 1e5), 0.2 * start_frac
            else:
                size, start = 1e9 * (1.0 + size_frac), 1.0 + 0.5 * start_frac
            for k in range(n_extra):
                bat.add_flow(eb, start + 0.1 * k, size, k)
            return eb

        solo = BatchFluidSimulator(dt_s=dt_s)
        add_a(solo)
        (alone,) = solo.run()
        bat = BatchFluidSimulator(dt_s=dt_s)
        if joins_first:
            eb = add_extra(bat)
            ea = add_a(bat)
        else:
            ea = add_a(bat)
            eb = add_extra(bat)
        together = bat.run()
        assert (together[eb].end_time_s < alone.end_time_s) == retires_first
        assert_results_bit_identical(alone, together[ea], label="isolation")

    def test_batch_order_does_not_matter(self):
        cases = mixed_cases()
        forward = batched_run(cases)
        backward = batched_run(list(reversed(cases)))
        for f, b in zip(forward, reversed(backward)):
            assert_results_bit_identical(f, b, label="order")


class TestBatchRunner:
    def short_specs(self):
        return [
            ExperimentSpec(concurrency=c, parallel_flows=2, duration_s=2.0)
            for c in (1, 2, 4)
        ]

    def test_batched_units_match_run_experiment(self):
        units = [(spec, seed) for spec in self.short_specs() for seed in (0, 1)]
        batched = run_experiments_batched(units)
        for (spec, seed), b in zip(units, batched):
            a = run_experiment(spec, seed=seed)
            assert a.client_times_s == b.client_times_s
            assert a.achieved_utilization == b.achieved_utilization
            assert a.offered_utilization == b.offered_utilization

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 100])
    def test_batch_size_invariance(self, batch_size):
        units = [(spec, seed) for spec in self.short_specs() for seed in (0, 1)]
        reference = run_experiments_batched(units, batch_size=None)
        chunked = run_experiments_batched(units, batch_size=batch_size)
        for a, b in zip(reference, chunked):
            assert a.client_times_s == b.client_times_s
            assert a.achieved_utilization == b.achieved_utilization

    def test_run_sweep_pools_identically_across_batch_sizes(self):
        specs = self.short_specs()
        a = run_sweep(specs, seeds=(0, 1), batch_size=2)
        b = run_sweep(specs, seeds=(0, 1))
        for ea, eb in zip(a.experiments, b.experiments):
            assert ea.client_times_s == eb.client_times_s
            assert ea.max_transfer_time_s == eb.max_transfer_time_s
            assert ea.achieved_utilization == eb.achieved_utilization

    def test_run_sweep_workers_bit_identical(self):
        specs = self.short_specs()
        serial = run_sweep(specs, seeds=(0, 1), workers=1)
        parallel = run_sweep(specs, seeds=(0, 1), workers=2)
        for ea, eb in zip(serial.experiments, parallel.experiments):
            assert ea.client_times_s == eb.client_times_s
            assert ea.achieved_utilization == eb.achieved_utilization

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValidationError):
            run_experiments_batched(
                [(self.short_specs()[0], 0)], batch_size=0
            )


class TestRegistrationAndValidation:
    def test_mismatched_dt_rejected(self):
        bat = BatchFluidSimulator()
        bat.add_experiment(fabric_link())
        with pytest.raises(ValidationError):
            bat.add_experiment(Link(capacity_gbps=25.0, rtt_s=0.032))

    def test_explicit_dt_allows_heterogeneous_rtt(self):
        bat = BatchFluidSimulator(dt_s=0.004)
        bat.add_experiment(fabric_link())
        bat.add_experiment(Link(capacity_gbps=25.0, rtt_s=0.032))
        assert bat.experiment_count == 2

    def test_dt_exceeding_rtt_rejected(self):
        bat = BatchFluidSimulator(dt_s=0.1)
        with pytest.raises(ValidationError):
            bat.add_experiment(fabric_link())  # rtt 16 ms < dt

    def test_flow_validation(self):
        bat = BatchFluidSimulator()
        e = bat.add_experiment(fabric_link())
        with pytest.raises(ValidationError):
            bat.add_flow(e, -1.0, 1e6)
        with pytest.raises(ValidationError):
            bat.add_flow(e, 0.0, 0.0)
        with pytest.raises(ValidationError):
            bat.add_flow(99, 0.0, 1e6)

    def test_add_flows_bulk_validation(self):
        bat = BatchFluidSimulator()
        e = bat.add_experiment(fabric_link())
        with pytest.raises(ValidationError):
            bat.add_flows(e, np.array([0.0, 1.0]), np.array([1e6]), np.array([0]))
        with pytest.raises(ValidationError):
            bat.add_flows(e, np.array([-1.0]), np.array([1e6]), np.array([0]))
        with pytest.raises(ValidationError):
            bat.add_flows(e, np.array([0.0]), np.array([0.0]), np.array([0]))
        bat.add_flows(e, np.array([0.0]), np.array([1e6]), np.array([3]))
        assert bat.flow_count(e) == 1

    def test_empty_batch_and_empty_experiments(self):
        assert BatchFluidSimulator().run() == []
        bat = BatchFluidSimulator()
        bat.add_experiment(fabric_link())
        e = bat.add_experiment(fabric_link())
        bat.add_flow(e, 0.0, 10e6)
        results = bat.run()
        assert results[0].n_flows == 0
        assert results[0].end_time_s == 0.0
        assert results[1].all_completed

    def test_add_clients_bulk_matches_add_client_loop(self):
        """The vectorized client registration is add_client exactly."""
        starts = np.array([0.0, 0.5, 1.25])
        cids = np.array([0, 1, 2])

        loop = BatchFluidSimulator()
        e = loop.add_experiment(fabric_link(), seed=4)
        for s, cid in zip(starts, cids):
            loop.add_client(e, float(s), 0.3e9, 4, int(cid))
        (a,) = loop.run()

        bulk = BatchFluidSimulator()
        e = bulk.add_experiment(fabric_link(), seed=4)
        bulk.add_clients(e, starts, 0.3e9, 4, cids)
        assert bulk.flow_count(e) == 12
        (b,) = bulk.run()
        assert_results_bit_identical(a, b, label="bulk clients")
        with pytest.raises(ValidationError):
            bulk.add_clients(e, starts, 0.3e9, 0, cids)

    def test_add_client_splits_evenly(self):
        bat = BatchFluidSimulator()
        e = bat.add_experiment(fabric_link())
        ids = bat.add_client(e, 0.0, 1e9, parallel_flows=4, client_id=3)
        assert len(ids) == 4
        assert bat.flow_count(e) == 4
        with pytest.raises(ValidationError):
            bat.add_client(e, 0.0, 1e9, parallel_flows=0, client_id=0)


class TestColumnarResults:
    def test_columnar_and_object_views_agree(self):
        (res,) = batched_run(
            [(fabric_link(), None, 1, [(0.0, 0.2e9, 0), (0.3, 0.2e9, 1)])]
        )
        flows = res.flows
        assert len(flows) == res.n_flows == 2
        for i, f in enumerate(flows):
            assert f.flow_id == int(res.flow_columns["flow_id"][i])
            assert f.end_s == float(res.flow_columns["end_s"][i])
        samples = res.link_samples
        assert len(samples) == res.n_link_samples
        assert sum(s.bytes_sent for s in samples) == pytest.approx(
            res.total_link_bytes()
        )

    def test_numpy_reductions_match_object_loops(self):
        (res,) = batched_run(
            [(fabric_link(), None, 2, [(0.0, 0.2e9, 0), (0.2, 0.2e9, 0), (1.0, 0.1e9, 1)])]
        )
        assert res.total_flow_bytes() == pytest.approx(
            sum(f.bytes_sent for f in res.flows)
        )
        assert res.flow_durations_s() == [
            f.duration_s for f in res.flows if f.completed
        ]
        old_times = {}
        for f in res.flows:
            old_times.setdefault(f.client_id, []).append(f)
        for cid, fl in old_times.items():
            if all(f.completed for f in fl):
                expect = max(f.end_s for f in fl) - min(f.start_s for f in fl)
                assert res.client_completion_times_s()[cid] == pytest.approx(expect)

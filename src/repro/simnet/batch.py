"""Experiment-batched fluid TCP simulation.

:class:`BatchFluidSimulator` advances *many independent experiments*
(each a :class:`~repro.simnet.tcp.FluidTcpSimulator`-style run with its
own route, config and seed) through **one vectorized state update** per
time step.  The flow-state arrays of all experiments are stacked into
single contiguous arrays with per-experiment segments — block-diagonal
sharing: flows contend only with flows of their own experiment — so
the per-flow work (demand, rates, window growth, completions) is one
numpy pass over the whole batch instead of one small-array pass per
experiment.  For the Table-2 congestion grid the experiments overlap
almost completely in simulated time, so the batch replaces ~130k small
sequential steps with ~3.5k wide ones.

Every experiment is a route: an ordered tuple of links with one fault
schedule per link.  A single-link experiment (``link=`` + ``faults=``)
is a one-hop route and runs through the same update loop as a
multi-hop one; there is exactly one batched loop.

Two further mechanisms make measurement cheap:

- **adaptive time advance** — when every live flow in the batch is
  pending or stalled in RTO (sparse spawn schedules, post-window
  drain), the clock fast-forwards step-by-step through the dead time
  with pure scalar updates (queue drain + sampling) and no vector work
  at all, resuming the wide update at the next start/expiry;
- **columnar results** — each experiment's
  :class:`~repro.simnet.records.SimulationResult` is assembled directly
  from its segment of the state arrays, with no per-flow objects.

**Bit-identity.**  A one-hop experiment's result is bit-for-bit
identical to running it alone on
:meth:`FluidTcpSimulator.run <repro.simnet.tcp.FluidTcpSimulator.run>`,
the scalar single-link loop that stays as the independent reference:
every arithmetic statement of the sequential step is mirrored with the
same operations in the same order, and each per-link cascade reduces to
that step's single-bottleneck arithmetic for one link (per-experiment
reductions use ``.sum()`` on contiguous segment views, matching the
sequential pairwise summation; per-experiment scalar state stays in
Python floats; each experiment draws from its own
``numpy.random.Generator`` exactly when its own overflow events fire).
A multi-hop sequential run delegates to a one-experiment batch.  The
equivalence suites (``tests/test_simnet_batch.py``,
``tests/test_simnet_multilink.py``) pin these properties across batch
compositions, seeds and batch sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError, ValidationError
from ..units import ensure_positive
from .cc import CcKind, coerce_cc
from .faults import (
    FaultEvent,
    FaultSchedule,
    capacity_factor,
    resolve_route,
    schedule_is_noop,
)
from .link import Link
from .records import SampleLog, SimulationResult, validate_conservation
from .tcp import TcpConfig, _empty_result
from .tcp import _DONE, _PENDING, _RUNNING, _TIMEOUT

__all__ = ["BatchFluidSimulator"]


@dataclass
class _Experiment:
    """Registration state of one experiment in the batch.

    ``links`` is the ordered route (one link for a single-link
    experiment) and ``link_faults`` holds one fault schedule per link;
    ``link`` is the route's bottleneck, which the experiment reports
    against.
    """

    link: Link
    links: Tuple[Link, ...]
    link_faults: Tuple[FaultSchedule, ...]
    config: TcpConfig
    rng: np.random.Generator
    start: List[float] = field(default_factory=list)
    size: List[float] = field(default_factory=list)
    client: List[int] = field(default_factory=list)
    cc: List[int] = field(default_factory=list)


class BatchFluidSimulator:
    """Batched multi-experiment fluid TCP simulation.

    Usage::

        sim = BatchFluidSimulator()
        for seed in seeds:
            e = sim.add_experiment(fabric_link(), seed=seed)
            sim.add_client(e, 0.0, 0.5e9 / 8, parallel_flows=4, client_id=0)
        results = sim.run()          # one SimulationResult per experiment

    All experiments share the simulation clock and step size (``dt_s``;
    derived as ``rtt/4`` from the links when not given, which therefore
    must agree across the batch), but nothing else: capacity, buffer,
    TCP config, randomness and flow state are per-experiment.
    """

    def __init__(
        self,
        dt_s: Optional[float] = None,
        sample_interval_s: float = 0.1,
    ) -> None:
        if dt_s is not None and dt_s <= 0:
            raise ValidationError(f"dt_s must be > 0, got {dt_s!r}")
        ensure_positive(sample_interval_s, "sample_interval_s")
        self._dt_given = float(dt_s) if dt_s is not None else None
        self.sample_interval_s = float(sample_interval_s)
        self._resolved_dt: Optional[float] = None
        self._experiments: List[_Experiment] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_experiment(
        self,
        link: Optional[Link] = None,
        config: Optional[TcpConfig] = None,
        seed: int = 0,
        faults: Union[None, FaultEvent, Iterable[FaultEvent]] = None,
        *,
        links: Optional[Sequence[Link]] = None,
        link_faults: Optional[
            Sequence[Union[None, FaultEvent, Iterable[FaultEvent]]]
        ] = None,
    ) -> int:
        """Register one experiment; returns its index in ``run()``'s
        result list.

        ``link`` + ``faults`` is the classic single-bottleneck form:
        ``faults`` attaches a per-experiment link-fault schedule
        (:mod:`repro.simnet.faults`); it is stored as a one-hop route.

        ``links`` + ``link_faults`` is the routed multi-hop form: the
        ordered links of the route (e.g. from
        :meth:`~repro.simnet.topology.Topology.route` via ``.links``)
        and one fault schedule per link.  Experiments of either form,
        with and without schedules, mix freely in one batch.
        """
        route, per_link, bottleneck, dt = resolve_route(
            link, links, faults, link_faults, self._dt_given
        )
        if self._resolved_dt is None:
            self._resolved_dt = dt
        elif dt != self._resolved_dt:
            raise ValidationError(
                "experiments in one batch must share the simulation step: "
                f"resolved dt_s={self._resolved_dt} but this link implies "
                f"{dt}; pass an explicit dt_s to BatchFluidSimulator"
            )
        self._experiments.append(
            _Experiment(
                link=bottleneck,
                links=route,
                link_faults=per_link,
                config=config or TcpConfig(),
                rng=np.random.default_rng(seed),
            )
        )
        return len(self._experiments) - 1

    def _exp(self, experiment: int) -> _Experiment:
        try:
            return self._experiments[experiment]
        except IndexError:
            raise ValidationError(
                f"unknown experiment index {experiment!r}; the batch has "
                f"{len(self._experiments)} experiments"
            ) from None

    def add_flow(
        self,
        experiment: int,
        start_s: float,
        size_bytes: float,
        client_id: int = 0,
        cc: CcKind | int | str = CcKind.RENO,
    ) -> int:
        """Register one flow in ``experiment``; returns its flow id.

        ``cc`` selects the flow's congestion controller (a
        :class:`~repro.simnet.cc.CcKind`, its integer code or name);
        one experiment may mix kinds freely."""
        exp = self._exp(experiment)
        if start_s < 0:
            raise ValidationError(f"start_s must be >= 0, got {start_s!r}")
        if size_bytes <= 0:
            raise ValidationError(f"size_bytes must be > 0, got {size_bytes!r}")
        exp.start.append(float(start_s))
        exp.size.append(float(size_bytes))
        exp.client.append(int(client_id))
        exp.cc.append(int(coerce_cc(cc)))
        return len(exp.start) - 1

    def add_client(
        self,
        experiment: int,
        start_s: float,
        total_bytes: float,
        parallel_flows: int,
        client_id: int,
        cc: CcKind | int | str = CcKind.RENO,
    ) -> List[int]:
        """Register an iperf3-style client in ``experiment``:
        ``parallel_flows`` flows each moving an equal share, all using
        congestion control ``cc``."""
        if parallel_flows < 1:
            raise ValidationError(
                f"parallel_flows must be >= 1, got {parallel_flows!r}"
            )
        share = total_bytes / parallel_flows
        return [
            self.add_flow(experiment, start_s, share, client_id, cc=cc)
            for _ in range(parallel_flows)
        ]

    def add_clients(
        self,
        experiment: int,
        start_s: np.ndarray,
        total_bytes: float,
        parallel_flows: int,
        client_id: np.ndarray,
        cc: CcKind | int | str | np.ndarray = CcKind.RENO,
    ) -> None:
        """Bulk iperf3-style client registration: for each ``start_s`` /
        ``client_id`` pair, ``parallel_flows`` flows each moving an
        equal share of ``total_bytes`` — :meth:`add_client` vectorized
        over a whole spawn plan (same share rule, no per-client calls).
        ``cc`` is one congestion-control kind for every client or a
        per-client array of kinds.
        """
        if parallel_flows < 1:
            raise ValidationError(
                f"parallel_flows must be >= 1, got {parallel_flows!r}"
            )
        starts = np.asarray(start_s, dtype=float)
        clients = np.asarray(client_id, dtype=int)
        share = total_bytes / parallel_flows
        if np.ndim(cc) != 0:
            codes = np.asarray([int(coerce_cc(c)) for c in np.asarray(cc).tolist()])
            if codes.shape != starts.shape:
                raise ValidationError(
                    "add_clients: per-client cc must match start_s, got "
                    f"shapes {codes.shape} vs {starts.shape}"
                )
            cc = np.repeat(codes, parallel_flows)
        self.add_flows(
            experiment,
            np.repeat(starts, parallel_flows),
            np.full(starts.size * parallel_flows, share),
            np.repeat(clients, parallel_flows),
            cc=cc,
        )

    def add_flows(
        self,
        experiment: int,
        start_s: np.ndarray,
        size_bytes: np.ndarray,
        client_id: np.ndarray,
        cc: CcKind | int | str | np.ndarray = CcKind.RENO,
    ) -> None:
        """Bulk flow registration from arrays (the zero-object path
        under :meth:`add_clients`, which the experiment runner's
        vectorized spawn plans go through).  ``cc`` is one
        congestion-control kind shared by every flow or a per-flow
        array of kinds."""
        start = np.asarray(start_s, dtype=float)
        size = np.asarray(size_bytes, dtype=float)
        client = np.asarray(client_id, dtype=int)
        if not (start.shape == size.shape == client.shape) or start.ndim != 1:
            raise ValidationError(
                "add_flows needs three 1-D arrays of one shared length, got "
                f"shapes {start.shape}, {size.shape}, {client.shape}"
            )
        if start.size and float(start.min()) < 0:
            raise ValidationError("add_flows: start_s must be >= 0")
        if size.size and float(size.min()) <= 0:
            raise ValidationError("add_flows: size_bytes must be > 0")
        if np.ndim(cc) == 0:
            codes = [int(coerce_cc(cc))] * start.size
        else:
            cc_arr = np.asarray(cc)
            if cc_arr.shape != start.shape:
                raise ValidationError(
                    "add_flows: per-flow cc must match start_s, got shapes "
                    f"{cc_arr.shape} vs {start.shape}"
                )
            codes = [int(coerce_cc(c)) for c in cc_arr.tolist()]
        exp = self._exp(experiment)
        exp.start.extend(start.tolist())
        exp.size.extend(size.tolist())
        exp.client.extend(client.tolist())
        exp.cc.extend(codes)

    @property
    def experiment_count(self) -> int:
        """Number of registered experiments."""
        return len(self._experiments)

    def flow_count(self, experiment: int) -> int:
        """Number of flows registered in ``experiment``."""
        return len(self._exp(experiment).start)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self, max_time_s: float = 300.0) -> List[SimulationResult]:
        """Advance every experiment to completion (or ``max_time_s``).

        Returns one :class:`~repro.simnet.records.SimulationResult` per
        experiment, in registration order, bit-identical to sequential
        per-experiment runs with the same seeds.
        """
        ensure_positive(max_time_s, "max_time_s")
        results: List[Optional[SimulationResult]] = [None] * len(self._experiments)
        # Zero-flow experiments finish immediately (sequential semantics).
        todo = []
        for i, exp in enumerate(self._experiments):
            if exp.start:
                todo.append(i)
            else:
                results[i] = _empty_result(exp.link.capacity_bytes_per_s)
        if todo:
            for i, sim_result in zip(todo, self._simulate(todo, max_time_s)):
                results[i] = sim_result
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _simulate(
        self, todo: List[int], max_time_s: float
    ) -> List[SimulationResult]:
        """The vectorized multi-experiment update loop.

        Every statement mirrors one statement of the scalar single-link
        loop :meth:`FluidTcpSimulator.run
        <repro.simnet.tcp.FluidTcpSimulator.run>`, generalised from one
        bottleneck to an experiment's route:

        - every link along the route keeps its own queue, buffer and
          fault-scaled capacity, and arrivals *cascade*: each link sees
          the previous link's departures, so a flow's rate is its demand
          scaled by the minimum per-link share along the route;
        - the effective RTT is the route's base RTT plus the sum of
          per-link queueing delays, and the completion drain is the sum
          of per-link drain times;
        - droptail loss fires per overflowing link, in route order, each
          round consuming the experiment's own RNG stream;
        - per-link fault schedules scale each link's capacity
          independently — a shared-WAN outage stalls the route while
          leaving the other hops' queues draining.

        **L=1 contract.**  For a one-hop route each of these reduces to
        exactly the sequential single-link arithmetic (``0.0 + x`` and
        one-term sums are exact, and an uncapped hop leaves the rate
        scale at exactly ``1.0``), so a single-link
        experiment is bit-identical to ``FluidTcpSimulator.run``, which
        stays as the independent reference the equivalence tests
        compare against.

        The per-flow arithmetic is one masked numpy pass over the
        stacked arrays (gathering per-experiment scalars through
        ``exp_idx``); the link dimension is a short per-experiment
        cascade in Python floats.  Experiments whose flows all complete
        are *retired*: their result is assembled from their segment and
        the stacked arrays are compacted, so the drain tail of a batch
        runs on ever-smaller arrays.  Per-experiment state is indexed by
        batch position ``e``; segments and segment reductions by live
        position ``j``.
        """
        dt = self._resolved_dt
        assert dt is not None  # at least one experiment registered
        si = self.sample_interval_s
        n_exp = len(todo)
        exps = [self._experiments[i] for i in todo]

        # --- static per-experiment scalars (Python floats, like the
        # sequential engine's locals; indexed by batch position) -----------
        links_e = [exp.links for exp in exps]
        cfgs = [exp.config for exp in exps]
        rngs = [exp.rng for exp in exps]
        n_flows = [len(exp.start) for exp in exps]
        # Reporting (and rwnd) normalise against the route bottleneck;
        # the base RTT is the whole route's and the MSS is the smallest
        # hop MTU (path-MTU discovery).
        caps = [exp.link.capacity_bytes_per_s for exp in exps]
        rtts = [sum(l.rtt_s for l in ls) for ls in links_e]
        mss_e = [float(min(l.mss_bytes for l in ls)) for ls in links_e]
        rwnds = [
            cfg.rwnd_bdp * (caps[e] * rtts[e] / mss_e[e])
            for e, cfg in enumerate(cfgs)
        ]
        # `hops[e]` iterates an experiment's links in route order; a
        # prebuilt range keeps the one-hop case nearly as cheap as a
        # scalar (a `zip` per experiment and step costs several times
        # more).
        hops = [range(len(ls)) for ls in links_e]
        lcap = [[l.capacity_bytes_per_s for l in ls] for ls in links_e]
        lbuf = [[l.buffer_bytes for l in ls] for ls in links_e]
        # Congestion-control statics: the per-link DCTCP marking
        # thresholds, the exogenous-loss rate per byte sent, and the
        # delay-CC smoothed-RTT threshold.
        mark_bytes = [
            [cfgs[e].dctcp_marking_bdp * l.bdp_bytes for l in ls]
            for e, ls in enumerate(links_e)
        ]
        lrate = [cfg.loss_rate / mss_e[e] for e, cfg in enumerate(cfgs)]
        dthr = [cfg.delay_threshold * rtts[e] for e, cfg in enumerate(cfgs)]
        hystart_q = [
            cfg.hystart_delay_frac * rtts[e] for e, cfg in enumerate(cfgs)
        ]
        dctcp_g = [cfg.dctcp_gain for cfg in cfgs]
        dsmooth = [cfg.delay_smoothing for cfg in cfgs]
        dgain = [cfg.delay_gain for cfg in cfgs]
        icw = [cfg.initial_cwnd_segments for cfg in cfgs]
        issth = [cfg.initial_ssthresh_segments for cfg in cfgs]
        # Fault-injection statics: per experiment, the links whose
        # schedule is effective, as (hop, nominal capacity, schedule).
        # `has_faults` gates every fault statement below, so a
        # fault-free batch executes the exact statement sequence of the
        # fault-free sequential step (and the per-flow `fault_flow` mask
        # keeps the stall machinery away from fault-free experiments
        # sharing a faulted batch).
        fault_hops = [
            [
                (i, lcap[e][i], f)
                for i, f in enumerate(exp.link_faults)
                if f and not schedule_is_noop(f)
            ]
            for e, exp in enumerate(exps)
        ]
        exp_faulted = [bool(fh) for fh in fault_hops]
        has_faults = any(exp_faulted)
        stall_s = [cfg.stall_timeout_s for cfg in cfgs]
        rback = [cfg.retry_backoff_s for cfg in cfgs]
        rbmax = [cfg.retry_backoff_max_s for cfg in cfgs]
        rmax = [cfg.max_retries for cfg in cfgs]

        # --- stacked flow arrays (live experiments only; `live` is the
        # segment order, `exp_idx` holds batch positions so the scalar
        # lists above gather directly) -------------------------------------
        live = list(range(n_exp))

        def layout(order: List[int]):
            offs = [0]
            for e in order:
                offs.append(offs[-1] + n_flows[e])
            segs = [slice(offs[k], offs[k + 1]) for k in range(len(order))]
            red = np.asarray(offs[:-1], dtype=np.intp)
            idx = np.repeat(
                np.asarray(order, dtype=np.intp),
                [n_flows[e] for e in order],
            )
            return segs, red, idx

        segments, red_offs, exp_idx = layout(live)

        start = np.concatenate([np.asarray(exp.start) for exp in exps])
        size = np.concatenate([np.asarray(exp.size) for exp in exps])
        remaining = size.copy()
        cwnd = np.concatenate(
            [np.full(m, cfg.initial_cwnd_segments) for m, cfg in zip(n_flows, cfgs)]
        )
        ssthresh = np.concatenate(
            [
                np.full(m, cfg.initial_ssthresh_segments)
                for m, cfg in zip(n_flows, cfgs)
            ]
        )
        n = start.shape[0]
        state = np.full(n, _PENDING, dtype=np.int8)
        rto_until = np.zeros(n)
        rto_backoff = np.zeros(n, dtype=np.int32)
        end = np.full(n, np.nan)
        loss_events = np.zeros(n, dtype=np.int64)
        timeout_events = np.zeros(n, dtype=np.int64)
        recovery_until = np.zeros(n)
        mss_flow = np.repeat(np.asarray(mss_e), n_flows)
        rwnd_flow = np.repeat(np.asarray(rwnds), n_flows)

        # Per-flow congestion-control dispatch (codes of CcKind) and the
        # state only the non-Reno controllers touch; the `has_*` gates
        # keep a pure-Reno batch statement-for-statement identical to the
        # sequential Reno step.
        cc_flow = np.concatenate(
            [np.asarray(exp.cc, dtype=np.int8) for exp in exps]
        )
        is_dctcp = cc_flow == int(CcKind.DCTCP)
        is_delay = cc_flow == int(CcKind.DELAY)
        has_dctcp = bool(is_dctcp.any())
        has_delay = bool(is_delay.any())
        has_loss = any(r > 0.0 for r in lrate)
        dctcp_alpha = np.zeros(n)
        rtt_smooth = np.zeros(n)  # 0 = no RTT sample yet
        loss_credit = np.zeros(n)

        # Fault-injection flow state (only touched when `has_faults`).
        fault_flow = np.repeat(np.asarray(exp_faulted, dtype=bool), n_flows)
        last_progress = np.zeros(n)
        stall_time = np.zeros(n)
        retries = np.zeros(n, dtype=np.int64)
        aborted = np.zeros(n, dtype=bool)

        # --- per-experiment dynamic state (Python floats, converted to
        # arrays only where a per-flow gather needs them; batch position).
        # The link dimension is a short list per experiment, in route
        # order; `lcapt[e][i]` is the fault-scaled capacity. ---------------
        lqueue = [[0.0] * len(h) for h in hops]
        lcapt = [list(c) for c in lcap]
        loverflow = [[0.0] * len(h) for h in hops]
        buckets = [0.0] * n_exp
        qdelay = [0.0] * n_exp
        rtt_eff = [1.0] * n_exp
        scale = [1.0] * n_exp
        fin = [0.0] * n_exp
        factor = [1.0] * n_exp
        incr = [0.0] * n_exp
        clamp = [False] * n_exp
        marked = [0.0] * n_exp
        again = [0.0] * n_exp  # DCTCP alpha gain this step
        khalf = [0.0] * n_exp  # DCTCP proportional-backoff spread
        dshr = [1.0] * n_exp  # delay-CC shrink factor this step
        rec_t = [0.0] * n_exp  # exogenous-loss recovery stamp
        end_time = [0.0] * n_exp
        done_count = [0] * n_exp
        samples = [SampleLog() for _ in range(n_exp)]
        results: List[Optional[SimulationResult]] = [None] * n_exp

        t = 0.0
        bucket_start = 0.0

        def flush_final(e: int, active_count: int) -> None:
            if t - bucket_start > 1e-12:
                samples[e].append(
                    bucket_start, t - bucket_start, buckets[e],
                    sum(lqueue[e]), active_count,
                )
            end_time[e] = t

        def build_result(j: int, e: int) -> SimulationResult:
            seg = segments[j]
            result = SimulationResult.from_columns(
                flow_columns={
                    "flow_id": np.arange(n_flows[e], dtype=np.int64),
                    "client_id": np.asarray(exps[e].client, dtype=np.int64),
                    "start_s": start[seg].copy(),
                    "end_s": end[seg].copy(),
                    "size_bytes": size[seg].copy(),
                    "bytes_sent": size[seg] - remaining[seg],
                    "loss_events": loss_events[seg].copy(),
                    "timeout_events": timeout_events[seg].copy(),
                    "stall_time_s": stall_time[seg].copy(),
                    "retries": retries[seg].copy(),
                    "aborted": aborted[seg].copy(),
                },
                sample_columns=samples[e].columns(),
                capacity_bytes_per_s=caps[e],
                end_time_s=end_time[e],
            )
            validate_conservation(result)
            return result

        while live:
            if t >= max_time_s:
                for j, e in enumerate(live):
                    flush_final(
                        e, int(np.count_nonzero(state[segments[j]] == _RUNNING))
                    )
                    results[e] = build_result(j, e)
                break

            # --- lifecycle transitions (whole batch at once) --------------
            newly_started = (state == _PENDING) & (start <= t)
            state[newly_started] = _RUNNING
            rto_expired = (state == _TIMEOUT) & (rto_until <= t)
            state[rto_expired] = _RUNNING

            # Per-link effective capacity under the fault schedules
            # (mirrors the sequential engine's `cap_t`; Python floats).
            if has_faults:
                if np.any(newly_started):
                    last_progress[newly_started] = t
                for e in live:
                    lc = lcapt[e]
                    for i, c, f in fault_hops[e]:
                        lc[i] = c * capacity_factor(f, t)

            active = state == _RUNNING
            counts = np.add.reduceat(active, red_offs, dtype=np.int64).tolist()

            # The scalar fast-forward compresses dead time, but the
            # application-layer stall watchdog must tick every step while
            # a fault schedule is live — so a faulted batch steps through
            # the (result-identical) full update instead.
            if sum(counts) == 0 and not has_faults:
                # --- adaptive time advance: every live flow is pending or
                # in RTO; fast-forward with scalar-only steps (every link
                # drains at its own line rate + sampling — exactly what
                # the per-step loop would do) until the next start/expiry
                # or the time horizon.
                cand = np.where(state == _PENDING, start, np.inf)
                cand = np.where(state == _TIMEOUT, rto_until, cand)
                t_next = float(cand.min())
                if not np.isfinite(t_next):
                    raise SimulationError(
                        "batch deadlock: no active, pending or stalled "
                        "flows remain in an unfinished experiment"
                    )
                while True:
                    for e in live:
                        lq = lqueue[e]
                        lc = lcap[e]
                        for i in hops[e]:
                            if lq[i] > 0.0:
                                lq[i] = max(0.0, lq[i] - lc[i] * dt)
                    t += dt
                    if t - bucket_start >= si - 1e-12:
                        for e in live:
                            samples[e].append(
                                bucket_start, t - bucket_start, buckets[e],
                                sum(lqueue[e]), 0,
                            )
                            buckets[e] = 0.0
                        bucket_start = t
                    if t >= max_time_s or t_next <= t:
                        break
                continue

            # --- effective RTT: route base RTT + per-link queueing delays
            # (start-of-step queues) ---------------------------------------
            for e in live:
                lq = lqueue[e]
                lc = lcap[e]
                qd = 0.0
                for i in hops[e]:
                    qd += lq[i] / lc[i]
                qdelay[e] = qd
                rtt_eff[e] = rtts[e] + qd

            # --- demands and the cascaded per-link share (whole batch) ----
            rtt_eff_flow = np.asarray(rtt_eff)[exp_idx]
            demand = np.minimum(cwnd * mss_flow / rtt_eff_flow, remaining / dt)
            demand *= active  # zero inactive flows (bit-equal to np.where)

            # Per-experiment totals and queue/overflow bookkeeping: the
            # reductions run on contiguous segment views (same pairwise
            # summation as the sequential `demand.sum()`), the scalar
            # arithmetic stays in Python floats.
            overflowing = []  # (j, e) of experiments with a dropping hop
            hystart = []
            for j, e in enumerate(live):
                lq = lqueue[e]
                lo = loverflow[e]
                lc = lcapt[e]
                if counts[j] == 0:
                    # Nothing sending in this experiment: every queue
                    # drains at its line rate.
                    for i in hops[e]:
                        lq[i] = max(0.0, lq[i] - lc[i] * dt)
                        lo[i] = 0.0
                    scale[e] = 1.0
                    continue
                # HyStart candidates (acted on after the loss step, like
                # the sequential step; both inputs are start-of-step).
                if qdelay[e] > hystart_q[e]:
                    hystart.append((j, e))
                # The one bit-critical reduction: pairwise `.sum()` on
                # the contiguous segment view, exactly the sequential
                # engine's `demand.sum()`.
                total_demand = float(demand[segments[j]].sum())
                # Arrivals cascade hop by hop: link i sees link i-1's
                # departures, queues the excess over its (fault-scaled)
                # capacity and drops what its buffer cannot hold.  The
                # flows' shared rate scale is the surviving fraction.
                arrival = total_demand
                dropped = False
                for i in hops[e]:
                    cap_t = lc[i]
                    if arrival <= cap_t:
                        lq[i] = max(0.0, lq[i] - (cap_t - arrival) * dt)
                        lo[i] = 0.0
                    else:
                        q = lq[i] + (arrival - cap_t) * dt
                        buf = lbuf[e][i]
                        lo[i] = max(0.0, q - buf)
                        lq[i] = min(q, buf)
                        dropped = dropped or lo[i] > 0.0
                        arrival = cap_t
                if dropped:
                    overflowing.append((j, e))
                # No hop capped the arrivals: exactly 1.0, as is
                # `total_demand / total_demand` (and a zero demand).
                scale[e] = (
                    1.0 if arrival == total_demand else arrival / total_demand
                )

            sent = demand * np.asarray(scale)[exp_idx]
            sent *= dt
            np.minimum(sent, remaining, out=sent)
            remaining -= sent
            if has_faults:
                last_progress[sent > 0.0] = t

            # One strict-order segment reduction for every experiment's
            # sample bucket (matches the sequential `_strict_sum`).
            sent_sums = np.add.reduceat(sent, red_offs).tolist()
            for e, nbytes in zip(live, sent_sums):
                buckets[e] += nbytes

            # --- completions (whole batch) --------------------------------
            finished = active & (remaining <= 1e-6)
            any_finished = bool(finished.any())
            if any_finished:
                # Completion stamp: the last bytes drain through every
                # queue along the route, plus half the route RTT for the
                # final acknowledgement.  (During a full outage nothing
                # finishes, but the stamp is computed for every live
                # experiment, like the sequential engine's inf guard.)
                for e in live:
                    lq = lqueue[e]
                    lc = lcapt[e]
                    drain = 0.0
                    for i in hops[e]:
                        if lc[i] > 0.0:
                            drain += lq[i] / lc[i]
                        else:
                            drain = math.inf
                            break
                    fin[e] = t + dt + drain + rtts[e] / 2.0
                end[finished] = np.asarray(fin)[exp_idx][finished]
                state[finished] = _DONE
                active = state == _RUNNING

            # --- droptail loss, per overflowing link in route order (each
            # round consumes the experiment's own RNG stream) --------------
            for j, e in overflowing:
                seg = segments[j]
                a = active[seg]
                for ovf in loverflow[e]:
                    if ovf <= 0.0:
                        continue
                    if not a.any():
                        break
                    cfg = cfgs[e]
                    m = n_flows[e]
                    d = demand[seg]
                    offered = float(d[a].sum()) * dt
                    loss_frac = min(1.0, ovf / max(offered, 1.0))
                    p_loss = np.minimum(1.0, loss_frac * cfg.loss_aggressiveness)
                    rec = recovery_until[seg]
                    eligible = a & (rec <= t)
                    hit = eligible & (rngs[e].random(m) < p_loss)
                    if hit.any():
                        cw = cwnd[seg]
                        ss = ssthresh[seg]
                        st = state[seg]
                        rec[hit] = t + dt + rtt_eff[e]
                        in_ca = cw >= ss
                        burst = (
                            hit
                            & in_ca
                            & (
                                rngs[e].random(m)
                                < cfg.timeout_on_loss_scale * loss_frac
                            )
                        )
                        small = hit & (
                            (cw < cfg.min_fast_retransmit_segments) | burst
                        )
                        fast = hit & ~small
                        ss[fast] = np.maximum(cw[fast] / 2.0, 2.0)
                        cw[fast] = ss[fast]
                        loss_events[seg][fast] += 1
                        if small.any():
                            back = rto_backoff[seg]
                            until = rto_until[seg]
                            rto = np.minimum(
                                cfg.rto_min_s * (2.0 ** back[small]),
                                cfg.rto_max_s,
                            )
                            until[small] = t + dt + rto
                            back[small] += 1
                            ss[small] = np.maximum(cw[small] / 2.0, 2.0)
                            cw[small] = 1.0
                            st[small] = _TIMEOUT
                            timeout_events[seg][small] += 1
                            loss_events[seg][small] += 1
                        rto_backoff[seg][a & ~hit] = 0
                        # Timed-out flows stop sending: later hops of
                        # the route see only the survivors.
                        a = st == _RUNNING

            # --- exogenous path loss (deterministic fluid form; value-
            # identical to the sequential block — zero-rate experiments
            # accrue exactly 0.0 credit) -----------------------------------
            if has_loss:
                loss_credit += sent * np.asarray(lrate)[exp_idx]
                lossy = (
                    (state == _RUNNING)
                    & (loss_credit >= 1.0)
                    & (recovery_until <= t)
                )
                if np.any(lossy):
                    for e in live:
                        rec_t[e] = t + dt + rtt_eff[e]
                    recovery_until[lossy] = np.asarray(rec_t)[exp_idx][lossy]
                    ssthresh[lossy] = np.maximum(cwnd[lossy] / 2.0, 2.0)
                    cwnd[lossy] = ssthresh[lossy]
                    loss_events[lossy] += 1
                    loss_credit[lossy] -= np.floor(loss_credit[lossy])

            # --- HyStart: delay-based slow-start exit (per candidate
            # experiment; runs before the CC signals, like the sequential
            # step) --------------------------------------------------------
            for j, e in hystart:
                seg = segments[j]
                cw = cwnd[seg]
                ss = ssthresh[seg]
                ramping = (state[seg] == _RUNNING) & (cw < ss)
                ss[ramping] = np.maximum(cw[ramping], 2.0)

            # --- congestion signals of the non-Reno controllers (masked
            # elementwise updates over the stacked arrays; per-experiment
            # scalars gathered through exp_idx like factor/incr) -----------
            backoff = None
            if has_dctcp:
                for e in live:
                    # The route marks when any hop's queue exceeds that
                    # hop's own threshold (ECN marks survive to the
                    # receiver regardless of which switch set them).
                    lq = lqueue[e]
                    mb = mark_bytes[e]
                    mk = 0.0
                    for i in hops[e]:
                        if lq[i] > mb[i]:
                            mk = 1.0
                            break
                    marked[e] = mk
                    x = dt / rtt_eff[e]
                    again[e] = dctcp_g[e] * x
                    khalf[e] = 0.5 * x
                upd = (state == _RUNNING) & is_dctcp
                marked_flow = np.asarray(marked)[exp_idx]
                dctcp_alpha[upd] += np.asarray(again)[exp_idx][upd] * (
                    marked_flow[upd] - dctcp_alpha[upd]
                )
                shr = upd & (marked_flow == 1.0)
                if shr.any():
                    cw_new = np.maximum(
                        cwnd[shr]
                        * (1.0 - dctcp_alpha[shr] * np.asarray(khalf)[exp_idx][shr]),
                        2.0,
                    )
                    ssthresh[shr] = np.minimum(ssthresh[shr], cw_new)
                    cwnd[shr] = cw_new
                    backoff = shr
            if has_delay:
                upd = (state == _RUNNING) & is_delay
                fresh = upd & (rtt_smooth == 0.0)
                rtt_smooth[fresh] = rtt_eff_flow[fresh]
                rtt_smooth[upd] += np.asarray(dsmooth)[exp_idx][upd] * (
                    rtt_eff_flow[upd] - rtt_smooth[upd]
                )
                over = upd & (rtt_smooth > np.asarray(dthr)[exp_idx])
                if over.any():
                    for e in live:
                        dshr[e] = 1.0 - cfgs[e].delay_backoff * (dt / rtt_eff[e])
                    cw_new = np.maximum(
                        cwnd[over] * np.asarray(dshr)[exp_idx][over], 2.0
                    )
                    ssthresh[over] = np.minimum(ssthresh[over], cw_new)
                    cwnd[over] = cw_new
                    backoff = over if backoff is None else backoff | over

            # --- window growth (whole batch) ------------------------------
            growing = state == _RUNNING
            if backoff is not None:
                growing &= ~backoff
            grow_counts = np.add.reduceat(
                growing, red_offs, dtype=np.int64
            ).tolist()
            for j, e in enumerate(live):
                if grow_counts[j] > 0:
                    # Same Python-scalar power as the sequential step.
                    x = dt / rtt_eff[e]
                    factor[e] = 2.0 ** x
                    incr[e] = x
                    clamp[e] = True
                else:
                    clamp[e] = False
            in_ss = cwnd < ssthresh
            ss_mask = growing & in_ss
            ca_mask = growing & ~in_ss
            # Slow start: doubling per RTT, continuous form.
            np.copyto(
                cwnd, np.minimum(cwnd * np.asarray(factor)[exp_idx], ssthresh),
                where=ss_mask,
            )
            if has_delay:
                # Delay-based CA ramps proportionally to cwnd; the
                # loss-based controllers keep +1 MSS per RTT.
                incr_flow = np.asarray(incr)[exp_idx]
                ca_delay = ca_mask & is_delay
                ca_other = ca_mask & ~is_delay
                np.copyto(cwnd, cwnd + incr_flow, where=ca_other)
                np.copyto(
                    cwnd,
                    cwnd + np.asarray(dgain)[exp_idx] * cwnd * incr_flow,
                    where=ca_delay,
                )
            else:
                # Congestion avoidance: +1 MSS per RTT.
                np.copyto(cwnd, cwnd + np.asarray(incr)[exp_idx], where=ca_mask)
            # Receive-window clamp, only in experiments that grew a flow
            # this step (sequential clamp scope).
            np.copyto(
                cwnd, np.minimum(cwnd, rwnd_flow),
                where=np.asarray(clamp)[exp_idx],
            )

            # --- application-layer stall detection / retry / abort --------
            # Mirrors the sequential block statement for statement; the
            # `fault_flow` mask keeps the watchdog away from flows of
            # fault-free experiments sharing the batch.
            abort_now = None
            if has_faults:
                stalled = (
                    fault_flow
                    & ((state == _RUNNING) | (state == _TIMEOUT))
                    & (t - last_progress >= np.asarray(stall_s)[exp_idx])
                )
                if np.any(stalled):
                    stall_time[stalled] += t - last_progress[stalled]
                    exhausted = stalled & (
                        retries >= np.asarray(rmax)[exp_idx]
                    )
                    retry = stalled & ~exhausted
                    if np.any(exhausted):
                        state[exhausted] = _DONE
                        aborted[exhausted] = True
                        abort_now = exhausted
                    if np.any(retry):
                        retries[retry] += 1
                        retry_delay = np.minimum(
                            np.asarray(rback)[exp_idx][retry]
                            * (2.0 ** (retries[retry] - 1.0)),
                            np.asarray(rbmax)[exp_idx][retry],
                        )
                        rto_until[retry] = t + dt + retry_delay
                        state[retry] = _TIMEOUT
                        cwnd[retry] = np.asarray(icw)[exp_idx][retry]
                        ssthresh[retry] = np.asarray(issth)[exp_idx][retry]
                        rto_backoff[retry] = 0
                        recovery_until[retry] = 0.0
                        dctcp_alpha[retry] = 0.0
                        rtt_smooth[retry] = 0.0
                        loss_credit[retry] = 0.0
                        last_progress[retry] = rto_until[retry]

            t += dt

            # --- utilisation sampling (shared bucket boundaries) ----------
            if t - bucket_start >= si - 1e-12:
                interval = t - bucket_start
                for j, e in enumerate(live):
                    samples[e].append(
                        bucket_start, interval, buckets[e], sum(lqueue[e]),
                        counts[j],
                    )
                    buckets[e] = 0.0
                bucket_start = t

            # --- retire experiments whose flows all completed (or
            # aborted): assemble their result and compact the arrays -------
            if any_finished or abort_now is not None:
                completed = (
                    finished if abort_now is None else finished | abort_now
                )
                fin_counts = np.add.reduceat(
                    completed, red_offs, dtype=np.int64
                ).tolist()
                keep = None
                still_live = []
                for j, e in enumerate(live):
                    done_count[e] += fin_counts[j]
                    if done_count[e] == n_flows[e]:
                        flush_final(e, 0)
                        results[e] = build_result(j, e)
                        if keep is None:
                            keep = np.ones(state.shape[0], dtype=bool)
                        keep[segments[j]] = False
                    else:
                        still_live.append(e)
                if keep is not None:
                    live = still_live
                    (start, size, remaining, cwnd, ssthresh, state, rto_until,
                     rto_backoff, end, loss_events, timeout_events,
                     recovery_until, mss_flow, rwnd_flow, cc_flow,
                     dctcp_alpha, rtt_smooth, loss_credit, fault_flow,
                     last_progress, stall_time, retries, aborted) = (
                        arr[keep]
                        for arr in (
                            start, size, remaining, cwnd, ssthresh, state,
                            rto_until, rto_backoff, end, loss_events,
                            timeout_events, recovery_until, mss_flow, rwnd_flow,
                            cc_flow, dctcp_alpha, rtt_smooth, loss_credit,
                            fault_flow, last_progress, stall_time, retries,
                            aborted,
                        )
                    )
                    is_dctcp = cc_flow == int(CcKind.DCTCP)
                    is_delay = cc_flow == int(CcKind.DELAY)
                    segments, red_offs, exp_idx = layout(live)
                    # Once every faulted experiment has retired, the
                    # remaining batch regains the scalar fast-forward
                    # (a pure, result-identical optimisation).
                    has_faults = any(exp_faulted[e] for e in live)

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

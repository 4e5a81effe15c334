"""Fluid-model TCP simulation over a shared droptail bottleneck.

The paper's congestion measurements (Figures 2–3) characterise how the
*flow completion time* (FCT) of 0.5 GB iperf3 transfers degrades as
concurrent TCP load rises on a 25 Gbps / 16 ms path.  We reproduce the
mechanism with a round-based fluid model — the standard approximation in
which each flow is a fluid whose sending rate is ``cwnd / RTT`` — which
captures every effect the paper attributes its results to:

- **slow start / congestion avoidance**: cwnd doubles per RTT below
  ``ssthresh``, grows by one MSS per RTT above it (Reno AIMD),
- **self-induced queueing**: when aggregate demand exceeds capacity the
  FIFO queue fills; the effective RTT becomes
  ``base_rtt + queue/capacity``, stretching every flow,
- **droptail loss & synchronisation**: when the queue overflows, flows
  lose packets with probability proportional to their share of the
  overflow; hit flows halve ``cwnd`` (fast recovery),
- **timeouts**: a hit flow whose window is too small to trigger three
  duplicate ACKs stalls for an RTO with exponential backoff — the source
  of the long P99 tail in Figure 3,
- **backlog accumulation**: when offered load exceeds capacity (the
  >90 % regime of Figure 2(a)), unfinished transfers pile up across
  batch arrivals and the worst-case FCT grows super-linearly.

State is kept in parallel numpy arrays and each time step advances every
flow at once (no per-flow Python loop), following the vectorisation
idioms of the HPC-Python guides.  With the default step of RTT/4 a full
Table-2 sweep (24 experiments x 10 s) runs in well under a second.

Determinism: all randomness comes from one ``numpy.random.Generator``
seeded at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

import numpy as np

from ..errors import ValidationError
from ..units import ensure_positive
from .cc import CcKind, coerce_cc
from .faults import (
    FaultEvent,
    capacity_factor,
    resolve_route,
    schedule_is_noop,
)
from .link import Link
from .records import SampleLog, SimulationResult, validate_conservation

__all__ = ["TcpConfig", "FluidTcpSimulator"]


def _empty_result(capacity_bytes_per_s: float) -> SimulationResult:
    """A zero-flow result (shared by the batched engine)."""
    return SimulationResult(
        capacity_bytes_per_s=capacity_bytes_per_s, end_time_s=0.0
    )


@dataclass(frozen=True)
class TcpConfig:
    """Tunable TCP/endpoint behaviour.

    Defaults model a well-tuned DTN pair (large receive windows, jumbo
    frames) running a Reno-style loss-based congestion control, which is
    what iperf3 over a clean-slate FABRIC path exercises.
    """

    #: Initial congestion window, segments (RFC 6928).
    initial_cwnd_segments: float = 10.0
    #: Initial slow-start threshold, segments ("infinite" start).
    initial_ssthresh_segments: float = 1e9
    #: Receiver-window cap on cwnd, as a multiple of the path BDP.
    rwnd_bdp: float = 3.0
    #: Minimum retransmission timeout, seconds (Linux default 200 ms).
    rto_min_s: float = 0.2
    #: RTO exponential-backoff cap, seconds.
    rto_max_s: float = 8.0
    #: Windows below this cannot fast-retransmit (need 3 dup ACKs) and
    #: take a timeout instead, in segments.
    min_fast_retransmit_segments: float = 4.0
    #: Multiplier turning the overflow fraction into a per-flow loss
    #: probability (captures burstiness of droptail loss).
    loss_aggressiveness: float = 1.0
    #: Probability scale for a loss event escalating to a full timeout
    #: (whole-window burst loss): ``p = timeout_on_loss_scale *
    #: loss_fraction``.  Severe overflow therefore stalls some flows for
    #: an RTO — the mechanism behind the P99 tail of Figure 3.
    timeout_on_loss_scale: float = 0.3
    #: HyStart-style delay-based slow-start exit: leave slow start when
    #: queueing delay exceeds this fraction of the base RTT.  Disabled by
    #: default (the paper-calibrated dynamics rely on slow-start
    #: overshoot to seed congestion, and SS losses fast-recover rather
    #: than time out); enable (e.g. 0.125) for the ablation study of
    #: delay-based ramp control.
    hystart_delay_frac: float = 1e12
    #: DCTCP ECN-fraction EWMA gain ``g`` (RFC 8257 suggests 1/16); the
    #: per-step gain is spread over the RTT (``g * dt/rtt``) so the
    #: fluid EWMA matches the per-RTT discrete update.
    dctcp_gain: float = 0.0625
    #: DCTCP ECN marking threshold ``K`` as a fraction of the path BDP:
    #: the switch marks while the queue exceeds ``K * bdp_bytes``.
    dctcp_marking_bdp: float = 0.25
    #: Delay-based CC: smoothed-RTT EWMA gain per step.
    delay_smoothing: float = 0.1
    #: Delay-based CC: back off once the smoothed RTT exceeds this
    #: multiple of the base RTT.
    delay_threshold: float = 1.25
    #: Delay-based CC: multiplicative backoff strength, spread per RTT
    #: (``cwnd *= 1 - delay_backoff * dt/rtt`` while over threshold).
    delay_backoff: float = 0.5
    #: Delay-based CC: proportional congestion-avoidance ramp
    #: (``cwnd += delay_gain * cwnd`` per RTT when under threshold).
    delay_gain: float = 0.5
    #: Exogenous per-segment loss probability (path loss independent of
    #: the droptail queue).  Modelled as deterministic fluid loss: each
    #: flow accrues ``sent_segments * loss_rate`` of loss credit and
    #: takes one multiplicative-decrease event per whole credit.
    loss_rate: float = 0.0
    #: Application-layer stall detector: a flow that moves no bytes for
    #: this long is torn down and retried (or aborted).  Only consulted
    #: when a fault schedule is attached — fault-free runs never take
    #: this path, keeping them bit-identical to the pre-fault engine.
    stall_timeout_s: float = 4.0
    #: First reconnect backoff after a detected stall, seconds; doubles
    #: per consecutive retry (exponential backoff).
    retry_backoff_s: float = 1.0
    #: Cap on the reconnect backoff, seconds.
    retry_backoff_max_s: float = 16.0
    #: Reconnect attempts before the application gives up and the flow
    #: is recorded as ``aborted``.
    max_retries: int = 4

    def __post_init__(self) -> None:
        ensure_positive(self.initial_cwnd_segments, "initial_cwnd_segments")
        ensure_positive(self.initial_ssthresh_segments, "initial_ssthresh_segments")
        ensure_positive(self.rwnd_bdp, "rwnd_bdp")
        ensure_positive(self.rto_min_s, "rto_min_s")
        if self.rto_max_s < self.rto_min_s:
            raise ValidationError(
                f"rto_max_s ({self.rto_max_s}) must be >= rto_min_s "
                f"({self.rto_min_s})"
            )
        ensure_positive(
            self.min_fast_retransmit_segments, "min_fast_retransmit_segments"
        )
        ensure_positive(self.loss_aggressiveness, "loss_aggressiveness")
        if self.timeout_on_loss_scale < 0:
            raise ValidationError(
                f"timeout_on_loss_scale must be >= 0, got "
                f"{self.timeout_on_loss_scale!r}"
            )
        ensure_positive(self.hystart_delay_frac, "hystart_delay_frac")
        if not 0.0 < self.dctcp_gain <= 1.0:
            raise ValidationError(
                f"dctcp_gain must be in (0, 1], got {self.dctcp_gain!r}"
            )
        ensure_positive(self.dctcp_marking_bdp, "dctcp_marking_bdp")
        if not 0.0 < self.delay_smoothing <= 1.0:
            raise ValidationError(
                f"delay_smoothing must be in (0, 1], got "
                f"{self.delay_smoothing!r}"
            )
        if self.delay_threshold < 1.0:
            raise ValidationError(
                f"delay_threshold must be >= 1 (a multiple of the base "
                f"RTT), got {self.delay_threshold!r}"
            )
        if not 0.0 < self.delay_backoff <= 1.0:
            raise ValidationError(
                f"delay_backoff must be in (0, 1], got {self.delay_backoff!r}"
            )
        ensure_positive(self.delay_gain, "delay_gain")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValidationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate!r}"
            )
        ensure_positive(self.stall_timeout_s, "stall_timeout_s")
        ensure_positive(self.retry_backoff_s, "retry_backoff_s")
        if self.retry_backoff_max_s < self.retry_backoff_s:
            raise ValidationError(
                f"retry_backoff_max_s ({self.retry_backoff_max_s}) must be "
                f">= retry_backoff_s ({self.retry_backoff_s})"
            )
        if not isinstance(self.max_retries, int) or isinstance(
            self.max_retries, bool
        ) or self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be an integer >= 0, got "
                f"{self.max_retries!r}"
            )


# Flow lifecycle states (values are indices, not flags).
_PENDING = 0  # start time not reached yet
_RUNNING = 1  # actively sending
_TIMEOUT = 2  # stalled waiting for RTO expiry
_DONE = 3

#: ``np.add.reduceat(arr, _WHOLE)[0]`` is a strict left-to-right sum —
#: the one summation order that is segment-decomposable, so the batched
#: engine's per-experiment ``reduceat`` over stacked arrays reproduces
#: this engine's link-sample bytes bit for bit.
_WHOLE = np.zeros(1, dtype=np.intp)


def _strict_sum(values: np.ndarray) -> float:
    """Left-to-right sum matching a ``reduceat`` segment reduction."""
    return float(np.add.reduceat(values, _WHOLE)[0])


class FluidTcpSimulator:
    """Round-based fluid simulation of TCP flows on one bottleneck.

    Usage::

        sim = FluidTcpSimulator(fabric_link(), seed=1)
        sim.add_flow(start_s=0.0, size_bytes=0.5e9 / 8, client_id=0)
        ...
        result = sim.run()

    ``run`` advances time in fixed steps of ``dt_s`` (default RTT/4)
    until every flow completes or ``max_time_s`` is reached, and returns
    a :class:`~repro.simnet.records.SimulationResult`.
    """

    def __init__(
        self,
        link: Optional[Link] = None,
        config: Optional[TcpConfig] = None,
        dt_s: Optional[float] = None,
        sample_interval_s: float = 0.1,
        seed: int = 0,
        faults: Union[None, FaultEvent, Iterable[FaultEvent]] = None,
        *,
        links: Optional[Iterable[Link]] = None,
        link_faults: Optional[
            Iterable[Union[None, FaultEvent, Iterable[FaultEvent]]]
        ] = None,
    ) -> None:
        # ``self.link`` is the (bottleneck) link reporting normalises
        # against.  A one-hop route is the classic single-link
        # simulation; a longer route delegates to the batched engine
        # (one-experiment batch) at run() time.
        route, per_link, self.link, self.dt_s = resolve_route(
            link, links, faults, link_faults, dt_s
        )
        if len(route) == 1:
            self._links, self._link_faults = None, ()
            self.faults = per_link[0]
        else:
            self._links, self._link_faults = route, per_link
            self.faults = ()
        self.config = config or TcpConfig()
        ensure_positive(sample_interval_s, "sample_interval_s")
        self.sample_interval_s = float(sample_interval_s)
        self._rng = np.random.default_rng(seed)

        # Flow definition arrays (append-only until run()).
        self._start: List[float] = []
        self._size: List[float] = []
        self._client: List[int] = []
        self._cc: List[int] = []

    # ------------------------------------------------------------------
    # Flow registration
    # ------------------------------------------------------------------
    def add_flow(
        self,
        start_s: float,
        size_bytes: float,
        client_id: int = 0,
        cc: CcKind | int | str = CcKind.RENO,
    ) -> int:
        """Register one flow; returns its flow id.

        ``cc`` selects the flow's congestion controller (a
        :class:`~repro.simnet.cc.CcKind`, its integer code or its name);
        flows of different kinds may share the bottleneck.
        """
        if start_s < 0:
            raise ValidationError(f"start_s must be >= 0, got {start_s!r}")
        if size_bytes <= 0:
            raise ValidationError(f"size_bytes must be > 0, got {size_bytes!r}")
        self._start.append(float(start_s))
        self._size.append(float(size_bytes))
        self._client.append(int(client_id))
        self._cc.append(int(coerce_cc(cc)))
        return len(self._start) - 1

    def add_client(
        self,
        start_s: float,
        total_bytes: float,
        parallel_flows: int,
        client_id: int,
        cc: CcKind | int | str = CcKind.RENO,
    ) -> List[int]:
        """Register an iperf3-style client: ``parallel_flows`` flows each
        moving an equal share of ``total_bytes`` (iperf3 ``-P`` semantics),
        all using congestion control ``cc``."""
        if parallel_flows < 1:
            raise ValidationError(
                f"parallel_flows must be >= 1, got {parallel_flows!r}"
            )
        share = total_bytes / parallel_flows
        return [
            self.add_flow(start_s, share, client_id, cc=cc)
            for _ in range(parallel_flows)
        ]

    @property
    def flow_count(self) -> int:
        """Number of registered flows."""
        return len(self._start)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self, max_time_s: float = 300.0) -> SimulationResult:
        """Run to completion of all flows (or ``max_time_s``)."""
        ensure_positive(max_time_s, "max_time_s")
        if self._links is not None:
            return self._run_multilink(max_time_s)
        n = self.flow_count
        link, cfg = self.link, self.config
        cap = link.capacity_bytes_per_s
        mss = float(link.mss_bytes)
        rwnd_segments = cfg.rwnd_bdp * link.bdp_segments

        if n == 0:
            return _empty_result(cap)

        start = np.asarray(self._start)
        size = np.asarray(self._size)
        remaining = size.copy()
        cwnd = np.full(n, cfg.initial_cwnd_segments)
        ssthresh = np.full(n, cfg.initial_ssthresh_segments)
        state = np.full(n, _PENDING, dtype=np.int8)
        rto_until = np.zeros(n)
        rto_backoff = np.zeros(n, dtype=np.int32)  # consecutive timeouts
        end = np.full(n, np.nan)
        loss_events = np.zeros(n, dtype=np.int64)
        timeout_events = np.zeros(n, dtype=np.int64)
        # NewReno reacts to at most one loss event per window per RTT;
        # a flow inside its recovery window ignores further drops.
        recovery_until = np.zeros(n)

        # Per-flow congestion-control dispatch (codes of CcKind) and the
        # state only the non-Reno controllers touch.  The `has_*` gates
        # keep the pure-Reno step statement-for-statement identical to
        # the historical loop.
        cc = np.asarray(self._cc, dtype=np.int8)
        is_dctcp = cc == int(CcKind.DCTCP)
        is_delay = cc == int(CcKind.DELAY)
        has_dctcp = bool(is_dctcp.any())
        has_delay = bool(is_delay.any())
        has_loss = cfg.loss_rate > 0.0
        dctcp_alpha = np.zeros(n)
        rtt_smooth = np.zeros(n)  # 0 = no RTT sample yet
        loss_credit = np.zeros(n)
        mark_bytes = cfg.dctcp_marking_bdp * link.bdp_bytes

        # Fault-injection state.  `has_faults` gates everything below so
        # a run with no (effective) schedule executes the exact statement
        # sequence of the pre-fault engine.
        faults = self.faults
        has_faults = bool(faults) and not schedule_is_noop(faults)
        last_progress = np.zeros(n)
        stall_time = np.zeros(n)
        retries = np.zeros(n, dtype=np.int64)
        aborted = np.zeros(n, dtype=bool)

        queue = 0.0
        t = 0.0
        dt = self.dt_s
        samples = SampleLog()
        bucket_bytes = 0.0
        bucket_start = 0.0
        max_active = 0

        # One smoothed RTT per step, shared by all flows (single queue).
        while True:
            if np.all(state == _DONE):
                break
            if t >= max_time_s:
                break

            # --- lifecycle transitions ------------------------------------
            newly_started = (state == _PENDING) & (start <= t)
            state[newly_started] = _RUNNING
            rto_expired = (state == _TIMEOUT) & (rto_until <= t)
            state[rto_expired] = _RUNNING

            # Effective capacity under the fault schedule; `cap_t is cap`
            # whenever no fault is active, so the arithmetic below is
            # bit-identical to the fault-free engine outside fault
            # windows.  (`queue_delay` keeps nominal capacity: the term
            # only shapes demand, which zero capacity nullifies anyway.)
            if has_faults:
                if np.any(newly_started):
                    last_progress[newly_started] = t
                cap_t = cap * capacity_factor(faults, t)
            else:
                cap_t = cap

            active = state == _RUNNING
            n_active = int(np.count_nonzero(active))
            max_active = max(max_active, n_active)

            queue_delay = queue / cap
            rtt_eff = link.rtt_s + queue_delay

            if n_active > 0:
                # --- demands and proportional share ------------------------
                demand = np.where(active, cwnd * mss / rtt_eff, 0.0)
                # A flow cannot want more than it has left (plus the
                # share already in flight this step).
                demand = np.minimum(demand, np.where(active, remaining / dt, 0.0))
                total_demand = float(demand.sum())

                if total_demand <= cap_t:
                    rates = demand
                    sent_total = total_demand * dt
                    queue = max(0.0, queue - (cap_t - total_demand) * dt)
                    overflow = 0.0
                else:
                    rates = demand * (cap_t / total_demand)
                    sent_total = cap_t * dt
                    queue += (total_demand - cap_t) * dt
                    overflow = max(0.0, queue - link.buffer_bytes)
                    queue = min(queue, link.buffer_bytes)

                sent = rates * dt
                sent = np.minimum(sent, remaining)
                remaining -= sent
                if has_faults:
                    last_progress[sent > 0.0] = t
                # Strict-order sum: only feeds the utilisation samples
                # (never the flow dynamics), and makes the accumulated
                # bucket reproducible by the batched engine's segment
                # reductions.
                bucket_bytes += _strict_sum(sent)

                # --- completions -------------------------------------------
                finished = active & (remaining <= 1e-6)
                if np.any(finished):
                    # Last bytes drain through the queue and need half an
                    # RTT to be acknowledged end-to-end.  (During a full
                    # outage nothing is sent, so no flow can newly cross
                    # the completion threshold — the inf guard is purely
                    # defensive.)
                    drain = queue / cap_t if cap_t > 0.0 else math.inf
                    end[finished] = t + dt + drain + link.rtt_s / 2.0
                    state[finished] = _DONE
                    active = state == _RUNNING

                # --- droptail loss on overflow -----------------------------
                if overflow > 0.0 and np.any(active):
                    offered = float(demand[active].sum()) * dt
                    loss_frac = min(1.0, overflow / max(offered, 1.0))
                    p_loss = np.minimum(
                        1.0, loss_frac * cfg.loss_aggressiveness
                    )
                    eligible = active & (recovery_until <= t)
                    hit = eligible & (self._rng.random(n) < p_loss)
                    if np.any(hit):
                        recovery_until[hit] = t + dt + rtt_eff
                        # A hit escalates to a timeout when the window is
                        # too small to fast-retransmit, or (severity-
                        # proportionally) when the burst wiped a whole
                        # congestion-avoidance window.  Slow-start
                        # overshoot losses fast-recover (SACK), so a lone
                        # ramping client never RTOs on a clean link.
                        in_ca = cwnd >= ssthresh
                        burst = (
                            hit
                            & in_ca
                            & (
                                self._rng.random(n)
                                < cfg.timeout_on_loss_scale * loss_frac
                            )
                        )
                        small = hit & (
                            (cwnd < cfg.min_fast_retransmit_segments) | burst
                        )
                        fast = hit & ~small
                        # Fast recovery: multiplicative decrease.
                        ssthresh[fast] = np.maximum(cwnd[fast] / 2.0, 2.0)
                        cwnd[fast] = ssthresh[fast]
                        loss_events[fast] += 1
                        # Timeout: stall for (backed-off) RTO, restart
                        # from one segment in slow start.
                        if np.any(small):
                            rto = np.minimum(
                                cfg.rto_min_s * (2.0 ** rto_backoff[small]),
                                cfg.rto_max_s,
                            )
                            rto_until[small] = t + dt + rto
                            rto_backoff[small] += 1
                            ssthresh[small] = np.maximum(cwnd[small] / 2.0, 2.0)
                            cwnd[small] = 1.0
                            state[small] = _TIMEOUT
                            timeout_events[small] += 1
                            loss_events[small] += 1
                        # Successful rounds reset the backoff of others.
                        rto_backoff[active & ~hit] = 0

                # --- exogenous path loss (deterministic fluid form) --------
                if has_loss:
                    loss_credit += sent * (cfg.loss_rate / mss)
                    lossy = (
                        (state == _RUNNING)
                        & (loss_credit >= 1.0)
                        & (recovery_until <= t)
                    )
                    if np.any(lossy):
                        recovery_until[lossy] = t + dt + rtt_eff
                        ssthresh[lossy] = np.maximum(cwnd[lossy] / 2.0, 2.0)
                        cwnd[lossy] = ssthresh[lossy]
                        loss_events[lossy] += 1
                        loss_credit[lossy] -= np.floor(loss_credit[lossy])

                # --- HyStart: delay-based slow-start exit -------------------
                if queue_delay > cfg.hystart_delay_frac * link.rtt_s:
                    ramping = (state == _RUNNING) & (cwnd < ssthresh)
                    ssthresh[ramping] = np.maximum(cwnd[ramping], 2.0)

                # --- congestion signals of the non-Reno controllers --------
                # (`backoff` collects flows that reduced this step and must
                # not also grow; droptail reactions above stay shared.)
                backoff = None
                if has_dctcp:
                    upd = (state == _RUNNING) & is_dctcp
                    # The switch marks while the (post-update) queue sits
                    # above K; the ECN-fraction EWMA gain is spread over
                    # the RTT so the fluid update matches per-RTT DCTCP.
                    marked = 1.0 if queue > mark_bytes else 0.0
                    dctcp_alpha[upd] += (cfg.dctcp_gain * (dt / rtt_eff)) * (
                        marked - dctcp_alpha[upd]
                    )
                    if marked:
                        # Proportional backoff cwnd *= 1 - alpha/2, spread
                        # per RTT like the growth terms.
                        k = 0.5 * (dt / rtt_eff)
                        cw_new = np.maximum(
                            cwnd[upd] * (1.0 - dctcp_alpha[upd] * k), 2.0
                        )
                        ssthresh[upd] = np.minimum(ssthresh[upd], cw_new)
                        cwnd[upd] = cw_new
                        backoff = upd
                if has_delay:
                    upd = (state == _RUNNING) & is_delay
                    fresh = upd & (rtt_smooth == 0.0)
                    rtt_smooth[fresh] = rtt_eff
                    rtt_smooth[upd] += cfg.delay_smoothing * (
                        rtt_eff - rtt_smooth[upd]
                    )
                    over = upd & (
                        rtt_smooth > cfg.delay_threshold * link.rtt_s
                    )
                    if np.any(over):
                        cw_new = np.maximum(
                            cwnd[over]
                            * (1.0 - cfg.delay_backoff * (dt / rtt_eff)),
                            2.0,
                        )
                        ssthresh[over] = np.minimum(ssthresh[over], cw_new)
                        cwnd[over] = cw_new
                        backoff = over if backoff is None else backoff | over

                # --- window growth for unhit running flows -----------------
                growing = state == _RUNNING
                if backoff is not None:
                    growing &= ~backoff
                if np.any(growing):
                    g = np.where(growing)[0]
                    in_ss = cwnd[g] < ssthresh[g]
                    ss_idx = g[in_ss]
                    ca_idx = g[~in_ss]
                    # Slow start: doubling per RTT, continuous form.
                    cwnd[ss_idx] = np.minimum(
                        cwnd[ss_idx] * 2.0 ** (dt / rtt_eff), ssthresh[ss_idx]
                    )
                    if has_delay:
                        # Delay-based CA ramps proportionally to cwnd; the
                        # loss-based controllers keep +1 MSS per RTT.
                        d_sel = is_delay[ca_idx]
                        r_idx = ca_idx[~d_sel]
                        d_idx = ca_idx[d_sel]
                        cwnd[r_idx] = cwnd[r_idx] + dt / rtt_eff
                        cwnd[d_idx] = cwnd[d_idx] + cfg.delay_gain * cwnd[
                            d_idx
                        ] * (dt / rtt_eff)
                    else:
                        # Congestion avoidance: +1 MSS per RTT.
                        cwnd[ca_idx] = cwnd[ca_idx] + dt / rtt_eff
                    np.minimum(cwnd, rwnd_segments, out=cwnd)
            else:
                # Nothing sending: queue drains at line rate.
                queue = max(0.0, queue - cap_t * dt)

            # --- application-layer stall detection / retry / abort ---------
            # Only reachable with an effective fault schedule: the stall
            # clock is the app-level watchdog a real campaign runs, so
            # fault-free simulations never consult it.
            if has_faults:
                stalled = (
                    ((state == _RUNNING) | (state == _TIMEOUT))
                    & (t - last_progress >= cfg.stall_timeout_s)
                )
                if np.any(stalled):
                    stall_time[stalled] += t - last_progress[stalled]
                    exhausted = stalled & (retries >= cfg.max_retries)
                    retry = stalled & ~exhausted
                    # Retry budget exhausted: the application gives up;
                    # the flow ends unfinished (end_s stays nan) and is
                    # recorded as aborted.
                    if np.any(exhausted):
                        state[exhausted] = _DONE
                        aborted[exhausted] = True
                    # Otherwise tear the connection down and reconnect
                    # after an exponential backoff: the new connection
                    # re-enters slow start from scratch.
                    if np.any(retry):
                        retries[retry] += 1
                        backoff = np.minimum(
                            cfg.retry_backoff_s
                            * (2.0 ** (retries[retry] - 1.0)),
                            cfg.retry_backoff_max_s,
                        )
                        rto_until[retry] = t + dt + backoff
                        state[retry] = _TIMEOUT
                        cwnd[retry] = cfg.initial_cwnd_segments
                        ssthresh[retry] = cfg.initial_ssthresh_segments
                        rto_backoff[retry] = 0
                        recovery_until[retry] = 0.0
                        dctcp_alpha[retry] = 0.0
                        rtt_smooth[retry] = 0.0
                        loss_credit[retry] = 0.0
                        # The stall clock restarts when the reconnect
                        # fires, not while the backoff is pending.
                        last_progress[retry] = rto_until[retry]

            t += dt

            # --- utilisation sampling --------------------------------------
            if t - bucket_start >= self.sample_interval_s - 1e-12:
                samples.append(bucket_start, t - bucket_start, bucket_bytes,
                               queue, n_active)
                bucket_bytes = 0.0
                bucket_start = t

        if t - bucket_start > 1e-12:
            samples.append(bucket_start, t - bucket_start, bucket_bytes,
                           queue, int(np.count_nonzero(state == _RUNNING)))

        # Columnar result assembly: the state arrays *are* the flow
        # columns — no per-flow record objects on this path.
        result = SimulationResult.from_columns(
            flow_columns={
                "flow_id": np.arange(n, dtype=np.int64),
                "client_id": np.asarray(self._client, dtype=np.int64),
                "start_s": start,
                "end_s": end,
                "size_bytes": size,
                "bytes_sent": size - remaining,
                "loss_events": loss_events,
                "timeout_events": timeout_events,
                "stall_time_s": stall_time,
                "retries": retries,
                "aborted": aborted,
            },
            sample_columns=samples.columns(),
            capacity_bytes_per_s=cap,
            end_time_s=t,
        )
        self._validate_conservation(result)
        return result

    # ------------------------------------------------------------------
    def _run_multilink(self, max_time_s: float) -> SimulationResult:
        """Routed multi-hop run: delegate to a one-experiment batch.

        There is exactly one multi-link update loop in the codebase
        (:meth:`BatchFluidSimulator._simulate`), so the
        sequential and batched engines agree on routed dynamics by
        construction.  The batch experiment borrows this simulator's
        generator, preserving the sequential engine's RNG semantics
        (repeated ``run()`` calls continue the same stream).
        """
        from .batch import BatchFluidSimulator

        batch = BatchFluidSimulator(
            dt_s=self.dt_s, sample_interval_s=self.sample_interval_s
        )
        e = batch.add_experiment(
            config=self.config,
            links=self._links,
            link_faults=self._link_faults,
        )
        batch._experiments[e].rng = self._rng
        if self.flow_count:
            batch.add_flows(
                e,
                np.asarray(self._start),
                np.asarray(self._size),
                np.asarray(self._client),
                cc=np.asarray(self._cc),
            )
        return batch.run(max_time_s=max_time_s)[e]

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_conservation(result: SimulationResult) -> None:
        """Conservation self-check (see :func:`validate_conservation`)."""
        validate_conservation(result)

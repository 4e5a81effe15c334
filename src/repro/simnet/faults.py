"""Deterministic link-fault schedules for the fluid engines.

A fault schedule is a tuple of :class:`FaultEvent`\\ s, each scaling the
bottleneck capacity to ``capacity_frac`` of nominal over
``[start_s, start_s + duration_s)``.  ``capacity_frac=0`` is a full
outage; fractions in ``(0, 1)`` are brownouts; the link recovers to
nominal capacity the instant an event window closes.  Overlapping
events compose by taking the *most severe* (minimum) factor, so a
brownout containing a nested outage behaves as the outage while it
lasts.

Schedules are plain data — both :class:`~repro.simnet.tcp.FluidTcpSimulator`
and :class:`~repro.simnet.batch.BatchFluidSimulator` evaluate
:func:`capacity_factor` at each step start, so a given schedule yields
bit-identical dynamics in either engine.  A schedule whose every event
is a no-op (zero duration, or ``capacity_frac == 1``) leaves the run
bit-identical to having no schedule at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple, Union

from ..errors import ValidationError

if TYPE_CHECKING:
    from .link import Link

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "brownout_schedule",
    "capacity_factor",
    "coerce_faults",
    "coerce_link_faults",
    "schedule_is_noop",
]


@dataclass(frozen=True)
class FaultEvent:
    """One capacity fault: degrade the link to ``capacity_frac`` of its
    nominal capacity for ``duration_s`` seconds starting at
    ``start_s``."""

    start_s: float
    duration_s: float
    capacity_frac: float = 0.0

    def __post_init__(self) -> None:
        for name in ("start_s", "duration_s", "capacity_frac"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(
                    f"FaultEvent.{name} must be a number, got {value!r}"
                )
            object.__setattr__(self, name, float(value))
        if math.isnan(self.start_s) or math.isinf(self.start_s):
            raise ValidationError(
                f"FaultEvent.start_s must be finite, got {self.start_s!r}"
            )
        if math.isnan(self.duration_s):
            raise ValidationError(
                "FaultEvent.duration_s must not be NaN"
            )
        if self.start_s < 0:
            raise ValidationError(
                f"FaultEvent.start_s must be >= 0, got {self.start_s!r}"
            )
        if self.duration_s < 0:
            raise ValidationError(
                f"FaultEvent.duration_s must be >= 0, got {self.duration_s!r}"
            )
        if not 0.0 <= self.capacity_frac <= 1.0:
            raise ValidationError(
                "FaultEvent.capacity_frac must be in [0, 1] (0 = full "
                f"outage, 1 = no degradation), got {self.capacity_frac!r}"
            )

    @property
    def end_s(self) -> float:
        """First instant after the event (capacity restored)."""
        return self.start_s + self.duration_s

    @property
    def is_noop(self) -> bool:
        """True when the event cannot alter the dynamics."""
        return self.duration_s == 0.0 or self.capacity_frac == 1.0


#: A fault schedule is any sequence of events; engines normalise it to a
#: tuple via :func:`coerce_faults`.
FaultSchedule = Tuple[FaultEvent, ...]


def coerce_faults(
    faults: Union[None, FaultEvent, Iterable[FaultEvent]],
) -> FaultSchedule:
    """Normalise ``faults`` into a validated tuple of events.

    Accepts ``None`` (no faults), a single :class:`FaultEvent`, or any
    iterable of them.  Anything else raises
    :class:`~repro.errors.ValidationError` naming the offender — a
    schedule feeds both engines and the sweep axes, so it must never
    half-coerce.
    """
    if faults is None:
        return ()
    if isinstance(faults, FaultEvent):
        return (faults,)
    try:
        events = tuple(faults)
    except TypeError:
        raise ValidationError(
            "faults must be a FaultEvent or an iterable of FaultEvent, "
            f"got {faults!r}"
        ) from None
    for i, event in enumerate(events):
        if not isinstance(event, FaultEvent):
            raise ValidationError(
                f"faults[{i}] must be a FaultEvent, got {event!r}"
            )
    return events


def coerce_link_faults(
    link_faults: Union[
        None, Sequence[Union[None, FaultEvent, Iterable[FaultEvent]]]
    ],
    n_links: int,
) -> Tuple[FaultSchedule, ...]:
    """Normalise per-link fault schedules into one validated schedule
    per link.

    ``None`` means no faults anywhere; otherwise ``link_faults`` must be
    a sequence with exactly one entry per link (each entry is anything
    :func:`coerce_faults` accepts).  Length mismatches raise
    :class:`~repro.errors.ValidationError` — a short list would silently
    leave trailing links fault-free.
    """
    if n_links < 1:
        raise ValidationError(f"n_links must be >= 1, got {n_links!r}")
    if link_faults is None:
        return tuple(() for _ in range(n_links))
    if isinstance(link_faults, FaultEvent):
        raise ValidationError(
            "link_faults must be one schedule per link, not a bare "
            "FaultEvent; wrap it in a list aligned with the links"
        )
    try:
        entries = tuple(link_faults)
    except TypeError:
        raise ValidationError(
            "link_faults must be a sequence of per-link fault schedules, "
            f"got {link_faults!r}"
        ) from None
    if len(entries) != n_links:
        raise ValidationError(
            f"link_faults has {len(entries)} schedule(s) for {n_links} "
            "link(s); provide exactly one (possibly empty) schedule per link"
        )
    return tuple(coerce_faults(entry) for entry in entries)


def resolve_route(
    link: Optional[Link],
    links: Optional[Iterable[Link]],
    faults: Union[None, FaultEvent, Iterable[FaultEvent]],
    link_faults: Union[
        None, Sequence[Union[None, FaultEvent, Iterable[FaultEvent]]]
    ],
    dt_s: Optional[float],
) -> Tuple[Tuple[Link, ...], Tuple[FaultSchedule, ...], Link, float]:
    """Normalise the two ways both engines accept a path into one route.

    ``link`` + ``faults`` names a single bottleneck and its schedule;
    ``links`` + ``link_faults`` names an ordered route and one schedule
    per link.  Exactly one form must be given.  Returns ``(links,
    link_faults, bottleneck, dt)``: the route (one link for the first
    form), one validated schedule per link, the smallest-capacity link
    (what reports normalise against) and the simulation step — ``dt_s``
    or a quarter of the route's base RTT, never more than that RTT
    because the fluid model is RTT-quantised.
    """
    if (link is None) == (links is None):
        raise ValidationError(
            "pass exactly one of link= (single bottleneck) or "
            "links= (routed multi-hop)"
        )
    if links is not None:
        route = tuple(links)
        if not route:
            raise ValidationError("links must name >= 1 link")
        if faults is not None:
            raise ValidationError(
                "a routed run takes per-link schedules via link_faults=, "
                "not a single faults= schedule"
            )
        per_link = coerce_link_faults(link_faults, len(route))
    else:
        if link_faults is not None:
            raise ValidationError(
                "link_faults= needs links=; a single-link run takes its "
                "schedule via faults="
            )
        route, per_link = (link,), (coerce_faults(faults),)
    bottleneck = min(route, key=lambda l: l.capacity_gbps)
    route_rtt = sum(l.rtt_s for l in route)
    dt = float(dt_s) if dt_s is not None else route_rtt / 4.0
    if dt <= 0:
        raise ValidationError(f"dt_s must be > 0, got {dt!r}")
    if dt > route_rtt:
        raise ValidationError(
            f"dt_s ({dt}) must not exceed the base RTT ({route_rtt}); "
            "the fluid model is RTT-quantised"
        )
    return route, per_link, bottleneck, dt


def schedule_is_noop(faults: Sequence[FaultEvent]) -> bool:
    """True when the schedule cannot alter the dynamics (empty, or every
    event has zero duration / ``capacity_frac == 1``)."""
    return all(event.is_noop for event in faults)


def capacity_factor(faults: Sequence[FaultEvent], t: float) -> float:
    """Multiplicative capacity factor at simulation time ``t``.

    Exactly ``1.0`` outside every event window; the minimum
    ``capacity_frac`` across events whose half-open window
    ``[start_s, end_s)`` contains ``t`` otherwise.
    """
    factor = 1.0
    for event in faults:
        if event.start_s <= t < event.end_s and event.capacity_frac < factor:
            factor = event.capacity_frac
    return factor


def brownout_schedule(
    outage_s: float,
    degrade_frac: float = 0.0,
    start_s: Optional[float] = None,
    duration_s: Optional[float] = None,
) -> FaultSchedule:
    """The canonical single-event schedule used by the sweep axes and
    CLI: degrade the link to ``degrade_frac`` of capacity for
    ``outage_s`` seconds starting at ``start_s``.

    ``outage_s == 0`` returns the empty schedule (no fault), which keeps
    the zero-length axis value an exact no-op.  ``degrade_frac`` keeps
    the CLI meaning: ``0`` (default) is a full outage, values in
    ``(0, 1)`` are brownouts.  ``duration_s`` — the experiment length,
    when known — turns a fault scheduled at or past the end of the run
    into an actionable error instead of a silently inert event.
    """
    if not isinstance(outage_s, (int, float)) or isinstance(outage_s, bool):
        raise ValidationError(
            f"outage_s must be a number, got {outage_s!r}"
        )
    if outage_s < 0:
        raise ValidationError(
            f"outage duration must be >= 0 seconds, got {outage_s!r}"
        )
    if outage_s == 0:
        return ()
    if start_s is None:
        start_s = 0.0
    if not isinstance(start_s, (int, float)) or isinstance(start_s, bool):
        raise ValidationError(
            f"fault start must be a number, got {start_s!r}"
        )
    if start_s < 0:
        raise ValidationError(
            f"fault start must be >= 0 seconds, got {start_s!r}"
        )
    if duration_s is not None and start_s >= duration_s:
        raise ValidationError(
            f"fault starts at {start_s:g} s but the experiment ends at "
            f"{duration_s:g} s; schedule the fault inside the run"
        )
    return (
        FaultEvent(
            start_s=float(start_s),
            duration_s=float(outage_s),
            capacity_frac=float(degrade_frac),
        ),
    )

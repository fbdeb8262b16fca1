"""What the control plane decides, as one stream of events, and its laws.

Every outcome :class:`~repro.cluster.simulator.ControlPlane` books is an
:class:`Event`, handed to :class:`~repro.cluster.metrics.MetricsCollector`
(the default consumer, which folds the stream into the report) and to
any listener attached with ``ControlPlane.listen``.  The kinds, with the
fields each fills (``payload`` in brackets):

* ``arrive`` — a request reached the door, routed to ``worker``
  [the request];
* ``reject`` — the admission policy turned it away [the request];
* ``launch`` — ``worker`` started batch ``launch`` [the batch];
* ``launch-complete`` — launch ``launch`` ended on ``worker`` [True if
  it was served; False on a transient error, or when a crash took the
  worker down under it];
* ``done`` — the request completed [its
  :class:`~repro.cluster.metrics.RequestRecord`];
* ``shed`` / ``fail`` — dropped from a queue or a lane, or lost to
  faults [the request];
* ``retry`` — a transient error sends the request back after a backoff;
  a decode step retries in place and names no request;
* ``requeue`` — a down worker's orphan was routed onto ``worker``;
* ``steal`` — idle ``worker`` took queued requests from a busy peer
  [``(the victim Worker, the requests)``].

``done``, ``reject``, ``shed`` and ``fail`` are *terminal*: each request
has exactly one.  A decode sequence is a request that rides one served
launch per token, so a one-shot request is a sequence with one token.

:func:`check` states the laws every run keeps, once, for every front and
executor: the property suites, the transport smoke and the decode sweep
all call it on the stream they collected.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional

__all__ = [
    "Event",
    "ARRIVE",
    "REJECT",
    "LAUNCH",
    "LAUNCH_COMPLETE",
    "DONE",
    "SHED",
    "FAIL",
    "RETRY",
    "REQUEUE",
    "STEAL",
    "KINDS",
    "TERMINAL",
    "check",
]

ARRIVE, REJECT, LAUNCH, LAUNCH_COMPLETE = "arrive", "reject", "launch", "launch-complete"
DONE, SHED, FAIL = "done", "shed", "fail"
RETRY, REQUEUE, STEAL = "retry", "requeue", "steal"
KINDS = (ARRIVE, REJECT, LAUNCH, LAUNCH_COMPLETE, DONE, SHED, FAIL, RETRY, REQUEUE, STEAL)
TERMINAL = (DONE, REJECT, SHED, FAIL)


class Event(NamedTuple):
    """One decision of the control plane at time ``t`` (see the module
    docstring for what each kind fills)."""

    kind: str
    t: float
    request: Hashable = None  # request id
    worker: Optional[int] = None
    launch: Optional[int] = None
    payload: object = None


def check(events: Iterable[Event], drop_expired: bool = False) -> List[str]:
    """The laws of a drained run; returns the ones ``events`` break.

    * four-way conservation per SLO class, so per run: arrivals ==
      done + reject + shed + fail;
    * every arrival has exactly one terminal outcome, and no event names
      a request after it (a shed or failed lane takes no further step);
    * tokens: a done request rode exactly its target number of served
      launches (``target_tokens``, 1 for a one-shot request), any other
      fewer;
    * with ``drop_expired``, no completed request had expired at dispatch;
    * a steal never moves a request in flight;
    * a launch completes at most once.

    A request id may arrive again once its previous life has ended.
    """
    broken: List[str] = []
    live: Dict[Hashable, object] = {}  # request id -> request, until its terminal event
    served: Counter = Counter()  # request id -> served launches ridden in this life
    launches: Dict[int, List[Hashable]] = {}  # launch id -> member ids, until it ends
    ended = set()  # launch ids that completed
    in_flight: Dict[Hashable, int] = {}  # request id -> the launch holding it
    arrivals: Counter = Counter()  # SLO class -> arrivals
    outcomes: Dict[str, Counter] = {}  # SLO class -> terminal kind -> count

    def named(rid, event) -> None:
        if rid not in live:
            broken.append(f"{event.kind} at t={event.t!r} names request {rid!r}, "
                          "which is not live (never arrived, or already ended)")

    for event in events:
        kind, rid = event.kind, event.request
        if kind == ARRIVE:
            if rid in live:
                broken.append(f"request {rid!r} arrived again while live")
            live[rid], served[rid] = event.payload, 0
            arrivals[event.payload.slo_class] += 1
        elif kind == LAUNCH:
            if event.launch in launches or event.launch in ended:
                broken.append(f"launch {event.launch} started twice")
            members = [r.request_id for r in event.payload.requests]
            for member in members:
                named(member, event)
                in_flight[member] = event.launch
            launches[event.launch] = members
        elif kind == LAUNCH_COMPLETE:
            if event.launch in ended:
                broken.append(f"launch {event.launch} completed twice (t={event.t!r})")
                continue
            ended.add(event.launch)
            for member in launches.pop(event.launch, ()):
                if in_flight.get(member) == event.launch:
                    del in_flight[member]
                if event.payload:
                    named(member, event)
                    served[member] += 1
        elif kind in TERMINAL:
            named(rid, event)
            request = live.pop(rid, None)
            in_flight.pop(rid, None)
            if request is None:
                continue
            bucket = outcomes.setdefault(request.slo_class, Counter())
            bucket[kind] += 1
            target = getattr(request, "target_tokens", 1)
            if (served[rid] == target) != (kind == DONE) or served[rid] > target:
                broken.append(f"request {rid!r} ended {kind} after {served[rid]} served "
                              f"launch(es) of {target}")
            record = event.payload
            if (kind == DONE and drop_expired and record.deadline_s is not None
                    and not record.dispatch_s < record.arrival_s + record.deadline_s):
                broken.append(f"request {rid!r} completed although it had expired "
                              f"at dispatch (t={record.dispatch_s!r})")
        elif kind == STEAL:
            for request in event.payload[1]:
                named(request.request_id, event)
                if request.request_id in in_flight:
                    broken.append(f"steal at t={event.t!r} moved request "
                                  f"{request.request_id!r}, in flight in launch "
                                  f"{in_flight[request.request_id]}")
        elif kind in (RETRY, REQUEUE):
            if rid is not None:
                named(rid, event)
                in_flight.pop(rid, None)
        else:
            broken.append(f"unknown event kind {kind!r}")
    for rid in live:
        broken.append(f"request {rid!r} has no terminal outcome")
    for name in sorted(set(arrivals) | set(outcomes)):
        got = outcomes.get(name, Counter())
        if arrivals[name] != sum(got.values()):
            broken.append(f"class {name!r}: {arrivals[name]} arrived, "
                          f"{dict(got)} ended")
    return broken

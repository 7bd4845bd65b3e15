"""Deterministic fault injection for the streaming service.

The service's fault tolerance is a *demonstrated* property, in the same
spirit as the bit-exactness equivalence suites that gate every perf PR: a
:class:`FaultPlan` scripts exactly which operations fail, and the chaos
suites assert that a retrying client driving a faulty service still
converges to the fault-free factor state.

A plan is a seed plus an ordered list of :class:`FaultRule` s.  Each rule
names a *site* (a place in the service instrumented with an injection
check), optional filters (stream ids, wire ops, write stage), a trigger
(explicit 1-based ``hits`` of that site, or a ``probability`` per hit), a
``limit`` on total fires, and the fault ``kind`` to inject:

=================== =================================================
site                where the check runs
=================== =================================================
``checkpoint.write``inside the atomic checkpoint directory writer, at
                    stages ``begin`` / ``arrays`` / ``manifest`` /
                    ``commit`` (so a fault can leave a partial npz or
                    a missing manifest behind the temp-dir swap)
``apply``           in the stream worker, before a queued chunk is
                    applied to the session
``worker.stall``    in the stream worker, before applying (kind
                    ``delay`` sleeps on the numeric worker thread as
                    the apply begins, tripping the watchdog)
``connection.reset``in the connection handler, per request line; stage
                    ``request`` drops the request before dispatch,
                    stage ``response`` (default) applies the op and
                    then aborts the connection before the ack — the
                    ambiguous "sent but no ack" failure idempotent
                    ingest exists for
``ingest.overload`` in the ingest/advance enqueue path: reject with an
                    ``overloaded`` response even though the queue has
                    room
=================== =================================================

Kinds: ``oserror`` (generic :class:`OSError`), ``enospc``
(:class:`OSError` with ``errno == ENOSPC``), ``exception``
(:class:`~repro.exceptions.InjectedFaultError`), ``delay`` (sleep
``delay`` seconds, then proceed), ``reset`` (abort the connection),
``overload`` (reject with backpressure).

Determinism
-----------
Probabilistic triggers are *reproducible*: the decision for hit ``n`` of
rule ``i`` on stream ``s`` is drawn from ``random.Random`` seeded with the
string ``"<seed>:<i>:<s>:<n>"`` (string seeding hashes with SHA-512, so the
draw is identical across processes and ``PYTHONHASHSEED`` values).  Because
hits are counted per ``(rule, stream)``, the fault schedule of one stream
does not depend on how other streams' requests interleave with it.

Plans round-trip through plain JSON dicts (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`) and load from files for
``repro serve --fault-plan plan.json``.
"""

from __future__ import annotations

import dataclasses
import errno
import fnmatch
import json
import random
import threading
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.exceptions import ConfigurationError, InjectedFaultError
from repro.validation import check_fields, from_dict

#: Instrumented injection sites.
SITES = (
    "checkpoint.write",
    "apply",
    "worker.stall",
    "connection.reset",
    "ingest.overload",
)

#: Fault kinds a rule may inject.
KINDS = ("oserror", "enospc", "exception", "delay", "reset", "overload")

#: Stages of one atomic checkpoint-directory write, in order.
CHECKPOINT_STAGES = ("begin", "arrays", "manifest", "commit")

#: Stages of one request line on a connection.
CONNECTION_STAGES = ("request", "response")

#: Default kind per site when a rule does not name one.
_DEFAULT_KINDS = {
    "checkpoint.write": "enospc",
    "apply": "exception",
    "worker.stall": "delay",
    "connection.reset": "reset",
    "ingest.overload": "overload",
}


@dataclasses.dataclass(frozen=True, slots=True)
class FaultRule:
    """One scripted fault: a site, filters, a trigger, and a fault kind."""

    site: str
    kind: str = ""
    streams: tuple[str, ...] | None = None
    ops: tuple[str, ...] | None = None
    stage: str | None = None
    hits: tuple[int, ...] | None = None
    probability: float = 0.0
    limit: int | None = None
    delay: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; choose one of {SITES}"
            )
        if not self.kind:
            object.__setattr__(self, "kind", _DEFAULT_KINDS[self.site])
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; choose one of {KINDS}"
            )
        if self.stage is None:
            default_stage = {
                "checkpoint.write": "begin",
                "connection.reset": "response",
            }.get(self.site)
            object.__setattr__(self, "stage", default_stage)
        stages = {
            "checkpoint.write": CHECKPOINT_STAGES,
            "connection.reset": CONNECTION_STAGES,
        }.get(self.site)
        if stages is not None and self.stage not in stages:
            raise ConfigurationError(
                f"fault site {self.site!r} has no stage {self.stage!r}; "
                f"choose one of {stages}"
            )
        if self.hits is not None and any(hit < 1 for hit in self.hits):
            raise ConfigurationError(
                f"fault rule hits are 1-based, got {self.hits}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.hits is None and self.probability == 0.0:
            raise ConfigurationError(
                f"fault rule on {self.site!r} never fires: give it explicit "
                "hits or a probability > 0"
            )
        if self.limit is not None and self.limit < 1:
            raise ConfigurationError(
                f"fault limit must be positive, got {self.limit}"
            )
        if self.delay < 0:
            raise ConfigurationError(
                f"fault delay must be >= 0, got {self.delay}"
            )
        if self.kind == "delay" and self.delay == 0.0:
            raise ConfigurationError(
                "a 'delay' fault needs a positive delay"
            )

    def matches(
        self, stream: str | None, op: str | None, stage: str | None
    ) -> bool:
        """True when this rule's filters accept the given context."""
        if self.streams is not None:
            if stream is None or not any(
                fnmatch.fnmatchcase(stream, pattern)
                for pattern in self.streams
            ):
                return False
        if self.ops is not None and (op is None or op not in self.ops):
            return False
        if self.stage is not None and stage is not None and stage != self.stage:
            return False
        return True

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-serialisable representation (defaults omitted)."""
        payload: dict[str, Any] = {"site": self.site, "kind": self.kind}
        if self.streams is not None:
            payload["streams"] = list(self.streams)
        if self.ops is not None:
            payload["ops"] = list(self.ops)
        if self.stage is not None:
            payload["stage"] = self.stage
        if self.hits is not None:
            payload["hits"] = list(self.hits)
        if self.probability:
            payload["probability"] = self.probability
        if self.limit is not None:
            payload["limit"] = self.limit
        if self.delay:
            payload["delay"] = self.delay
        if self.message:
            payload["message"] = self.message
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultRule":
        """Rebuild from :meth:`to_dict` output (or a plan file entry)."""
        return from_dict(cls, payload, "fault rule")


@dataclasses.dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seed plus an ordered list of fault rules."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-serialisable representation."""
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild from :meth:`to_dict` output (or a parsed plan file)."""
        rules = payload.get("rules") if isinstance(payload, Mapping) else None
        if isinstance(rules, (list, tuple)):
            payload = {**payload, "rules": [FaultRule.from_dict(r) for r in rules]}
        return from_dict(cls, payload, "fault plan")

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--fault-plan`` format)."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"fault plan at {path} is unreadable: {error}"
            ) from error
        return cls.from_dict(payload)


@dataclasses.dataclass(frozen=True, slots=True)
class FaultAction:
    """What a fired rule injects at its site."""

    site: str
    kind: str
    stage: str | None
    delay: float
    message: str

    def raise_fault(self) -> None:
        """Raise the exception this action injects (no-op for delays)."""
        if self.kind == "enospc":
            raise OSError(errno.ENOSPC, self.message)
        if self.kind == "oserror":
            raise OSError(self.message)
        if self.kind == "exception":
            raise InjectedFaultError(self.message)


class FaultInjector:
    """Runtime evaluator of a :class:`FaultPlan`.

    Thread-safe: checkpoint writes run on the service's numeric worker
    thread while connection and queue checks run on the event loop, so hit
    counting takes a lock.
    ``check`` counts one hit per *matching* rule per call and returns the
    first rule that fires (or ``None``); counters are inspectable through
    :meth:`report`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        #: hits per (rule index, stream key)
        self._hits: dict[tuple[int, str], int] = {}
        #: fires per rule index
        self._fires: dict[int, int] = {}
        #: fires per site (for telemetry)
        self.fired: dict[str, int] = {site: 0 for site in SITES}

    def check(
        self,
        site: str,
        stream: str | None = None,
        op: str | None = None,
        stage: str | None = None,
    ) -> FaultAction | None:
        """Evaluate ``site`` once; return the first firing rule's action."""
        if site not in SITES:
            raise ConfigurationError(f"unknown fault site {site!r}")
        stream_key = stream if stream is not None else ""
        action: FaultAction | None = None
        with self._lock:
            # Every matching rule observes the event (its hit counter
            # advances) even when an earlier rule already fired — so each
            # rule's schedule is independent of the others in the plan.
            for index, rule in enumerate(self.plan.rules):
                if rule.site != site:
                    continue
                if not rule.matches(stream, op, stage):
                    continue
                key = (index, stream_key)
                hit = self._hits.get(key, 0) + 1
                self._hits[key] = hit
                if rule.limit is not None and self._fires.get(index, 0) >= rule.limit:
                    continue
                if rule.hits is not None:
                    fire = hit in rule.hits
                else:
                    draw = random.Random(
                        f"{self.plan.seed}:{index}:{stream_key}:{hit}"
                    ).random()
                    fire = draw < rule.probability
                if not fire:
                    continue
                self._fires[index] = self._fires.get(index, 0) + 1
                self.fired[site] += 1
                if action is None:
                    message = rule.message or (
                        f"injected {rule.kind} fault at {site}"
                        + (f" (stream {stream!r})" if stream else "")
                    )
                    action = FaultAction(
                        site=site,
                        kind=rule.kind,
                        stage=rule.stage,
                        delay=rule.delay,
                        message=message,
                    )
        return action

    # ------------------------------------------------------------------
    # Site adapters
    # ------------------------------------------------------------------
    def checkpoint_write_hook(self, path: Path, stage: str) -> None:
        """Hook for the atomic checkpoint writer (runs on the numeric worker).

        The stream id is recovered from the directory layout
        (``<root>/<stream>/state`` for run checkpoints, ``<root>/<stream>``
        for metadata-only writes).
        """
        path = Path(path)
        stream = path.parent.name if path.name == "state" else path.name
        action = self.check("checkpoint.write", stream=stream, stage=stage)
        if action is None:
            return
        if action.kind == "delay":
            time.sleep(action.delay)
            return
        action.raise_fault()

    def report(self) -> dict[str, Any]:
        """Counters snapshot: fires per site and per rule."""
        with self._lock:
            return {
                "active": True,
                "seed": self.plan.seed,
                "rules": len(self.plan.rules),
                "fired_by_site": {
                    site: count
                    for site, count in self.fired.items()
                    if count
                },
                "fired_by_rule": [
                    self._fires.get(index, 0)
                    for index in range(len(self.plan.rules))
                ],
            }

"""Multi-tenant streaming decomposition service.

Serves many independent tensor streams at once, each with live SliceNStitch
factor maintenance, over a line-delimited JSON TCP protocol:

* :mod:`repro.service.config` — per-stream and service-wide configuration;
* :mod:`repro.service.session` — the synchronous per-stream state machine
  (buffer → live, exact chunk application, anomaly scoring, durability);
* :mod:`repro.service.manager` — multi-tenancy: admission, lookup, recovery;
* :mod:`repro.service.server` — the asyncio front-end (bounded per-stream
  queues with explicit overload responses, atomic-snapshot queries,
  background checkpoints);
* :mod:`repro.service.client` — a blocking client with optional retries;
* :mod:`repro.service.faults` — deterministic fault injection for chaos
  testing (scripted checkpoint failures, connection resets, stalls);
* :mod:`repro.service.cli` — the ``repro serve`` entry point.

Determinism: each stream's factor and detector state is a pure function of
its config and the sequence of ingest chunks applied, so concurrent
multi-tenant operation is bit-identical to replaying each stream alone.  A
serving process runs BLAS on one thread (:func:`repro.service.cli.main`),
so an in-process replay matches a served stream bit for bit when it also
runs one BLAS thread or its window stays at or below 10,000 non-zeros:
above that, a multi-threaded OpenBLAS splits the fitness dot products
across its threads and sums them in another order.

Importing this package loads no numpy; each name below is imported from
its module on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ServiceConfig": "repro.service.config",
    "StreamConfig": "repro.service.config",
    "FaultInjector": "repro.service.faults",
    "FaultPlan": "repro.service.faults",
    "FaultRule": "repro.service.faults",
    "StreamTelemetry": "repro.service.telemetry",
    "StreamSession": "repro.service.session",
    "ServiceManager": "repro.service.manager",
    "StreamingServer": "repro.service.server",
    "ServiceClient": "repro.service.client",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

"""Decision tracing and instrumentation (zero-dependency).

Designed to cost ~nothing when disabled:

* :mod:`repro.obs.tracer` — nested spans, instants and counters on a
  monotonic clock, behind a process-global tracer that defaults to a
  no-op (:func:`get_tracer` / :func:`set_tracer` / :func:`use_tracer`);
* :mod:`repro.obs.context` — ``trace_id``/``request_id`` propagation:
  one id correlates a request across client, daemon spans, journal and
  logs;
* :mod:`repro.obs.logging` — structured JSON logging with levels,
  per-event rate limiting and trace-id correlation, behind the same
  process-global no-op pattern (:func:`get_logger` et al.);
* :mod:`repro.obs.telemetry` — the bounded per-tick fleet telemetry
  ring behind the ``telemetry`` protocol op and ``repro top``;
* :mod:`repro.obs.slo` — latency/availability objectives with
  multi-window burn rates (``repro_slo_*`` metrics, ``repro slo``);
* :mod:`repro.obs.flight` — the flight recorder: a bounded ring of
  recent request/response tuples dumped via ``dump_debug`` and on
  unhandled daemon errors;
* :mod:`repro.obs.explain` — per-placement explain-traces: the candidate
  set each allocator evaluated, per-candidate feasibility verdicts and
  the Eq.-2/3 cost terms that ranked them;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (for
  ``chrome://tracing`` / Perfetto) and JSONL event logs.

See ``docs/observability.md`` for the full tour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.obs.context import (
        TraceContext as TraceContext,
        new_request_id as new_request_id,
        new_trace_id as new_trace_id,
        trace_context_of as trace_context_of,
    )
    from repro.obs.explain import (
        CandidateVerdict as CandidateVerdict,
        CostTerms as CostTerms,
        ExplainRecorder as ExplainRecorder,
        PlacementExplanation as PlacementExplanation,
        format_decision_table as format_decision_table,
    )
    from repro.obs.export import (
        load_chrome_trace as load_chrome_trace,
        read_jsonl as read_jsonl,
        summarize_chrome_trace as summarize_chrome_trace,
        to_chrome_trace as to_chrome_trace,
        write_chrome_trace as write_chrome_trace,
        write_jsonl as write_jsonl,
    )
    from repro.obs.flight import (
        FlightRecord as FlightRecord,
        FlightRecorder as FlightRecorder,
    )
    from repro.obs.logging import (
        NULL_LOGGER as NULL_LOGGER,
        JsonLogger as JsonLogger,
        NullLogger as NullLogger,
        get_logger as get_logger,
        set_logger as set_logger,
        use_logger as use_logger,
    )
    from repro.obs.slo import SLOConfig as SLOConfig, SLOTracker as SLOTracker
    from repro.obs.telemetry import (
        TelemetryRing as TelemetryRing,
        TelemetrySample as TelemetrySample,
    )
    from repro.obs.tracer import (
        NULL_TRACER as NULL_TRACER,
        NullTracer as NullTracer,
        Span as Span,
        TraceEvent as TraceEvent,
        Tracer as Tracer,
        get_tracer as get_tracer,
        set_tracer as set_tracer,
        use_tracer as use_tracer,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())

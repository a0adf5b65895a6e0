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

# The names as static imports, for type checkers and linters; at run time
# they resolve through ``__getattr__`` below. tests/test_layering.py
# keeps this block, ``_EXPORTS`` and ``__all__`` naming the same homes.
if TYPE_CHECKING:
    from repro.obs.context import (
        TraceContext,
        new_request_id,
        new_trace_id,
        trace_context_of,
    )
    from repro.obs.explain import (
        CandidateVerdict,
        CostTerms,
        ExplainRecorder,
        PlacementExplanation,
        format_decision_table,
    )
    from repro.obs.export import (
        load_chrome_trace,
        read_jsonl,
        summarize_chrome_trace,
        to_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.obs.flight import (
        FlightRecord,
        FlightRecorder,
    )
    from repro.obs.logging import (
        NULL_LOGGER,
        JsonLogger,
        NullLogger,
        get_logger,
        set_logger,
        use_logger,
    )
    from repro.obs.slo import (
        SLOConfig,
        SLOTracker,
    )
    from repro.obs.telemetry import (
        TelemetryRing,
        TelemetrySample,
    )
    from repro.obs.tracer import (
        NULL_TRACER,
        NullTracer,
        Span,
        TraceEvent,
        Tracer,
        get_tracer,
        set_tracer,
        use_tracer,
    )

#: Home module of every name, imported on first access.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.obs.context": (
        "TraceContext", "new_request_id", "new_trace_id", "trace_context_of",
    ),
    "repro.obs.explain": (
        "CandidateVerdict", "CostTerms", "ExplainRecorder",
        "PlacementExplanation", "format_decision_table",
    ),
    "repro.obs.export": (
        "load_chrome_trace", "read_jsonl", "summarize_chrome_trace",
        "to_chrome_trace", "write_chrome_trace", "write_jsonl",
    ),
    "repro.obs.flight": ("FlightRecord", "FlightRecorder"),
    "repro.obs.logging": (
        "NULL_LOGGER", "JsonLogger", "NullLogger", "get_logger", "set_logger",
        "use_logger",
    ),
    "repro.obs.slo": ("SLOConfig", "SLOTracker"),
    "repro.obs.telemetry": ("TelemetryRing", "TelemetrySample"),
    "repro.obs.tracer": (
        "NULL_TRACER", "NullTracer", "Span", "TraceEvent", "Tracer",
        "get_tracer", "set_tracer", "use_tracer",
    ),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "CandidateVerdict",
    "CostTerms",
    "ExplainRecorder",
    "PlacementExplanation",
    "format_decision_table",
    "load_chrome_trace",
    "read_jsonl",
    "summarize_chrome_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "TraceContext",
    "new_trace_id",
    "new_request_id",
    "trace_context_of",
    "NULL_LOGGER",
    "JsonLogger",
    "NullLogger",
    "get_logger",
    "set_logger",
    "use_logger",
    "TelemetryRing",
    "TelemetrySample",
    "SLOConfig",
    "SLOTracker",
    "FlightRecord",
    "FlightRecorder",
]

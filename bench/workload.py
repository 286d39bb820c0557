"""Behaviour shared by the workloads whose ops run inside the worker process."""

from __future__ import annotations

import resource


class InProcessWorkload:
    """Ops are plain calls into fracdamp; the tracer wraps them in this process."""

    spawns_children = False  # ops are timed against the pure-Python kernel (worker.measure)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def start_trace(self, tracer) -> None:
        tracer.install()

    def stop_trace(self, tracer) -> None:
        tracer.uninstall()

    def outside_spans_s(self) -> dict:
        """Traced op time outside the wrapped functions' spans that is still
        accounted for, by label: none, the ops are calls into wrapped functions."""
        return {}

"""Per-layer tracing from outside the package.

Wraps each layer's public entry points under the names their callers look
them up by, so nothing inside src/ changes. Every wrapped call adds to its
layer's count and busy time; self time is busy time minus the time of the
traced calls it made. Calls made once or a few times per run (parse, run,
build, emit, evolve) are also kept as spans, with the growth of the
process's max RSS across them. Per-round calls (steps, draws, pulls) are
only counted: a span for each would grow memory with the run and distort
the RSS figures the trace reports.
"""

from __future__ import annotations

import resource
import time

_ns = time.perf_counter_ns


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, busy ns, ns spent in traced callees, max-RSS growth MB]
        self.stats: dict[str, list] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # per open call: [ns in traced callees, span id or None]
        self.block_draws = 0  # draws taken through uniforms(count)

    def _record(self, name: str, busy: int, child: int) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0, 0.0]
        entry[0] += 1
        entry[1] += busy
        entry[2] += child
        if self._stack:
            self._stack[-1][0] += busy

    def counted(self, name: str, fn):
        """Wrap a per-round call: count and time it, keep no span."""
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            frame = [0, None]
            stack.append(frame)
            start = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = _ns() - start
                stack.pop()
                record(name, busy, frame[0])

        return wrapper

    def spanned(self, name: str, fn):
        """Wrap a coarse call: count, time, keep a span and the RSS growth across it."""

        def wrapper(*args, **kwargs):
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            span_id = len(self.spans)
            frame = [0, span_id]
            self.spans.append({"id": span_id, "name": name, "parent": parent})
            rss_before = _max_rss_mb()
            self._stack.append(frame)
            start = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _ns()
                self._stack.pop()
                self._record(name, end - start, frame[0])
                self.stats[name][3] += _max_rss_mb() - rss_before
                self.spans[span_id].update(start_ns=start, end_ns=end)

        return wrapper

    @staticmethod
    def patch(owner, attr: str, wrapper_factory, name: str) -> None:
        setattr(owner, attr, wrapper_factory(name, getattr(owner, attr)))

    def install(self) -> None:
        """Patch every traced entry point as its calling module sees it."""
        from qubit_bandit import bandit, cli, harness, oracle, policies, quantum

        for attr in ("parse_args", "build_recordset", "emit"):
            self.patch(cli, attr, self.spanned, f"cli.{attr}")
        self.patch(cli, "run_experiment", self.spanned, "harness.run_experiment")
        self.patch(harness, "run_experiment", self.spanned, "harness.run_experiment")
        for attr in ("single_agent_step", "coop_pair_step", "ghz_step"):
            self.patch(harness, attr, self.counted, "policies.step")
        self.patch(harness, "drift_step", self.counted, "bandit.drift_step")
        self.patch(policies, "pull", self.counted, "bandit.pull")
        self.patch(bandit, "pull", self.counted, "bandit.pull")
        self.patch(oracle, "evolve_distribution", self.spanned, "oracle.evolve_distribution")

        base = quantum.RandomStream
        traced_uniforms = self.counted("quantum.uniforms", base.uniforms)
        tracer = self

        class TracedStream(base):
            """RandomStream whose construction and draws are counted."""

            __init__ = self.counted("quantum.stream_new", base.__init__)
            uniform = self.counted("quantum.uniform", base.uniform)

            def uniforms(self, count):
                tracer.block_draws += count
                return traced_uniforms(self, count)

        harness.RandomStream = TracedStream

    def report(self) -> dict:
        return {"stats": self.stats, "block_draws": self.block_draws, "spans": self.spans}

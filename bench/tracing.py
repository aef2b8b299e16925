"""Spans and counters recorded around relqprot's layer boundaries.

The tracer wraps the module-level name bindings that relqprot's own code
looks up at call time (``relqprot.experiment.run_bit_commitment``,
``relqprot.protocol.sample_secret``, ``Waveform.ppf`` and so on), so the
package itself is never edited.  Each wrapped call appends one span (name,
start, end, parent) to flat arrays kept in memory; self time is computed
once, after the run, as span time minus the time of its child spans.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from relqprot import experiment, parity, protocol, wavepacket


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._bindings = self._build_bindings()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, after=None):
        """Return ``fn`` wrapped in a span; ``name`` may depend on the arguments."""
        fixed_id = self._id(name) if isinstance(name, str) else None
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(fixed_id if fixed_id is not None else self._id(name(args)))
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(index)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _build_bindings(self):
        counts = self.counts

        def ppf_name(args):
            return "ppf_compact" if args[0].is_compact else "ppf_gaussian"

        def ppf_after(args, result):
            counts[ppf_name(args) + ".draws"] += int(np.size(args[1]))

        def run_after(args, result):
            counts["runs"] += 1
            counts["events"] += len(result.transcript.events)
            counts["accepted"] += bool(result.verdict.accepted)

        def sweep_run_after(args, result):
            counts["sweep_protocol_calls"] += 1
            run_after(args, result)

        def jsonl_after(args, result):
            counts["transcript_to_jsonl.bytes"] += len(result.encode("utf-8"))

        plan = [
            (wavepacket.Waveform, "ppf", ppf_name, ppf_after),
            (wavepacket, "delayed_overlap", "delayed_overlap", None),
            (protocol, "delayed_overlap", "delayed_overlap", None),
            (protocol, "sample_secret", "sample_secret", None),
            (protocol, "exact_parity_guesser", "exact_parity_guesser", None),
            (experiment, "exact_parity_guesser", "exact_parity_guesser", None),
            (parity, "count_block_strings_closed", "count_block_strings_closed", None),
            (protocol, "run_bit_commitment", "run_bit_commitment", run_after),
            (experiment, "run_bit_commitment", "run_bit_commitment", sweep_run_after),
            (protocol, "run_coin_toss", "run_coin_toss", run_after),
            (experiment, "run_coin_toss", "run_coin_toss", sweep_run_after),
            (protocol, "audit_transcript", "audit_transcript", None),
            (protocol, "transcript_to_jsonl", "transcript_to_jsonl", jsonl_after),
            (protocol, "mirror_guess_acceptance", "mirror_guess_acceptance", None),
            (experiment, "mirror_guess_acceptance", "mirror_guess_acceptance", None),
            (experiment, "run_experiment", "run_experiment", None),
        ]
        bindings = []
        for owner, attr, name, after in plan:
            original = owner.__dict__[attr]
            bindings.append((owner, attr, original, self.wrap(original, name, after)))
        return bindings

    @contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)

    def layer_totals(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self time per span name over every recorded span."""
        n = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += durations[i] - child_time[i]
        return calls, self_s

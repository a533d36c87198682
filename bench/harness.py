"""Timing rounds, spans and summary statistics shared by every workload.

A *round* is one pass over a workload's operations. Each operation is one
call into a public function of the package, or one ``mcca`` command run as
a child process, timed with ``time.perf_counter`` after a ``gc.collect()``
that is not timed. A run makes one untimed warm-up round and then timed
rounds until its time budget is spent; every figure it reports is a median
over those rounds.
"""

import gc
import statistics
import time


class Tracer:
    """Spans kept in memory until the run writes them out.

    Each span is a dict with ``id``, ``name``, ``parent`` (a span id or
    None), ``start`` and ``end`` (seconds since the tracer was made) and the
    keyword attributes given when it was recorded.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []

    def record(self, name, start, end, parent=None, **attrs):
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "parent": parent,
                "start": start - self.origin,
                "end": end - self.origin,
                **attrs,
            }
        )
        return len(self.spans) - 1


class Recorder:
    """Times the operations of one round.

    ``times`` maps an operation key (``name``, or ``name:arg`` when an
    ``arg`` tells calls of one function apart) to its total duration in the
    round, and ``calls`` to its number of calls. Operations marked
    ``probe`` exist only to expose a layer inside another call; they are
    skipped unless ``probes`` is true and kept out of :attr:`total`. With a
    tracer, each operation also becomes a span under the round's span.
    """

    def __init__(self, tracer=None, probes=False, label="round"):
        self.tracer = tracer
        self.probes = probes
        self.label = label
        self.times = {}
        self.calls = {}
        self.probe_keys = set()
        self.attempted = 0
        self.failed = 0
        self.started = time.perf_counter()
        self.span = None
        if tracer is not None:
            self.span = tracer.record(label, self.started, self.started)

    def step(self, name, fn, *args, arg=None, probe=False, collect=True, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed operation; return its result.

        ``collect=False`` skips the garbage collection before the call, for
        the second and later calls of a run of short calls in a row.
        """
        if collect:
            gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        end = time.perf_counter()
        key = name if arg is None else f"{name}:{arg}"
        self.times[key] = self.times.get(key, 0.0) + (end - start)
        self.calls[key] = self.calls.get(key, 0) + 1
        if probe:
            self.probe_keys.add(key)
        if self.tracer is not None:
            self.tracer.record(name, start, end, parent=self.span, arg=arg)
        return result

    def finish(self):
        if self.tracer is not None:
            self.tracer.spans[self.span]["end"] = time.perf_counter() - self.tracer.origin
        return self

    @property
    def total(self):
        """Summed duration of the round's operations, probes excluded."""
        return sum(t for k, t in self.times.items() if k not in self.probe_keys)


class Budget:
    """Runs the rounds of one benchmark run and counts their operations."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0

    def run(self, warmup, variants, min_cycles):
        """One untimed warm-up round, then timed cycles over ``variants``.

        ``warmup`` and every variant are ``(round_fn, make_recorder)``
        pairs; a cycle runs each variant once. Cycles start while
        less than ``seconds`` has passed since the first began, and at least
        ``min_cycles`` are made. Returns one list of recorders per
        variant. An operation that raises is counted as failed and ends the
        rounds of this run.
        """
        samples = [[] for _ in variants]
        if self._one(*warmup) is None:
            return samples
        start = time.perf_counter()
        cycle = 0
        while cycle < min_cycles or time.perf_counter() - start < self.seconds:
            pairs = list(zip(variants, samples))
            # every other cycle runs the variants in reverse, so no variant
            # always follows the same one
            for variant, out in pairs if cycle % 2 == 0 else reversed(pairs):
                rec = self._one(*variant)
                if rec is None:
                    return samples
                out.append(rec)
            cycle += 1
        return samples

    def _one(self, round_fn, make_recorder):
        rec = make_recorder()
        ok = True
        try:
            round_fn(rec)
        except Exception as exc:
            if not rec.failed:  # raised by the benchmark's own code
                raise
            print(f"operation failed: {type(exc).__name__}: {exc}", flush=True)
            ok = False
        rec.finish()
        self.attempted += rec.attempted
        self.failed += rec.failed
        return rec if ok else None


def median(values):
    return float(statistics.median(values))


def round_median(recorders, *keys):
    """Median over rounds of the summed durations of ``keys`` in each round."""
    return median([sum(rec.times[k] for k in keys) for rec in recorders])


def call_median(recorders, *keys):
    """Median over rounds of the summed mean durations of one call of each key."""
    return median([sum(rec.times[k] / rec.calls[k] for k in keys) for rec in recorders])

"""Lap timing: split each timed unit of work at fixed program points.

On a shared host the core this process runs on alternates, every 20 to 400
ms, between running at full speed and running a third or more slower while
a neighbour uses it. A unit of work that takes seconds always spans both
states, in a proportion that drifts over minutes, so even its fastest
repeat over a run moves with that proportion. A piece of work much shorter
than the fast stretches runs entirely at full speed in some of its repeats.

So the clock marks the entry and the exit of the calls listed in
``POINTS`` and the points the benchmark marks itself. The marks cut a unit
into laps; the program is deterministic for given inputs, so the k-th lap of
a unit is the same piece of work in every round of a run. ``best`` times a
unit as the sum, over its laps, of each lap's fastest repeat. A unit whose
laps do not line up across rounds falls back to its fastest whole repeat.

The clock wraps functions in the namespace where their caller looks them
up, as the tracer does, and records one timestamp per mark, about a
microsecond each; an operation has a few hundred marks.

Between units, and before the laps that stay long, ``CpuPicker`` moves the
process to a CPU that runs at full speed at that moment, untimed.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import os
import time

from spans import UNTIMED_SPAN

# (module where the caller looks the name up, attribute path). Calls of these
# functions in set-up or outside a unit leave no mark.
POINTS = [
    # backbone and training: the autodiff operations that take the time
    ("soundloc.autodiff", "matmul"),
    ("soundloc.autodiff", "softmax_lastdim"),
    ("soundloc.autodiff", "gelu"),
    ("soundloc.autodiff", "backward"),
    ("soundloc.train", "forward_video"),
    ("soundloc.train", "loss_sums"),
    ("soundloc.train", "save_checkpoint"),
    ("soundloc.train", "AdamW.step"),
    ("soundloc.params", "collect_grads"),
    ("soundloc.params", "clip_by_global_norm"),
    # decode: soft_nms sorts each (video, class) group as it starts on it,
    # so a mark at every sort in decode's namespace cuts it into groups
    ("soundloc.model", "recover_intervals"),
    ("soundloc.model", "soft_nms"),
    ("soundloc.model", "select_top_k"),
    ("soundloc.decode", "sorted"),
    # eval command: load_predictions parses with json.load, then validates
    # video by video, starting each video's detections with enumerate
    ("soundloc.data", "load_predictions"),
    ("json", "load"),
    ("soundloc.data", "enumerate"),
    ("soundloc.evaluate", "average_precision"),
]

# Calls around laps too long to run free of a neighbour's stretches of load
# (one soft_nms group, up to a second; parsing 10^5 detections): the clock
# moves to a free CPU, untimed, at both their marks.
SETTLE_POINTS = {("soundloc.decode", "sorted"), ("json", "load")}

_MISSING = object()


class LapClock:
    """Marks laps inside units of work; one clock per measured run.

    The clock moves to a free CPU, untimed, at the marks of
    ``SETTLE_POINTS`` and at ``settle``; in a traced run that time is an
    ``untimed`` span, which the tracer leaves out of every layer's time.
    """

    def __init__(self, picker: CpuPicker, tracer):
        self.laps: list[float] | None = None   # None outside a unit
        self._lap_start = 0.0
        self.picker = picker
        self._tracer = tracer
        self._patched = []

    def mark(self) -> None:
        """End the current lap and start the next one."""
        if self.laps is not None:
            now = time.perf_counter()
            self.laps.append(now - self._lap_start)
            self._lap_start = now

    def start(self) -> None:
        self.laps = []
        self._lap_start = time.perf_counter()

    def stop(self) -> list[float]:
        """End the unit; its lap durations in seconds, in order."""
        self.mark()
        laps, self.laps = self.laps, None
        return laps

    def settle(self, wait_s: float | None = None) -> None:
        """End the current lap and start the next one on a free CPU."""
        if self.laps is None:
            return
        self.mark()
        with self._tracer.span(UNTIMED_SPAN):
            self.picker.settle(wait_s)
        self._lap_start = time.perf_counter()

    def _wrap(self, fn, settle: bool):
        mark = self.settle if settle else self.mark

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            mark()
            try:
                return fn(*args, **kwargs)
            finally:
                mark()
        return marked

    def install(self) -> None:
        for module_name, attr in POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(leaf, _MISSING)
            fn = getattr(builtins, leaf) if original is _MISSING else original
            self._patched.append((owner, leaf, original))
            settle = (module_name, attr) in SETTLE_POINTS
            setattr(owner, leaf, self._wrap(fn, settle))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)
        self._patched.clear()


def best(repeats: list[list[float]]) -> float:
    """A unit's time from its repeats: the sum of its laps' fastest repeats."""
    if len({len(laps) for laps in repeats}) == 1:
        return sum(min(lap) for lap in zip(*repeats))
    return min(sum(laps) for laps in repeats)


class CpuPicker:
    """Moves the process, between laps, to a CPU that runs at full speed now.

    A neighbour's load comes and goes on each CPU separately: it slows a CPU
    in stretches of 20 to 400 ms, and for tens of seconds at a time a CPU
    can be slowed most of the time while another runs mostly free. Before a
    unit, a set-up or a lap in ``SETTLE_POINTS``, the picker times a
    pure-Python probe of about a millisecond on every CPU. It counts a probe
    as fast within ``FAST`` of the fastest probe seen in the run, keeps for
    each CPU a moving share of fast probes, and moves to the CPU that is
    fast now with the higher share. When none is fast it probes again, for
    up to ``WAIT_S`` or the wait it is given. Probing happens outside every
    timed lap.
    """

    PROBE_ITERATIONS = 8000
    FAST = 1.25
    WAIT_S = 0.2
    MEMORY = 0.8   # weight of the past in each CPU's share of fast probes

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self.fastest = float("inf")
        self.share = dict.fromkeys(self.cpus, 0.5)
        self.stats = {"settles": 0, "timeouts": 0, "seconds": 0.0}

    def _probe(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.PROBE_ITERATIONS):
            acc += i * i
        return time.perf_counter() - t0

    def settle(self, wait_s: float | None = None) -> None:
        t0 = time.perf_counter()
        self.stats["settles"] += 1
        try:
            self._settle(t0 + (self.WAIT_S if wait_s is None else wait_s))
        finally:
            self.stats["seconds"] += time.perf_counter() - t0

    def _settle(self, deadline: float) -> None:
        while True:
            fast_now = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                seconds = self._probe()
                self.fastest = min(self.fastest, seconds)
                fast = seconds <= self.FAST * self.fastest
                self.share[cpu] = (self.MEMORY * self.share[cpu]
                                   + (1.0 - self.MEMORY) * fast)
                if fast:
                    fast_now.append(cpu)
            timeout = time.perf_counter() > deadline
            if fast_now or timeout:
                self.stats["timeouts"] += not fast_now
                cpu = max(fast_now or self.cpus, key=self.share.__getitem__)
                os.sched_setaffinity(0, {cpu})
                return


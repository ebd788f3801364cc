"""A clock that stops while the shared host runs slow.

On a virtual machine whose physical cores are shared, the same code runs
up to twice as slow for stretches of a few seconds while other tenants are
busy, and both of this machine's CPUs slow down together.  Medians over
repeats cannot hide that when a whole run falls into a slow stretch.

``HostGate`` times a small fixed reference loop (a probe) from a SIGALRM
handler every ``PERIOD_S`` seconds.  When a probe takes more than ``SLACK``
times the fast level (a low percentile of recent probes), the handler
sleeps and probes again until the level is back, so the measured code
does not run while the host is slow.  ``clock()`` is ``perf_counter()``
minus the time spent in the handler, so pauses and probes stay out of
every timing.  The fast level follows recent probes, so a host that stays
slow for long is accepted as the new level after a few seconds instead of
stalling the run.  The recent probes are kept in ``history`` between runs,
so that a run which starts in a slow stretch still knows the fast level.
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import numpy as np


PERIOD_S = 0.05   # between probes
SLACK = 1.2       # a probe slower than SLACK x the fast level means the host is slow
WINDOW = 400      # recent probes the fast level (their 10th percentile) is taken from
WAIT_CAP_S = 2.0  # longest single hold


class HostGate:
    def __init__(self, history: Path):
        self.history = history
        self.probes: list[float] = []
        if history.exists():
            self.probes = json.loads(history.read_text(encoding="utf-8"))[-WINDOW:]
        self.level = 0.0
        self.paused = 0.0
        self.waits = 0
        self._busy = False
        self._matrix = np.arange(400.0).reshape(20, 20) / 400

    def _probe(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(12000):
            total += i * i
        for _ in range(80):
            self._matrix @ self._matrix
        seconds = time.perf_counter() - started
        self.probes.append(seconds)
        if len(self.probes) % 16 == 0:
            self.level = float(np.percentile(self.probes[-WINDOW:], 10))
        return seconds

    def _on_alarm(self, *_):
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        seconds = self._probe()
        if seconds > self.level * SLACK:
            self.waits += 1
            while seconds > self.level * SLACK and time.perf_counter() - started < WAIT_CAP_S:
                time.sleep(0.01)
                seconds = self._probe()
        self.paused += time.perf_counter() - started
        self._busy = False

    def clock(self) -> float:
        while True:  # retry if the handler ran between the two reads
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def __enter__(self) -> "HostGate":
        for _ in range(64):
            self._probe()
            time.sleep(0.005)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.history.write_text(json.dumps(self.probes[-WINDOW:]), encoding="utf-8")
        return False

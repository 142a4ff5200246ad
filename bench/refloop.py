"""Host-speed reference: a fixed pure-Python loop that shares no code with
braidgamma, timed inside the same process as the operation it corrects.

The host this benchmark was tuned on switches between a fast and a slow state
(about 1.8x apart) every 50 to 500 ms, so a loop timed only before and after
an operation of a second or more misses most of the switches.  `Sampler`
therefore times one short pass of the loop before the operation, one after
it, and one every `PERIOD_S` while it runs (from a SIGALRM handler), and
reports

    raw       wall time of the operation minus the time spent in the probes;
    factor    NOMINAL_S x mean(1 / probe duration), the host speed relative
              to the nominal one, averaged evenly over the operation;
    raw * factor, the operation's time on a host that runs one probe in
              exactly NOMINAL_S seconds.

The loop mixes the kinds of work the program does: exact `Fraction`
arithmetic (geometry), small-int bit work (GF(2) vectors) and tuple/dict
traffic (words and letters).
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Nominal duration of one probe pass.  It only fixes the unit of corrected
# times; it must never change, or corrected times from before and after the
# change stop being comparable.
NOMINAL_S = 0.0002
PROBE_ROUNDS = 12
PERIOD_S = 0.005


def _body(rounds: int) -> int:
    acc = 0
    table: dict[tuple[int, int], int] = {}
    bits = 0
    for k in range(1, rounds + 1):
        a = Fraction(k % 97 + 1, k % 89 + 2)
        b = Fraction(k % 53 + 3, k % 61 + 1)
        c = (a * b - a / b + a) * (b - a)
        acc ^= c.numerator & 0xFFFF
        key = (k & 255, k % 7)
        table[key] = table.get(key, 0) + c.denominator % 13
        bits ^= 1 << (k * 7 % 211)
        word = tuple((k + j) % 11 for j in range(8))
        acc += len(set(word)) + (bits >> (k % 200) & 1)
    return acc + len(table)


class Window:
    """Timing of one operation: raw seconds, speed factor, probe count."""

    __slots__ = ("raw", "factor", "probes")

    def __init__(self, raw: float, factor: float, probes: int):
        self.raw = raw
        self.factor = factor
        self.probes = probes

    def as_dict(self) -> dict:
        return {"raw": self.raw, "factor": self.factor, "probes": self.probes}


class Sampler:
    """Times operations with the probe running beside them (see module doc).

    `spent` grows by the time every probe takes, so `clock()` is a
    perf_counter from which probe time is removed; spans recorded with it do
    not charge probe time to the layer that happened to be running.
    """

    def __init__(self):
        self.spent = 0.0
        self._samples: list[float] = []
        for _ in range(4):  # let the interpreter specialise the loop first
            _body(PROBE_ROUNDS)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _body(PROBE_ROUNDS)
        t1 = time.perf_counter()
        self._samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def run(self, fn, *args):
        """Call fn(*args) with the probe sampling; return (result, Window)."""
        self._samples = []
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        spent0 = self.spent
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        raw = (t1 - t0) - (self.spent - spent0)
        self._probe()
        speed = sum(NOMINAL_S / s for s in self._samples) / len(self._samples)
        return result, Window(raw, speed, len(self._samples))

"""Calibrated host time: wall time rescaled to a fixed reference speed.

The speed of a shared virtual machine drifts by about 15% over tens of
seconds (and by far more when neighbours are busy), so raw wall time of
identical work does not repeat.  A fixed *calibration slice* -- a short
burst of Python work shaped like the simulator's own (numpy scalar
updates, dict updates, reads of scattered objects), on data windows that
rotate so that each slice misses the L2 cache whatever the program did
before it -- is run from an interval timer all through set-up and the
measured phase.
Each stretch of program time between two slices is rescaled by the
local speed the slices around it saw::

    calibrated = sum(gap_i * REFERENCE_SLICE_NS / local_slice_ns_i)

so one calibrated second is the host time in which the machine runs
the slice ``1e9 / REFERENCE_SLICE_NS`` times.  The slices' own time is
left out of every figure.  The slice is benchmark code and imports
nothing from the simulator.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
import time
from array import array

import numpy as np

#: loop rounds of one calibration slice.
SLICE_ROUNDS = 120
#: reference duration of one slice: the unit calibrated time is scaled
#: to (the 10th percentile of its time on a 2-vCPU x86-64 VM under
#: Python 3.11).
REFERENCE_SLICE_NS = 140_000
#: interval-timer period between slices (slices take 15-35% of run time).
TIMER_PERIOD_S = 0.0008
#: slices on each side of a gap whose median gives the gap's local speed.
LOCAL_WINDOW = 4
#: array elements one slice works on, and the number of such windows
#: each array is split into (8 MiB of counts, 4 MiB of bits).
COUNT_WINDOW = 4096
BIT_WINDOW = 16384
WINDOWS = 256
#: int objects the slices read, spread over about 6 MiB; a slice reads
#: SLICE_ROUNDS consecutive list slots of its window, so the reads cycle
#: through WINDOWS * SLICE_ROUNDS slots (about 2 MiB of cache lines).
SCATTERED = 200_000


class SliceState:
    """The slice's working set: numpy scalar updates and reads of int
    objects scattered over several MiB, so the slice feels memory
    contention the way the simulator does.

    Each call works on the next of WINDOWS windows of every array, and
    a window comes round again only after the other windows have been
    used: about 6.5 MiB of the slice's own traffic, over three times a
    core's 2 MiB L2 cache.  So every slice misses L2 on its own, whatever
    the simulator did in the gap before it, and the program's own cache
    use barely changes the slice's speed.
    """

    def __init__(self) -> None:
        self.counts = np.zeros(COUNT_WINDOW * WINDOWS, dtype=np.int64)
        self.bits = np.zeros(BIT_WINDOW * WINDOWS, dtype=bool)
        # int objects allocated in order, listed in a fixed shuffled order:
        # reading consecutive list slots touches scattered objects.
        values = [8 * i + 3 for i in range(SCATTERED)]
        order = np.random.default_rng(0).permutation(SCATTERED)
        self.scattered = [values[i] for i in order]
        self.window = 0

    def next_window(self) -> int:
        window = self.window
        self.window = (window + 1) % WINDOWS
        return window


def calibration_slice(state: SliceState, rounds: int = SLICE_ROUNDS) -> int:
    """A fixed burst of interpreter work; returns a checksum that is the
    same on every call (checked, so the slice cannot silently change)."""
    counts, bits, scattered = state.counts, state.bits, state.scattered
    window = state.next_window()
    count_base = window * COUNT_WINDOW
    bit_base = window * BIT_WINDOW
    read_base = window * rounds
    table: dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) & (COUNT_WINDOW - 1)
        counts[count_base + key] += 1
        bits[bit_base + key] = not bits[bit_base + ((key * 7) & (BIT_WINDOW - 1))]
        acc += scattered[read_base + i] & 7
        table[key] = table.get(key, 0) + int(counts[count_base + key] > 0)
    return acc * 4096 + len(table)


class Calibrator:
    """Runs calibration slices from ``SIGALRM`` and converts wall-clock
    intervals into calibrated seconds.  ``starts``/``ends`` hold every
    slice's interval (``perf_counter_ns``)."""

    def __init__(self) -> None:
        self.starts = array("q")
        self.ends = array("q")
        self.state = SliceState()
        self.checksum = calibration_slice(self.state)
        self.bad_checksums = 0
        self._in_slice = False

    # -- slices -----------------------------------------------------------

    def run_slice(self) -> int:
        """Run one slice now; returns its end time (ns)."""
        self._in_slice = True
        t0 = time.perf_counter_ns()
        if calibration_slice(self.state) != self.checksum:
            self.bad_checksums += 1
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t1)
        self._in_slice = False
        return t1

    def _on_alarm(self, signum, frame) -> None:
        # A late alarm can arrive while a slice runs; slices never nest.
        if not self._in_slice:
            self.run_slice()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TIMER_PERIOD_S, TIMER_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # -- regions ----------------------------------------------------------

    def begin(self) -> int:
        """Open a timed region: a slice runs first, so the region's first
        gap has a measured speed on its left."""
        return self.run_slice()

    def end(self, began: int) -> "Interval":
        """Close the region opened by :meth:`begin` at *began*."""
        self.run_slice()
        # copies: the timer may append while this runs.
        starts = np.array(self.starts, dtype=np.int64)
        ends = np.array(self.ends, dtype=np.int64)[:starts.size]
        first = int(np.searchsorted(ends, began))  # the opening slice
        s0 = starts[first:].astype(np.float64)
        s1 = ends[first:].astype(np.float64)
        durations = s1 - s0
        gaps = s0[1:] - s1[:-1]
        local = _local_median(durations, LOCAL_WINDOW)
        # a gap's speed: the mean of the local speeds of its two slices.
        speed = 0.5 * (local[:-1] + local[1:])
        calibrated_ns = float(np.sum(gaps * (REFERENCE_SLICE_NS / speed)))
        return Interval(
            wall_s=float(s0[-1] - s1[0]) / 1e9,
            work_s=float(gaps.sum()) / 1e9,
            calibrated_s=calibrated_ns / 1e9,
        )

    def summary(self) -> dict:
        starts = np.array(self.starts, dtype=np.int64)
        durations = np.array(self.ends, dtype=np.int64)[:starts.size] - starts
        return {
            "reference_slice_ns": REFERENCE_SLICE_NS,
            "mean_slice_ns": round(float(durations.mean()), 1),
            "median_slice_ns": round(float(np.median(durations)), 1),
            "slices": int(durations.size),
            "bad_checksums": self.bad_checksums,
        }


@dataclass(frozen=True)
class Interval:
    """One timed region: raw wall time, the part left after removing the
    calibration slices, and that part in calibrated seconds."""

    wall_s: float
    work_s: float
    calibrated_s: float

    @property
    def calibration_share(self) -> float:
        return 1.0 - self.work_s / self.wall_s if self.wall_s > 0 else 0.0


def _local_median(values: np.ndarray, half: int) -> np.ndarray:
    """Median of each value's neighbourhood of *half* values per side."""
    n = values.size
    if n <= 2 * half + 1:
        return np.full(n, float(np.median(values)))
    padded = np.concatenate([np.full(half, values[:half].mean()), values,
                             np.full(half, values[-half:].mean())])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return np.median(windows, axis=1)

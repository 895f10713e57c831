"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared VM the same code runs up to ~2x slower for seconds at a
time (other tenants share the physical core; no steal time shows).
:class:`ReferenceClock` runs a kernel in a canary process on the same
vCPU as the measured interpreter and expresses each repetition's CPU
time in kernel calls, which cancels that slowdown.  A kernel is numpy
and pure Python only - it never runs ``repro`` code - so a change to
the program never moves it (and a canary starts in a fraction of a
second).

Each workload gets the kernel whose operation mix resembles its own
hot path, because contention slows interpreter-bound and array-bound
code by different factors:

* ``vector`` - FIR filtering, in-place square and windowed sums over
  a few 10^4-sample rows, plus a fresh Gaussian draw (the BER
  pipeline's AFE/combine/decision mix);
* ``scalar`` - a Python loop of small-matrix MNA-style stamping
  (``np.add.at``) and 26x26 solves (Spice Newton under the AMS
  kernel);
* ``mixed`` - both, plus an FIR convolution (the ranging receiver).
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import tempfile
import time

import numpy as np

_RNG = np.random.default_rng(20070416)
_N = 26
_MATRIX = _RNG.normal(size=(_N, _N)) + _N * np.eye(_N)
_RHS = _RNG.normal(size=_N)
_ROWS = _RNG.integers(0, _N, 248)
_COLS = _RNG.integers(0, _N, 248)
_VALS = _RNG.normal(scale=1e-3, size=248)
_SIGNAL = _RNG.normal(size=(8, 16_000))
_FIR = _RNG.normal(size=33) / 33.0
_TAPS = _RNG.normal(size=600)


def vector() -> float:
    y = np.stack([np.convolve(row, _FIR, mode="same") for row in _SIGNAL])
    np.multiply(y, 0.5, out=y)
    np.square(y, out=y)
    windows = y.reshape(8, -1, 2, 50).sum(axis=-1)
    noise = np.random.default_rng(1).standard_normal(_SIGNAL.size)
    return float(windows[0, 0, 0] + noise[0])


def scalar() -> float:
    x = np.zeros(_N)
    total = 0.0
    for _ in range(40):
        a = _MATRIX.copy()
        b = _RHS.copy()
        np.add.at(a, (_ROWS, _COLS), _VALS)
        np.add.at(b, _ROWS[:40], _VALS[:40])
        x_new = np.linalg.solve(a, b)
        dx = np.abs(x_new - x)
        total += float(np.max(dx)) + sum(float(v) for v in x_new[:4])
        x = x_new
    return total


def mixed() -> float:
    fir = np.convolve(_SIGNAL[0, :4000], _TAPS)
    return vector() + scalar() + float(fir[10])


KERNELS = {"vector": vector, "scalar": scalar, "mixed": mixed}


#: a canary's state file: a sequence number (odd while the pair below
#: is being written), calls made (-1 until warmed up), the canary's
#: process CPU seconds, then the go and stop flags.
_STATE = struct.Struct("ddddd")
_DOUBLE = struct.Struct("d")
_SEQ, _CALLS, _GO, _STOP = 0, 8, 24, 32


def _get(state, offset: int) -> float:
    return _DOUBLE.unpack(state[offset:offset + 8])[0]


def _set(state, offset: int, value: float) -> None:
    state[offset:offset + 8] = _DOUBLE.pack(value)


def run_canary(kernel: str, state_path: str) -> None:
    """Canary process body: warm *kernel* up, wait for the go flag, then
    run it until the stop flag is set, publishing ``(calls, process CPU
    seconds)`` after every call.  It also ends when its parent is gone,
    so a killed benchmark leaves no canary behind."""
    parent = os.getppid()
    fn = KERNELS[kernel]
    with open(state_path, "r+b") as f, mmap.mmap(f.fileno(), 0) as state:
        fn()
        _set(state, _CALLS, 0.0)
        while _get(state, _GO) == 0.0:
            if os.getppid() != parent or _get(state, _STOP) != 0.0:
                return
            time.sleep(0.005)
        seq = calls = 0.0
        while _get(state, _STOP) == 0.0 and os.getppid() == parent:
            fn()
            calls += 1.0
            _set(state, _SEQ, seq + 1.0)
            state[_CALLS:_GO] = struct.pack("dd", calls,
                                            time.process_time())
            seq += 2.0
            _set(state, _SEQ, seq)


class Canary:
    """A kernel loop in its own interpreter (``refkernel.py`` run as a
    script), sharing its counters through a small memory-mapped file.

    It starts up (imports, one warm-up call) on the vCPUs other than
    the measured one and then waits, so the next canary can get ready
    while the current one is in use.  :meth:`attach` pins it next to
    the measured interpreter and starts the loop: sharing one vCPU,
    the scheduler interleaves the two every few milliseconds, so the
    canary's CPU time per kernel call is the speed of that core at the
    same moments the workload ran.
    """

    def __init__(self, kernel: str, cpu: int, scratch: str):
        self.cpu = cpu
        fd, self.path = tempfile.mkstemp(prefix="canary-", dir=scratch)
        with os.fdopen(fd, "wb") as f:
            f.write(_STATE.pack(0.0, -1.0, 0.0, 0.0, 0.0))
        self._file = open(self.path, "r+b")
        self.state = mmap.mmap(self._file.fileno(), 0)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, kernel, self.path],
            stdin=subprocess.DEVNULL)
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(self.proc.pid, others)

    def ready(self) -> bool:
        return self.read()[0] >= 0.0

    def attach(self) -> None:
        deadline = time.monotonic() + 60.0
        while not self.ready():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("reference canary did not start")
            time.sleep(0.005)
        os.sched_setaffinity(self.proc.pid, {self.cpu})
        _set(self.state, _GO, 1.0)
        while self.read()[0] < 2:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("reference canary made no progress")
            time.sleep(0.001)

    def read(self) -> tuple[float, float]:
        """``(calls, canary CPU seconds)``, a consistent pair: the
        sequence number is even and unchanged around the read.  While
        it is odd the canary was interrupted mid-write, so yield the
        vCPU to it."""
        while True:
            seq = _get(self.state, _SEQ)
            if seq % 2.0 == 0.0:
                calls, cpu = struct.unpack("dd",
                                           self.state[_CALLS:_GO])
                if _get(self.state, _SEQ) == seq:
                    return calls, cpu
            time.sleep(0)

    def close(self) -> None:
        _set(self.state, _STOP, 1.0)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.state.close()
        self._file.close()
        os.unlink(self.path)


#: seconds between canary rotations (see :class:`ReferenceClock`).
ROTATE_S = 2.0


class ReferenceClock:
    """Measures repetitions in units of one reference-kernel call.

    The measured interpreter pins itself to one vCPU and shares it with
    an attached :class:`Canary`.  :meth:`measure` runs a function and
    returns its process CPU time divided by the canary's CPU time per
    kernel call over the same window.  Machine slowdowns that last
    longer than a scheduler slice hit both alike and cancel.

    Every :data:`ROTATE_S` seconds the canary is replaced by the next one,
    which got ready in the background.  That averages out the
    per-process speed of the kernel itself: CPython runs the same loop
    a few percent faster or slower depending on its memory layout.
    Canary state files live in *scratch*.
    """

    def __init__(self, kernel: str, scratch):
        self.kernel = kernel
        self.scratch = str(scratch)
        self.affinity = os.sched_getaffinity(0)
        self.cpu = min(self.affinity)
        self.canary = self.next = None
        try:
            self.canary = self._spawn()
            self.next = self._spawn()
            self.canary.attach()
        except BaseException:
            self.close()
            raise
        os.sched_setaffinity(0, {self.cpu})
        self.attached = time.monotonic()

    def _spawn(self) -> Canary:
        return Canary(self.kernel, self.cpu, self.scratch)

    def _rotate(self) -> None:
        if (time.monotonic() - self.attached < ROTATE_S
                or not self.next.ready()):
            return
        old, self.canary, self.next = self.canary, self.next, None
        old.close()
        self.canary.attach()
        self.next = self._spawn()
        self.attached = time.monotonic()

    def measure(self, fn) -> tuple[float, float, object]:
        """``(reference calls, CPU seconds, fn())`` for one call."""
        self._rotate()
        calls0, canary0 = self.canary.read()
        cpu0 = time.process_time()
        value = fn()
        cpu = time.process_time() - cpu0
        calls1, canary1 = self.canary.read()
        if calls1 - calls0 < 2:
            raise RuntimeError("reference canary made no progress")
        per_call = (canary1 - canary0) / (calls1 - calls0)
        return cpu / per_call, cpu, value

    def close(self) -> None:
        for canary in (self.canary, self.next):
            if canary is not None:
                canary.close()
        os.sched_setaffinity(0, self.affinity)


if __name__ == "__main__":
    # python3 refkernel.py <kernel> <state file>  (started by Canary)
    run_canary(sys.argv[1], sys.argv[2])

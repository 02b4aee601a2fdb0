"""Rescale measured times to a fixed host speed with a calibration kernel.

The host this benchmark was tuned on is a shared VM whose CPU speed changes
by up to 1.8x, from one second to the next and for minutes at a time. Raw
pass and set-up times, and even the fastest pass of a run, then depend
mostly on how fast the host happened to be. Over tens of milliseconds,
though, its speed holds steady: the logs of successive 11 ms timings of one
loop correlate at 0.9.

So a ``Calibrator`` cuts the timed work into stretches of about
``CAL_EVERY_S`` and times a small fixed kernel between them. A stretch's time
divided by the mean of the kernel times around it is the stretch's work in
kernel units. The sum, times ``REF_S``, is the time the work takes at the
host speed where the kernel takes ``REF_S``. On the tuning host that is
about its usual fast state.

The kernel has to slow down with the host as much as the work does. A tight
integer loop slowed only about 0.6 times as much (in log terms) as the
package's passes. So the kernel sums 12,000 floats picked at random from a
pool of 200,000. Between stretches of work those are mostly out of the
core's own caches, as the package's objects are. It also adds a short
``Fraction`` series, which runs a broad stretch of pure-Python library code.
Per pass, the rescaled time varies 2-3% where the raw time varies 7-9%.

The kernel runs only at a ``tick``, and only once ``CAL_EVERY_S`` has passed
since the last one. Its time is left out of the measured time.
``CalibratedClock`` ticks where a pass calls into or returns from one of the
functions in ``boundaries()``. The wrappers change no argument and no
result, and ``uninstall`` restores every original function.
``setup_probe.py`` ticks on the interpreter's audit events during the
import.

A change that makes the work itself slower is measured as slower. Two
things are not. Part of any host slowdown still shows: after rescaling,
a pass's time still grows by about the 0.15th to 0.3th power of the host's
slowdown. And a change that slows the host as a whole, for example by
thrashing the shared cache, slows the kernel too and so partly cancels out.

This module imports nothing heavy at load time: ``setup_probe.py`` loads it
before the import it times.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

_PACKAGE = "spectral_cesaro"

CAL_EVERY_S = 0.025
REF_S = 5e-4        # the kernel's time on the tuning host when it runs fast
POOL_SIZE = 200_000
PICKED = 12_000


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == _PACKAGE
                                  or name.startswith(_PACKAGE + "."))]


def reference_seconds(work, cal):
    """Stretch ``work[j]`` ends at kernel run ``cal[j]`` and starts at
    ``cal[j - 1]`` (the first at ``cal[0]`` alone). Each stretch is rescaled
    by the mean of its two kernel times; the sum is in seconds at the speed
    where the kernel takes ``REF_S``."""
    total = 0.0
    for j, w in enumerate(work):
        total += w / ((cal[max(j - 1, 0)] + cal[j]) / 2.0)
    return total * REF_S


class Calibrator:
    """Runs the kernel between stretches of work; see the module docstring."""

    def __init__(self):
        rng = random.Random(0)
        pool = [rng.random() for _ in range(POOL_SIZE)]
        self._picked = [pool[i] for i in rng.sample(range(POOL_SIZE), PICKED)]
        # kept alive so that the picked floats stay spread over the pool's
        # memory instead of sharing it with the package's objects
        self._pool = pool
        self._work = []             # seconds of work between kernel runs
        self._cal = []              # seconds of each kernel run
        self._last = 0.0            # end of the last kernel run

    def kernel(self):
        s = Fraction(0)
        for i in range(1, 25):
            s += Fraction(1, i * i + 1)
        return sum(self._picked), s

    def tick(self):
        now = time.perf_counter()
        if now - self._last >= CAL_EVERY_S:
            self._calibrate(now)

    def _calibrate(self, now):
        self.kernel()
        end = time.perf_counter()
        self._work.append(now - self._last)
        self._cal.append(end - now)
        self._last = end

    def start(self):
        """Begin timing now, with a kernel run."""
        self._work.clear()
        self._cal.clear()
        self._last = now = time.perf_counter()
        self._calibrate(now)

    def stop(self):
        """End timing; returns (work seconds, seconds at reference speed,
        seconds spent in the kernel)."""
        self._calibrate(time.perf_counter())
        return (sum(self._work), reference_seconds(self._work, self._cal),
                sum(self._cal))


class CalibratedClock(Calibrator):
    """Times one pass at a time, ticking at calls into ``boundaries()``."""

    def __init__(self):
        super().__init__()
        self._patched = []          # (namespace, attribute, original)

    @staticmethod
    def boundaries():
        # riesz_mean calls come every ~10 ms on verify-registry and ~5 ms
        # on atoms-float, and integrate calls every ~0.1 ms on kernels-smear.
        from spectral_cesaro import measures, quadrature

        return [(measures, "riesz_mean"), (quadrature, "integrate")]

    def install(self):
        modules = package_modules()
        for module, fname in self.boundaries():
            original = getattr(module, fname)
            wrapper = self._wrap(original)
            for ns in modules:
                if ns.__dict__.get(fname) is original:
                    self._patched.append((ns, fname, original))
                    setattr(ns, fname, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, fn):
        tick = self.tick

        def wrapper(*args, **kwargs):
            tick()
            try:
                return fn(*args, **kwargs)
            finally:
                tick()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

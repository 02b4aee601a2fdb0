"""Time one set-up in a fresh interpreter: import the package, build inputs.

Usage: python3 bench/setup_probe.py <workload> <seed> <workdir>
Times the import of ``spectral_cesaro`` and the workload's input build.
Prints the elapsed seconds (without the calibration kernel) and the same
time rescaled to the reference host speed (``hostspeed.py``). The kernel
runs on the interpreter's audit events, which the import raises at every
module it finds, opens and executes. ``run.py`` starts this several times
per run and reports the median rescaled time as ``setup_s``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hostspeed  # noqa: E402

CALIBRATOR = hostspeed.Calibrator()
CALIBRATOR.start()
sys.addaudithook(lambda event, args: CALIBRATOR.tick())

import spectral_cesaro  # noqa: E402,F401
import workloads  # noqa: E402


def main(argv):
    name, seed, workdir = argv
    workloads.WORKLOADS[name].build(int(seed), Path(workdir))
    work, ref, _ = CALIBRATOR.stop()
    print(repr(work), repr(ref))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

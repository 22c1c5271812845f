"""Time one set-up of a workload in a fresh interpreter: importing anyonbraid
plus the workload's warm-up.  numpy (loaded by the calibration) and the
standard modules that only the benchmark's workloads module needs are
imported before the clock starts, so the time is the library's.
Prints the wall seconds and the calibrated seconds.

    python3 perfbench/setup_probe.py clifford-queries
"""

import sys

if __name__ == "__main__":
    import hashlib  # noqa: F401  (used by workloads, not by anyonbraid)
    import random  # noqa: F401

    import calibration

    def setup():
        import workloads

        workloads.WORKLOADS[sys.argv[1]].warm()

    clock = calibration.Calibrator()
    _, seconds, samples = clock.measure(setup)
    print(seconds, clock.calibrate(seconds, samples))

"""Set-up time of one workload in a fresh interpreter.

    PYTHONPATH=src:bench python3 bench/setup_child.py WORKLOAD SEED

Times ``import workloads`` (which imports tvdp, numpy and scipy) and the
building of the workload's inputs, and prints two numbers: that time at the
reference speed, and as measured, both in seconds.  run.py runs it for
``setup_s``.

The host's speed is sampled as in run.py, by a timer signal that runs a
fixed loop every SAMPLE_EVERY_S, and the time is reported net of the loop's
runs, scaled by REFERENCE_SAMPLE_S over the loop's mean time.  The loop is
pure Python, since numpy's import is part of what is timed; importing is
mostly Python work anyway.  Only the standard library is imported before
the clock starts.
"""

import signal
import sys
import time

SAMPLE_LOOPS = 20_000
SAMPLE_EVERY_S = 0.05
# about the loop's time at full speed on the host of NOTES.md
REFERENCE_SAMPLE_S = 0.0015

samples = []  # (start, seconds)


def sample(*_):
    start = time.perf_counter()
    total = 0
    for i in range(SAMPLE_LOOPS):
        total += i * i % 7
    samples.append((start, time.perf_counter() - start))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        start = time.perf_counter()
        import workloads

        workloads.build(workload, seed)
        end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    sample()
    net = end - start - sum(d for t, d in samples if start <= t < end)
    mean = sum(d for _, d in samples) / len(samples)
    print(net * REFERENCE_SAMPLE_S / mean, net)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Host speed sampler: times a fixed reference kernel at a steady rate on
the CPU the benchmark's children are pinned to.

    python3 perfbench/sampler.py PERIOD_S

Each sample is one line on standard output, ``<monotonic time> <kernel
seconds>``. The sampler runs until its standard input is closed.

The kernel is a run of numpy calls on a tiny array, the same kind of work
as the solvers' narrow-batch Runge-Kutta steps, where call overhead and not
arithmetic sets the time. It does not touch knads, so no change to the
program moves it. On a shared host another tenant's load on the same
physical core slows the kernel and a pass alike; run.py scales every time
it reports by the kernel's speed over the same interval.
"""

import os
import select
import sys
import time

import numpy as np

_Y = np.linspace(0.0, 1.0, 56).reshape(8, 7)
_ONES = np.ones(7)


def kernel():
    """One reference unit of work, under a millisecond on a 2 GHz core: sixty
    rounds of elementwise updates and a matrix-vector product on an 8 x 7
    array, the shape of a narrow right-hand-side batch."""
    y = _Y
    for _ in range(60):
        y = 0.5 * y + 0.25 * np.abs(y) - 0.1 * (y @ _ONES)[:, None] / 7.0
    return y


def main(argv):
    period = float(argv[0])
    for _ in range(50):  # warm the interpreter and numpy before sampling
        kernel()
    out = sys.stdout
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], period)
        if ready and not os.read(sys.stdin.fileno(), 4096):
            return 0
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        out.write(f"{time.monotonic():.6f} {dt:.9f}\n")
        out.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Host-speed calibration: fixed kernels timed during every measured loop.

The hosts this benchmark runs on are shared, and their speed moves by
tens of percent within seconds and between minutes with nothing else
running in the container.  Ten consecutive runs of unchanged code
measured `ensemble_128` at 2.1–2.3 solves/s for four runs, then 3.0–3.3
for six; a pure-Python kernel timed every two seconds alternated between
5.5 and 11 ms.  So each run also times two small kernels that use none
of the program's code — interpreter-bound pure Python, and NumPy
streaming over arrays larger than L2 — before, during (between calls,
about once a second, outside the timed calls) and after its measured
loop.  The end-to-end timings are reported at the reference host speed
below: rates are multiplied, and times divided, by the host's slowdown,
the geometric mean over both kernels of median measured time over
reference time.  The raw figures are printed next to them.

Over three minutes of interleaved samples on a noisy host, this cut the
coefficient of variation of 17-second averages from 13% to 11%
(`ensemble_128` calls) and from 18% to 10% (`solve_default` calls).  A
change to the program cannot move the kernels, so a real speed-up or
slow-down of the program moves the normalized figures exactly as much
as the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Kernel seconds at the reference host speed, which the normalized
#: figures are stated at (a typical state of the host that measured
#: PARENT.json).
REFERENCE = {"python": 0.0040, "numpy": 0.0045}

_STREAM = 1 << 18  # float32 elements per array: 3 arrays of 1 MiB
_EVERY = 1.0  # seconds between samples during a loop


class Sampler:
    """Kernel samples taken around and between the calls of one loop."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {"python": [], "numpy": []}
        self.spent = 0.0  # seconds inside kernels, to leave out of loop time
        self._last = -math.inf
        self._arrays = [np.ones(_STREAM, dtype=np.float32) for _ in range(3)]

    def sample(self) -> None:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(20_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        middle = time.perf_counter()
        a, b, c = self._arrays
        for _ in range(10):
            np.multiply(b, 0.5, out=c)
            c += a
            np.subtract(a, c, out=b)
        end = time.perf_counter()
        self.samples["python"].append(middle - start)
        self.samples["numpy"].append(end - middle)
        self.spent += end - start
        self._last = end

    def tick(self) -> None:
        """Take a sample if a second passed since the last one."""
        if time.perf_counter() - self._last >= _EVERY:
            self.sample()

    def slowdown(self) -> float:
        """Host time per unit of work over the reference (1 = reference)."""
        logs = [
            math.log(statistics.median(values) / REFERENCE[name])
            for name, values in self.samples.items()
        ]
        return math.exp(sum(logs) / len(logs))

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.samples.items()}

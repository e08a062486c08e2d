"""Machine-speed probe used to normalise verb wall times.

On a virtual machine that shares its cores with other tenants, their load
changes the speed of the same computation by up to 2x over seconds to
minutes, so raw wall times of identical runs spread by 20-30% (README.md,
"Steadiness").

The probe times a fixed reference computation, a mix of what the program
spends its time on, in a short burst before and after every timed verb.
A verb's normalised time is its wall time divided by the mean reference
call time around it, times REF_CALL_S:

    normalised_s = wall_s * REF_CALL_S / ref_call_s

i.e. the verb's wall time on a machine whose reference call takes
REF_CALL_S (a 2.1 GHz Xeon core when idle).  A change to the program moves
the normalised time in proportion to its wall time; a change of machine
load moves both the verb and the reference, and cancels.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_CALL_S = 1.0e-3
BURST_S = 0.05


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = rng.normal(size=(32, 32, 3, 3)) + 1j * rng.normal(size=(32, 32, 3, 3))
        self.grid = rng.normal(size=(32, 32, 9)) + 0j
        self.floats = rng.normal(size=200).tolist()

    def _call(self) -> None:
        self.mats @ self.mats  # batched 3x3 products (smfield)
        np.fft.ifft2(np.fft.fft2(self.grid, axes=(0, 1)), axes=(0, 1))  # spectral
        ",".join(format(v, ".17g") for v in self.floats)  # float text (fieldio)
        x = 0.1
        for _ in range(100):  # scalar steps in a Python loop (torus RK4)
            x += 1e-3 * math.cos(x) * float(np.cos(0.5))

    def burst(self) -> float:
        """Mean seconds per reference call over a BURST_S burst."""
        calls = 0
        t0 = time.perf_counter()
        while True:
            self._call()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= BURST_S:
                return elapsed / calls

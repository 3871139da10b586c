"""A fixed computation, apart from qg3d, that gauges the machine's speed.

The machine this benchmark was built on changes speed by 10-40% for minutes
at a time, in wall and CPU time alike (bench/README.md, "Steadiness").  A
run times this loop before each round and scales the round's wall time by
``nominal_s / (the loop's time)``.  That gives the round's time at the speed
the machine had when ``nominal_s`` was measured.

The loop does what a tendency evaluation of the solver does, on a fixed
random field of the workload's grid: four inverse transforms of spectral
derivatives, their products, and one forward transform.  It calls numpy
only.  The numpy functions are bound when this module is imported, before
qg3d is, so nothing qg3d does to ``numpy.fft`` can reach them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_rfftn, _irfftn = np.fft.rfftn, np.fft.irfftn


class Reference:
    def __init__(self, shape: tuple[int, int, int], iterations: int, nominal_s: float):
        nz, ny, nx = shape
        self.shape = shape
        self.axes = (0, 1, 2)
        self.iterations = iterations
        self.nominal_s = nominal_s
        self.field = np.random.default_rng(0).standard_normal(shape)
        self.kx = 1j * np.fft.rfftfreq(nx, 1.0 / nx)[None, None, :]
        self.ky = 1j * np.fft.fftfreq(ny, 1.0 / ny)[None, :, None]

    def time(self) -> float:
        """Wall time of one pass of the loop."""
        shape, axes, kx, ky = self.shape, self.axes, self.kx, self.ky
        t0 = perf_counter()
        a = _rfftn(self.field, axes=axes)
        for _ in range(self.iterations):
            u = _irfftn(-ky * a, shape, axes=axes)
            v = _irfftn(kx * a, shape, axes=axes)
            ax = _irfftn(kx * a, shape, axes=axes)
            ay = _irfftn(ky * a, shape, axes=axes)
            a = _rfftn(self.field + 1e-3 * (u * ax + v * ay), axes=axes)
        return perf_counter() - t0

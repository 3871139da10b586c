"""How many arrays the time step and the diagnostics work in.

A run holds one pool of grid arrays (``spectral.hold_pool``).  The RK4 step
adds each tendency into k1 as it arrives, so an inviscid step needs only
the pool's stage and one tendency slot, and ``jacobian_raw`` and ``record``
need three grid arrays.  ``sobolev_norm`` forms its squares in pool
scratch, not in new half spectra.
"""

import tracemalloc

import numpy as np

from qg3d.diagnostics import record
from qg3d.dynamics import PhysicsParams
from qg3d.grid import GridSpec
from qg3d.initial import make_random
from qg3d.spectral import SpectralField, hold_pool, sobolev_norm
from qg3d.stepping import StepControl, run
import qg3d.spectral as spectral
from test_kernel_bits import random_coeffs, track_pool_arrays


def pool_footprint(refs):
    """(half spectra, grid arrays) among the live arrays in ``refs``, as
    ``track_pool_arrays`` records them: one weak reference per array."""
    live = [a for a in {id(r): r() for r in refs}.values() if isinstance(a, np.ndarray)]
    return (sum(a.dtype == np.complex128 for a in live),
            sum(a.dtype == np.float64 for a in live))


def footprints_of_a_run(monkeypatch, params, control):
    """The pool's footprint after each record of a run, read while the run
    holds its pool."""
    refs = track_pool_arrays(monkeypatch)
    state = make_random(GridSpec(16, 16, 8), -3.0, 1.0, 9, band=(1, 3), params=params)
    seen = []
    run(state, 3e-2, control, observers=[record, lambda s: seen.append(pool_footprint(refs))])
    assert len(seen) >= 4
    return seen


def test_an_inviscid_run_with_records_takes_three_half_spectra_and_three_grid_arrays(
    monkeypatch,
):
    fixed = StepControl(mode="fixed", dt_fixed=1e-2)
    seen = footprints_of_a_run(monkeypatch, PhysicsParams(), fixed)
    assert seen[-1] == (3, 3)
    assert all(half <= 3 and real <= 3 for half, real in seen)


def test_a_viscous_run_takes_at_most_five_half_spectra(monkeypatch):
    for control in (StepControl(mode="fixed", dt_fixed=1e-2), StepControl(dt_max=1e-2)):
        seen = footprints_of_a_run(monkeypatch, PhysicsParams(nu=0.02), control)
        assert max(half for half, _ in seen) <= 5
        assert max(real for _, real in seen) == 3


def test_sobolev_norm_in_a_held_pool_allocates_no_half_spectrum():
    grid = GridSpec(32, 32, 16)
    fh = SpectralField(grid, random_coeffs(grid, 40, True))
    c = fh.coeffs
    float_half_spectrum = np.empty(grid.kshape).nbytes
    with hold_pool(grid):
        for s in (0.5, 3.0, 4.0):
            sobolev_norm(fh, s)  # makes the pool's scratch and caches the weight
            tracemalloc.start()
            try:
                got = sobolev_norm(fh, s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < float_half_spectrum
            total = np.sum(spectral._sobolev_weight(grid, s) * (c.real**2 + c.imag**2))
            assert got.hex() == float(np.sqrt(grid.volume * total)).hex()
            # the same bits outside a run, where the scratch is new
            assert sobolev_norm(fh, s).hex() == got.hex()

"""Right-hand side of the evolution: advection, beta term, forcing.  The
viscous term is left to the time integrator, which applies it exactly.

The prognostic scalar is advected by the horizontal flow derived from the
streamfunction, which in turn comes from the anisotropic elliptic inversion.
The vertical velocity component never enters the advection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridMismatchError
from .grid import GridSpec
from .spectral import (
    SpectralField, _truncate, cube_derivative, fwd, inv, pool_for, solve_stratified_poisson
)


@dataclass(frozen=True)
class PhysicsParams:
    """Physical constants of the model, all finite: beta any, nu >= 0,
    F > 0.  F is the stratification ratio of the elliptic operator; no other
    object holds it."""

    beta: float = 1.0
    nu: float = 0.0
    F: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and >= 0, got {self.nu}")
        if not 0.0 < self.F < math.inf:
            raise ValueError(f"F must be finite and positive, got {self.F}")


@dataclass(frozen=True)
class Forcing:
    """External source term, evaluated in spectral space at a given time.

    The optional evaluator maps (grid, t) to the raw coefficient array of the
    source; without one there is no forcing.  Its output is projected to zero
    mean, so the elliptic solve stays well posed, and to the two-thirds cube,
    so a forced state stays inside it.
    """

    evaluator: Optional[Callable[[GridSpec, float], np.ndarray]] = None

    @property
    def active(self) -> bool:
        return self.evaluator is not None

    def spectral(self, grid: GridSpec, t: float) -> np.ndarray:
        if self.evaluator is None:
            return np.zeros(grid.kshape, dtype=np.complex128)
        # a copy: the evaluator may hand out an array it keeps
        out = np.array(self.evaluator(grid, t), dtype=np.complex128)
        if out.shape != grid.kshape:
            raise GridMismatchError(
                f"forcing evaluator returned shape {out.shape}, expected {grid.kshape}"
            )
        _truncate(grid, out)
        out[0, 0, 0] = 0.0
        return out


NO_FORCING = Forcing()


def abs_max(values: np.ndarray) -> float:
    """max|values| with the bits of ``np.max(np.abs(values))``, without the
    |.| array: the larger of the maximum and the negated minimum, whose
    abs() turns a -0.0 of an all-zero field into +0.0."""
    return abs(float(max(np.max(values), -np.min(values))))


def jacobian_raw(
    grid: GridSpec,
    psi_c: np.ndarray,
    q_c: np.ndarray,
    *,
    maxima: Optional[list] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dealiased pseudo-spectral J(psi, q) = psi_x q_y - psi_y q_x, raw arrays.

    Inputs are truncated to the two-thirds cube as they are differentiated,
    the two products are formed on the grid, and only the kept cube of the
    result's transform is computed.  With the two-thirds rule this
    evaluation is exactly skew-symmetric over retained modes, which is what
    makes the quadratic invariants hold to rounding.

    Each derivative spectrum is formed by ``cube_derivative`` in the grid's
    cube array, so only the kept 8/27 of the half spectrum is multiplied and
    ``inv`` skips its zero test.  The truncation comes from the block
    restriction, by the grid's own ``dealias_mask``: full-spectrum inputs
    are truncated too.  psi_x, psi_y and q_y, then q_x, on the grid are the
    pool's ``real(0)`` to ``real(2)``; the result goes to ``out`` if given,
    else to a new array.

    With a ``maxima`` list, max|psi_y| and max|psi_x| on the grid are
    appended to it: the velocity maxima of the CFL bound, exact when psi
    lies inside the cube.
    """
    pool = pool_for(grid)
    psi_x = inv(grid, cube_derivative(grid, psi_c, "x"), out=pool.real(0))
    psi_y = inv(grid, cube_derivative(grid, psi_c, "y"), out=pool.real(1))
    if maxima is not None:
        maxima += (abs_max(psi_y), abs_max(psi_x))
    q_y = inv(grid, cube_derivative(grid, q_c, "y"), out=pool.real(2))
    psi_x *= q_y
    q_x = inv(grid, cube_derivative(grid, q_c, "x"), out=q_y)
    psi_y *= q_x
    psi_x -= psi_y
    jac = fwd(grid, psi_x, truncate=True, out=out)
    jac[0, 0, 0] = 0.0
    return jac


def tendency_raw(
    grid: GridSpec,
    q_c: np.ndarray,
    t: float,
    params: PhysicsParams,
    forcing: Forcing = NO_FORCING,
    *,
    maxima: Optional[list] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """dq/dt coefficients without the viscous term: the time integrator
    applies the stiff diffusion exactly, through an integrating factor.
    ``maxima`` and ``out`` are handed to ``jacobian_raw``; the
    streamfunction is the pool's ``half("psi")``."""
    psi_c = solve_stratified_poisson(
        SpectralField(grid, q_c), params.F, out=pool_for(grid).half("psi")
    ).coeffs
    out = jacobian_raw(grid, psi_c, q_c, maxima=maxima, out=out)
    # negating the float64 view flips the same sign bits as a complex negate,
    # at a fraction of its cost
    np.negative(out.view(np.float64), out=out.view(np.float64))
    # psi_c is not needed past the Jacobian; its array holds each linear term
    term = psi_c
    if params.beta != 0.0:
        np.multiply(psi_c, grid.ikx, out=term)
        term *= params.beta
        out -= term
    if forcing.active:
        out += forcing.spectral(grid, t)
    out[0, 0, 0] = 0.0
    return out

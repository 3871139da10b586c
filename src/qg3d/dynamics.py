"""Right-hand side of the evolution: advection, beta term, viscosity, forcing.

The prognostic scalar is advected by the horizontal flow derived from the
streamfunction, which in turn comes from the anisotropic elliptic inversion.
The vertical velocity component never enters the advection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GridMismatchError
from .grid import GridSpec
from .spectral import (
    SpectralField,
    fwd,
    inv,
    require_same_grid,
    solve_stratified_poisson,
)


@dataclass(frozen=True)
class PhysicsParams:
    """Physical constants of the model: beta >= any, nu >= 0, F > 0."""

    beta: float = 1.0
    nu: float = 0.0
    F: float = 1.0

    def __post_init__(self):
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if not self.F > 0.0:
            raise ValueError(f"F must be positive, got {self.F}")


@dataclass(frozen=True)
class Forcing:
    """External source term, evaluated in spectral space at a given time.

    ``kind`` is one of "none", "tabulated", "manufactured".  The evaluator
    maps (grid, t) to the raw coefficient array of the source; its output is
    projected to zero mean before use so the elliptic solve stays well posed.
    """

    kind: str = "none"
    evaluator: Optional[Callable[[GridSpec, float], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("none", "tabulated", "manufactured"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if self.kind == "none" and self.evaluator is not None:
            raise ValueError("kind 'none' must not carry an evaluator")
        if self.kind != "none" and self.evaluator is None:
            raise ValueError(f"kind {self.kind!r} needs an evaluator")

    @property
    def active(self) -> bool:
        return self.kind != "none"

    def spectral(self, grid: GridSpec, t: float) -> np.ndarray:
        if self.evaluator is None:
            return np.zeros(grid.kshape, dtype=np.complex128)
        out = np.asarray(self.evaluator(grid, t), dtype=np.complex128)
        if out.shape != grid.kshape:
            raise GridMismatchError(
                f"forcing evaluator returned shape {out.shape}, expected {grid.kshape}"
            )
        out = out.copy()
        out[0, 0, 0] = 0.0
        return out


NO_FORCING = Forcing()


def jacobian_raw(grid: GridSpec, psi_c: np.ndarray, q_c: np.ndarray) -> np.ndarray:
    """Dealiased pseudo-spectral J(psi, q) = psi_x q_y - psi_y q_x, raw arrays.

    Inputs are truncated to the dealiased ball as they are differentiated,
    the two products are formed on the grid, and the transform of the result
    is truncated again.  With the two-thirds rule this evaluation is exactly
    skew-symmetric over retained modes, which is what makes the quadratic
    invariants hold to rounding.
    """
    ikx, iky = grid.ikx_dealiased, grid.iky_dealiased
    psi_x = inv(grid, psi_c * ikx)
    psi_y = inv(grid, psi_c * iky)
    q_x = inv(grid, q_c * ikx)
    q_y = inv(grid, q_c * iky)
    psi_x *= q_y
    psi_y *= q_x
    psi_x -= psi_y
    jac = fwd(grid, psi_x)
    np.copyto(jac, 0.0, where=~grid.dealias_mask)
    jac[0, 0, 0] = 0.0
    return jac


def jacobian(psi_hat: SpectralField, q_hat: SpectralField) -> SpectralField:
    """Field-level wrapper around :func:`jacobian_raw`."""
    grid = require_same_grid(psi_hat, q_hat)
    return SpectralField(grid, jacobian_raw(grid, psi_hat.coeffs, q_hat.coeffs))


def tendency_raw(
    grid: GridSpec,
    q_c: np.ndarray,
    t: float,
    params: PhysicsParams,
    forcing: Forcing = NO_FORCING,
    include_viscosity: bool = True,
) -> np.ndarray:
    """dq/dt coefficients.  ``include_viscosity=False`` leaves the stiff
    diffusion term out so a time integrator can treat it exactly instead."""
    psi_c = solve_stratified_poisson(SpectralField(grid, q_c), params.F).coeffs
    out = jacobian_raw(grid, psi_c, q_c)
    # negating the float64 view flips the same sign bits as a complex negate,
    # at a fraction of its cost
    np.negative(out.view(np.float64), out=out.view(np.float64))
    # psi_c is not needed past the Jacobian; its array holds each linear term
    term = psi_c
    if params.beta != 0.0:
        np.multiply(psi_c, grid.ikx, out=term)
        term *= params.beta
        out -= term
    if include_viscosity and params.nu != 0.0:
        np.multiply(grid.k2_iso, q_c, out=term)
        term *= params.nu
        out -= term
    if forcing.active:
        out += forcing.spectral(grid, t)
    out[0, 0, 0] = 0.0
    return out


def tendency(state, forcing: Forcing = NO_FORCING) -> SpectralField:
    """Full right-hand side for the given state, viscosity included."""
    q_hat = state.q_hat
    return SpectralField(
        q_hat.grid,
        tendency_raw(q_hat.grid, q_hat.coeffs, state.t, state.params, forcing),
    )

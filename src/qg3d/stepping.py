"""Time integration: classical RK4 with a viscous integrating factor.

The inviscid dynamics are non-stiff under a CFL restriction, so explicit RK4
is the whole story there.  With viscosity on, the diffusion term is removed
from the tendency and applied exactly per mode through exponential factors,
which keeps the step size limited by advection alone and makes a pure decay
problem exact to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dynamics import NO_FORCING, Forcing, PhysicsParams, tendency_raw
from .errors import NonFiniteError
from .grid import GridSpec
from .spectral import SpectralField, inv, solve_stratified_poisson, velocity_spectra


@dataclass(frozen=True)
class State:
    """Prognostic coefficients plus simulation time and physics constants."""

    q_hat: SpectralField
    t: float
    params: PhysicsParams

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t < 0.0:
            raise ValueError(f"time must be finite and >= 0, got {self.t}")

    @property
    def grid(self) -> GridSpec:
        return self.q_hat.grid


@dataclass(frozen=True)
class StepControl:
    """Step-size policy: a fixed dt, or a CFL fraction with clamping."""

    mode: str = "cfl"
    dt_fixed: float = 1e-3
    cfl_number: float = 0.5
    dt_min: float = 1e-9
    dt_max: float = 5e-2

    def __post_init__(self):
        if self.mode not in ("fixed", "cfl"):
            raise ValueError(f"mode must be 'fixed' or 'cfl', got {self.mode!r}")
        if not self.dt_fixed > 0.0:
            raise ValueError("dt_fixed must be positive")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")
        if not (0.0 < self.dt_min <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_max")


@dataclass
class Observer:
    """A read-only callback on state snapshots.

    ``every = None`` fires after each accepted step; a positive value fires
    at multiples of that interval measured from the start time (the loop
    lands on those times exactly).  All observers also see the initial state.
    """

    callback: Callable[[State], None]
    every: Optional[float] = None

    def __post_init__(self):
        if self.every is not None and not self.every > 0.0:
            raise ValueError("observer interval must be positive")


def cfl_dt(state: State, control: StepControl) -> float:
    """Advective step bound cfl * min(dx/max|v1|, dy/max|v2|), clamped.

    Only the horizontal velocity enters: nothing is advected vertically.
    A quiescent field hits no bound and returns dt_max.
    """
    grid = state.grid
    psi_hat = solve_stratified_poisson(state.q_hat, state.params.F)
    v1h, v2h, _ = velocity_spectra(psi_hat)
    m1 = float(np.max(np.abs(inv(grid, v1h.coeffs))))
    m2 = float(np.max(np.abs(inv(grid, v2h.coeffs))))
    bound = np.inf
    if m1 > 0.0:
        bound = grid.dx / m1
    if m2 > 0.0:
        bound = min(bound, grid.dy / m2)
    dt = control.cfl_number * bound
    return float(min(max(dt, control.dt_min), control.dt_max))


@lru_cache(maxsize=8)
def _viscous_factors(grid: GridSpec, nu: float, dt: float):
    e_half = np.exp(-nu * grid.k2_iso * (0.5 * dt))
    return e_half, e_half * e_half


def rk4_step(state: State, dt: float, forcing: Forcing = NO_FORCING) -> State:
    """One classical RK4 step of size dt.

    With nu > 0 the stages run on the integrating-factor variable, so the
    viscous decay is applied exactly per mode and never restricts dt.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    p = state.params
    q = state.q_hat.coeffs
    t = state.t
    viscous = p.nu != 0.0

    def rhs(q_c: np.ndarray, t_c: float) -> np.ndarray:
        return tendency_raw(
            grid, q_c, t_c, p, forcing, include_viscosity=not viscous
        )

    # Each stage is formed in place, in one buffer and the k arrays, by the
    # operations of these expressions in their order of evaluation, so every
    # result rounds exactly as written (h = dt/2):
    #   k2 = rhs(q + h k1),  k3 = rhs(q + h k2),  k4 = rhs(q + dt k3),
    #   q_new = q + (dt/6) (k1 + 2 k2 + 2 k3 + k4);
    # with viscosity,
    #   k2 = rhs(e_half (q + h k1)),  k3 = rhs(e_half q + h k2),
    #   k4 = rhs(e_full q + dt (e_half k3)),
    #   q_new = e_full q + (dt/6) (e_full k1 + 2 (e_half (k2 + k3)) + k4).
    h = 0.5 * dt
    # a diverging step overflows before it goes non-finite; keep that quiet
    # so the failure surfaces as the typed error below, not warning spam
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(q, t)
        stage = np.multiply(k1, h)
        stage += q
        if viscous:
            e_half, e_full = _viscous_factors(grid, p.nu, dt)
            stage *= e_half
            k2 = rhs(stage, t + h)
            base = np.multiply(e_half, q)
            np.multiply(k2, h, out=stage)
            stage += base
            k3 = rhs(stage, t + h)
            np.multiply(e_full, q, out=base)
            np.multiply(e_half, k3, out=stage)
            stage *= dt
            stage += base
            k4 = rhs(stage, t + dt)
            k2 += k3
            k2 *= e_half
            k2 *= 2.0
            k1 *= e_full
            k1 += k2
        else:
            base = q
            k2 = rhs(stage, t + h)
            np.multiply(k2, h, out=stage)
            stage += q
            k3 = rhs(stage, t + h)
            np.multiply(k3, dt, out=stage)
            stage += q
            k4 = rhs(stage, t + dt)
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
        k1 += k4
        k1 *= dt / 6.0
        k1 += base
        q_new = k1

    q_new[0, 0, 0] = 0.0
    if not np.all(np.isfinite(q_new)):
        raise NonFiniteError(
            f"non-finite coefficients after step to t = {t + dt:.6g}", time=t + dt
        )
    return State(SpectralField(grid, q_new), t + dt, p)


def _requested_dt(state: State, control: StepControl) -> float:
    if control.mode == "fixed":
        return control.dt_fixed
    return cfl_dt(state, control)


ObserverLike = Union[Observer, Callable[[State], None]]


def run(
    state: State,
    t_end: float,
    control: StepControl,
    forcing: Forcing = NO_FORCING,
    observers: Sequence[ObserverLike] = (),
) -> State:
    """Advance to t_end exactly, truncating steps to land on observer times.

    Timed observers fire at t0 + j * every for j = 1, 2, ... (and all
    observers see the initial state), so their samples are equally spaced
    regardless of what the CFL controller does in between.
    """
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} is before current time {state.t}")
    obs = [o if isinstance(o, Observer) else Observer(o) for o in observers]
    for o in obs:
        o.callback(state)

    t0 = state.t
    tiny = 1e-12 * max(1.0, abs(t_end))
    next_index = [1 if o.every is not None else None for o in obs]

    def next_event(i: int) -> float:
        return t0 + next_index[i] * obs[i].every

    while state.t < t_end - tiny:
        dt_want = _requested_dt(state, control)
        target = t_end
        for i, o in enumerate(obs):
            if o.every is not None:
                target = min(target, next_event(i))
        if target <= state.t + dt_want * (1.0 + 1e-9):
            state = rk4_step(state, target - state.t, forcing)
            state = replace(state, t=target)  # land exactly, no drift
        else:
            state = rk4_step(state, dt_want, forcing)
        for i, o in enumerate(obs):
            if o.every is None:
                o.callback(state)
            else:
                while next_event(i) <= state.t + tiny:
                    o.callback(state)
                    next_index[i] += 1
    return state

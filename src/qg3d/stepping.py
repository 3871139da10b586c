"""Time integration: classical RK4 with a viscous integrating factor.

The inviscid dynamics are non-stiff under a CFL restriction, so explicit RK4
is the whole story there.  With viscosity on, the diffusion term is removed
from the tendency and applied exactly per mode through exponential factors,
which keeps the step size limited by advection alone and makes a pure decay
problem exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dynamics import NO_FORCING, Forcing, PhysicsParams, abs_max, tendency_raw
from .errors import NonFiniteError
from .grid import GridSpec
from .spectral import (
    SpectralField,
    _in_cube,
    cube_derivative,
    hold_pool,
    inv,
    pool_for,
    solve_stratified_poisson,
)


@dataclass(frozen=True)
class State:
    """Prognostic coefficients, zero outside the two-thirds cube (a value
    test: -0.0 passes), plus simulation time and physics constants."""

    q_hat: SpectralField
    t: float
    params: PhysicsParams

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t < 0.0:
            raise ValueError(f"time must be finite and >= 0, got {self.t}")
        if not _in_cube(self.grid, self.q_hat.coeffs):
            raise ValueError("coefficients must be zero outside the two-thirds cube")

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
        if not 0.0 < self.dt_fixed < math.inf:
            raise ValueError(f"dt_fixed must be finite and positive, got {self.dt_fixed}")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")
        if not 0.0 < self.dt_min <= self.dt_max < math.inf:
            raise ValueError("need 0 < dt_min <= dt_max < inf")


@dataclass
class Observer:
    """A read-only callback on state snapshots.

    ``every = None`` fires after each accepted step; a positive value fires
    at the multiples k * every that lie after the start time (the loop lands
    on those times exactly), so a restarted run fires at the same times as a
    run from t = 0.  All observers also see the initial state.
    """

    callback: Callable[[State], None]
    every: Optional[float] = None

    def __post_init__(self):
        if self.every is not None and not 0.0 < self.every < math.inf:
            raise ValueError(f"observer interval must be finite and positive, got {self.every}")


def cfl_dt(
    state: State, control: StepControl, *, maxima: Optional[Sequence[float]] = None
) -> float:
    """Advective step bound cfl * min(dx/max|v1|, dy/max|v2|), clamped.

    Only the horizontal velocity enters: nothing is advected vertically.
    A quiescent field hits no bound and returns dt_max.  ``maxima`` is
    (max|v1|, max|v2|) of ``state`` when the caller has them, as stage 1 of
    a step does (see ``run``); then only the bound and the clamps are
    applied.
    """
    grid = state.grid
    if maxima is None:
        psi_c = solve_stratified_poisson(state.q_hat, state.params.F).coeffs
        # v1 = -psi_y; negation commutes exactly with the transform and |.|
        m1 = abs_max(inv(grid, cube_derivative(grid, psi_c, "y")))
        m2 = abs_max(inv(grid, cube_derivative(grid, psi_c, "x")))
    else:
        m1, m2 = maxima
    bound = np.inf
    if m1 > 0.0:
        bound = grid.dx / m1
    if m2 > 0.0:
        bound = min(bound, grid.dy / m2)
    dt = control.cfl_number * bound
    return float(min(max(dt, control.dt_min), control.dt_max))


# two entries: the fixed or CFL step and an event-landing step; a CFL run
# asks for a new dt each step and recomputes its pair
@lru_cache(maxsize=2)
def _viscous_factors(grid: GridSpec, nu: float, dt: float):
    e_half = np.exp(-nu * grid.k2_iso * (0.5 * dt))
    return e_half, e_half * e_half


def rk4_step(
    state: State, dt: float, forcing: Forcing = NO_FORCING, *, k1: Optional[np.ndarray] = None
) -> State:
    """One classical RK4 step of size dt.

    With nu > 0 the stages run on the integrating-factor variable, so the
    viscous decay is applied exactly per mode and never restricts dt.
    ``k1`` is the tendency at the start of the step when the caller has it
    (it does not depend on dt); the step takes it over and changes it: it
    becomes the new state's coefficients.  The pool's ``half("stage")``
    holds each stage and ``half("k")`` each of k2-k4 as k1 takes it in;
    with viscosity ``half("mid")`` holds k2, then 2 e_half (k2 + k3), and
    ``half("base")`` e_half q, then e_full q.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    p = state.params
    q = state.q_hat.coeffs
    t = state.t
    viscous = p.nu != 0.0
    pool = pool_for(grid)

    def rhs(q_c: np.ndarray, t_c: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        return tendency_raw(grid, q_c, t_c, p, forcing, out=out)

    # Each stage is formed in place, in one buffer and the tendency slots, by
    # the operations of these expressions in their order of evaluation, so
    # every result rounds exactly as written (h = dt/2; k1 sums the
    # tendencies as they arrive):
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
        if k1 is None:
            k1 = rhs(q, t)
        stage = np.multiply(k1, h, out=pool.half("stage"))
        stage += q
        if viscous:
            e_half, e_full = _viscous_factors(grid, p.nu, dt)
            stage *= e_half
            mid = rhs(stage, t + h, pool.half("mid"))
            base = np.multiply(e_half, q, out=pool.half("base"))
            np.multiply(mid, h, out=stage)
            stage += base
            k = rhs(stage, t + h, pool.half("k"))
            np.multiply(e_full, q, out=base)
            np.multiply(e_half, k, out=stage)
            stage *= dt
            stage += base
            mid += k
            mid *= e_half
            mid *= 2.0
            k1 *= e_full
            k1 += mid
        else:
            base = q
            k = rhs(stage, t + h, pool.half("k"))
            np.multiply(k, h, out=stage)
            stage += q
            k *= 2.0
            k1 += k
            rhs(stage, t + h, k)
            np.multiply(k, dt, out=stage)
            stage += q
            k *= 2.0
            k1 += k
        rhs(stage, t + dt, k)
        k1 += k
        k1 *= dt / 6.0
        k1 += base
        q_new = k1

    q_new[0, 0, 0] = 0.0
    if not np.all(np.isfinite(q_new)):
        raise NonFiniteError(
            f"non-finite coefficients after step to t = {t + dt:.6g}", time=t + dt
        )
    return State(SpectralField(grid, q_new), t + dt, p)


def _requested_dt(state: State, control: StepControl, forcing: Forcing):
    """The step size to ask for and, if it was computed on the way, the
    tendency at ``state`` as ``rk4_step``'s k1.

    A CFL step gets its maxima from that k1: ``jacobian_raw`` transforms
    psi_y and psi_x as ``cfl_dt`` does, so dt has the bits of
    ``cfl_dt(state, control)``.
    """
    if control.mode == "fixed":
        return control.dt_fixed, None
    grid = state.grid
    maxima = []
    # quiet as in rk4_step, which raises the typed error on a diverging step
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = tendency_raw(grid, state.q_hat.coeffs, state.t, state.params, forcing,
                          maxima=maxima)
    return cfl_dt(state, control, maxima=maxima), k1


ObserverLike = Union[Observer, Callable[[State], None]]


def _first_event_index(after: float, every: float) -> int:
    """The first integer k with k * every > after >= 0, as rounded."""
    # float // is the floor of the exact quotient, and rounding is monotonic,
    # so only a product that rounds down onto ``after`` needs a further step
    k = int(after // every) + 1
    while k * every <= after:
        k += 1
    return k


def run(
    state: State,
    t_end: float,
    control: StepControl,
    forcing: Forcing = NO_FORCING,
    observers: Sequence[ObserverLike] = (),
) -> State:
    """Advance to t_end exactly, truncating steps to land on observer times.

    Timed observers fire at k * every for every integer k with
    k * every > t0 (and all observers see the initial state), so their
    samples are equally spaced regardless of what the CFL controller does in
    between, and a run restarted from t0 lands on the direct run's times.

    The run holds one pool of grid arrays (``hold_pool``) for the steps and
    for the ``record`` calls of its observers, and drops it when it returns
    or raises.
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end = {t_end} is not finite")
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} is before current time {state.t}")
    obs = [o if isinstance(o, Observer) else Observer(o) for o in observers]
    tiny = 1e-12 * max(1.0, abs(t_end))
    next_index = [
        None if o.every is None else _first_event_index(state.t + tiny, o.every)
        for o in obs
    ]

    def next_event(i: int) -> float:
        return next_index[i] * obs[i].every

    with hold_pool(state.grid):
        for o in obs:
            o.callback(state)
        while state.t < t_end - tiny:
            dt_want, k1 = _requested_dt(state, control, forcing)
            target = t_end
            for i, o in enumerate(obs):
                if o.every is not None:
                    target = min(target, next_event(i))
            if target <= state.t + dt_want * (1.0 + 1e-9):
                state = rk4_step(state, target - state.t, forcing, k1=k1)
                state = replace(state, t=target)  # land exactly, no drift
            else:
                state = rk4_step(state, dt_want, forcing, k1=k1)
            for i, o in enumerate(obs):
                if o.every is None:
                    o.callback(state)
                else:
                    while next_event(i) <= state.t + tiny:
                        o.callback(state)
                        next_index[i] += 1
        return state

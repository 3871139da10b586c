"""Initial conditions and manufactured-solution forcings.

Generators return full States (the scalar at t = 0 plus physics constants).
Everything produced here is zero-mean, which the elliptic inversion requires
on a periodic box, and zero outside the two-thirds cube, as a State must be.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import Forcing, PhysicsParams, jacobian_raw
from .errors import EmptyBandError, ZeroModeError
from .grid import GridSpec
from .spectral import SpectralField, _truncate, fwd, l2_norm
from .stepping import State


def _canonical_mode(s: tuple[int, int, int]) -> tuple[int, int, int]:
    # cos(k.x) = cos(-k.x), so flip the sign to make the leading nonzero
    # component positive and store a single representative.
    sx, sy, sz = s
    if sx < 0 or (sx == 0 and (sy < 0 or (sy == 0 and sz < 0))):
        return (-sx, -sy, -sz)
    return (sx, sy, sz)


def single_mode_coeffs(grid: GridSpec, s: tuple[int, int, int], c: complex) -> np.ndarray:
    """Coefficients of the real field 2*Re(c * exp(i k.x)) for mode s.

    ``s`` must already be canonical (leading nonzero component positive).
    On the s_x = 0 plane both conjugate partners are stored explicitly.
    """
    sx, sy, sz = s
    coeffs = np.zeros(grid.kshape, dtype=np.complex128)
    coeffs[sz % grid.nz, sy % grid.ny, sx] = c
    if sx == 0 and (sy, sz) != (0, 0):
        coeffs[(-sz) % grid.nz, (-sy) % grid.ny, 0] = np.conj(c)
    return coeffs


def make_rossby(
    grid: GridSpec,
    F: float,
    beta: float,
    s_x: int,
    s_y: int,
    s_z: int,
    A: float = 1.0,
) -> tuple[State, Callable[[float], SpectralField]]:
    """Single-mode wave: psi0 = A cos(k.x), an exact solution of the dynamics.

    The nonlinear term vanishes identically because the scalar is a multiple
    of the streamfunction, so the mode just rotates with frequency
    omega = -beta * kx / (kx^2 + ky^2 + F^2 kz^2).  The second return value
    maps any time to the exact spectral scalar, for error measurements.
    A mode outside the two-thirds cube (|s| > n/3 on an axis) is refused.
    """
    if (s_x, s_y, s_z) == (0, 0, 0):
        raise ZeroModeError("the (0, 0, 0) mode has no dynamics")
    s = (s_x, s_y, s_z)
    if not grid.keeps_mode(s):
        raise ValueError(f"mode {s} lies outside the two-thirds cube |s| <= n/3 of the "
                         f"{grid.nx}x{grid.ny}x{grid.nz} grid")
    s = _canonical_mode(s)
    k2 = -grid.stratified_symbol(F)[s[2] % grid.nz, s[1] % grid.ny, s[0]]
    omega = -beta * grid.kx[s[0]] / k2

    def exact(t: float) -> SpectralField:
        c = (-k2 * A / 2.0) * np.exp(-1j * omega * t)
        return SpectralField(grid, single_mode_coeffs(grid, s, c))

    state = State(exact(0.0), 0.0, PhysicsParams(beta=beta, nu=0.0, F=F))
    return state, exact


def make_random(
    grid: GridSpec,
    slope: float,
    energy: float,
    seed: int,
    band: Optional[tuple[int, int]] = None,
    params: Optional[PhysicsParams] = None,
) -> State:
    """Seeded random field with a power-law shell spectrum.

    Every retained mode in shells ``band[0]..band[1]`` (integer radius,
    rounded) gets a uniformly random phase; amplitudes are constant per shell
    and weighted so the shell-summed power of the scalar follows m^slope.
    The whole field is rescaled to the requested L2 norm.  The same seed
    reproduces the field bitwise.
    """
    if params is None:
        params = PhysicsParams()
    if band is None:
        sizes = [n for n in (grid.nx, grid.ny, grid.nz) if n > 1]
        if not sizes:
            raise EmptyBandError("grid has a single point, nothing to excite")
        band = (2, max(2, min(sizes) // 4))
    lo, hi = band
    if lo < 1 or hi < lo:
        raise EmptyBandError(f"band {band} is empty or touches the zero mode")

    SX = grid.sx.reshape(1, 1, -1)
    SY = grid.sy.reshape(1, -1, 1)
    SZ = grid.sz.reshape(-1, 1, 1)
    shell = np.rint(np.sqrt((SX * SX + SY * SY + SZ * SZ).astype(np.float64))).astype(int)
    canonical = (SX > 0) | ((SX == 0) & ((SY > 0) | ((SY == 0) & (SZ > 0))))
    sel = (shell >= lo) & (shell <= hi) & grid.dealias_mask & canonical
    if not np.any(sel):
        raise EmptyBandError(f"no retained modes in shells {lo}..{hi}")

    # Each selected representative stands for exactly two modes of the full
    # lattice (its Hermitian partner), so the shell population carries a 2.
    sel_shells = shell[sel]
    counts = np.bincount(sel_shells, minlength=hi + 1).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_mode = np.sqrt(
            np.arange(hi + 1, dtype=np.float64) ** slope / (2.0 * counts)
        )
    amplitudes = per_mode[sel_shells]

    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=amplitudes.shape[0])
    coeffs = np.zeros(grid.kshape, dtype=np.complex128)
    coeffs[sel] = amplitudes * np.exp(1j * phases)

    # Mirror the s_x = 0 plane so the stored spectrum is Hermitian.
    plane = coeffs[:, :, 0]
    iz = (-np.arange(grid.nz)) % grid.nz
    iy = (-np.arange(grid.ny)) % grid.ny
    coeffs[:, :, 0] = plane + np.conj(plane[np.ix_(iz, iy)])

    field = SpectralField(grid, coeffs)
    if energy == 0.0:
        return State(SpectralField(grid, np.zeros_like(coeffs)), 0.0, params)
    current = l2_norm(field)
    coeffs *= energy / current
    return State(SpectralField(grid, coeffs), 0.0, params)


def make_blob(
    grid: GridSpec,
    center: tuple[float, float, float],
    width: float,
    A: float,
    params: Optional[PhysicsParams] = None,
) -> State:
    """Periodized Gaussian bump in the scalar, mean-subtracted.

    The box forces total mass zero, so the constant (the bump's mean) is
    removed; that shifts the values but none of the derived velocities.
    The state is the two-thirds cube of the samples' transform.
    """
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    if params is None:
        params = PhysicsParams()

    def periodized(coord: np.ndarray, c: float, length: float) -> np.ndarray:
        acc = np.zeros_like(coord)
        for j in range(-4, 5):
            acc += np.exp(-((coord - c + j * length) ** 2) / (2.0 * width**2))
        return acc

    gx = periodized(grid.x, center[0], grid.lx)
    gy = periodized(grid.y, center[1], grid.ly)
    gz = periodized(grid.z, center[2], grid.lz)
    values = A * gz[:, None, None] * gy[None, :, None] * gx[None, None, :]
    values = values - np.mean(values)
    coeffs = fwd(grid, values, truncate=True)
    coeffs[0, 0, 0] = 0.0
    return State(SpectralField(grid, coeffs), 0.0, params)


def make_zonal(
    grid: GridSpec,
    profile: Sequence[float],
    params: Optional[PhysicsParams] = None,
) -> State:
    """x- and z-independent streamfunction given by samples psi(y_j).

    Zonal states are exact steady states of the inviscid dynamics: the
    advection term and the beta term both vanish.  The state is the
    two-thirds cube of the profile's transform.
    """
    if params is None:
        params = PhysicsParams()
    prof = np.asarray(profile, dtype=np.float64)
    if prof.shape != (grid.ny,):
        raise ValueError(f"profile needs {grid.ny} samples, got {prof.shape}")
    psi = np.broadcast_to(prof[None, :, None], grid.shape).copy()
    q_c = fwd(grid, psi, truncate=True) * grid.stratified_symbol(params.F)
    q_c[0, 0, 0] = 0.0
    return State(SpectralField(grid, q_c), 0.0, params)


# ---- manufactured solutions -----------------------------------------------

# A target maps t to (psi_c, dpsi_dt_c): the half-spectrum coefficients of
# the streamfunction and of its exact time derivative.
_Target = Callable[[float], tuple[np.ndarray, np.ndarray]]


def manufactured_solution(grid: GridSpec, target: _Target, F: float, t: float) -> SpectralField:
    """Exact spectral scalar of the target streamfunction at time t, cut to
    the two-thirds cube."""
    q_c = _truncate(grid, target(t)[0] * grid.stratified_symbol(F))
    q_c[0, 0, 0] = 0.0
    return SpectralField(grid, q_c)


def make_mms(grid: GridSpec, params: PhysicsParams, target: _Target) -> tuple[State, Forcing]:
    """Source term that makes the target streamfunction an exact solution.

    The source is assembled from the same discrete operators the solver
    applies (dealiased advection, spectral derivatives), so the only error
    left when running against it is time integration.  Sources are cached by
    t: an RK4 step asks for t + h twice and starts where the last one ended.
    """
    sym = grid.stratified_symbol(params.F)
    cache: dict[float, np.ndarray] = {}

    def evaluator(g: GridSpec, t: float) -> np.ndarray:
        if t in cache:
            return cache[t]
        psi, psi_t = target(t)
        q_c = sym * psi
        out = sym * psi_t + jacobian_raw(grid, psi, q_c) + params.beta * (psi * grid.ikx)
        if params.nu != 0.0:
            out += params.nu * (grid.k2_iso * q_c)
        out[0, 0, 0] = 0.0
        if len(cache) > 8:
            cache.clear()
        cache[t] = out
        return out

    state = State(manufactured_solution(grid, target, params.F, 0.0), 0.0, params)
    return state, Forcing(evaluator)

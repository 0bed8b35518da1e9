"""Discrete spectral universe: mode bases, states, norms and energies.

All dynamics in this package are diagonal in the eigenbasis of the Dirichlet
Laplacian, so a field is represented by its coefficient sequence against an
orthonormal eigenbasis.  Every norm and energy below is a plain weighted sum
over modes (Parseval, no extra normalisation factors).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeOverflowError, _NonFiniteError

# Largest natural log whose exp is representable in a double.
_LOG_MAX = math.log(np.finfo(float).max)

_D_OVERFLOW = "Dirichlet energy, and so the induced speed, overflows"
_NON_FINITE = "trajectory entries must be finite"

BASIS_KINDS = ("interval-dirichlet", "torus")

# Samples per block of each series and of simulate's march; bounds their temporaries.
_NORM_CHUNK = 256

# A scaled sum of squares below this, from a sample that is not all zero, may
# have lost terms to underflow; its block falls back to the log-sum-exp.
_SUM_MIN = 1e-200


def _in_range(compute, what: str) -> float:
    """``compute()``; :class:`RangeOverflowError` if it overflows, divides by zero or is inf."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if math.isinf(value):
        raise RangeOverflowError(f"{what} overflows double range")
    return value


def _readonly(a) -> np.ndarray:
    """Read-only float array: ``a`` itself when nothing can write through it, else a copy."""
    if _immutable(a) and a.dtype == float:
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _increasing(t, what: str, least: int = 2) -> np.ndarray:
    """``t`` read-only, if it is 1-d with ``least`` or more finite, strictly increasing values."""
    g = _readonly(t)
    # diff > 0 is False at a NaN, and strictly increasing with finite ends is finite throughout
    if not (g.ndim == 1 and g.size >= least and np.all(np.diff(g) > 0.0)
            and math.isfinite(g[0]) and math.isfinite(g[-1])):
        raise ValueError(f"{what} must be {least} or more finite, strictly increasing values")
    return g


def _immutable(a) -> bool:
    # Read-only all the way down: neither the array nor any array it views is writable.
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        if a.base is None:
            return True
        a = a.base
    return False


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Finite family of Laplacian eigenmodes identified by their frequencies.

    ``frequencies`` holds mu_k > 0, strictly increasing; ``eigenvalues`` are
    exactly mu_k**2.  For the Dirichlet interval (0, pi) the frequencies are
    the integers 1..N; the torus basis keeps one real eigenfunction per
    positive integer frequency.
    """

    kind: str
    frequencies: np.ndarray
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        mu = _increasing(self.frequencies, "frequencies", least=1)
        if mu[0] <= 0.0:
            raise ValueError("frequencies must be positive")
        object.__setattr__(self, "frequencies", mu)
        object.__setattr__(self, "eigenvalues", _readonly(mu * mu))

    @property
    def count(self) -> int:
        return self.frequencies.size

    @classmethod
    def interval_dirichlet(cls, count: int) -> "ModeBasis":
        """Sine eigenbasis of -d^2/dx^2 on (0, pi) with zero boundary values."""
        return cls("interval-dirichlet", np.arange(1, count + 1, dtype=float))

    @classmethod
    def torus(cls, count: int) -> "ModeBasis":
        """One real eigenfunction per positive integer frequency on the circle."""
        return cls("torus", np.arange(1, count + 1, dtype=float))


def same_basis(a: ModeBasis, b: ModeBasis) -> bool:
    return a is b or (a.kind == b.kind and np.array_equal(a.frequencies, b.frequencies))


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Coefficients of a field and its time derivative at one instant."""

    basis: ModeBasis
    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_coeffs(_readonly(self.position), self.basis))
        object.__setattr__(self, "velocity", _as_coeffs(_readonly(self.velocity), self.basis))

    @classmethod
    def zero(cls, basis: ModeBasis) -> "SpectralState":
        z = np.zeros(basis.count)
        return cls(basis, z, z.copy())


@dataclass(frozen=True)
class GevreyParams:
    """Order s > 1 and radius eta > 0 of an exponentially weighted mode norm."""

    s: float
    eta: float

    def __post_init__(self):
        if not self.s > 1.0:
            raise ValueError(f"Gevrey order must satisfy s > 1, got {self.s}")
        if not self.eta > 0.0:
            raise ValueError(f"Gevrey radius must be positive, got {self.eta}")


@np.errstate(over="ignore")
def sobolev_norm(coeffs, basis: ModeBasis, sigma: float) -> float:
    """Homogeneous Sobolev norm sqrt(sum_k mu_k^(2*sigma) c_k^2).

    ``sigma = 0`` reduces to the Euclidean norm of the coefficients.  A norm
    beyond the double range is inf, without a warning; callers range-check it.
    """
    c = _as_coeffs(coeffs, basis)
    return float(np.sqrt(np.sum(basis.frequencies ** (2.0 * sigma) * c * c)))


def gevrey_norm(coeffs, basis: ModeBasis, gp: GevreyParams, sigma: float = 0.0) -> float:
    """Exponentially weighted norm sqrt(sum_k e^(eta*mu_k^(1/s)) mu_k^(2*sigma) c_k^2).

    Computed in log space so that huge weights paired with tiny coefficients
    do not overflow spuriously; raises :class:`RangeOverflowError` only when
    the norm itself exceeds the double range.
    """
    c = _as_coeffs(coeffs, basis)
    nz = c != 0.0
    if not nz.any():
        return 0.0
    mu = basis.frequencies[nz]
    with np.errstate(over="ignore"):  # a weight past the double range: its log term is inf
        log_terms = (
            gp.eta * mu ** (1.0 / gp.s)
            + sigma * (2.0 * np.log(mu))  # not 2*sigma, which may overflow: inf * log(1) is nan
            + 2.0 * np.log(np.abs(c[nz]))
        )
    top = float(log_terms.max())
    log_sq = top + math.log(float(np.sum(np.exp(log_terms - top)))) if top < math.inf else top
    if not log_sq <= 2.0 * _LOG_MAX:  # a nan log value is refused as well
        raise RangeOverflowError(
            f"weighted norm overflows double range (log value {0.5 * log_sq:.6g})",
            log_value=0.5 * log_sq,
        )
    return math.exp(0.5 * log_sq)


def _data_norm_sq(u0, u1, basis: ModeBasis, gp: GevreyParams, sigma: float, what: str) -> float:
    """|u0|^2 at order ``sigma`` plus |u1|^2 at order ``sigma - 1``, in range (see _in_range)."""
    p = gevrey_norm(u0, basis, gp, sigma)
    v = gevrey_norm(u1, basis, gp, sigma - 1.0)
    return _in_range(lambda: p**2 + v**2, what)


@np.errstate(over="ignore")
def dirichlet_energy(state: SpectralState) -> float:
    """Squared gradient norm sum_k lambda_k v_k^2 (inf, without a warning, on overflow)."""
    v = state.position
    return float(np.sum(state.basis.eigenvalues * v * v))


@np.errstate(over="ignore")
def hamiltonian(state: SpectralState) -> float:
    """Conserved energy (D + V)/2 + D^2/4 with D the Dirichlet energy, V the kinetic term."""
    vdot = state.velocity
    return _hamiltonian_of(dirichlet_energy(state), float(np.sum(vdot * vdot)))


def state_gevrey_norm(state: SpectralState, gp: GevreyParams) -> float:
    """Product norm sqrt(sum_k e^(eta*mu^(1/s)) (mu^3 v_k^2 + mu vdot_k^2)).

    This is the well-posedness norm of the pair (u, du/dt): position measured
    at order 3/2, velocity at order 1/2.
    """
    p = gevrey_norm(state.position, state.basis, gp, sigma=1.5)
    q = gevrey_norm(state.velocity, state.basis, gp, sigma=0.5)
    return math.hypot(p, q)


def _as_coeffs(coeffs, basis: ModeBasis) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (basis.count,):
        raise ValueError(
            f"coefficient length mismatch: basis has {basis.count} modes, got shape {c.shape}"
        )
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    return c


def _chunked(reduce, *rows) -> np.ndarray:
    """``reduce`` of each consecutive _NORM_CHUNK-sample block of the (modes, samples) ``rows``."""
    out = np.empty(rows[0].shape[1])
    for i in range(0, out.size, _NORM_CHUNK):
        out[i:i + _NORM_CHUNK] = reduce(*(r[:, i:i + _NORM_CHUNK] for r in rows))
    return out


@np.errstate(over="ignore")
def _dirichlet_block(eigenvalues, position):  # D = sum lambda v^2 at each sample, inf on overflow
    return eigenvalues @ (position * position)


def _kinetic_block(velocity):  # V = sum w^2 at each sample
    return np.sum(velocity * velocity, axis=0)


def _checked_dirichlet(d) -> np.ndarray:  # read-only; RangeOverflowError if D overflowed
    if not np.all(np.isfinite(d)):
        raise RangeOverflowError(_D_OVERFLOW)
    d.setflags(write=False)
    return d


def _hamiltonian_of(d, kinetic):  # H = (D + V)/2 + D^2/4
    return 0.5 * (d + kinetic) + 0.25 * d * d


def _speed_of(d):  # the induced speed sqrt(1 + D)
    return np.sqrt(1.0 + d)


def _norm_block(mu, gp: GevreyParams):
    """The reducer of a block's (position, velocity) to log state_gevrey_norm^2 at each sample,
    with weights for frequencies ``mu``; see :meth:`Trajectory.state_gevrey_series`."""
    with np.errstate(over="ignore"):  # as gevrey_norm rounds them, sigma = 3/2 and 1/2
        log_w = gp.eta * mu ** (1.0 / gp.s)
        log_w = np.concatenate((log_w + 3.0 * np.log(mu), log_w + np.log(mu)))
    log_w = np.minimum(log_w, np.finfo(float).max)  # so zero data still weighs 0
    top_w = log_w.max()
    w = np.exp(log_w - top_w)
    scaled = w.min() >= np.finfo(float).tiny  # every scaled weight is a normal double
    w_pos, w_vel = np.split(w, 2)

    @np.errstate(divide="ignore", over="ignore")
    def reduce(pos, vel):
        if scaled:
            sq = w_pos @ (pos * pos) + w_vel @ (vel * vel)
            small = sq < _SUM_MIN
            if np.all(np.isfinite(sq)) and not (
                small.any() and (pos[:, small].any() or vel[:, small].any())
            ):
                return top_w + np.log(sq)
        terms = 2.0 * np.log(np.abs(np.concatenate((pos, vel)))) + log_w[:, None]
        top = terms.max(axis=0)
        top[top == -np.inf] = 0.0
        return top + np.log(np.exp(terms - top).sum(axis=0))

    return reduce


def _norm_of(log_sq) -> np.ndarray:
    """The norms whose log squares are ``log_sq``; :class:`RangeOverflowError` past the range."""
    if log_sq.max() > 2.0 * _LOG_MAX:
        raise RangeOverflowError("weighted norm overflows double range",
                                 log_value=0.5 * float(log_sq.max()))
    return np.exp(0.5 * log_sq)


def _march_series(blocks, basis: ModeBasis, m: int, gp: GevreyParams | None):
    """H, sqrt(1 + D) and the norm at ``gp`` of the m samples of a march's consecutive
    (position, velocity) ``blocks``, each block reduced as it comes.  The errors, in order, are
    a Trajectory's and its series': an entry not finite (raised after the last block), D's
    overflow, the norm's.  With ``gp`` None it only checks the entries."""
    norm = None if gp is None else _norm_block(basis.frequencies, gp)
    series, start, finite = np.empty((3, m)), 0, True
    for pos, vel in blocks:
        finite = finite and Trajectory._finite(pos, vel)
        if finite and norm is not None:
            series[:, start:start + pos.shape[1]] = (
                _dirichlet_block(basis.eigenvalues, pos), _kinetic_block(vel), norm(pos, vel))
        start += pos.shape[1]
    if not finite:
        raise _NonFiniteError(_NON_FINITE)
    if norm is not None:
        d = _checked_dirichlet(series[0])
        return _hamiltonian_of(d, series[1]), _speed_of(d), _norm_of(series[2])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-indexed coefficient history of a field and its time derivative.

    ``position`` and ``velocity`` have shape (modes, times); column i is the
    state at ``times[i]``; ``_dirichlet`` may carry the caller's D(t) of ``position``.
    """

    basis: ModeBasis
    times: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    _dirichlet: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        t = _increasing(self.times, "times", least=1)
        pos = _readonly(self.position)
        vel = _readonly(self.velocity)
        n, m = self.basis.count, t.size
        if pos.shape != (n, m) or vel.shape != (n, m):
            raise ValueError(
                f"trajectory shape mismatch: expected ({n}, {m}), "
                f"got {pos.shape} and {vel.shape}"
            )
        self._check_finite(pos, vel)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    @staticmethod
    def _finite(position, velocity) -> bool:
        return bool(np.all(np.isfinite(position)) and np.all(np.isfinite(velocity)))

    @staticmethod
    def _check_finite(position, velocity) -> None:
        if not Trajectory._finite(position, velocity):
            raise _NonFiniteError(_NON_FINITE)

    @staticmethod
    def _dirichlet_of(eigenvalues, position) -> np.ndarray:
        """D = eigenvalues @ position^2, read-only; :class:`RangeOverflowError` on overflow."""
        return _checked_dirichlet(_chunked(lambda p: _dirichlet_block(eigenvalues, p), position))

    def state_at(self, i: int) -> SpectralState:
        return SpectralState(self.basis, self.position[:, i], self.velocity[:, i])

    def dirichlet_series(self) -> np.ndarray:
        """D(t) at every sample, computed once and read-only.

        Raises :class:`RangeOverflowError`, on every call, when D overflows.
        """
        if self._dirichlet is None:
            d = self._dirichlet_of(self.basis.eigenvalues, self.position)
            object.__setattr__(self, "_dirichlet", d)
        return self._dirichlet

    def hamiltonian_series(self) -> np.ndarray:
        return _hamiltonian_of(self.dirichlet_series(), _chunked(_kinetic_block, self.velocity))

    def induced_speed_series(self) -> np.ndarray:
        """sqrt(1 + D(t)): the propagation speed the trajectory induces."""
        return _speed_of(self.dirichlet_series())

    def state_gevrey_series(self, gp: GevreyParams) -> np.ndarray:
        """:func:`state_gevrey_norm` at every sample.

        Each block of samples is one weighted sum of squares, with the weights
        scaled by their largest, and one log per sample.  A block falls back to
        a log-sum-exp over modes when a scaled weight is not a normal double, a
        sum is not finite, or a sum is below ``_SUM_MIN`` for a sample that is
        not all zero, so no term is lost to overflow or underflow.  Raises
        :class:`RangeOverflowError` when a sample's norm exceeds the double
        range; all-zero samples have norm 0.
        """
        reduce = _norm_block(self.basis.frequencies, gp)
        return _norm_of(_chunked(reduce, self.position, self.velocity))

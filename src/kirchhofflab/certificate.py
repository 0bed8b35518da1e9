"""Evaluation of the well-posedness constants and hypothesis verdicts.

Given data, a Gevrey order/radius, and a horizon, this module computes every
constant of the almost-global existence statement (energy H(0), speed ceiling
M, data radius R, coupled exponent q, slope scale K0, threshold radius eta0,
leftover radius eta') and renders a machine-checkable verdict on the three
hypotheses.  Exponentials of 4*M^2 are handled in log space once they leave
the double range; the certificate stores both log and, when representable,
linear values.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import RangeOverflowError
from .spectral import (
    GevreyParams,
    ModeBasis,
    SpectralState,
    _LOG_MAX,
    _data_norm_sq,
    hamiltonian,
)

# Multiplicative slack applied when selecting the smallest admissible M.
_M_MARGIN = 1e-6

HYPOTHESIS_CODES = ("M>2", "2H0<M^2/4-1", "eta>eta0")


def q_from_s(s: float) -> float:
    """Blow-up exponent coupled to the Gevrey order: q = 1 + 1/s in (1, 2)."""
    if not s > 1.0:
        raise ValueError(f"Gevrey order must satisfy s > 1, got {s}")
    return 1.0 + 1.0 / s


def k0_constant(M: float, R: float, T: float, q: float) -> float:
    """Slope scale K0 = M^2 e^(4M^2) R T^q of the induced-speed envelope."""
    _validate_constants(M, R, T)
    if not q > 1.0:
        raise ValueError(f"exponent must satisfy q > 1, got {q}")
    if R == 0.0:
        return 0.0
    log_k0 = _log_k0(M, R, T, q)
    if log_k0 > _LOG_MAX:
        raise RangeOverflowError(
            f"slope scale overflows double range (log value {log_k0:.6g})",
            log_value=log_k0,
        )
    if 4.0 * M * M <= 700.0 and q * math.log(T) <= _LOG_MAX:  # T**q stays finite
        return M * M * math.exp(4.0 * M * M) * R * T**q
    return math.exp(log_k0)


def eta0(M: float, R: float, T: float, s: float) -> float:
    """Threshold radius 2 s K0 + 4 M^2 = 2 s M^2 e^(4M^2) R T^(1+1/s) + 4 M^2."""
    _, _, value, log_val = _eta0_parts(M, R, T, s)
    if math.isinf(value):
        raise RangeOverflowError(
            f"threshold radius overflows double range (log value {log_val:.6g})",
            log_value=log_val,
        )
    return value


def data_radius(u0, u1, basis: ModeBasis, gp: GevreyParams) -> float:
    """Squared weighted size of the data pair at orders (3/2, 1/2).

    Returns sum_k e^(eta mu^(1/s)) (mu^3 u0_k^2 + mu u1_k^2); the hypotheses
    compare this against the chosen radius bound R.
    """
    return _data_norm_sq(u0, u1, basis, gp, 1.5, "data radius")


@dataclass(frozen=True)
class Verdict:
    code: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class Certificate:
    """Evaluated constants plus per-hypothesis verdicts.

    ``K0`` and ``eta0`` are +inf when not representable; their log-scale
    companions are always finite.  Strict inequalities are evaluated with zero
    tolerance on the stored values; margins let callers apply their own slack.
    """

    H0: float
    M: float
    R: float
    s: float
    q: float
    K0: float
    T: float
    eta: float
    eta0: float
    eta_prime: float
    log_K0: float
    log_eta0: float
    verdicts: tuple[Verdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def machine_verdict(self) -> str:
        """One-line verdict for scripting: PASS, or FAIL plus failing codes."""
        if self.passed:
            return "PASS"
        return "FAIL " + ",".join(v.code for v in self.verdicts if not v.passed)

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["verdicts"] = [asdict(v) for v in self.verdicts]
        return {**out, "passed": self.passed, "machine_verdict": self.machine_verdict()}


def _validate_constants(M: float, R: float, T: float) -> None:
    if not M > 0.0:
        raise ValueError(f"M must be positive, got {M}")
    if not R >= 0.0:
        raise ValueError(f"R must be nonnegative, got {R}")
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T}")


def _log_k0(M: float, R: float, T: float, q: float) -> float:
    if R == 0.0:
        return -math.inf
    return 2.0 * math.log(M) + 4.0 * M * M + math.log(R) + q * math.log(T)


def _eta0_parts(M: float, R: float, T: float, s: float):
    """(K0, log K0, eta0, log eta0) at q = 1 + 1/s; K0 and eta0 are +inf past the double range."""
    q = q_from_s(s)
    try:
        K0 = k0_constant(M, R, T, q)
    except RangeOverflowError:
        K0 = math.inf
    log_K0 = _log_k0(M, R, T, q)
    m2 = 4.0 * M * M
    log_m2 = math.log(m2) if m2 > 0.0 else 2.0 * math.log(2.0 * M)  # 4M^2 may underflow
    log_eta0 = np.logaddexp(math.log(2.0 * s) + log_K0, log_m2).item()
    return K0, log_K0, 2.0 * s * K0 + m2, log_eta0


def check_hypotheses(
    u0,
    u1,
    basis: ModeBasis,
    s: float,
    eta: float,
    T: float,
    M_choice: float | None = None,
) -> Certificate:
    """Evaluate the hypotheses on concrete data and return a certificate.

    When no M is supplied, the smallest admissible choice
    2*sqrt(2*H(0) + 1)*(1 + margin) is used, turning the existential
    hypothesis into a deterministic construction.  Failing hypotheses yield a
    failing certificate, never an exception.
    """
    gp = GevreyParams(s=s, eta=eta)
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got {T}")

    state = SpectralState(basis, u0, u1)
    H0 = hamiltonian(state)
    if M_choice is None:
        M = max(2.0, 2.0 * math.sqrt(2.0 * H0 + 1.0)) * (1.0 + _M_MARGIN)
    else:
        M = float(M_choice)

    R = data_radius(u0, u1, basis, gp)
    q = q_from_s(s)

    # log forms kept alongside so the certificate stays reportable past overflow
    K0, log_K0, eta0_val, log_eta0 = _eta0_parts(M, R, T, s)
    eta_prime = eta - eta0_val

    verdicts = (
        Verdict(HYPOTHESIS_CODES[0], M > 2.0, M - 2.0),
        Verdict(
            HYPOTHESIS_CODES[1],
            2.0 * H0 < M * M / 4.0 - 1.0,
            M * M / 4.0 - 1.0 - 2.0 * H0,
        ),
        Verdict(HYPOTHESIS_CODES[2], eta > eta0_val, eta_prime),
    )
    return Certificate(
        H0=H0,
        M=M,
        R=R,
        s=s,
        q=q,
        K0=K0,
        T=T,
        eta=eta,
        eta0=eta0_val,
        eta_prime=eta_prime,
        log_K0=log_K0,
        log_eta0=log_eta0,
        verdicts=verdicts,
    )

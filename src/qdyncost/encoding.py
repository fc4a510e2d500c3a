"""LCU norms, state-preparation success probabilities, and block-encoding
precision parameters for the grid-basis molecular Hamiltonian."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qdyncost.model import ParticleTable, ceil_log2

# Largest grid exponent for exact enumeration of the momentum sum.
BRUTE_NP_CAP = 6
# Largest single shell enumerated when summing the success probability of the
# inverse-momentum state; beyond this the nominal 1/4 is reported.
SHELL_POINT_CAP = 4_000_000


@dataclass(frozen=True)
class LcuNorms:
    """One-norms of the LCU decomposition of kinetic and potential terms."""

    lambda_m: float
    lambda_nu: float
    lambda_t: float
    lambda_v: float
    lambda_nu_exact: bool

    @property
    def lambda_h(self) -> float:
        return self.lambda_t + self.lambda_v


@dataclass(frozen=True)
class SuccessProbs:
    """Success probabilities of the probabilistic preparation subroutines."""

    p_nu: float
    p_zeta: float
    ps_w: float          # uniform superposition over the 3 spatial axes
    ps_eta: float        # uniform superposition over eta particle labels
    p_eq: float
    p_nu_exact: bool


@dataclass(frozen=True)
class PrecisionParams:
    """Register widths implied by the block-encoding error allocations."""

    mu_t: int
    n_m: int
    n_theta: int
    r_nu: float


def _lambda_nu_bound_numerator(n_p: int) -> float:
    """Three times the closed lower bound of :func:`lambda_nu`."""
    return 7.0 * 2.0 ** (n_p + 1) - 9.0 * n_p - 11.0 - 3.0 * 2.0 ** (-n_p)


def lambda_nu(n_p: int, mode: str = "brute") -> float:
    """Sum of inverse squared norms over the 3D momentum grid minus origin.

    mode="brute" enumerates ``G_0`` exactly (capped at n_p <= 6);
    mode="bound" returns the closed-form lower bound
    ``(1/3)(7*2^(n_p+1) - 9 n_p - 11 - 3*2^-n_p)``.
    """
    if n_p < 2:
        raise ValueError("n_p must be at least 2")
    if mode == "bound":
        return _lambda_nu_bound_numerator(n_p) / 3.0
    if mode != "brute":
        raise ValueError(f"unknown mode {mode!r}")
    if n_p > BRUTE_NP_CAP:
        raise ValueError(f"brute-force enumeration capped at n_p <= {BRUTE_NP_CAP}")
    half = (2 ** n_p - 2) // 2  # (N-1)/2 with N = 2**n_p - 1
    axis = np.arange(-half, half + 1)
    nx, ny, nz = np.meshgrid(axis, axis, axis, indexing="ij")
    sq = (nx * nx + ny * ny + nz * nz).astype(float)
    sq[half, half, half] = np.inf  # exclude the zero mode
    return float(np.sum(1.0 / sq))


def lcu_norms(particles: ParticleTable, n_p: int, omega_cell: float) -> LcuNorms:
    """Kinetic and potential LCU norms on an ``n_p``-qubit-per-axis grid.

    ``omega_cell`` is the simulation-cell volume L^3 in bohr^3.  The
    momentum sum ``lambda_nu`` is enumerated exactly for ``n_p <= 6`` and
    replaced by the closed lower bound above that.
    """
    if omega_cell <= 0:
        raise ValueError("cell volume must be positive")
    exact = n_p <= BRUTE_NP_CAP
    lambda_nu_value = lambda_nu(n_p, "brute" if exact else "bound")
    lam_m = particles.lambda_m
    lam_t = 6.0 * math.pi ** 2 / omega_cell ** (2.0 / 3.0) * (2.0 ** (n_p - 1) - 1) ** 2 * lam_m
    lam_v = particles.sum_abs_charge_pairs / (2.0 * math.pi * omega_cell ** (1.0 / 3.0)) * lambda_nu_value
    return LcuNorms(
        lambda_m=lam_m,
        lambda_nu=lambda_nu_value,
        lambda_t=lam_t,
        lambda_v=lam_v,
        lambda_nu_exact=exact,
    )


def uniform_prep_success(n: int, b_r: int) -> float:
    """Success probability of preparing a uniform superposition over ``n``
    basis states with a ``b_r``-bit-quantized amplification rotation.

    Exactly 1 whenever ``n`` is a power of two.  The rotation angle is
    quantized as ``round(y*theta)/y`` with ``y = 2**b_r/(2*pi)``,
    round-half-up on the positive value.
    """
    if n < 1 or b_r < 1:
        raise ValueError("n and b_r must be >= 1")
    m = ceil_log2(n) if n > 1 else 0
    x = n * 2.0 ** (-m)
    if x == 1.0:
        return 1.0
    y = 2.0 ** b_r / (2.0 * math.pi)
    theta = math.floor(y * math.asin((4.0 * x) ** -0.5) + 0.5) / y
    return x * ((1.0 + (2.0 - 4.0 * x) * math.sin(theta) ** 2) ** 2 + math.sin(2.0 * theta) ** 2)


def _p_nu_brute(n_p: int, n_m: int) -> float:
    """Exact success probability of the inverse-momentum state preparation.

    Sums ``ceil(M (2^(mu-2)/|nu|)^2) / (M 2^(2 mu) 2^(n_p+1))`` over the
    nested-cube shells intersected with the grid ``G_0``; the value
    converges to ~0.24 as the grid grows.
    """
    m_val = 2 ** n_m
    total = 0.0
    half = (2 ** n_p - 2) // 2
    for mu in range(2, n_p + 2):
        outer = 2 ** (mu - 1)
        inner = 2 ** (mu - 2)
        hi = min(outer - 1, half)
        if hi < inner:
            continue
        axis = np.arange(-hi, hi + 1)
        nx, ny, nz = np.meshgrid(axis, axis, axis, indexing="ij")
        in_shell = (np.maximum.reduce([np.abs(nx), np.abs(ny), np.abs(nz)]) >= inner)
        sq = (nx * nx + ny * ny + nz * nz).astype(float)
        sq = sq[in_shell]
        total += float(np.sum(np.ceil(m_val * inner ** 2 / sq))) / (m_val * 4.0 ** mu * 2.0 ** (n_p + 1))
    return total


def success_probs(particles: ParticleTable, n_p: int, n_m: int, b_r: int = 8) -> SuccessProbs:
    """All success probabilities entering the block-encoding LCU norm.

    ``p_nu`` is enumerated exactly while its shells fit under
    ``SHELL_POINT_CAP`` (n_p <= 7; the value is approximately 1/4); above
    that the nominal 1/4 is used and ``p_nu_exact`` is False.
    ``p_zeta = 1 - sum(z^2)/(sum|z|)^2``.
    """
    if b_r < 1:
        raise ValueError("b_r must be >= 1")
    # the largest enumerated shell is the whole cube of (2^n_p - 1)^3 points,
    # so whether every shell fits is known before any enumeration
    exact = (2 ** n_p - 1) ** 3 <= SHELL_POINT_CAP
    p_nu = _p_nu_brute(n_p, n_m) if exact else 0.25
    abs_sum = sum(abs(z) for z in particles.charges)
    sq_sum = sum(z * z for z in particles.charges)
    p_zeta = 1.0 - sq_sum / abs_sum ** 2
    ps_w = uniform_prep_success(3, 8)
    ps_eta = uniform_prep_success(particles.eta, b_r)
    p_eq = ps_w * ps_eta * ps_eta ** 2
    return SuccessProbs(
        p_nu=float(p_nu),
        p_zeta=float(p_zeta),
        ps_w=ps_w,
        ps_eta=ps_eta,
        p_eq=p_eq,
        p_nu_exact=exact,
    )


def lambda_h_tilde(lambda_t: float, lambda_v: float, p_nu: float, p_zeta: float,
                   p_eq: float) -> tuple[float, str]:
    """Effective LCU norm of the block-encoded Hamiltonian, and the selection
    strategy that realizes it.

    The OR strategy is admissible iff ``1 - p_nu*p_zeta <= lambda_T/(lambda_T
    + lambda_V)``; otherwise the AND strategy applies and the norm is
    ``lambda_V/(p_nu*p_zeta)``.  Both cases are covered by
    ``max{lambda_T+lambda_V, lambda_V/(p_nu*p_zeta)} / P_eq``.
    """
    for name, p in (("p_nu", p_nu), ("p_zeta", p_zeta), ("p_eq", p_eq)):
        if not 0.0 < p <= 1.0 + 1e-9:
            raise ValueError(f"{name} must be in (0,1], got {p}")
    value = max(lambda_t + lambda_v, lambda_v / (p_nu * p_zeta)) / p_eq
    strategy = "OR" if 1.0 - p_nu * p_zeta <= lambda_t / (lambda_t + lambda_v) else "AND"
    return value, strategy


def r_nu_ratio(n_p: int, lambda_nu_value: float) -> float:
    """Ratio bounding the amplitude error of the momentum state; <= 12."""
    return 4.0 / lambda_nu_value * _lambda_nu_bound_numerator(n_p)


def precision_params(lambda_t: float, lambda_v: float, lambda_h_tilde_value: float,
                     eps_t: float, eps_v: float, eps_theta: float, n_p: int,
                     lambda_nu_value: float) -> PrecisionParams:
    """Register widths needed to hit the block-encoding error allocations;
    ``lambda_nu_value`` is the momentum sum the LCU norms used."""
    if min(eps_t, eps_v, eps_theta) <= 0:
        raise ValueError("error allocations must be positive")
    r_nu = r_nu_ratio(n_p, lambda_nu_value)
    return PrecisionParams(
        mu_t=max(0, ceil_log2(lambda_t / eps_t)) if lambda_t / eps_t > 1 else 0,
        n_m=max(0, ceil_log2(lambda_v * r_nu / eps_v)) if lambda_v * r_nu / eps_v > 1 else 0,
        n_theta=max(0, ceil_log2(lambda_h_tilde_value / eps_theta)) if lambda_h_tilde_value / eps_theta > 1 else 0,
        r_nu=r_nu,
    )


def block_error(eps_t: float, eps_v: float, lambda_h_tilde_value: float, n_theta: int) -> float:
    """Total block-encoding error ``eps_T + eps_V + 2*lambda_H~ * 2^-n_theta``."""
    if n_theta < 0:
        raise ValueError("n_theta must be non-negative")
    return eps_t + eps_v + 2.0 * lambda_h_tilde_value * 2.0 ** (-n_theta)

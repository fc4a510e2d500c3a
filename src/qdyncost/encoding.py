"""LCU norms, state-preparation success probabilities, and block-encoding
precision parameters for the grid-basis molecular Hamiltonian."""

from __future__ import annotations

import math
from dataclasses import dataclass

from qdyncost.model import ParticleTable, ceil_log2

# Largest grid exponent whose momentum grid is enumerated exactly.
BRUTE_NP_CAP = 7


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
    p_eq: float          # uniform superpositions over the 3 axes and the eta labels
    p_nu_exact: bool


@dataclass(frozen=True)
class PrecisionParams:
    """Register widths implied by the block-encoding error allocations."""

    mu_t: int
    n_m: int
    n_theta: int
    r_nu: float


def lambda_nu_bound(n_p: int) -> float:
    """Closed-form lower bound ``(1/3)(7*2^(n_p+1) - 9 n_p - 11 - 3*2^-n_p)``
    on :func:`lambda_nu` (Su et al., PRX Quantum 2, 040332, 2021)."""
    return (7.0 * 2.0 ** (n_p + 1) - 9.0 * n_p - 11.0 - 3.0 * 2.0 ** (-n_p)) / 3.0


def _octant(n_p: int) -> tuple:
    """Arrays of ``|k|^2``, the number of sign images in ``G_0`` and the
    max-norm of every nonzero point ``0 <= k_x, k_y, k_z <= 2^(n_p-1) - 1``.
    Only grids of at most BRUTE_NP_CAP qubits per axis are enumerated, so
    numpy is loaded here and not with the module."""
    import numpy as np

    axis = np.arange(2 ** (n_p - 1))
    w = np.where(axis > 0, 2.0, 1.0)  # a nonzero coordinate has two signs
    sq = np.add.outer(np.add.outer(axis ** 2, axis ** 2), axis ** 2)
    images = np.multiply.outer(np.multiply.outer(w, w), w)
    norm = np.maximum.outer(np.maximum.outer(axis, axis), axis)
    return sq.ravel()[1:].astype(float), images.ravel()[1:], norm.ravel()[1:]


def lambda_nu(n_p: int) -> float:
    """Sum of inverse squared norms over the 3D momentum grid minus origin,
    enumerated exactly over ``G_0`` (2 <= n_p <= BRUTE_NP_CAP)."""
    if not 2 <= n_p <= BRUTE_NP_CAP:
        raise ValueError(f"enumeration needs 2 <= n_p <= {BRUTE_NP_CAP}, got {n_p}")
    sq, images, _ = _octant(n_p)
    return float((images / sq).sum())


def lcu_norms(particles: ParticleTable, n_p: int, omega_cell: float) -> LcuNorms:
    """Kinetic and potential LCU norms on an ``n_p``-qubit-per-axis grid.

    ``omega_cell`` is the simulation-cell volume L^3 in bohr^3.  The
    momentum sum ``lambda_nu`` is enumerated exactly for ``n_p <=
    BRUTE_NP_CAP`` and replaced by the closed lower bound above that.
    """
    if omega_cell <= 0:
        raise ValueError("cell volume must be positive")
    exact = n_p <= BRUTE_NP_CAP
    lambda_nu_value = lambda_nu(n_p) if exact else lambda_nu_bound(n_p)
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


def _p_nu(n_p: int, n_m: int) -> float:
    """Exact success probability of the inverse-momentum state preparation:
    ``sum ceil(M 4^(mu-2)/|k|^2) / (M 4^mu 2^(n_p+1))`` over ``G_0`` minus the
    origin, where shell ``mu`` holds max-norms in ``[2^(mu-2), 2^(mu-1))``.
    About 0.24 on large grids; each shell sums exactly, and ``fsum`` rounds once."""
    import numpy as np

    sq, images, norm = _octant(n_p)
    mu = np.frexp(norm)[1] + 1  # the bit length of the max-norm is mu - 1
    m_val = 2 ** n_m
    shells = np.bincount(mu, weights=images * np.ceil(m_val * 4.0 ** (mu - 2) / sq))
    return math.fsum(shells / 4.0 ** np.arange(shells.size)) / (m_val * 2.0 ** (n_p + 1))


def success_probs(particles: ParticleTable, n_p: int, n_m: int, b_r: int) -> SuccessProbs:
    """All success probabilities entering the block-encoding LCU norm.

    ``p_nu`` is enumerated exactly for n_p <= BRUTE_NP_CAP (the value is
    approximately 1/4); above that the nominal 1/4 is used and
    ``p_nu_exact`` is False.
    ``p_zeta = 1 - sum(z^2)/(sum|z|)^2``.
    """
    if b_r < 1:
        raise ValueError("b_r must be >= 1")
    exact = n_p <= BRUTE_NP_CAP
    p_nu = _p_nu(n_p, n_m) if exact else 0.25
    abs_sum = sum(abs(z) for z in particles.charges)
    sq_sum = sum(z * z for z in particles.charges)
    p_zeta = 1.0 - sq_sum / abs_sum ** 2
    ps_eta = uniform_prep_success(particles.eta, b_r)
    return SuccessProbs(
        p_nu=float(p_nu),
        p_zeta=float(p_zeta),
        p_eq=uniform_prep_success(3, b_r) * ps_eta * ps_eta ** 2,
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
    """Ratio ``12 * lambda_nu_bound / lambda_nu`` bounding the amplitude error
    of the momentum state; exactly 12 at the bound and below it above."""
    return 12.0 * (lambda_nu_bound(n_p) / lambda_nu_value)


def precision_params(lambda_t: float, lambda_v: float, lambda_h_tilde_value: float,
                     eps_t: float, eps_v: float, eps_theta: float, n_p: int,
                     lambda_nu_value: float) -> PrecisionParams:
    """Register widths needed to hit the block-encoding error allocations;
    ``lambda_nu_value`` is the momentum sum the LCU norms used."""
    if min(eps_t, eps_v, eps_theta) <= 0:
        raise ValueError("error allocations must be positive")
    r_nu = r_nu_ratio(n_p, lambda_nu_value)
    return PrecisionParams(
        mu_t=ceil_log2(lambda_t / eps_t) if lambda_t / eps_t > 1 else 0,
        n_m=ceil_log2(lambda_v * r_nu / eps_v) if lambda_v * r_nu / eps_v > 1 else 0,
        n_theta=ceil_log2(lambda_h_tilde_value / eps_theta) if lambda_h_tilde_value / eps_theta > 1 else 0,
        r_nu=r_nu,
    )


def block_error(eps_t: float, eps_v: float, lambda_h_tilde_value: float, n_theta: int) -> float:
    """Total block-encoding error ``eps_T + eps_V + 2*lambda_H~ * 2^-n_theta``."""
    if n_theta < 0:
        raise ValueError("n_theta must be non-negative")
    return eps_t + eps_v + 2.0 * lambda_h_tilde_value * 2.0 ** (-n_theta)

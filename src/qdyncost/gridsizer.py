"""Momentum cutoffs, common-grid sizing, and padding.

All cutoff and bound formulas keep intermediate values in double precision;
ceilings are applied exactly where the derivations put them, and final qubit
counts are integers.  The ``0*ln(0)`` terms that appear at ``l_max = 0`` or
``N_hg = 1`` are defined as 0 (their limit value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from qdyncost.model import ceil_log2


@dataclass(frozen=True)
class GridParams:
    """The common simulation grid shared by every particle.

    ``n_p`` qubits per particle per dimension represent ``N = 2**n_p - 1``
    plane waves (one is removed by the signed-magnitude encoding).  The
    initial-state-preparation grid uses ``n_isp`` qubits plus ``n_pad``
    padding qubits per nuclear dimension.
    """

    k_max: float          # 1/bohr
    delta: float          # 1/bohr, adjusted so delta*(N-1)/2 == k_max
    length: float         # bohr, L = 2*pi/delta_initial
    n_p: int
    n_grid: int           # N = 2**n_p - 1
    n_isp: int
    n_pad: int

    @property
    def n_bar_isp(self) -> int:
        return self.n_isp + self.n_pad

    @property
    def n_ext(self) -> int:
        """Exterior qubits per coordinate: they exist only when the padded ISP
        grid is wider than the main grid."""
        return max(0, self.n_bar_isp - self.n_p)


def k_cutoff_electronic(gamma_max: float, l_max: int, n_gauss: int,
                        sigma: float, delta_eca: float) -> float:
    """Momentum cutoff guaranteeing trace-distance error <= delta_eca when a
    Gaussian-primitive orbital expansion is truncated to the plane-wave ball.

    Args:
        gamma_max: largest Gaussian exponent (1/bohr^2).
        l_max: largest Cartesian angular power; the ``l*ln(4l)`` term is 0 at 0.
        n_gauss: number of Gaussian primitives.
        sigma: orthogonalization eigenvalue cutoff.
        delta_eca: target truncation error, in (0, 1).
    """
    if not 0.0 < delta_eca < 1.0:
        raise ValueError(f"delta_eca must be in (0,1), got {delta_eca}")
    if sigma <= 0 or gamma_max <= 0 or n_gauss < 1:
        raise ValueError("gamma_max, sigma must be positive and n_gauss >= 1")
    log_arg = 288.0 * math.sqrt(3.0) * n_gauss / (delta_eca ** 4 * sigma ** 2)
    if log_arg <= 0:
        raise ValueError("logarithm argument must be positive")
    ang = l_max * math.log(4.0 * l_max) if l_max > 0 else 0.0
    radicand = 2.0 * math.log(log_arg) + ang + math.log(45.0)
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand}; delta_eca too large")
    return 2.0 * math.sqrt(2.0 * gamma_max) * math.sqrt(radicand)


def k_cutoff_nuclear(omega: float, length: float, n_hg: int, delta_nt: float) -> float:
    """Momentum cutoff for truncating a single-modal (Hermite-Gaussian
    expansion with frequency ``omega``) to error <= delta_nt.

    The ``(N_hg-1)*ln(4(N_hg-1))`` term is defined as 0 at ``N_hg = 1``.
    A rescaling of the coordinate by ``sqrt(d)`` is handled by calling with
    ``omega*d`` in place of ``omega``.
    """
    if omega <= 0 or length <= 0 or n_hg < 1:
        raise ValueError("omega, length must be positive and n_hg >= 1")
    if not 0.0 < delta_nt < 1.0:
        raise ValueError(f"delta_nt must be in (0,1), got {delta_nt}")
    f_hg = 5.4 + ((n_hg - 1) * math.log(4.0 * (n_hg - 1)) if n_hg > 1 else 0.0)
    radicand = (
        2.0 * math.log(1.0 / delta_nt)
        + math.log(1.0 / math.sqrt(2.0) + 2.0 * math.sqrt(math.pi) / (length * math.sqrt(omega)))
        + f_hg
    )
    if radicand < 0:
        raise ValueError(f"negative radicand {radicand}; delta_nt too large for this omega/L")
    return math.sqrt(2.0 * omega) * math.sqrt(radicand)


def shear_beta(dims: int) -> int:
    """Rounding-offset prefactor ``beta = 2 d (d-1) + 1`` of the multi-shear
    bound on a ``dims``-dimensional grid."""
    return 2 * dims * (dims - 1) + 1


def pad_qubits(mode: str, norm_inf: float, dims: int, n_isp: int) -> int:
    """Padding qubits per dimension so that no interior grid point wraps
    under centered-modulo arithmetic during the coordinate transform.

    mode="LCT" uses the shear-sequence bound
    ``1.619 sqrt(d) (2^n_isp ||L||_inf + beta) + 1`` over ``dims = d``
    coordinates with ``norm_inf = ||L||_inf``; mode="SSCT" uses the
    single-shear bound with ``norm_inf = ||L^{-T}||_inf``.  The result is
    clamped at 0 (the bounds can go negative when ``n_isp`` is already large).
    """
    if norm_inf <= 0:
        raise ValueError("shear norm must be positive (>= 1 for unit-triangular shears)")
    if mode == "LCT":
        inner = 1.619 * math.sqrt(dims) * (2 ** n_isp * norm_inf + shear_beta(dims)) + 1.0
    elif mode == "SSCT":
        inner = 2 ** n_isp * norm_inf + 1.0
    else:
        raise ValueError(f"unknown padding mode {mode!r}")
    return max(0, ceil_log2(inner) - n_isp)


def data_qubits(eta: int, eta_e: int, n_p: int) -> int:
    """Qubits storing the molecular wavefunction: 3*eta*n_p + eta_e spins."""
    return 3 * eta * n_p + eta_e


def common_grid(k_candidates, delta_target: float, nuclear_cutoffs) -> GridParams:
    """Size the common simulation grid from the candidate momentum cutoffs.

    ``K_max`` is the largest candidate; the odd plane-wave count
    ``N_bar = 2*ceil(K_max/delta) + 1`` is rounded up to ``N = 2**n_p - 1``
    and ``delta`` is updated to ``2*K_max/(N-1)`` keeping ``K_max`` fixed.
    The ISP grid holds the ``nuclear_cutoffs``, unpadded (``n_pad = 0``);
    :func:`pad_qubits` sizes the padding once ``n_isp`` is final.
    """
    k_candidates = list(k_candidates)
    if not k_candidates:
        raise ValueError("at least one cutoff candidate is required")
    if delta_target <= 0:
        raise ValueError("delta_target must be positive")

    k_max = max(k_candidates)
    n_p = ceil_log2(2 * math.ceil(k_max / delta_target) + 1)
    n_grid = 2 ** n_p - 1
    delta = 2.0 * k_max / (n_grid - 1) if n_grid > 1 else delta_target
    return GridParams(
        k_max=k_max,
        delta=delta,
        length=2.0 * math.pi / delta_target,
        n_p=n_p,
        n_grid=n_grid,
        n_isp=ceil_log2(max(2 * math.ceil(k / delta) + 1 for k in nuclear_cutoffs)),
        n_pad=0,
    )

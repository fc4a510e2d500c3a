"""Error-budget allocation and composition.

The observable error splits as
``eps = 2*lambda_O*(eps_ISP + eps_prop + eps_B) + eps_meas``.
The default policy reproduces the published allocation proportions
(eps_QAE : eps_ISP : eps_prop = 0.0625 : 0.015 : 0.00125 at eps = 0.095 and
lambda_O = 1), rescaling the state-error shares by 1/lambda_O so the split
closes with equality for any lambda_O.
"""

from __future__ import annotations

import math

import numpy as np

from qdyncost import costs
from qdyncost.model import ErrorBudget

# Default allocation proportions, normalized to a total budget of 0.095.
_REF_TOTAL = 0.095
_REF_QAE = 0.0625
_REF_ISP = 0.015
_REF_PROP = 0.00125

# Samples drawn per trim Monte Carlo batch, which bounds its peak memory.
TRIM_BATCH = 20_000_000


def allocate(eps_total: float, lambda_obs: float, policy: str = "paper_default",
             custom: dict | None = None) -> ErrorBudget:
    """Split the total error across ISP, propagation, basis change, and
    measurement.

    policy="paper_default" scales the reference proportions; a "custom"
    policy takes explicit values and verifies feasibility.  The ISP share is
    further split uniformly across its seven contributions (arbitrary state
    preparation, classical and quantum MPS errors, shear, orthogonal-step,
    phase-kickback, and trimming errors).
    """
    if not 0.0 < eps_total < 1.0:
        raise ValueError(f"eps_total must be in (0,1), got {eps_total}")
    if lambda_obs <= 0:
        raise ValueError("lambda_obs must be positive")

    b = ErrorBudget(eps_total=eps_total, lambda_obs=lambda_obs, policy=policy)
    if policy == "paper_default":
        scale = eps_total / _REF_TOTAL
        b.eps_qae = _REF_QAE * scale
        b.eps_obs = 0.0
        b.eps_b = 0.0
        b.eps_isp = _REF_ISP * scale / lambda_obs
        b.eps_prop = _REF_PROP * scale / lambda_obs
    elif policy == "custom":
        custom = dict(custom or {})
        b.eps_qae = float(custom.get("eps_qae", 0.0))
        b.eps_obs = float(custom.get("eps_obs", 0.0))
        b.eps_b = float(custom.get("eps_b", 0.0))
        b.eps_isp = float(custom.get("eps_isp", 0.0))
        b.eps_prop = float(custom.get("eps_prop", 0.0))
    else:
        raise ValueError(f"unknown budget policy {policy!r}")

    b.eps_meas = b.eps_qae + b.eps_obs
    if b.feasibility_margin() < -1e-12:
        raise ValueError(
            f"infeasible split: 2*lambda_O*(eps_ISP+eps_prop+eps_B)+eps_meas "
            f"exceeds eps_total by {-b.feasibility_margin():.3e}"
        )
    # a zero share divides the sizing formulas; a negative one inflates the margin
    for name in ("eps_isp", "eps_prop", "eps_qae"):
        if not getattr(b, name) > 0:
            raise ValueError(f"{name} must be positive, got {getattr(b, name)}")
    for name in ("eps_b", "eps_obs"):
        if not getattr(b, name) >= 0:
            raise ValueError(f"{name} must be non-negative, got {getattr(b, name)}")

    # uniform split of the ISP budget across its seven contributions
    share = b.eps_isp / 7.0
    b.eps_asp = share
    b.eps_mps_classical = share
    b.eps_mps_quantum = share
    b.eps_shear = share
    b.eps_ortho = share
    b.eps_pk = share
    b.eps_trim = share
    b.eps_lct = b.eps_shear + b.eps_ortho
    return b


def resolve_prop_splits(b: ErrorBudget, t_au: float, lambda_h_tilde: float) -> ErrorBudget:
    """Fill the propagation sub-splits once the simulation time is known.

    Half of ``eps_prop`` covers the block-encoding floor ``eps_H * t``,
    one quarter the series truncation, and one quarter the ``(d~+1)`` QSP
    rotation/angle errors; within the last, synthesized-rotation and the
    two classical-angle errors share equally (eps_phi = eps_gamma = eps_rot).
    """
    if t_au <= 0:
        raise ValueError("simulation time must be positive")
    b.eps_h = b.eps_prop / (2.0 * t_au)
    b.eps_t = b.eps_h / 3.0
    b.eps_v = b.eps_h / 3.0
    b.eps_theta = b.eps_h / 3.0
    b.eps_dtilde = b.eps_prop / 4.0
    b.eps_qsp = b.eps_prop / 2.0
    d_tilde = costs.qsp_degree(lambda_h_tilde, t_au, b.eps_dtilde)
    per_rot = b.eps_prop / 4.0 / (3.0 * (d_tilde + 1.0))
    b.eps_rot = per_rot
    b.eps_phi = per_rot
    b.eps_gamma = per_rot
    return b


def asp_error_bound(b_asp: int, d_configs: int) -> float:
    """Arbitrary-state-preparation error bound ``2*pi*2^-b*log2(D)``."""
    logd = math.log2(d_configs) if d_configs > 1 else 0.0
    return 2.0 * math.pi * 2.0 ** (-b_asp) * logd


def isp_error_bound(mode: str, components: dict) -> float:
    """Total ISP error from its individual contributions.

    components keys (all optional, default 0):
      eps_asp             arbitrary state preparation
      eps_orbital         list of per-orbital MPS errors (electronic)
      eps_modal           list of per-single-modal MPS errors (nuclear)
      eps_shear, eps_ortho, eps_pk, eps_trim
      sum_abs_c           sum_{I,J} |C_IJ| (non-separable only)
      eta_e               electron count (weights the orbital term)
    """
    eps_asp = components.get("eps_asp", 0.0)
    eta_e = components.get("eta_e", 1)
    orb = 2.0 ** 1.5 * eta_e * float(np.sum(components.get("eps_orbital", [])))
    modal = 2.0 ** 1.5 * float(np.sum(components.get("eps_modal", [])))
    coord = (
        components.get("eps_shear", 0.0)
        + components.get("eps_ortho", 0.0)
        + components.get("eps_pk", 0.0)
    )
    trim = components.get("eps_trim", 0.0)
    if mode == "electronic":
        return eps_asp + orb
    if mode == "nuclear":
        return eps_asp + modal + coord + trim
    if mode == "separable":
        return eps_asp + orb + modal + coord + trim
    if mode == "nonseparable":
        sum_abs_c = components.get("sum_abs_c", 1.0)
        return eps_asp + trim + orb + modal + sum_abs_c * coord
    raise ValueError(f"unknown ISP error mode {mode!r}")


def prop_error(eps_h: float, t_au: float, d_tilde: float, eps_dtilde: float,
               eps_rot: float, eps_phi: float, eps_gamma: float) -> float:
    """Propagator error ``eps_H*t + eps_d~ + (d~+1)(eps_rot+eps_phi+eps_gamma)``."""
    vals = (eps_h, t_au, d_tilde, eps_dtilde, eps_rot, eps_phi, eps_gamma)
    if any(v < 0 for v in vals):
        raise ValueError("all arguments must be non-negative")
    return eps_h * t_au + eps_dtilde + (d_tilde + 1.0) * (eps_rot + eps_phi + eps_gamma)


def trim_error_mc(sampler, n_mc: int, alpha: float, rng) -> tuple[float, bool]:
    """Monte Carlo bound on the grid-trimming error.

    ``sampler(rng, size)`` draws that many grid points from the prepared
    distribution and returns a boolean array flagging which landed inside
    the interior box.  If all ``n_mc`` samples land inside, the one-sided
    ``1-alpha`` confidence bound ``sqrt(1 - alpha**(1/n_mc))`` is returned
    with the flag True; otherwise the empirical ``sqrt(1 - p_hat)`` with
    False.

    Deterministic given ``rng``; batches of ``TRIM_BATCH`` are drawn in a
    fixed order.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0,1)")
    n_inside = 0
    remaining = n_mc
    while remaining > 0:
        size = min(TRIM_BATCH, remaining)
        inside = np.asarray(sampler(rng, size), dtype=bool)
        if inside.shape != (size,):
            raise ValueError("sampler must return one flag per requested sample")
        n_inside += int(np.count_nonzero(inside))
        remaining -= size
    if n_inside == n_mc:
        # alpha**(1/n) via exp(log(alpha)/n) to avoid underflow of the power
        return math.sqrt(1.0 - math.exp(math.log(alpha) / n_mc)), True
    p_hat = n_inside / n_mc
    return math.sqrt(1.0 - p_hat), False


def gaussian_box_sampler(sigma_grid: float, interior_half: int):
    """Sampler drawing from a centered 1D discrete Gaussian of the given
    width (grid units) and reporting whether each point lies in the interior
    interval ``[-interior_half, interior_half - 1]``.
    """
    def sampler(rng, size):
        pts = np.rint(rng.normal(0.0, sigma_grid, size=size))
        return (pts >= -interior_half) & (pts <= interior_half - 1)

    return sampler

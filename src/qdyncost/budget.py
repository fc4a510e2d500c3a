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
import operator

from qdyncost.model import BudgetSettings, BudgetShares, Record

# Default allocation proportions, normalized to a total budget of 0.095.
_REF_TOTAL = 0.095
_REF_QAE = 0.0625
_REF_ISP = 0.015
_REF_PROP = 0.00125


class ErrorBudget(Record):
    """Tree of error allocations from the total observable error downwards.

    The top-level constraint is
    ``2 * lambda_O * (eps_ISP + eps_prop + eps_B) + eps_meas <= eps_total``
    with ``eps_meas = eps_QAE + eps_O``; :func:`allocate` sets every leaf.
    """

    eps_total: float
    lambda_obs: float
    policy: str
    eps_isp: float
    eps_prop: float
    eps_b: float
    eps_qae: float
    eps_obs: float
    # propagation sub-splits
    eps_h: float
    eps_t: float
    eps_v: float
    eps_theta: float
    eps_dtilde: float
    # ISP sub-splits
    eps_asp: float
    eps_mps_classical: float
    eps_mps_quantum: float
    eps_shear: float
    eps_ortho: float
    eps_pk: float
    eps_trim: float

    @property
    def eps_meas(self) -> float:
        return self.eps_qae + self.eps_obs

    def feasibility_margin(self) -> float:
        """Slack of the top-level constraint; non-negative iff feasible."""
        used = 2.0 * self.lambda_obs * (self.eps_isp + self.eps_prop + self.eps_b)
        return self.eps_total - used - self.eps_meas


def allocate(settings: BudgetSettings, t_au: float) -> ErrorBudget:
    """Split the total error across ISP, propagation, basis change, and
    measurement, down to the leaves a simulation of ``t_au`` sizes from.

    Policy "paper_default" scales the reference proportions; "custom" takes
    ``settings.custom`` and verifies feasibility.  The ISP share splits
    uniformly across its seven contributions (arbitrary state preparation,
    classical and quantum MPS errors, shear, orthogonal-step, phase-kickback,
    and trimming errors).  Half of ``eps_prop`` covers the block-encoding
    floor ``eps_H * t`` (``eps_H`` split evenly over T, V and the rotation),
    a quarter the series truncation ``eps_d~``, and a quarter the QSP
    rotations (see :func:`rotation_share`).
    """
    eps_total, lambda_obs, policy = settings.eps_total, settings.lambda_obs, settings.policy
    if not 0.0 < eps_total < 1.0:
        raise ValueError(f"eps_total must be in (0,1), got {eps_total}")
    if lambda_obs <= 0:
        raise ValueError("lambda_obs must be positive")
    if t_au <= 0:
        raise ValueError("simulation time must be positive")

    if policy == "paper_default":
        scale = eps_total / _REF_TOTAL
        shares = BudgetShares(eps_isp=_REF_ISP * scale / lambda_obs,
                              eps_prop=_REF_PROP * scale / lambda_obs, eps_qae=_REF_QAE * scale)
    elif policy == "custom":
        shares = settings.custom
    else:
        raise ValueError(f"unknown budget policy {policy!r}")

    eps_h = shares.eps_prop / (2.0 * t_au)
    isp = shares.eps_isp / 7.0
    b = ErrorBudget(
        eps_total=eps_total, lambda_obs=lambda_obs, policy=policy, **vars(shares),
        eps_h=eps_h, eps_t=eps_h / 3.0, eps_v=eps_h / 3.0, eps_theta=eps_h / 3.0,
        eps_dtilde=shares.eps_prop / 4.0,
        eps_asp=isp, eps_mps_classical=isp, eps_mps_quantum=isp, eps_shear=isp,
        eps_ortho=isp, eps_pk=isp, eps_trim=isp,
    )
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
    return b


def rotation_share(b: ErrorBudget, d_tilde: float) -> float:
    """Per-rotation error of a degree-``d_tilde`` QSP sequence: the last
    quarter of ``eps_prop`` covers the ``(d~+1)`` rotations, each split
    equally between the synthesized rotation and its two classical angles."""
    return b.eps_prop / 4.0 / (3.0 * (d_tilde + 1.0))


def asp_error_bound(b_asp: int, d_configs: int) -> float:
    """Arbitrary-state-preparation error bound ``2*pi*2^-b*log2(D)``."""
    logd = math.log2(d_configs) if d_configs > 1 else 0.0
    return 2.0 * math.pi * 2.0 ** (-b_asp) * logd


def isp_error_bound(*, eps_asp: float = 0.0, eps_orbital=(), eta_e: int = 1, eps_modal=(),
                    eps_shear: float = 0.0, eps_ortho: float = 0.0, eps_pk: float = 0.0,
                    sum_abs_c: float = 1.0, eps_trim: float = 0.0) -> float:
    """Total ISP error from its contributions,
    ``eps_asp + 2^1.5 eta_e sum(eps_orbital) + 2^1.5 sum(eps_modal)
    + sum_abs_c (eps_shear + eps_ortho + eps_pk) + eps_trim``.

    ``eps_orbital`` and ``eps_modal`` list the per-orbital (electronic) and
    per-single-modal (nuclear) MPS errors; ``sum_abs_c = sum_{I,J} |C_IJ|``
    weights the coordinate-transform terms of a non-separable state.  An
    electronic-only or nuclear-only state leaves the other side's terms 0.
    """
    return (eps_asp + 2.0 ** 1.5 * eta_e * sum(eps_orbital) + 2.0 ** 1.5 * sum(eps_modal)
            + sum_abs_c * (eps_shear + eps_ortho + eps_pk) + eps_trim)


def prop_error(eps_h: float, t_au: float, d_tilde: float, eps_dtilde: float,
               eps_rot: float, eps_phi: float, eps_gamma: float) -> float:
    """Propagator error ``eps_H*t + eps_d~ + (d~+1)(eps_rot+eps_phi+eps_gamma)``."""
    vals = (eps_h, t_au, d_tilde, eps_dtilde, eps_rot, eps_phi, eps_gamma)
    if any(v < 0 for v in vals):
        raise ValueError("all arguments must be non-negative")
    return eps_h * t_au + eps_dtilde + (d_tilde + 1.0) * (eps_rot + eps_phi + eps_gamma)


def trim_error_mc(sampler, n_mc: int, alpha: float, rng) -> tuple[float, bool]:
    """Monte Carlo bound on the grid-trimming error.

    ``sampler(rng, size)`` returns how many of ``size`` points drawn from the
    prepared distribution land inside the interior box.  It is called once,
    for all ``n_mc``: with :func:`gaussian_box_sampler` that is one binomial
    draw, O(1) in ``n_mc`` and deterministic given ``rng``.  If all land
    inside, the one-sided ``1-alpha`` confidence bound
    ``sqrt(1 - alpha**(1/n_mc))`` is returned with the flag True; otherwise
    the empirical ``sqrt(1 - p_hat)`` with False.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0,1)")
    n_inside = operator.index(sampler(rng, n_mc))
    if not 0 <= n_inside <= n_mc:
        raise ValueError(f"sampler returned {n_inside} inside of {n_mc} samples")
    if n_inside == n_mc:
        # alpha**(1/n) via exp(log(alpha)/n) to avoid underflow of the power
        return math.sqrt(1.0 - math.exp(math.log(alpha) / n_mc)), True
    return math.sqrt(1.0 - n_inside / n_mc), False


def gaussian_box_sampler(sigma_grid: float, interior_half: int):
    """Sampler of how many of ``size`` points ``rint(N(0, sigma_grid**2))``
    (grid units) lie in ``[-interior_half, interior_half - 1]``: one
    Binomial(size, 1 - p_out) draw, where a point is outside iff its normal
    draw is below ``-interior_half - 1/2`` or above ``interior_half - 1/2``.
    """
    if not (math.isfinite(sigma_grid) and sigma_grid > 0.0 and interior_half >= 1):
        raise ValueError("sampler needs a finite sigma_grid > 0 and interior_half >= 1, "
                         f"got {sigma_grid} and {interior_half}")
    scale = sigma_grid * math.sqrt(2.0)
    p_out = 0.5 * (math.erfc((interior_half + 0.5) / scale)
                   + math.erfc((interior_half - 0.5) / scale))

    def sampler(rng, size):
        return size - int(rng.binomial(size, p_out))

    return sampler

"""Constant-factor Toffoli/ancilla cost ledger.

Every subroutine of the end-to-end algorithm (initial state preparation,
block-encoded walk, propagator synthesis, measurement) has a closed-form
cost evaluated here.  Costs are kept as reals internally and ceiled only at
report boundaries so that component sums stay exact.  Rows whose source
formula is an upper bound carry ``bound=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qdyncost.model import ceil_log2


@dataclass(frozen=True)
class CostPair:
    """Toffoli count (real, ceiled when reported) and ancilla count."""

    toffoli: float
    ancilla: int
    bound: bool = False

    def __post_init__(self):
        if self.toffoli < -1e-9 or self.ancilla < 0:
            raise ValueError(f"negative cost: {self}")

    @property
    def toffoli_int(self) -> int:
        return int(math.ceil(self.toffoli))


def erasure_cost(eta: int) -> tuple[int, int]:
    """Measurement-based-uncomputation cost ``min_k(ceil(eta/2^k) + 2^k)``.

    Returns ``(Er(eta), argmin k)``.
    """
    if eta < 1:
        raise ValueError("eta must be >= 1")
    best_val, best_k = None, 0
    for k in range(0, eta.bit_length() + 1):
        val = math.ceil(eta / 2 ** k) + 2 ** k
        if best_val is None or val < best_val:
            best_val, best_k = val, k
    return best_val, best_k


def _rounded_pow2(m: int) -> int:
    return 2 ** ceil_log2(int(m)) if m > 1 else 1


def _mps_synthesis_sum(bond_rows, b_rot: int) -> float:
    """Shared rotation-synthesis sum over an MPS bond-dimension table.

    ``bond_rows`` is a 2D array, one row per synthesized state, one column
    per tensor site; the neighbour-maximum ``m_bar`` uses rounded-up powers
    of two with an implicit open-boundary bond of 1 before the first site.
    """
    rows = np.atleast_2d(np.asarray(bond_rows, dtype=int))
    total = 0.0
    coeff = 32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(b_rot + 1.0)
    for row in rows:
        prev = 1
        for m in row:
            m = int(m)
            m_bar = max(_rounded_pow2(prev), _rounded_pow2(m))
            total += coeff * m * math.sqrt(m_bar)
            total += (8.0 * b_rot - 15.0) * m * math.log2(2.0 * m_bar)
            prev = m
    return total


def _mps_synthesis_ancilla(bond_rows, b_rot: int) -> int:
    m_max = int(np.max(np.asarray(bond_rows)))
    anc = (
        0.5 * math.log2(m_max)
        + 2.0 * b_rot * math.sqrt(m_max) / math.sqrt(b_rot + 1.0)
        + 0.5 * math.log2(b_rot + 1.0)
        + 3.0 * b_rot
    )
    return int(math.ceil(anc))


def cost_isp(kind: str, **p) -> CostPair:
    """Cost of one initial-state-preparation subroutine.

    Supported kinds: ASP, SoSlat, ONB2MOB, ASYM, W_e, ONB2SMB, W_n, LCT,
    SSCT, PK, TC2SM.  Required parameters depend on the kind; a missing
    parameter raises ``KeyError``.
    """
    if kind == "ASP":
        d, b = p["d_configs"], p["b_asp"]
        toff = 2.0 ** 2.5 * (1.0 + math.sqrt(2.0)) * d * math.sqrt(b + 1.0) \
            + 2.0 * math.log2(d) * (b - 4.0)
        anc = 0.5 * math.log2(d) if d > 1 else 0.0
        anc += d * b / (4.0 * math.sqrt(b + 1.0)) + 0.5 * math.log2(b + 1.0) + 3.0 * b - 4.0
        return CostPair(toff, int(math.ceil(max(0.0, anc))))
    if kind == "SoSlat":
        d = p["d_configs"]
        logd = math.log2(d) if d > 1 else 0.0
        # Toffoli formula is an upper bound; ancilla clamped at 0 (the
        # 5*log(D)-3 expression goes negative for a single configuration).
        return CostPair(d * (2.0 * logd + 3.0), max(0, int(math.ceil(5.0 * logd - 3.0))), bound=True)
    if kind == "ONB2MOB":
        n_mob, eta_e = p["n_mob"], p["eta_e"]
        # the -4 constant underflows for a single orbital; clamp at zero
        toff = max(0.0, n_mob * (2.0 * eta_e + math.ceil(math.log2(eta_e + 1))
                                 + eta_e * ceil_log2(n_mob) - 4.0))
        anc = n_mob + 3 * math.ceil(math.log2(eta_e + 1))
        return CostPair(toff, int(anc))
    if kind == "ASYM":
        eta_e, n_p = p["eta_e"], p["n_p"]
        nbar = 2 ** math.ceil(math.log2(n_p + 1))
        ln = math.log2(nbar)
        toff = 2.0 * (eta_e - 1) * (ln + 1.0) \
            + 0.25 * nbar * ln * (1.0 + ln) * (6.0 * ln + n_p + 1.0)
        anc = eta_e * (math.log2(eta_e) if eta_e > 1 else 0.0) \
            + 0.25 * nbar * ln * (1.0 + ln) + 2.0 * (eta_e - 1)
        return CostPair(toff, int(math.ceil(anc)))
    if kind == "W_e":
        eta_e, n_mob, n_p, b_rot = p["eta_e"], p["n_mob"], p["n_p"], p["b_rot"]
        bond = np.asarray(p["bond_dims"], dtype=int)  # (n_mob, n_p)
        toff = eta_e * n_mob * n_p + 2.0 * eta_e * _mps_synthesis_sum(bond, b_rot)
        anc = n_mob * n_p + _mps_synthesis_ancilla(bond, b_rot)
        return CostPair(toff, int(anc), bound=True)
    if kind == "ONB2SMB":
        n_vib, n_smb = p["n_vib"], p["n_smb"]
        toff = n_vib * n_smb * max(0, ceil_log2(n_smb) - 2) if n_smb > 1 else 0.0
        return CostPair(float(toff), n_smb + 3)
    if kind == "W_n":
        n_isp, b_rot = p["n_isp"], p["b_rot"]
        bond = np.asarray(p["bond_dims"], dtype=int)  # (modes, n_smb, sites)
        if bond.ndim == 2:
            bond = bond[:, None, :]
        n_modes, n_smb = bond.shape[0], bond.shape[1]
        toff = 0.0
        for i in range(n_modes):
            toff += n_smb * n_isp + 2.0 * _mps_synthesis_sum(bond[i], b_rot)
        anc = _mps_synthesis_ancilla(bond, b_rot)
        return CostPair(toff, int(anc), bound=True)
    if kind == "LCT":
        eta_n, nb = p["eta_n"], p["n_bar_isp"]
        toff = 4.5 * eta_n ** 2 * (8.0 * nb ** 2 + 39.0 * nb - 8.0) \
            - 1.5 * eta_n * (8.0 * nb ** 2 + 35.0 * nb - 8.0) - nb
        return CostPair(toff, 4 * nb - 3)
    if kind == "SSCT":
        eta_n, nb = p["eta_n"], p["n_bar_isp"]
        toff = 9.0 * eta_n ** 2 * (nb ** 2 + 4.0 * nb - 1.0) \
            - 3.0 * eta_n * (nb ** 2 + 2.0 * nb - 1.0) - 2.0 * nb
        return CostPair(toff, 4 * nb - 3)
    if kind == "PK":
        eta_n, nb, b_grad, eps_pk = p["eta_n"], p["n_bar_isp"], p["b_grad"], p["eps_pk"]
        toff = 3.0 * eta_n * (4.0 * nb * b_grad + b_grad - 2.0 * nb) \
            + b_grad * (1.149 * math.log2(b_grad / eps_pk) + 9.2) / 4.0
        return CostPair(toff, 4 * b_grad + 2 * nb - 1)
    if kind == "TC2SM":
        eta_n, nb = p["eta_n"], p["n_bar_isp"]
        return CostPair(3.0 * eta_n * (nb - 2.0), nb - 2)
    raise ValueError(f"unknown ISP subroutine kind {kind!r}")


def cost_isp_total(components: dict, eta_n: int, n_ext: int) -> CostPair:
    """Aggregate ISP cost: Toffolis add; ancillas are the held exterior-grid
    qubits ``3*eta_n*n_ext`` plus the largest component ancilla demand."""
    toff = sum(c.toffoli for c in components.values())
    anc_max = max((c.ancilla for c in components.values()), default=0)
    bound = any(c.bound for c in components.values())
    return CostPair(toff, 3 * eta_n * n_ext + anc_max, bound=bound)


def cost_block_encoding(kind: str, **p) -> CostPair:
    """Cost of one block-encoding subroutine.

    Kinds: PREP_T, UNPREP_T, PREP_V, UNPREP_V, PREP_H, UNPREP_H, SEL_H,
    CTRL_SEL_H, REFLECT_W.  Parameters: eta, eta_e, n_p, mu_t, n_m, n_theta,
    b_r as needed per kind.
    """
    if kind in ("PREP_T", "UNPREP_T"):
        eta, n_p = p["eta"], p["n_p"]
        n_eta = ceil_log2(eta)
        if kind == "PREP_T":
            mu_t = p["mu_t"]
            toff = eta + mu_t + 4.0 * n_eta + 2.0 * n_p + 14.0
            anc = 3 * n_eta + 3 * p["mu_t"] + 2 * n_p + 8
        else:
            er, n_er = erasure_cost(eta)
            toff = er + 4.0 * n_eta + 2.0 * n_p + 16.0
            anc = n_er
        return CostPair(toff, int(anc))
    if kind in ("PREP_V", "UNPREP_V"):
        eta, eta_e, n_p, b_r = p["eta"], p["eta_e"], p["n_p"], p["b_r"]
        n_eta = ceil_log2(eta)
        log2e = math.ceil(math.log2(2 * eta_e))
        if kind == "PREP_V":
            n_m = p["n_m"]
            toff = 4.0 * eta_e + n_eta + 6.0 * log2e + 4.0 * b_r - 24.0 \
                + 3.0 * n_p ** 2 + 11.0 * n_p + 4.0 * n_m * (n_p + 1.0)
            anc = 3 * n_p ** 2 + 10 * n_p + 6 * log2e + 3 * n_eta \
                + 5 * n_m + 4 * n_m * n_p + 14
        else:
            er2, n_er2 = erasure_cost(2 * eta_e)
            toff = n_eta + 2.0 * er2 + 6.0 * log2e + 4.0 * b_r - 19.0 + 4.0 * (n_p - 1.0)
            anc = n_er2
        return CostPair(toff, int(anc))
    if kind in ("PREP_H", "UNPREP_H"):
        n_theta = p["n_theta"]
        # the n_theta - 3 rotation-synthesis count underflows below 3 bits
        rot = CostPair(max(0.0, n_theta - 3.0), n_theta)
        if kind == "PREP_H":
            t_part = cost_block_encoding("PREP_T", **p)
            v_part = cost_block_encoding("PREP_V", **p)
        else:
            t_part = cost_block_encoding("UNPREP_T", **p)
            v_part = cost_block_encoding("UNPREP_V", **p)
        return CostPair(
            t_part.toffoli + v_part.toffoli + rot.toffoli,
            t_part.ancilla + v_part.ancilla + rot.ancilla,
        )
    if kind in ("SEL_H", "CTRL_SEL_H"):
        eta, n_p = p["eta"], p["n_p"]
        n_eta = ceil_log2(eta)
        # the source writes the n_p terms as 5*n_p + 24*n_p; total 29*n_p
        toff = 18.0 * eta * n_p + 6.0 * eta + 29.0 * n_p - 9.0
        if kind == "CTRL_SEL_H":
            toff += 1.0
        return CostPair(toff, 5 * n_p + n_eta + 11)
    if kind == "REFLECT_W":
        out = prep_h_output_size(p["eta"], p["eta_e"], p["n_p"], p["n_m"])
        return CostPair(out - 1.0, out - 2)
    raise ValueError(f"unknown block-encoding kind {kind!r}")


def prep_h_output_size(eta: int, eta_e: int, n_p: int, n_m: int) -> int:
    """Output-register width of the inverse coefficient preparation; the
    qubiterate reflection is (anti-)controlled on all of it."""
    return ceil_log2(eta) + 6 * n_p + n_m + 2 * math.ceil(math.log2(2 * eta_e)) + 11


def cost_walk(prep_h: CostPair, ctrl_sel_h: CostPair, unprep_h: CostPair,
              reflect: CostPair) -> CostPair:
    """Controlled walk-operator cost: coefficient preparation, controlled
    term selection, unpreparation, and the reflection."""
    toff = prep_h.toffoli + ctrl_sel_h.toffoli + unprep_h.toffoli + reflect.toffoli
    # reflect.toffoli is out-1, so 2*(out-1) == 2*reflect.toffoli
    anc = max(prep_h.ancilla + ctrl_sel_h.ancilla, int(2 * reflect.toffoli))
    return CostPair(toff, anc)


def qsp_degree(lambda_h_tilde: float, t_au: float, eps_dtilde: float) -> float:
    """Walk-operator query count ``lambda_H~ * t + log2(1/eps)`` (real; the
    report ceils it)."""
    if t_au < 0:
        raise ValueError("time must be non-negative")
    if not 0.0 < eps_dtilde < 1.0:
        raise ValueError("eps_dtilde must be in (0,1)")
    return lambda_h_tilde * t_au + math.log2(1.0 / eps_dtilde)


def qsp_rotation_cost(eps_rot: float) -> float:
    """Toffoli cost of one synthesized single-qubit QSP rotation."""
    if not 0.0 < eps_rot < 1.0:
        raise ValueError("eps_rot must be in (0,1)")
    return 0.5 * (0.56 * math.log2(1.0 / eps_rot) + 5.3)


def cost_propagator(d_tilde: float, walk: CostPair, eps_rot: float) -> CostPair:
    """Propagator synthesis: two controlled walks, ``d~`` walk calls, and
    ``d~+1`` synthesized rotations.

    The per-call walk cost here is the controlled one (an upper bound on the
    uncontrolled call), so the row is marked as a bound.
    """
    if d_tilde < 0:
        raise ValueError("degree must be non-negative")
    rot = qsp_rotation_cost(eps_rot)
    toff = 2.0 * walk.toffoli + d_tilde * walk.toffoli + (d_tilde + 1.0) * rot
    return CostPair(toff, 2 + walk.ancilla, bound=True)


def cost_measurement(kind: str, **p) -> CostPair:
    """Measurement-stage subroutines: QFT, U_PiS (yield indicator), R0_QAE."""
    if kind == "QFT":
        n, eps = p["n"], p["eps"]
        toff = 4.0 * n * (math.log2(n / eps) - 2.0) \
            + 0.6 * math.log2(n * math.log2(n / eps) / eps)
        return CostPair(toff, 0)
    if kind == "U_PiS":
        b_j, n_p, n_nuc = p["b_j"], p["n_p"], p["n_nuc"]
        if b_j < 1:
            raise ValueError("a reaction channel requires at least one constraint")
        toff = 3.0 * b_j * (2.0 * n_p ** 2 + 2.0 * n_p - 3.0) + 3.0 * n_nuc * (n_p - 2.0) - 1.0
        return CostPair(toff, 3 * n_p ** 2 - n_p)
    if kind == "R0_QAE":
        eta_e, eta_n, n_p, n_bar_isp = p["eta_e"], p["eta_n"], p["n_p"], p["n_bar_isp"]
        toff = 3.0 * eta_e * n_p + 3.0 * eta_n * n_bar_isp
        return CostPair(toff, max(0, 3 * (eta_e * n_p + eta_n * n_bar_isp) - 1))
    raise ValueError(f"unknown measurement kind {kind!r}")


@dataclass
class CostReport:
    """Full cost ledger: per-subroutine rows plus derived aggregates."""

    rows: dict = field(default_factory=dict)          # name -> CostPair
    aggregates: dict = field(default_factory=dict)    # name -> CostPair
    qubits: dict = field(default_factory=dict)        # name -> int
    scalars: dict = field(default_factory=dict)       # misc derived numbers
    warnings: list = field(default_factory=list)
    anchors: dict = field(default_factory=dict)
    params_hash: str = ""

    def add_row(self, name: str, pair: CostPair):
        self.rows[name] = pair

    def to_json_dict(self) -> dict:
        def pair_dict(c: CostPair):
            return {
                "toffoli": c.toffoli_int,
                "toffoli_real": float(c.toffoli),
                "ancilla": int(c.ancilla),
                "is_bound": bool(c.bound),
            }

        return {
            "rows": {k: pair_dict(v) for k, v in sorted(self.rows.items())},
            "aggregates": {k: pair_dict(v) for k, v in sorted(self.aggregates.items())},
            "qubits": {k: int(v) for k, v in sorted(self.qubits.items())},
            "scalars": {k: v for k, v in sorted(self.scalars.items())},
            "warnings": list(self.warnings),
            "anchors": dict(self.anchors),
            "params_hash": self.params_hash,
        }


def cost_total(isp: CostPair, propagator: CostPair, qft: CostPair, u_pis: CostPair,
               r0_qae: CostPair, lambda_obs: float, eps_qae: float,
               eta_n: int, n_ext: int) -> CostReport:
    """Compose the end-to-end cost: one state-preparation-plus-evolution
    pass, then amplitude estimation with ``lambda_O/(2*eps_QAE)`` calls to
    the reflection iterate ``2*(U_PiS + U~) + R0_QAE``.

    The iterate holds the ``3*eta_n*n_ext`` exterior-grid qubits plus the
    largest ancilla demand of its terms; the term that sets it is recorded
    as ``iterate_ancilla_set_by`` (the first one listed wins a tie).
    """
    if eps_qae <= 0:
        raise ValueError("eps_qae must be positive")
    u_tilde_toff = qft.toffoli + propagator.toffoli + isp.toffoli
    iterate_toff = 2.0 * (u_pis.toffoli + u_tilde_toff) + r0_qae.toffoli
    calls = lambda_obs / (2.0 * eps_qae)
    qae_toff = calls * iterate_toff
    total_toff = u_tilde_toff + qae_toff

    s_qpe = ceil_log2(lambda_obs / eps_qae)
    held = 3 * eta_n * n_ext
    demand = {"U_PiS": u_pis.ancilla - 1, "propagator": propagator.ancilla,
              "ISP": isp.ancilla - held, "R0_QAE": r0_qae.ancilla}
    set_by = max(demand, key=demand.get)
    anc_iterate = 1 + held + demand[set_by]
    anc_qae = s_qpe + anc_iterate

    report = CostReport()
    bound_any = any(c.bound for c in (isp, propagator, qft, u_pis, r0_qae))
    report.aggregates["U_evolution"] = CostPair(u_tilde_toff, max(isp.ancilla, propagator.ancilla), bound=bound_any)
    report.aggregates["QAE_iterate"] = CostPair(iterate_toff, anc_iterate, bound=bound_any)
    report.aggregates["QAE_total"] = CostPair(qae_toff, anc_qae, bound=bound_any)
    report.aggregates["total"] = CostPair(total_toff, anc_qae, bound=bound_any)
    report.scalars["qae_calls"] = calls
    report.scalars["qpe_register"] = s_qpe
    report.scalars["iterate_ancilla_set_by"] = set_by
    report.qubits["C_anc"] = anc_qae
    return report

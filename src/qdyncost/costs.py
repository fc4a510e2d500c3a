"""Constant-factor Toffoli/ancilla cost ledger.

Every subroutine of the end-to-end algorithm (initial state preparation,
block-encoded walk, propagator synthesis, measurement) has a closed-form
cost evaluated here.  Costs are kept as reals internally and ceiled only at
report boundaries so that component sums stay exact.  Rows whose source
formula is an upper bound carry ``bound=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from qdyncost import budget, encoding, gridsizer
from qdyncost.model import MoleculeSpec, ceil_log2, ordered_sum


@dataclass(frozen=True)
class CostPair:
    """Toffoli count (real, ceiled when reported) and ancilla count."""

    toffoli: float
    ancilla: int
    bound: bool = False

    def __post_init__(self):
        if self.toffoli < -1e-9 or self.ancilla < 0:
            raise ValueError(f"negative cost: {self}")
        if not math.isfinite(self.toffoli):
            raise OverflowError(f"cost is not a finite number: {self}")

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


# sqrt(2**k) for every exponent k = ceil(log2(m)) of a bond dimension m < 2**63,
# looked up rather than recomputed
_ROOT_POW2 = tuple(math.sqrt(2.0 ** k) for k in range(64))


def _mps_synthesis_sums(tables, n_sites: int, b_rot: int) -> list:
    """Shared rotation-synthesis sum of each (states, sites) table in a stack of
    MPS bond dimensions, each row fitted to ``n_sites`` sites: truncated, or its
    last entry repeated (profiles saturate).  ``m_bar = 2**k_bar`` is the larger
    rounded-up power of two of a site and the one before (1 before the first),
    so log2(2*m_bar) = k_bar + 1.  Terms are added one at a time from 0.0 in
    site order, row after row, as a per-site loop does; a saturated tail adds
    one repeated pair of terms, and each distinct row's terms are built once."""
    c_sqrt = 32.0 * (1.0 + math.sqrt(2.0)) * math.sqrt(b_rot + 1.0)
    c_log = 8.0 * b_rot - 15.0
    built = {}

    def row_terms(row) -> list:
        row = tuple(row)
        if row not in built:
            terms, k_prev = [], 0
            for m in map(int, row[:n_sites]):
                k = (m - 1).bit_length()
                k_bar = max(k, k_prev)
                terms += (m * c_sqrt * _ROOT_POW2[k_bar], m * c_log * (k_bar + 1.0))
                k_prev = k
            # past the table every site repeats the last, so k_bar is its own k
            terms += (m * c_sqrt * _ROOT_POW2[k], m * c_log * (k + 1.0)) * (n_sites - len(row))
            built[row] = terms
        return built[row]

    return [ordered_sum(chain.from_iterable(map(row_terms, table))) for table in tables]


def _mps_synthesis_ancilla(tables, n_sites: int, b_rot: int) -> int:
    m_max = int(max(max(row[:n_sites]) for table in tables for row in table))
    anc = (
        0.5 * math.log2(m_max)
        + 2.0 * b_rot * math.sqrt(m_max) / math.sqrt(b_rot + 1.0)
        + 0.5 * math.log2(b_rot + 1.0)
        + 3.0 * b_rot
    )
    return int(math.ceil(anc))


def cost_asp(d_configs: int, b_asp: int) -> CostPair:
    """Arbitrary-state preparation of ``d_configs`` configuration amplitudes."""
    d, b = d_configs, b_asp
    toff = 2.0 ** 2.5 * (1.0 + math.sqrt(2.0)) * d * math.sqrt(b + 1.0) \
        + 2.0 * math.log2(d) * (b - 4.0)
    anc = 0.5 * math.log2(d) if d > 1 else 0.0
    anc += d * b / (4.0 * math.sqrt(b + 1.0)) + 0.5 * math.log2(b + 1.0) + 3.0 * b - 4.0
    return CostPair(toff, int(math.ceil(max(0.0, anc))))


def cost_soslat(d_configs: int) -> CostPair:
    """Sum of Slater determinants over ``d_configs`` configurations (a bound)."""
    logd = math.log2(d_configs) if d_configs > 1 else 0.0
    # ancilla clamped at 0: 5*log(D)-3 goes negative for a single configuration
    return CostPair(d_configs * (2.0 * logd + 3.0), max(0, int(math.ceil(5.0 * logd - 3.0))),
                    bound=True)


def cost_onb2mob(n_mob: int, eta_e: int) -> CostPair:
    """Occupation-number to molecular-orbital basis conversion."""
    # the -4 constant underflows for a single orbital; clamp at zero
    toff = max(0.0, n_mob * (2.0 * eta_e + ceil_log2(eta_e + 1) + eta_e * ceil_log2(n_mob) - 4.0))
    return CostPair(toff, int(n_mob + 3 * ceil_log2(eta_e + 1)))


def cost_asym(eta_e: int, n_p: int) -> CostPair:
    """Antisymmetrization of ``eta_e`` electron registers of ``n_p`` qubits."""
    ln = ceil_log2(n_p + 1)
    nbar = 2 ** ln
    toff = 2.0 * (eta_e - 1) * (ln + 1.0) \
        + 0.25 * nbar * ln * (1.0 + ln) * (6.0 * ln + n_p + 1.0)
    anc = eta_e * (math.log2(eta_e) if eta_e > 1 else 0.0) \
        + 0.25 * nbar * ln * (1.0 + ln) + 2.0 * (eta_e - 1)
    return CostPair(toff, int(math.ceil(anc)))


def cost_w_e(eta_e: int, n_mob: int, n_p: int, b_rot: int, bond_dims) -> CostPair:
    """Electronic orbital MPS synthesis; ``bond_dims`` is (n_mob, sites), fitted
    to ``n_p`` sites (a bound)."""
    (total,) = _mps_synthesis_sums((bond_dims,), n_p, b_rot)
    toff = eta_e * n_mob * n_p + 2.0 * eta_e * total
    return CostPair(toff, n_mob * n_p + _mps_synthesis_ancilla((bond_dims,), n_p, b_rot),
                    bound=True)


def cost_onb2smb(n_vib: int, n_smb: int) -> CostPair:
    """Occupation-number to single-modal basis conversion."""
    toff = n_vib * n_smb * max(0, ceil_log2(n_smb) - 2) if n_smb > 1 else 0.0
    return CostPair(float(toff), n_smb + 3)


def cost_w_n(n_isp: int, b_rot: int, bond_dims) -> CostPair:
    """Nuclear single-modal MPS synthesis; ``bond_dims`` is (modes, n_smb, sites),
    fitted to ``n_isp`` sites (a bound)."""
    n_smb = len(bond_dims[0])
    toff = ordered_sum(n_smb * n_isp + 2.0 * s
                       for s in _mps_synthesis_sums(bond_dims, n_isp, b_rot))
    return CostPair(toff, _mps_synthesis_ancilla(bond_dims, n_isp, b_rot), bound=True)


def cost_lct(eta_n: int, n_bar_isp: int) -> CostPair:
    """Nuclear coordinate transform by the multi-shear sequence."""
    nb = n_bar_isp
    toff = 4.5 * eta_n ** 2 * (8.0 * nb ** 2 + 39.0 * nb - 8.0) \
        - 1.5 * eta_n * (8.0 * nb ** 2 + 35.0 * nb - 8.0) - nb
    return CostPair(toff, 4 * nb - 3)


def cost_ssct(eta_n: int, n_bar_isp: int) -> CostPair:
    """Nuclear coordinate transform by a single shear."""
    nb = n_bar_isp
    toff = 9.0 * eta_n ** 2 * (nb ** 2 + 4.0 * nb - 1.0) \
        - 3.0 * eta_n * (nb ** 2 + 2.0 * nb - 1.0) - 2.0 * nb
    return CostPair(toff, 4 * nb - 3)


def cost_pk(eta_n: int, n_bar_isp: int, b_grad: int, eps_pk: float) -> CostPair:
    """Phase kickback onto the nuclear grid with a ``b_grad``-bit gradient state."""
    nb = n_bar_isp
    toff = 3.0 * eta_n * (4.0 * nb * b_grad + b_grad - 2.0 * nb) \
        + b_grad * (1.149 * math.log2(b_grad / eps_pk) + 9.2) / 4.0
    return CostPair(toff, 4 * b_grad + 2 * nb - 1)


def cost_tc2sm(eta_n: int, n_bar_isp: int) -> CostPair:
    """Two's-complement to signed-magnitude conversion of the nuclear registers."""
    return CostPair(3.0 * eta_n * (n_bar_isp - 2.0), n_bar_isp - 2)


def cost_isp(spec: MoleculeSpec, grid: gridsizer.GridParams, eps_pk: float) -> dict:
    """An estimate's initial-state-preparation rows, name -> CostPair, in ledger
    order (sums and first maxima follow it); ``NCT`` is the transform of the
    budget's pad mode."""
    p, e, n = spec.particles, spec.electronic, spec.nuclear
    return {
        "ASP_e": cost_asp(e.d_configs, e.b_asp),
        "SoSlat_e": cost_soslat(e.d_configs),
        "ONB2MOB": cost_onb2mob(e.n_mob, p.eta_e),
        "ASYM": cost_asym(p.eta_e, grid.n_p),
        "W_e": cost_w_e(p.eta_e, e.n_mob, grid.n_p, e.b_rot, e.bond_dims),
        "ASP_n": cost_asp(n.d_configs, n.b_asp),
        "SoSlat_n": cost_soslat(n.d_configs),
        "ONB2SMB": cost_onb2smb(spec.normal_modes.n_vib, n.n_smb),
        "W_n": cost_w_n(grid.n_isp, n.b_rot, n.bond_dims),
        "PK": cost_pk(p.eta_n, grid.n_bar_isp, n.b_grad, eps_pk),
        "TC2SM": cost_tc2sm(p.eta_n, grid.n_bar_isp),
        "NCT": (cost_lct if spec.budget.pad_mode == "LCT" else cost_ssct)(p.eta_n, grid.n_bar_isp),
    }


def cost_prep_t(eta: int, n_p: int, mu_t: int) -> CostPair:
    """Kinetic part of the coefficient preparation."""
    n_eta = ceil_log2(eta)
    toff = eta + mu_t + 4.0 * n_eta + 2.0 * n_p + 14.0
    return CostPair(toff, int(3 * n_eta + 3 * mu_t + 2 * n_p + 8))


def cost_unprep_t(eta: int, n_p: int) -> CostPair:
    """Kinetic part of the coefficient unpreparation."""
    er, n_er = erasure_cost(eta)
    return CostPair(er + 4.0 * ceil_log2(eta) + 2.0 * n_p + 16.0, int(n_er))


def cost_prep_v(eta: int, eta_e: int, n_p: int, n_m: int, b_r: int) -> CostPair:
    """Potential part of the coefficient preparation."""
    n_eta = ceil_log2(eta)
    log2e = ceil_log2(2 * eta_e)
    toff = 4.0 * eta_e + n_eta + 6.0 * log2e + 4.0 * b_r - 24.0 \
        + 3.0 * n_p ** 2 + 11.0 * n_p + 4.0 * n_m * (n_p + 1.0)
    anc = 3 * n_p ** 2 + 10 * n_p + 6 * log2e + 3 * n_eta + 5 * n_m + 4 * n_m * n_p + 14
    return CostPair(toff, int(anc))


def cost_unprep_v(eta: int, eta_e: int, n_p: int, b_r: int) -> CostPair:
    """Potential part of the coefficient unpreparation."""
    er2, n_er2 = erasure_cost(2 * eta_e)
    toff = ceil_log2(eta) + 2.0 * er2 + 6.0 * ceil_log2(2 * eta_e) \
        + 4.0 * b_r - 19.0 + 4.0 * (n_p - 1.0)
    return CostPair(toff, int(n_er2))


def cost_ctrl_sel_h(eta: int, n_p: int) -> CostPair:
    """Controlled selection of the Hamiltonian terms."""
    # 29*n_p is the source's 5*n_p + 24*n_p; -8 is -9 plus the control's Toffoli
    toff = 18.0 * eta * n_p + 6.0 * eta + 29.0 * n_p - 8.0
    return CostPair(toff, 5 * n_p + ceil_log2(eta) + 11)


def cost_block_encoding(eta: int, eta_e: int, n_p: int, mu_t: int, n_m: int,
                        n_theta: int, b_r: int) -> dict:
    """An estimate's walk-operator rows, name -> CostPair; ``PREP_H`` and
    ``UNPREP_H`` add their T part, V part and rotation in that order."""
    # the n_theta - 3 rotation-synthesis count underflows below 3 bits
    rot = CostPair(max(0.0, n_theta - 3.0), n_theta)
    prep = (cost_prep_t(eta, n_p, mu_t), cost_prep_v(eta, eta_e, n_p, n_m, b_r), rot)
    unprep = (cost_unprep_t(eta, n_p), cost_unprep_v(eta, eta_e, n_p, b_r), rot)
    out = prep_h_output_size(eta, eta_e, n_p, n_m)
    return {
        "PREP_H": CostPair(ordered_sum(c.toffoli for c in prep), sum(c.ancilla for c in prep)),
        "UNPREP_H": CostPair(ordered_sum(c.toffoli for c in unprep),
                             sum(c.ancilla for c in unprep)),
        "CTRL_SEL_H": cost_ctrl_sel_h(eta, n_p),
        "REFLECT_W": CostPair(out - 1.0, out - 2),
    }


def prep_h_output_size(eta: int, eta_e: int, n_p: int, n_m: int) -> int:
    """Output-register width of the inverse coefficient preparation; the
    qubiterate reflection is (anti-)controlled on all of it."""
    return ceil_log2(eta) + 6 * n_p + n_m + 2 * ceil_log2(2 * eta_e) + 11


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


def cost_qft(n: int, eps: float) -> CostPair:
    """Approximate quantum Fourier transform on ``n`` qubits to accuracy ``eps``."""
    toff = 4.0 * n * (math.log2(n / eps) - 2.0) \
        + 0.6 * math.log2(n * math.log2(n / eps) / eps)
    return CostPair(toff, 0)


def cost_u_pis(b_j: int, n_p: int, n_nuc: int) -> CostPair:
    """Yield indicator of a channel with ``b_j`` constraints on ``n_nuc`` nuclei."""
    if b_j < 1:
        raise ValueError("a reaction channel requires at least one constraint")
    toff = 3.0 * b_j * (2.0 * n_p ** 2 + 2.0 * n_p - 3.0) + 3.0 * n_nuc * (n_p - 2.0) - 1.0
    return CostPair(toff, 3 * n_p ** 2 - n_p)


def cost_r0_qae(eta_e: int, eta_n: int, n_p: int, n_nuc: int) -> CostPair:
    """Reflection about the all-zero state in amplitude estimation, over
    electronic registers of ``n_p`` and nuclear registers of ``n_nuc``
    qubits per coordinate."""
    toff = 3.0 * eta_e * n_p + 3.0 * eta_n * n_nuc
    return CostPair(toff, max(0, 3 * (eta_e * n_p + eta_n * n_nuc) - 1))


@dataclass(frozen=True)
class CostReport:
    """An estimate's report: its cost ledger's rows and aggregates, qubit
    counts, scalars, warnings, anchors and configuration hash."""

    rows: dict          # name -> CostPair
    aggregates: dict    # name -> CostPair
    qubits: dict        # name -> int
    scalars: dict       # misc derived numbers
    warnings: tuple
    anchors: dict
    params_hash: str = ""

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


def cost_total(spec: MoleculeSpec, grid: gridsizer.GridParams, prec: encoding.PrecisionParams,
               d_tilde: float, eps_rot: float, bud: budget.ErrorBudget) -> CostReport:
    """The end-to-end ledger: ISP, the propagator over the controlled walk and
    the QFT of all ``3*eta`` momentum registers make one pass ``U~``; amplitude
    estimation then makes ``lambda_O/(2*eps_QAE)`` calls to the iterate
    ``2*(U_PiS + U~) + R0_QAE``, ``U_PiS`` indicating the first reaction channel
    (a zero row without one).  ISP and the iterate hold the ``3*eta_n*n_ext``
    exterior-grid qubits plus their largest ancilla demand (the iterate one
    more); the first maximum listed wins a tie.  The report's scalars are the
    amplitude-estimation figures and the row that sets each ancilla maximum."""
    p = spec.particles
    isp_rows = cost_isp(spec, grid, bud.eps_pk)
    isp_set_by = max(isp_rows, key=lambda k: isp_rows[k].ancilla)
    held = 3 * p.eta_n * grid.n_ext
    isp = CostPair(ordered_sum(c.toffoli for c in isp_rows.values()),
                   held + isp_rows[isp_set_by].ancilla,
                   bound=any(c.bound for c in isp_rows.values()))

    walk_rows = cost_block_encoding(p.eta, p.eta_e, grid.n_p, prec.mu_t, prec.n_m, prec.n_theta,
                                    spec.budget.b_r)
    walk = cost_walk(walk_rows["PREP_H"], walk_rows["CTRL_SEL_H"], walk_rows["UNPREP_H"],
                     walk_rows["REFLECT_W"])
    propagator = cost_propagator(d_tilde, walk, eps_rot)

    qft_one = cost_qft(grid.n_p, 1e-10)
    qft = CostPair(3.0 * p.eta * qft_one.toffoli, qft_one.ancilla)
    warnings = ()
    if spec.channels:
        chan = spec.channels[0]
        u_pis = cost_u_pis(chan.b_j, grid.n_p, len(chan.nuclei_involved()))
    else:
        u_pis = CostPair(0.0, 0)
        warnings = ("no reaction channels supplied; yield indicator cost is zero",)
    r0_qae = cost_r0_qae(p.eta_e, p.eta_n, grid.n_p, grid.n_p + grid.n_ext)

    u_tilde_toff = qft.toffoli + propagator.toffoli + isp.toffoli
    iterate_toff = 2.0 * (u_pis.toffoli + u_tilde_toff) + r0_qae.toffoli
    calls = bud.lambda_obs / (2.0 * bud.eps_qae)
    qae_toff = calls * iterate_toff
    s_qpe = ceil_log2(bud.lambda_obs / bud.eps_qae)
    demand = {"U_PiS": u_pis.ancilla - 1, "propagator": propagator.ancilla,
              "ISP": isp_rows[isp_set_by].ancilla, "R0_QAE": r0_qae.ancilla}
    set_by = max(demand, key=demand.get)
    anc_iterate = 1 + held + demand[set_by]
    c_anc = s_qpe + anc_iterate
    c_data = gridsizer.data_qubits(p.eta, p.eta_e, grid.n_p)

    bound_any = any(c.bound for c in (isp, propagator, qft, u_pis, r0_qae))
    return CostReport(
        rows={**isp_rows, **walk_rows, "QFT": qft, "U_PiS": u_pis, "R0_QAE": r0_qae},
        aggregates={
            "U_evolution": CostPair(u_tilde_toff, max(isp.ancilla, propagator.ancilla),
                                    bound=bound_any),
            "QAE_iterate": CostPair(iterate_toff, anc_iterate, bound=bound_any),
            "QAE_total": CostPair(qae_toff, c_anc, bound=bound_any),
            "total": CostPair(u_tilde_toff + qae_toff, c_anc, bound=bound_any),
            "ISP_total": isp, "ctrl_walk": walk, "time_evolution": propagator,
        },
        qubits={"C_anc": c_anc, "C_data": c_data, "total": c_data + c_anc},
        scalars={"qae_calls": calls, "qpe_register": s_qpe, "isp_ancilla_set_by": isp_set_by,
                 "iterate_ancilla_set_by": set_by},
        warnings=warnings, anchors={},
    )

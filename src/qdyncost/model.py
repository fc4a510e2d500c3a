"""Domain types, unit conventions, and ingestion/validation of molecule files.

All physical quantities are in atomic units (Hartree energies, bohr lengths,
electron masses, elementary charges).  Simulation times are accepted in
femtoseconds and converted with ``1 a.u. of time = 0.0241888 fs``.
Logarithms are base 2 throughout the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# 1 atomic unit of time, expressed in femtoseconds.
FS_PER_ATOMIC_TIME = 0.0241888

DET_A_TOL = 1e-9


def fs_to_au(t_fs: float) -> float:
    """Convert a time from femtoseconds to atomic units."""
    return t_fs / FS_PER_ATOMIC_TIME


def ceil_log2(x) -> int:
    """``ceil(log2(x))`` computed exactly for positive integers."""
    if x <= 0:
        raise ValueError(f"ceil_log2 requires a positive argument, got {x}")
    if isinstance(x, (int, np.integer)):
        return int(x - 1).bit_length()
    return int(math.ceil(math.log2(x)))


class ValidationError(ValueError):
    """Raised when a molecule file violates a structural invariant."""


@dataclass(frozen=True)
class ParticleTable:
    """Masses and charges of all particles, electrons first.

    Attributes:
        masses: particle masses in electron-mass units (electrons have mass 1).
        charges: signed integer charges in units of e (electrons have -1).
        eta_e: number of electrons.
        eta_n: number of nuclei.
    """

    masses: tuple
    charges: tuple
    eta_e: int
    eta_n: int

    @property
    def eta(self) -> int:
        return self.eta_e + self.eta_n

    @property
    def n_eta(self) -> int:
        """Qubits needed to index a particle, ceil(log2(eta))."""
        return ceil_log2(self.eta)

    @property
    def is_neutral(self) -> bool:
        return sum(self.charges) == 0

    @property
    def lambda_m(self) -> float:
        """Sum of inverse masses (kinetic LCU-norm prefactor)."""
        return float(sum(1.0 / m for m in self.masses))

    @property
    def sum_abs_charge_pairs(self) -> float:
        """``sum_{i != j} |z_i||z_j|`` over ordered particle pairs."""
        s1 = sum(abs(z) for z in self.charges)
        s2 = sum(z * z for z in self.charges)
        return float(s1 * s1 - s2)


@dataclass(frozen=True)
class NormalModeData:
    """Normal-mode metadata for the nuclear state.

    ``transform`` is the normalized coordinate-transform matrix (det = 1)
    obtained by factoring the diagonal scale matrix ``d`` out of the
    mass-weighted normal-mode rotation; ``omegas`` are the (already rescaled)
    harmonic frequencies in Hartree.
    """

    omegas: tuple
    transform: np.ndarray          # (3*eta_n, 3*eta_n), det = 1
    d_diag: tuple                  # positive diagonal of the factored scale
    r0: tuple                      # equilibrium geometry, 3*eta_n bohr values
    gamma_trans: float             # translational Gaussian width
    upsilon_rot: float             # rotational Gaussian width
    linear: bool = False

    @property
    def n_vib(self) -> int:
        return len(self.omegas)


@dataclass(frozen=True)
class ElectronicMeta:
    """Electronic basis metadata (molecular orbitals and their MPS sizes)."""

    n_mob: int                     # number of molecular orbitals
    d_configs: int                 # number of electronic configurations
    n_gauss: int                   # Gaussian primitives per orbital expansion
    gamma_max: float               # largest Gaussian exponent
    l_max: int                     # largest Cartesian angular power
    sigma_ortho: float             # orthogonalization eigenvalue cutoff
    bond_dims: np.ndarray          # (n_mob, n_sites) per-orbital MPS bond dims
    b_asp: int = 10                # precision qubits, arbitrary state prep
    b_rot: int = 8                 # precision qubits, rotation multiplexor


@dataclass(frozen=True)
class NuclearMeta:
    """Nuclear basis metadata (single-modals and their MPS sizes)."""

    n_smb: int                     # single-modal basis size per mode
    n_vib: int
    d_configs: int                 # number of nuclear configurations
    n_hg: int                      # Hermite-Gaussian primitives per mode
    bond_dims: np.ndarray          # (n_modes, n_smb, n_sites) MPS bond dims
    b_asp: int = 10
    b_rot: int = 8
    b_grad: int = 30               # phase-gradient register width


@dataclass(frozen=True)
class ChannelConstraint:
    """One pairwise-distance constraint of a reaction channel."""

    alpha: int                     # nucleus index
    beta: int                      # nucleus index
    cutoff: float                  # bohr
    direction: str                 # "greater" | "less"


@dataclass(frozen=True)
class ReactionChannel:
    """A reaction channel: conjunction of pairwise-distance constraints."""

    constraints: tuple

    @property
    def b_j(self) -> int:
        return len(self.constraints)

    def nuclei_involved(self) -> set:
        out = set()
        for c in self.constraints:
            out.add(c.alpha)
            out.add(c.beta)
        return out


@dataclass
class ErrorBudget:
    """Tree of error allocations from the total observable error downwards.

    The top-level constraint is
    ``2 * lambda_O * (eps_ISP + eps_prop + eps_B) + eps_meas <= eps_total``
    with ``eps_meas = eps_QAE + eps_O``.  The propagation sub-splits
    (``eps_H = eps_T + eps_V + eps_theta``, QSP terms) are resolved once the
    simulation time and QSP degree are known.
    """

    eps_total: float
    lambda_obs: float
    eps_isp: float = 0.0
    eps_prop: float = 0.0
    eps_b: float = 0.0
    eps_meas: float = 0.0
    eps_qae: float = 0.0
    eps_obs: float = 0.0
    # propagation sub-splits (filled by resolve_prop_splits)
    eps_h: float = 0.0
    eps_qsp: float = 0.0
    eps_t: float = 0.0
    eps_v: float = 0.0
    eps_theta: float = 0.0
    eps_dtilde: float = 0.0
    eps_rot: float = 0.0
    eps_phi: float = 0.0
    eps_gamma: float = 0.0
    # ISP sub-splits (uniform across the seven contributions by default)
    eps_asp: float = 0.0
    eps_mps_classical: float = 0.0
    eps_mps_quantum: float = 0.0
    eps_shear: float = 0.0
    eps_ortho: float = 0.0
    eps_pk: float = 0.0
    eps_trim: float = 0.0
    eps_lct: float = 0.0
    policy: str = "paper_default"

    def feasibility_margin(self) -> float:
        """Slack of the top-level constraint; non-negative iff feasible."""
        used = 2.0 * self.lambda_obs * (self.eps_isp + self.eps_prop + self.eps_b)
        return self.eps_total - used - self.eps_meas


@dataclass
class MoleculeSpec:
    """Validated physical input: the estimator's sole description of a run."""

    particles: ParticleTable
    normal_modes: NormalModeData
    electronic: ElectronicMeta
    nuclear: NuclearMeta
    channels: tuple
    budget_raw: dict
    time_fs: float = 30.0
    allow_non_neutral: bool = False
    overrides: dict = field(default_factory=dict)
    anchors: dict = field(default_factory=dict)

    @property
    def time_au(self) -> float:
        return fs_to_au(self.time_fs)


def _require(cond: bool, msg: str):
    if not cond:
        raise ValidationError(msg)


_REQUIRED = object()


def _object(value, where: str = "value") -> dict:
    _require(isinstance(value, dict), f"{where} must be an object, got {type(value).__name__}")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _field(section: dict, where: str, key: str, convert, default=_REQUIRED):
    """``convert(section[key])``; a missing or malformed value raises
    ValidationError naming the field ``where.key``."""
    name = f"{where}.{key}" if where else key
    if key not in section:
        _require(default is not _REQUIRED, f"missing field {name}")
        return default
    try:
        return convert(section[key])
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"{name}: {exc}") from None


def _at_least(convert, low, strict: bool = False):
    """``convert``, then reject values below ``low`` (or equal to it if ``strict``)."""
    def check(value):
        v = convert(value)
        _require(v > low if strict else v >= low,
                 f"must be {'>' if strict else '>='} {low}, got {v}")
        return v
    return check


def _floats(value) -> tuple:
    return tuple(float(x) for x in _list(value))


def _ints(value) -> tuple:
    return tuple(int(x) for x in _list(value))


def _constraint(value) -> ChannelConstraint:
    c = _object(value, "constraint")
    return ChannelConstraint(
        alpha=_field(c, "constraint", "alpha", int),
        beta=_field(c, "constraint", "beta", int),
        cutoff=_field(c, "constraint", "cutoff", float),
        direction=_field(c, "constraint", "direction", str),
    )


def _channel(value) -> ReactionChannel:
    constraints = _field(_object(value, "channel"), "channel", "constraints", _list)
    return ReactionChannel(constraints=tuple(_constraint(c) for c in constraints))


def validate_molecule(spec: MoleculeSpec) -> MoleculeSpec:
    """Check all structural invariants of a parsed molecule description.

    Returns the input unchanged on success; raises :class:`ValidationError`
    with a diagnostic message otherwise.
    """
    p = spec.particles
    _require(p.eta_e >= 0 and p.eta_n >= 0, "particle counts must be non-negative")
    _require(len(p.masses) == len(p.charges), "masses and charges must have equal length")
    _require(p.eta == len(p.masses), f"eta={p.eta} != number of particle entries {len(p.masses)}")
    _require(p.eta >= 1, "at least one particle required")
    for j in range(p.eta_e):
        _require(p.masses[j] == 1, f"electron {j} must have mass 1, got {p.masses[j]}")
        _require(p.charges[j] == -1, f"electron {j} must have charge -1, got {p.charges[j]}")
    for j, (m, z) in enumerate(zip(p.masses, p.charges)):
        _require(m > 0, f"particle {j} has non-positive mass {m}")
        _require(z == int(z), f"particle {j} has non-integer charge {z}")
    if not p.is_neutral and not spec.allow_non_neutral:
        raise ValidationError(
            f"net charge {sum(p.charges)} != 0; set allow_non_neutral to override"
        )

    nm = spec.normal_modes
    if p.eta_n > 0:
        dim = 3 * p.eta_n
        a = np.asarray(nm.transform, dtype=float)
        _require(a.shape == (dim, dim), f"transform must be {dim}x{dim}, got {a.shape}")
        det = float(np.linalg.det(a))
        _require(abs(det - 1.0) <= DET_A_TOL, f"det(transform)={det!r} deviates from 1 beyond {DET_A_TOL}")
        expected_vib = max(0, dim - (5 if nm.linear else 6))
        _require(
            nm.n_vib == expected_vib,
            f"expected {expected_vib} vibrational frequencies for "
            f"{'linear' if nm.linear else 'non-linear'} molecule, got {nm.n_vib}",
        )
        for i, w in enumerate(nm.omegas):
            _require(w > 0, f"frequency {i} must be positive, got {w}")
        _require(len(nm.d_diag) == dim, f"scale diagonal must have {dim} entries")
        for i, d in enumerate(nm.d_diag):
            _require(d > 0, f"scale diagonal entry {i} must be positive, got {d}")
        _require(len(nm.r0) == dim, f"equilibrium geometry must have {dim} entries")
        _require(nm.gamma_trans > 0 and nm.upsilon_rot > 0, "Gaussian widths must be positive")

    e, n = spec.electronic, spec.nuclear
    _require(e.n_mob >= 1 and e.d_configs >= 1 and e.n_gauss >= 1, "electronic counts must be >= 1")
    _require(e.gamma_max > 0 and e.sigma_ortho > 0, "gamma_max and sigma must be positive")
    _require(e.l_max >= 0, "l_max must be non-negative")
    _require(min(e.b_asp, e.b_rot, n.b_asp, n.b_rot, n.b_grad) >= 1,
             "precision widths b_asp, b_rot and b_grad must be >= 1")
    _require(np.size(e.bond_dims) > 0 and np.all(np.asarray(e.bond_dims) >= 1),
             "electronic.bond_dims must be a non-empty table of entries >= 1")

    _require(n.n_smb >= 1 and n.d_configs >= 1 and n.n_hg >= 1, "nuclear counts must be >= 1")
    _require(np.size(n.bond_dims) > 0 and np.all(np.asarray(n.bond_dims) >= 1),
             "nuclear.bond_dims must be a non-empty table of entries >= 1")

    for ch in spec.channels:
        for c in ch.constraints:
            _require(c.alpha != c.beta, f"constraint pairs a nucleus with itself: {c}")
            _require(c.cutoff > 0, f"constraint cutoff must be positive: {c}")
            _require(c.direction in ("greater", "less"), f"unknown direction {c.direction!r}")
        max_pairs = p.eta_n * (p.eta_n - 1) // 2
        _require(ch.b_j >= 1, "reaction channel needs at least one constraint")
        _require(ch.b_j <= max_pairs, f"channel has {ch.b_j} constraints > eta_n(eta_n-1)/2 = {max_pairs}")

    # settings the estimator reads must convert as it reads them
    for where, section, fields in (
            ("budget", spec.budget_raw, dict(eps_total=float, lambda_obs=float, b_r=int,
                                             trim_n_mc=int, trim_alpha=float, custom=_object)),
            ("simulation.overrides", spec.overrides, dict(
                n_p=_at_least(int, 2), length=_at_least(float, 0, strict=True),
                n_isp=_at_least(int, 1), n_pad=_at_least(int, 0),
                lambda_h_tilde=_at_least(float, 0, strict=True)))):
        for key, convert in fields.items():
            _field(section, where, key, convert, None)
    _require(all(isinstance(v, (int, float)) and v > 0 for v in spec.anchors.values()),
             "simulation.anchors values must be positive numbers")
    return spec


def molecule_from_dict(doc: dict) -> MoleculeSpec:
    """Build an (unvalidated) MoleculeSpec from a parsed JSON document.

    A missing or malformed field raises :class:`ValidationError` naming it.
    """
    _object(doc, "molecule document")
    missing = [k for k in ("particles", "normal_modes", "electronic", "nuclear", "channels", "budget") if k not in doc]
    if missing:
        raise ValidationError(f"missing required top-level key(s): {', '.join(missing)}")

    pd = _object(doc["particles"], "particles")
    particles = ParticleTable(
        masses=_field(pd, "particles", "masses", _floats),
        charges=_field(pd, "particles", "charges", _ints),
        eta_e=_field(pd, "particles", "eta_e", int),
        eta_n=_field(pd, "particles", "eta_n", int),
    )

    nd = _object(doc["normal_modes"], "normal_modes")
    normal_modes = NormalModeData(
        omegas=_field(nd, "normal_modes", "omegas", _floats),
        transform=_field(nd, "normal_modes", "transform", lambda v: np.asarray(v, dtype=float)),
        d_diag=_field(nd, "normal_modes", "d_diag", _floats),
        r0=_field(nd, "normal_modes", "r0", _floats),
        gamma_trans=_field(nd, "normal_modes", "gamma_trans", float),
        upsilon_rot=_field(nd, "normal_modes", "upsilon_rot", float),
        linear=bool(nd.get("linear", False)),
    )

    ed = _object(doc["electronic"], "electronic")
    electronic = ElectronicMeta(
        n_mob=_field(ed, "electronic", "n_mob", int),
        d_configs=_field(ed, "electronic", "d_configs", int),
        n_gauss=_field(ed, "electronic", "n_gauss", int),
        gamma_max=_field(ed, "electronic", "gamma_max", float),
        l_max=_field(ed, "electronic", "l_max", int),
        sigma_ortho=_field(ed, "electronic", "sigma_ortho", float),
        bond_dims=_field(ed, "electronic", "bond_dims", lambda v: np.asarray(v, dtype=int)),
        b_asp=_field(ed, "electronic", "b_asp", int, 10),
        b_rot=_field(ed, "electronic", "b_rot", int, 8),
    )

    nud = _object(doc["nuclear"], "nuclear")
    nuclear = NuclearMeta(
        n_smb=_field(nud, "nuclear", "n_smb", int),
        n_vib=_field(nud, "nuclear", "n_vib", int),
        d_configs=_field(nud, "nuclear", "d_configs", int),
        n_hg=_field(nud, "nuclear", "n_hg", int),
        bond_dims=_field(nud, "nuclear", "bond_dims", lambda v: np.asarray(v, dtype=int)),
        b_asp=_field(nud, "nuclear", "b_asp", int, 10),
        b_rot=_field(nud, "nuclear", "b_rot", int, 8),
        b_grad=_field(nud, "nuclear", "b_grad", int, 30),
    )

    channels = _field(doc, "", "channels", lambda v: tuple(_channel(c) for c in _list(v)))
    budget_raw = _object(doc["budget"], "budget")
    sim = _object(doc.get("simulation", {}), "simulation")
    return MoleculeSpec(
        particles=particles,
        normal_modes=normal_modes,
        electronic=electronic,
        nuclear=nuclear,
        channels=channels,
        budget_raw=dict(budget_raw),
        time_fs=_field(sim, "simulation", "time_fs", float,
                       _field(budget_raw, "budget", "time_fs", float, 30.0)),
        allow_non_neutral=bool(doc.get("allow_non_neutral", False)),
        overrides=dict(_object(sim.get("overrides", {}), "simulation.overrides")),
        anchors=dict(_object(sim.get("anchors", {}), "simulation.anchors")),
    )


def load_molecule(path) -> MoleculeSpec:
    """Load and validate a molecule JSON file."""
    with open(path) as fh:
        doc = json.load(fh)
    return validate_molecule(molecule_from_dict(doc))

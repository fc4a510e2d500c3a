"""Domain types, unit conventions, and the molecule-file schema.

All physical quantities are in atomic units (Hartree energies, bohr lengths,
electron masses, elementary charges).  Simulation times are accepted in
femtoseconds and converted with ``1 a.u. of time = 0.0241888 fs``.
Logarithms are base 2 throughout the package.

This is the only module that knows the molecule file.  Each section of it is
a frozen dataclass whose fields declare their converter and their one
default; :func:`molecule_from_dict` builds the whole document through one
generic section builder, which rejects unknown keys and names the full path
of any bad field.  :func:`validate_molecule` checks what ties fields
together.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain

import numpy as np

# 1 atomic unit of time, expressed in femtoseconds.
FS_PER_ATOMIC_TIME = 0.0241888

DET_A_TOL = 1e-9
# the values budget.pad_mode and budget.policy may take
PAD_MODES = ("SSCT", "LCT")
BUDGET_POLICIES = ("paper_default", "custom")


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
    """A molecule file that breaks the schema or a structural invariant.

    ``path`` holds the keys and array indices of the offending field,
    outermost first; the message starts with it.
    """

    def __init__(self, reason: str, *path):
        super().__init__(reason)
        self.reason = reason
        self.path = list(path)

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.path)
        return f"{where.lstrip('.')}: {self.reason}" if where else self.reason


# ---------------------------------------------------------------------------
# converters: a JSON value in, a typed value out, or TypeError/ValueError


def _convert(convert, value, key):
    """``convert(value)``; a failure raises ValidationError naming ``key``."""
    try:
        return convert(value)
    except ValidationError as exc:
        exc.path.insert(0, key)
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(str(exc), key) from None


def _typed(value, kind, what: str):
    if not isinstance(value, kind):
        raise TypeError(f"must be {what}, got {type(value).__name__}")
    return value


def _number(value) -> float:
    """A finite number, as a float; ``json`` also reads the tokens NaN and Infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"must be a number, got {type(value).__name__}")
    v = float(value)
    if math.isfinite(v):
        return v
    raise ValueError(f"must be a finite number, got {v}")


def _whole(value) -> int:
    """A number with no fractional part, as an int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if _number(value).is_integer():
        return int(value)
    raise ValueError(f"must be a whole number, got {value!r}")


def _bool(value) -> bool:
    return _typed(value, bool, "true or false")


def _at_least(convert, low, strict: bool = False):
    """``convert``, then reject values below ``low`` (or equal to it if ``strict``)."""
    def check(value):
        v = convert(value)
        if v > low or (v == low and not strict):
            return v
        raise ValueError(f"must be {'>' if strict else '>='} {low}, got {v}")
    return check


def _at_most(convert, high):
    """``convert``, then reject values above ``high``."""
    def check(value):
        v = convert(value)
        if v <= high:
            return v
        raise ValueError(f"must be <= {high}, got {v}")
    return check


_positive = _at_least(_number, 0, strict=True)
_count = _at_least(_whole, 1)


def _fraction(value) -> float:
    """A number strictly between 0 and 1."""
    v = _number(value)
    if 0.0 < v < 1.0:
        return v
    raise ValueError(f"must be in (0, 1), got {v}")


def _one_of(choices):
    """Accept only a value listed in ``choices``."""
    def check(value):
        if value in choices:
            return value
        raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
    return check


def _each(convert, nonempty: bool = False):
    """A JSON array, ``convert`` on each entry, as a tuple."""
    def check(value):
        value = _typed(value, list, "an array")
        if nonempty and not value:
            raise ValueError("must not be empty")
        return tuple(_convert(convert, x, i) for i, x in enumerate(value))
    return check


_REAL = frozenset((int, float))   # the JSON number types; bool is not one


def _table(max_rank: int | None = None):
    """A rectangular (nested) JSON array of finite numbers as a float ndarray;
    with ``max_rank``, a bond-dimension table: a non-empty int ndarray of at
    most ``max_rank`` axes whose entries are whole numbers >= 1.  The shape
    and entry types are checked one level of nesting at a time, and the
    array is built once from the flat entries."""
    def check(value):
        shape, level, kinds = [], [_typed(value, list, "an array")], {list}
        while kinds == {list}:
            sizes = {*map(len, level)}
            if len(sizes) > 1:
                raise ValueError("must be a rectangular table")
            shape += sizes
            level = list(chain.from_iterable(level))
            kinds = {*map(type, level)}
        if list in kinds:
            raise ValueError("must be a rectangular table")
        if not _REAL.issuperset(kinds):
            raise TypeError("must be a table of numbers")
        exact = max_rank is not None and float not in kinds
        a = np.fromiter(level, np.int64 if exact else float, len(level)).reshape(shape)
        if not exact:
            if not np.isfinite(a).all():
                raise ValueError("entries must be finite numbers")
            if max_rank is None:
                return a
            if not (a == np.trunc(a)).all():
                raise ValueError("entries must be whole numbers")
            a = a.astype(int)
        if a.size == 0 or a.ndim > max_rank or not a.min() >= 1:
            raise ValueError(f"must be a non-empty table of rank <= {max_rank} with "
                             f"entries >= 1, got shape {a.shape}")
        return a
    return check


def _anchors(value) -> tuple:
    """Published values by name, each a positive number, as (name, value)
    pairs kept as written, so the report echoes them unchanged."""
    for key, v in _typed(value, dict, "an object").items():
        _convert(_positive, v, key)
    return tuple(value.items())


def _arg(convert, default=MISSING):
    """A section field parsed by ``convert``; ``default`` is its only default."""
    return field(default=default, metadata={"convert": convert})


def _section(cls):
    """The converter of section ``cls``: a JSON object in, each key through
    its field's converter, absent optional fields at their defaults.  An
    unknown key or a missing required field is rejected."""
    specs = [(f.name, f.metadata["convert"], f.default is MISSING) for f in fields(cls)]
    names = frozenset(name for name, _, _ in specs)

    def build(value):
        if not names.issuperset(_typed(value, dict, "an object")):
            key = next(k for k in value if k not in names)
            raise ValidationError(f"unknown key; expected one of {', '.join(sorted(names))}", key)
        kwargs = {}
        for name, convert, required in specs:
            if name in value:
                kwargs[name] = _convert(convert, value[name], name)
            elif required:
                raise ValidationError("missing required field", name)
        return cls(**kwargs)
    return build


# ---------------------------------------------------------------------------
# the sections of a molecule file


@dataclass(frozen=True)
class ParticleTable:
    """Masses and charges of all particles, electrons first."""

    masses: tuple = _arg(_each(_positive))       # electron-mass units; electrons have 1
    charges: tuple = _arg(_each(_whole))         # units of e; electrons have -1
    eta_e: int = _arg(_count)                    # number of electrons
    eta_n: int = _arg(_count)                    # number of nuclei

    @property
    def eta(self) -> int:
        return self.eta_e + self.eta_n

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

    omegas: tuple = _arg(_each(_positive))
    transform: np.ndarray = _arg(_table())   # (3*eta_n, 3*eta_n), det = 1
    d_diag: tuple = _arg(_each(_positive))       # diagonal of the factored scale
    gamma_trans: float = _arg(_positive)         # translational Gaussian width
    upsilon_rot: float = _arg(_positive)         # rotational Gaussian width
    linear: bool = _arg(_bool, False)

    @property
    def n_vib(self) -> int:
        return len(self.omegas)


@dataclass(frozen=True)
class ElectronicMeta:
    """Electronic basis metadata (molecular orbitals and their MPS sizes)."""

    n_mob: int = _arg(_count)                    # number of molecular orbitals
    d_configs: int = _arg(_count)                # number of electronic configurations
    n_gauss: int = _arg(_count)                  # Gaussian primitives per orbital expansion
    gamma_max: float = _arg(_positive)           # largest Gaussian exponent
    l_max: int = _arg(_at_least(_whole, 0))      # largest Cartesian angular power
    sigma_ortho: float = _arg(_positive)         # orthogonalization eigenvalue cutoff
    bond_dims: np.ndarray = _arg(_table(max_rank=2))  # (n_mob, n_sites) per-orbital MPS bond dims
    b_asp: int = _arg(_count, 10)                # precision qubits, arbitrary state prep
    b_rot: int = _arg(_count, 8)                 # precision qubits, rotation multiplexor


@dataclass(frozen=True)
class NuclearMeta:
    """Nuclear basis metadata (single-modals and their MPS sizes)."""

    n_smb: int = _arg(_count)                    # single-modal basis size per mode
    d_configs: int = _arg(_count)                # number of nuclear configurations
    n_hg: int = _arg(_count)                     # Hermite-Gaussian primitives per mode
    bond_dims: np.ndarray = _arg(_table(max_rank=3))  # (n_modes, n_smb, n_sites) MPS bond dims
    b_asp: int = _arg(_count, 10)
    b_rot: int = _arg(_count, 8)
    b_grad: int = _arg(_count, 30)               # phase-gradient register width


@dataclass(frozen=True)
class ChannelConstraint:
    """One pairwise-distance constraint of a reaction channel."""

    alpha: int = _arg(_whole)                    # nucleus index
    beta: int = _arg(_whole)                     # nucleus index
    cutoff: float = _arg(_positive)              # bohr
    direction: str = _arg(_one_of(("greater", "less")))


@dataclass(frozen=True)
class ReactionChannel:
    """A reaction channel: conjunction of pairwise-distance constraints."""

    constraints: tuple = _arg(_each(_section(ChannelConstraint), nonempty=True))

    @property
    def b_j(self) -> int:
        return len(self.constraints)

    def nuclei_involved(self) -> set:
        return {c.alpha for c in self.constraints} | {c.beta for c in self.constraints}


@dataclass(frozen=True)
class BudgetShares:
    """The explicit shares of the ``custom`` budget policy."""

    eps_isp: float = _arg(_number, 0.0)
    eps_prop: float = _arg(_number, 0.0)
    eps_b: float = _arg(_number, 0.0)
    eps_qae: float = _arg(_number, 0.0)
    eps_obs: float = _arg(_number, 0.0)


@dataclass(frozen=True)
class BudgetSettings:
    """The error budget and the settings that size the estimate."""

    eps_total: float = _arg(_fraction, 0.095)
    lambda_obs: float = _arg(_positive, 1.0)
    policy: str = _arg(_one_of(BUDGET_POLICIES), "paper_default")
    custom: BudgetShares = _arg(_section(BudgetShares), BudgetShares())
    pad_mode: str = _arg(_one_of(PAD_MODES), "SSCT")
    b_r: int = _arg(_count, 8)                   # amplitude-amplification rotation bits
    # trim Monte Carlo samples, at most numpy's int64 binomial count
    trim_n_mc: int = _arg(_at_most(_count, 2 ** 63 - 1), 100_000)
    trim_alpha: float = _arg(_fraction, 1e-5)    # trim Monte Carlo confidence level


@dataclass(frozen=True)
class GridOverrides:
    """Grid values pinned for anchor comparisons; None leaves a value computed."""

    n_p: int | None = _arg(_at_least(_whole, 2), None)
    length: float | None = _arg(_positive, None)
    n_isp: int | None = _arg(_count, None)
    n_pad: int | None = _arg(_at_least(_whole, 0), None)
    lambda_h_tilde: float | None = _arg(_positive, None)


@dataclass(frozen=True)
class Simulation:
    """Simulation time, grid pins, and published values to print alongside."""

    time_fs: float = _arg(_positive, 30.0)
    overrides: GridOverrides = _arg(_section(GridOverrides), GridOverrides())
    anchors: tuple = _arg(_anchors, ())

    @property
    def time_au(self) -> float:
        return fs_to_au(self.time_fs)


@dataclass(frozen=True)
class MoleculeSpec:
    """Parsed physical input: the estimator's sole description of a run."""

    particles: ParticleTable = _arg(_section(ParticleTable))
    normal_modes: NormalModeData = _arg(_section(NormalModeData))
    electronic: ElectronicMeta = _arg(_section(ElectronicMeta))
    nuclear: NuclearMeta = _arg(_section(NuclearMeta))
    channels: tuple = _arg(_each(_section(ReactionChannel)))
    budget: BudgetSettings = _arg(_section(BudgetSettings))
    simulation: Simulation = _arg(_section(Simulation), Simulation())
    allow_non_neutral: bool = _arg(_bool, False)


_MOLECULE = _section(MoleculeSpec)


def validate_molecule(spec: MoleculeSpec) -> MoleculeSpec:
    """Check the invariants that tie two or more fields of a parsed molecule
    together (its converter checked each field alone).  Returns the input
    unchanged, or raises :class:`ValidationError` naming the field."""
    p = spec.particles
    if not len(p.masses) == len(p.charges) == p.eta:
        raise ValidationError(f"eta_e + eta_n = {p.eta} must equal the numbers of masses "
                              f"({len(p.masses)}) and charges ({len(p.charges)})", "particles")
    if p.masses[:p.eta_e].count(1) + p.charges[:p.eta_e].count(-1) != 2 * p.eta_e:
        raise ValidationError("the first eta_e particles are electrons, of mass 1 and "
                              "charge -1", "particles")
    if not p.is_neutral and not spec.allow_non_neutral:
        raise ValidationError(f"net charge {sum(p.charges)} != 0; set allow_non_neutral "
                              f"to override", "particles", "charges")

    nm = spec.normal_modes
    dim = 3 * p.eta_n
    shape = nm.transform.shape
    det = float(np.linalg.det(nm.transform)) if shape == (dim, dim) else math.nan
    if not abs(det - 1.0) <= DET_A_TOL:
        raise ValidationError(f"must be {dim}x{dim} with det 1 within {DET_A_TOL}, got "
                              f"shape {shape} and det={det!r}", "normal_modes", "transform")
    if p.eta_n == 2 and not nm.linear:
        raise ValidationError("must be true: two nuclei lie on a line", "normal_modes", "linear")
    n_vib = max(0, dim - (5 if nm.linear else 6))
    if nm.n_vib != n_vib:
        raise ValidationError(f"expected {n_vib} vibrational frequencies for a "
                              f"{'linear' if nm.linear else 'non-linear'} molecule, "
                              f"got {nm.n_vib}", "normal_modes", "omegas")
    if len(nm.d_diag) != dim:
        raise ValidationError(f"must have {dim} entries", "normal_modes", "d_diag")

    # each bond table has one row per orbital or per mode and single-modal;
    # a missing row would drop its synthesis cost from a reported bound
    for section, rows, layout in (
            ("electronic", (spec.electronic.n_mob,), "(n_mob, sites)"),
            ("nuclear", (dim, spec.nuclear.n_smb), "(3*eta_n, n_smb, sites)")):
        shape = getattr(spec, section).bond_dims.shape
        if shape[:-1] != rows:
            raise ValidationError(f"must have shape {layout} = ({', '.join(map(str, rows))}, "
                                  f"sites), got {shape}", section, "bond_dims")

    max_pairs = p.eta_n * (p.eta_n - 1) // 2
    for i, ch in enumerate(spec.channels):
        for k, c in enumerate(ch.constraints):
            for name in ("alpha", "beta"):
                if not 0 <= getattr(c, name) < p.eta_n:
                    raise ValidationError(f"{name}={getattr(c, name)} is not a nucleus index "
                                          f"in [0, eta_n={p.eta_n})",
                                          "channels", i, "constraints", k)
            if c.alpha == c.beta:
                raise ValidationError("pairs a nucleus with itself",
                                      "channels", i, "constraints", k)
        if ch.b_j > max_pairs:
            raise ValidationError(f"{ch.b_j} constraints > eta_n(eta_n-1)/2 = {max_pairs}",
                                  "channels", i, "constraints")
    return spec


def molecule_from_dict(doc: dict) -> MoleculeSpec:
    """Build an (unvalidated) MoleculeSpec from a parsed JSON document; a
    missing, unknown or malformed field raises :class:`ValidationError` naming its path."""
    if not isinstance(doc, dict):
        raise ValidationError(f"a molecule document must be an object, got {type(doc).__name__}")
    return _MOLECULE(doc)

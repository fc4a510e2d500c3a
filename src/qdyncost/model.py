"""Domain types, unit conventions, and the molecule-file schema.

All physical quantities are in atomic units (Hartree energies, bohr lengths,
electron masses, elementary charges).  Simulation times are accepted in
femtoseconds and converted with ``1 a.u. of time = 0.0241888 fs``.
Logarithms are base 2 throughout the package.

It also defines :class:`Record`, the frozen record every pipeline stage
returns.  This is the only module that knows the molecule file.  Each
section of it is a record whose fields declare their converter and their one
default; :func:`molecule_from_dict` builds the whole document through one
generic section builder, which rejects unknown keys and names the full path
of any bad field.  :func:`validate_molecule` checks what ties fields
together.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from functools import reduce
from itertools import accumulate, chain

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
    """``ceil(log2(x))`` computed exactly for integers of any type."""
    if x <= 0:
        raise ValueError(f"ceil_log2 requires a positive argument, got {x}")
    try:
        return (operator.index(x) - 1).bit_length()
    except TypeError:
        return int(math.ceil(math.log2(x)))


def ordered_sum(values) -> float:
    """The floats of ``values`` added one at a time from 0.0, as Python 3.11's
    built-in ``sum`` adds them; from 3.12 ``sum`` compensates, which moves
    the last bits of a report.  The last running total is kept, not a list."""
    return deque(accumulate(values, initial=0.0), maxlen=1)[0]


_REQUIRED = object()   # the default of a field that has none


class _arg:
    """A record field parsed by ``convert`` (None outside the molecule file);
    ``default`` is its only default."""

    __slots__ = ("convert", "default")

    def __init__(self, convert, default=_REQUIRED):
        self.convert, self.default = convert, default


class Record:
    """A frozen record.  Its fields are the names its class body annotates, in
    order, each with the default the body gives it, if any.

    One ``__init__`` takes the fields by position or by name; a missing,
    unknown or doubled field raises TypeError.  It then calls
    ``__post_init__``.  A field cannot be assigned or deleted; equality, hash
    and repr run over the fields, and :meth:`replace` makes a changed copy.
    """

    _fields = {}   # field name -> _arg, in order
    _tails = {}    # positional argument count -> the defaults that complete it

    def __init_subclass__(cls):
        fields = dict(cls._fields)
        # the class's own annotations: on 3.10 __annotations__ falls back to a base's
        for name in cls.__dict__.get("__annotations__", {}):
            value = cls.__dict__.get(name, _REQUIRED)
            fields[name] = value if isinstance(value, _arg) else _arg(None, value)
            if value is not _REQUIRED:
                delattr(cls, name)
        defaults = [arg.default for arg in fields.values()]
        least = max((i + 1 for i, d in enumerate(defaults) if d is _REQUIRED), default=0)
        cls._fields = fields
        cls._tails = {count: tuple(defaults[count:]) for count in range(least, len(fields) + 1)}

    def __init__(self, *args, **kwargs):
        tail = self._tails.get(len(args))
        if tail is not None and not kwargs:
            values = dict(zip(self._fields, args + tail))
        else:
            given = dict(zip(self._fields, args), **kwargs) if args else kwargs
            # the usual keyword build names every field and keeps its dict
            full = given.keys() == self._fields.keys()
            values = given if full else \
                {name: given.get(name, arg.default) for name, arg in self._fields.items()}
            if len(given) != len(args) + len(kwargs) or not given.keys() <= values.keys() \
                    or not full and any(value is _REQUIRED for value in values.values()):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{', '.join(self._fields)}; got {len(args)} by position "
                                f"and {', '.join(map(repr, kwargs)) or 'none'} by name")
        # one dict, set whole: a generic loop of per-field sets is slower
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def replace(self, **changes):
        """A copy with the fields named in ``changes`` set to their values."""
        values = [changes.pop(name) if name in changes else getattr(self, name)
                  for name in self._fields]
        return type(self)(*values, **changes)   # a name left in changes is no field


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
    """A rectangular (nested) JSON array of finite numbers as nested tuples of
    floats; with ``max_rank``, a bond-dimension table: a non-empty table of
    at most ``max_rank`` axes whose entries are whole numbers in [1, 2**63),
    as ints.  The shape and entry types are checked one level of nesting at
    a time, and the entries once, flat."""
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
        if max_rank is None or float in kinds:
            if int in kinds:
                level = list(map(float, level))
            if not all(map(math.isfinite, level)):
                raise ValueError("entries must be finite numbers")
            if max_rank is None:
                return _nest(level, shape)
            if not all(map(float.is_integer, level)):
                raise ValueError("entries must be whole numbers")
            level = list(map(int, level))
        if not level or len(shape) > max_rank or min(level) < 1:
            raise ValueError(f"must be a non-empty table of rank <= {max_rank} with "
                             f"entries >= 1, got shape {tuple(shape)}")
        # the ledger's sums took int64 entries, and still take no larger ones
        if max(level) >= 2 ** 63:
            raise ValueError("entries must be below 2**63")
        return _nest(level, shape)
    return check


def _nest(flat: list, shape: list) -> tuple:
    """The entries ``flat`` as nested tuples of ``shape``, grouped innermost
    axis first."""
    for axis in range(len(shape) - 1, 0, -1):
        size = shape[axis]
        flat = list(zip(*[iter(flat)] * size)) if size else [()] * math.prod(shape[:axis])
    return tuple(flat)


def _table_shape(table) -> tuple:
    """The shape of a rectangular table of nested tuples."""
    dims = []
    while isinstance(table, tuple):
        dims.append(len(table))
        table = table[0] if table else None
    return tuple(dims)


def _anchors(value) -> tuple:
    """Published values by name, each a positive number, as (name, value)
    pairs kept as written, so the report echoes them unchanged."""
    for key, v in _typed(value, dict, "an object").items():
        _convert(_positive, v, key)
    return tuple(value.items())


def _section(cls):
    """The converter of section ``cls``: a JSON object in, each key through
    its field's converter, absent optional fields at their defaults.  An
    unknown key or a missing required field is rejected."""
    names = cls._fields.keys()

    def build(value):
        if not names >= _typed(value, dict, "an object").keys():
            key = next(k for k in value if k not in names)
            raise ValidationError(f"unknown key; expected one of {', '.join(sorted(names))}", key)
        values = []
        for name, arg in cls._fields.items():
            if name in value:
                values.append(_convert(arg.convert, value[name], name))
            elif arg.default is _REQUIRED:
                raise ValidationError("missing required field", name)
            else:
                values.append(arg.default)
        return cls(*values)
    return build


# ---------------------------------------------------------------------------
# the sections of a molecule file


class ParticleTable(Record):
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
        return ordered_sum(1.0 / m for m in self.masses)

    @property
    def sum_abs_charge_pairs(self) -> float:
        """``sum_{i != j} |z_i||z_j|`` over ordered particle pairs."""
        s1 = sum(abs(z) for z in self.charges)
        s2 = sum(z * z for z in self.charges)
        return float(s1 * s1 - s2)


class NormalModeData(Record):
    """Normal-mode metadata for the nuclear state.

    ``transform`` is the normalized coordinate-transform matrix (det = 1)
    obtained by factoring the diagonal scale matrix ``d`` out of the
    mass-weighted normal-mode rotation; ``omegas`` are the (already rescaled)
    harmonic frequencies in Hartree.
    """

    omegas: tuple = _arg(_each(_positive))
    transform: tuple = _arg(_table())            # (3*eta_n, 3*eta_n), det = 1
    d_diag: tuple = _arg(_each(_positive))       # diagonal of the factored scale
    gamma_trans: float = _arg(_positive)         # translational Gaussian width
    upsilon_rot: float = _arg(_positive)         # rotational Gaussian width
    linear: bool = _arg(_bool, False)

    @property
    def n_vib(self) -> int:
        return len(self.omegas)


class ElectronicMeta(Record):
    """Electronic basis metadata (molecular orbitals and their MPS sizes)."""

    n_mob: int = _arg(_count)                    # number of molecular orbitals
    d_configs: int = _arg(_count)                # number of electronic configurations
    n_gauss: int = _arg(_count)                  # Gaussian primitives per orbital expansion
    gamma_max: float = _arg(_positive)           # largest Gaussian exponent
    l_max: int = _arg(_at_least(_whole, 0))      # largest Cartesian angular power
    sigma_ortho: float = _arg(_positive)         # orthogonalization eigenvalue cutoff
    bond_dims: tuple = _arg(_table(max_rank=2))  # (n_mob, n_sites) per-orbital MPS bond dims
    b_asp: int = _arg(_count, 10)                # precision qubits, arbitrary state prep
    b_rot: int = _arg(_count, 8)                 # precision qubits, rotation multiplexor


class NuclearMeta(Record):
    """Nuclear basis metadata (single-modals and their MPS sizes)."""

    n_smb: int = _arg(_count)                    # single-modal basis size per mode
    d_configs: int = _arg(_count)                # number of nuclear configurations
    n_hg: int = _arg(_count)                     # Hermite-Gaussian primitives per mode
    bond_dims: tuple = _arg(_table(max_rank=3))  # (n_modes, n_smb, n_sites) MPS bond dims
    b_asp: int = _arg(_count, 10)
    b_rot: int = _arg(_count, 8)
    b_grad: int = _arg(_count, 30)               # phase-gradient register width


class ChannelConstraint(Record):
    """One pairwise-distance constraint of a reaction channel."""

    alpha: int = _arg(_whole)                    # nucleus index
    beta: int = _arg(_whole)                     # nucleus index
    cutoff: float = _arg(_positive)              # bohr
    direction: str = _arg(_one_of(("greater", "less")))


class ReactionChannel(Record):
    """A reaction channel: conjunction of pairwise-distance constraints."""

    constraints: tuple = _arg(_each(_section(ChannelConstraint), nonempty=True))

    @property
    def b_j(self) -> int:
        return len(self.constraints)

    def nuclei_involved(self) -> set:
        return {c.alpha for c in self.constraints} | {c.beta for c in self.constraints}


class BudgetShares(Record):
    """The explicit shares of the ``custom`` budget policy."""

    eps_isp: float = _arg(_number, 0.0)
    eps_prop: float = _arg(_number, 0.0)
    eps_b: float = _arg(_number, 0.0)
    eps_qae: float = _arg(_number, 0.0)
    eps_obs: float = _arg(_number, 0.0)


class BudgetSettings(Record):
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


class GridOverrides(Record):
    """Grid values pinned for anchor comparisons; None leaves a value computed."""

    n_p: int | None = _arg(_at_least(_whole, 2), None)
    length: float | None = _arg(_positive, None)
    n_isp: int | None = _arg(_count, None)
    n_pad: int | None = _arg(_at_least(_whole, 0), None)
    lambda_h_tilde: float | None = _arg(_positive, None)


class Simulation(Record):
    """Simulation time, grid pins, and published values to print alongside."""

    time_fs: float = _arg(_positive, 30.0)
    overrides: GridOverrides = _arg(_section(GridOverrides), GridOverrides())
    anchors: tuple = _arg(_anchors, ())

    @property
    def time_au(self) -> float:
        return fs_to_au(self.time_fs)


class MoleculeSpec(Record):
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


def _determinant(matrix) -> float:
    """The determinant of a square table, by LU with partial pivoting: the
    signed product of the pivots.  An upper-triangular table takes no row
    swap or elimination step, so its product is read off the diagonal."""
    if not any(any(row[:i]) for i, row in enumerate(matrix)):
        return reduce(operator.mul, (row[i] for i, row in enumerate(matrix)), 1.0)
    a = [list(row) for row in matrix]
    det = 1.0
    for k in range(len(a)):
        column = [abs(row[k]) for row in a[k:]]
        p = k + column.index(max(column))
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot_row = a[k]
        pivot = pivot_row[k]
        det *= pivot
        if not pivot:
            return det
        for row in a[k + 1:]:
            if row[k]:
                f = row[k] / pivot
                row[k:] = [x - f * y for x, y in zip(row[k:], pivot_row[k:])]
    return det


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
    got = _table_shape(nm.transform)
    det = _determinant(nm.transform) if got == (dim, dim) else math.nan
    if not abs(det - 1.0) <= DET_A_TOL:
        raise ValidationError(f"must be {dim}x{dim} with det 1 within {DET_A_TOL}, got "
                              f"shape {got} and det={det!r}", "normal_modes", "transform")
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
        got = _table_shape(getattr(spec, section).bond_dims)
        if got[:-1] != rows:
            raise ValidationError(f"must have shape {layout} = ({', '.join(map(str, rows))}, "
                                  f"sites), got {got}", section, "bond_dims")

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

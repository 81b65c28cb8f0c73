"""Typed, validated solve configuration: :class:`SolveSpec`.

PR 1 unified the *entry point* (every backend answers through
``repro.solve``), but configuration stayed a stringly-typed ``**options``
bag that each backend interpreted — and silently ignored — differently.
``SolveSpec`` replaces that bag with a frozen dataclass tree:

* :class:`ToleranceSpec` — convergence knobs (``tol_rtr``, ``rel_tol``,
  ``max_iters``);
* :class:`PrecisionSpec` — working precision (``float32``/``float64``);
* :class:`MachineSpec` — machine-level knobs (a :class:`WseSpecs` or
  :class:`GpuSpecs` target, SIMD width, CUDA block shape, kernel variant,
  buffer reuse, comm-only mode, fixed iteration counts);
* ``preconditioner`` — ``"none"`` (the paper's unpreconditioned CG),
  ``"jacobi"`` (the documented diagonal-scaling extension), or ``"mg"``
  (matrix-free geometric multigrid V-cycle; tuned by the optional
  top-level ``mg_levels`` / ``mg_smoother_iters`` knobs);
* :class:`TimeSpec` (optional ``time`` section) — the backward-Euler
  schedule that turns a solve into a transient *simulation* (Δt schedule,
  step count, compressibility, initial-condition policy, warm-start
  toggle); consumed by ``repro.simulate`` and by any backend's ``solve``
  when set.

Every field is validated at construction; ``None`` means "backend
default".  The section dataclasses' fields are the only list of knobs:
the flat-kwarg vocabulary (:data:`KWARG_MAP`, bridged by
:meth:`SolveSpec.from_kwargs`, which rejects unknown keys naming the
nearest valid one) and the JSON-able :meth:`SolveSpec.to_dict` /
:meth:`SolveSpec.from_dict` round trip for persistence (the session
result store records exactly what configuration produced each result)
are derived from them.  The fabric solver reads the spec itself: its
builder (:mod:`repro.core.solver`) takes one as its only configuration.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.gpu.specs import GpuSpecs
from repro.util.errors import ConfigurationError, unknown_name_error
from repro.wse.specs import WseSpecs

#: Working precisions the machines support (fp32 on-device, fp64 checks).
SUPPORTED_DTYPES = ("float32", "float64")

#: Preconditioner choices: Jacobi is the purely PE-local extension;
#: ``"mg"`` is the matrix-free geometric multigrid V-cycle (lateral
#: semi-coarsening, Galerkin coarse operators, weighted-Jacobi smoothing)
#: shared by the reference solver and every fabric engine.
PRECONDITIONERS = ("none", "jacobi", "mg")

#: Hard cap on multigrid hierarchy depth (``repro.mg.MAX_MG_LEVELS``
#: aliases it; ``CgProgram`` checks against it too).
MG_MAX_LEVELS = 10

#: Hard cap on pre/post smoothing sweeps per level.
MG_MAX_SMOOTHER_ITERS = 8

#: The knobs that only the mg preconditioner reads.
_MG_KNOBS = ("mg_levels", "mg_smoother_iters")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_optional_int(name: str, value: Any, minimum: int) -> int | None:
    if value is None:
        return None
    if not _is_int(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_optional_float(name: str, value: Any, *, zero: bool = False) -> float | None:
    """``value`` as a float that is > 0 (>= 0 when ``zero``), or None."""
    if value is None:
        return None
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not (value >= 0 if zero else value > 0):
        raise ConfigurationError(f"{name} must be {'>=' if zero else '>'} 0, got {value}")
    return value


@dataclass(frozen=True)
class ToleranceSpec:
    """Convergence criteria for the linear (CG) solve.

    ``tol_rtr`` is the paper's absolute tolerance on ``r^T r`` (§V-C uses
    2e-10); ``tol_rtr=0`` sets no absolute floor, so only ``rel_tol`` or
    ``max_iters`` stops the solve.  ``rel_tol`` is the relative
    alternative (converge when ``r^T r <= rel_tol² · r0^T r0``);
    ``max_iters`` the iteration cap.  ``None`` defers to the backend
    default.
    """

    tol_rtr: float | None = None
    rel_tol: float | None = None
    max_iters: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tol_rtr", _check_optional_float("tol_rtr", self.tol_rtr, zero=True)
        )
        object.__setattr__(self, "rel_tol", _check_optional_float("rel_tol", self.rel_tol))
        object.__setattr__(
            self, "max_iters", _check_optional_int("max_iters", self.max_iters, 1)
        )


@dataclass(frozen=True)
class PrecisionSpec:
    """Working precision; stored as a canonical NumPy dtype name.

    Accepts anything ``np.dtype`` understands (``np.float32``,
    ``"float64"``, ``np.dtype("f4")``) and normalizes it; ``None`` defers
    to the backend default (float64 reference, float32 devices).
    """

    dtype: str | None = None

    def __post_init__(self) -> None:
        if self.dtype is None:
            return
        try:
            name = np.dtype(self.dtype).name
        except TypeError:
            raise ConfigurationError(f"unrecognized dtype {self.dtype!r}") from None
        if name not in SUPPORTED_DTYPES:
            raise ConfigurationError(
                f"dtype {name!r} is not supported; choose one of "
                f"{', '.join(SUPPORTED_DTYPES)}"
            )
        object.__setattr__(self, "dtype", name)

    def numpy_dtype(self, default: Any = np.float64) -> np.dtype:
        """The resolved ``np.dtype`` (falling back to ``default``)."""
        return np.dtype(self.dtype if self.dtype is not None else default)


@dataclass(frozen=True)
class TimeSpec:
    """Backward-Euler time-stepping schedule for a transient solve.

    Setting ``SolveSpec.time`` turns a solve into a *simulation*: every
    step solves ``(J + A) p^{n+1} = A p^n + b_D`` with the accumulation
    diagonal ``A = diag(φ c_t V / Δt)`` (see ``repro.physics.transient``
    for the discretization and its conditioning property).

    * ``n_steps`` — number of backward-Euler steps (>= 1);
    * ``dt`` — the step size: a single positive float, or a per-step
      schedule (sequence of ``n_steps`` positive floats) for ramped
      Δt studies;
    * ``total_compressibility`` — ``c_t`` (> 0);
    * ``porosity`` — uniform ``φ`` (> 0; field porosities stay with the
      lower-level physics API, a spec must be JSON-able);
    * ``initial_condition`` — ``"problem"`` (the problem's
      Dirichlet-consistent zero-fill initial pressure) or a finite float
      (uniform fill, Dirichlet values applied on top);
    * ``warm_start`` — start each step's CG from the previous step's
      pressure (default) instead of re-starting from the initial
      condition.  Step 1 is identical either way (both start from the
      initial condition), which the tests pin down.
    """

    n_steps: int = 1
    dt: "float | tuple[float, ...]" = 1.0
    total_compressibility: float = 1e-4
    porosity: float = 0.2
    initial_condition: "str | float" = "problem"
    warm_start: bool = True

    def __post_init__(self) -> None:
        n_steps = _check_optional_int("n_steps", self.n_steps, 1)
        if n_steps is None:
            raise ConfigurationError("n_steps must be an integer >= 1, got None")
        object.__setattr__(self, "n_steps", n_steps)
        dt = self.dt
        if isinstance(dt, (list, tuple, np.ndarray)):
            schedule = []
            for i, v in enumerate(dt):
                if v is None:
                    raise ConfigurationError(
                        f"dt[{i}] must be a positive number, got None"
                    )
                schedule.append(_check_optional_float(f"dt[{i}]", v))
            schedule = tuple(schedule)
            if len(schedule) != n_steps:
                raise ConfigurationError(
                    f"dt schedule has {len(schedule)} entries for "
                    f"n_steps={n_steps}"
                )
            object.__setattr__(self, "dt", schedule)
        else:
            object.__setattr__(self, "dt", _check_optional_float("dt", dt))
            if self.dt is None:
                raise ConfigurationError("dt must be a positive number, got None")
        object.__setattr__(
            self,
            "total_compressibility",
            _check_optional_float("total_compressibility", self.total_compressibility),
        )
        object.__setattr__(
            self, "porosity", _check_optional_float("porosity", self.porosity)
        )
        ic = self.initial_condition
        if isinstance(ic, str):
            if ic != "problem":
                raise ConfigurationError(
                    f"initial_condition must be 'problem' or a finite number, "
                    f"got {ic!r}"
                )
        else:
            try:
                ic = float(ic)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"initial_condition must be 'problem' or a finite number, "
                    f"got {self.initial_condition!r}"
                ) from None
            if not np.isfinite(ic):
                raise ConfigurationError(
                    f"initial_condition must be finite, got {ic!r}"
                )
            object.__setattr__(self, "initial_condition", ic)
        object.__setattr__(self, "warm_start", bool(self.warm_start))

    def dts(self) -> tuple[float, ...]:
        """The per-step Δt schedule, always ``n_steps`` long."""
        if isinstance(self.dt, tuple):
            return self.dt
        return (self.dt,) * self.n_steps

    def times(self) -> tuple[float, ...]:
        """Physical time after each step (cumulative Δt sums)."""
        out, t = [], 0.0
        for dt in self.dts():
            t += dt
            out.append(t)
        return tuple(out)

    def stepper_options(self) -> dict[str, Any]:
        """The :class:`~repro.physics.transient.TransientStepper` keywords
        this schedule sets (every backend's stepping loop takes them)."""
        return {
            "dts": self.dts(),
            "porosity": self.porosity,
            "total_compressibility": self.total_compressibility,
            "initial_condition": self.initial_condition,
            "warm_start": self.warm_start,
        }


#: Names of every TimeSpec knob.
TIME_FIELDS = tuple(f.name for f in dataclasses.fields(TimeSpec))

#: Fabric execution engines the dataflow backend offers (``None`` keeps
#: the backend default, ``repro.core.engines.DEFAULT_ENGINE``: the fused
#: layout).  The single source of truth: ``repro.core.engines.ENGINE_NAMES``
#: aliases this tuple.
FABRIC_ENGINES = ("event", "vectorized", "sharded", "fused")

#: Engines whose sweeps are cache-tiled and therefore honour the
#: ``fused_tile`` knob: the fused hot-loop engine itself, and the sharded
#: engine (which tiles each shard).
#: ``repro.core.engines.TILE_CAPABLE_ENGINES`` aliases this tuple.
TILE_ENGINES = ("fused", "sharded")


def normalize_shard_shape(shard_shape) -> tuple[int, int]:
    """``int`` → 1-D ``(n, 1)``; otherwise a validated 2-tuple.

    Like :func:`normalize_fused_tile`, an entry is never rounded: the
    layout fixes the dot-partial order, so a float, bool or string
    entry raises :class:`ConfigurationError`."""
    try:
        shape = (shard_shape, 1) if _is_int(shard_shape) else tuple(shard_shape)
    except TypeError:
        shape = ()
    if len(shape) != 2 or not all(_is_int(v) and v >= 1 for v in shape):
        raise ConfigurationError(
            f"shard_shape must be a positive int or a (shards_x, shards_y) "
            f"pair of positive integers, got {shard_shape!r}"
        )
    return (int(shape[0]), int(shape[1]))


_TILE_STRING = re.compile(r"^\s*(\d+)\s*[xX,]\s*(\d+)\s*$")


def normalize_fused_tile(value) -> tuple[int, int] | None:
    """Coerce a tile spec to a ``(tile_x, tile_y)`` pair.

    Accepts ``None`` (auto-pick), a positive int (square tile; numpy
    integers included), a two-sequence of positive ints, or a
    ``"16x16"``-style string (the CLI/env spelling).  Anything else
    raises :class:`ConfigurationError`.
    """
    if value is None:
        return None
    if isinstance(value, str):
        match = _TILE_STRING.match(value)
        if not match:
            raise ConfigurationError(
                f"fused_tile string must look like '16x16', got {value!r}"
            )
        value = (int(match.group(1)), int(match.group(2)))
    if _is_int(value):
        value = (value, value)
    try:
        tile = tuple(value)
    except TypeError:
        raise ConfigurationError(
            f"fused_tile must be a positive int, a (tile_x, tile_y) pair, "
            f"or a '16x16' string, got {value!r}"
        ) from None
    # The tile fixes the dot-partial order, so an entry is never rounded.
    if len(tile) != 2 or not all(_is_int(v) and v >= 1 for v in tile):
        raise ConfigurationError(
            f"fused_tile must be two positive integers, got {value!r}"
        )
    return (int(tile[0]), int(tile[1]))


@dataclass(frozen=True)
class MachineSpec:
    """Machine-level execution knobs.

    Each backend supports a subset and *rejects* the rest (a spec asking
    the GPU for a SIMD width is a configuration error, not a silent
    no-op):

    * ``spec`` — the hardware description: a :class:`WseSpecs` for the
      dataflow backend, a :class:`GpuSpecs` for the GPU model;
    * ``engine`` — fabric execution engine (dataflow only):
      ``"fused"`` (NumPy sweeps over cache-sized tiles with an analytic
      cycle/counter model; the default when omitted, resolved by the
      dataflow backend before the spec is fingerprinted),
      ``"vectorized"`` (the same sweeps over one whole-fabric tile —
      paper-scale fabrics), ``"sharded"`` (a fabric decomposed into
      shards, its tiles swept shard by shard, with the inter-shard
      traffic reported) or ``"event"`` (per-PE discrete-event oracle,
      cycle-accurate; an explicit opt-in).  Only ``"fused"`` and
      ``"vectorized"`` batch;
    * ``simd_width`` — §III-E.3 DSD vectorization (dataflow only);
    * ``block_shape`` — CUDA thread-block shape (GPU only);
    * ``variant`` — kernel variant name, e.g. ``"precomputed"`` or
      ``"fused_mobility"`` (dataflow only);
    * ``reuse_buffers`` — §III-E.1 buffer-reuse toggle (dataflow only);
    * ``comm_only`` — Table IV methodology: suppress floating point
      (dataflow only, requires ``fixed_iterations``);
    * ``fixed_iterations`` — run exactly N CG steps (dataflow and GPU);
    * ``batch_size`` — cap on lanes per batched program (dataflow
      fused/vectorized engines only, an unset engine included; ``None``
      puts a whole compatible batch in one program).  The other engines
      and the gpu/reference backends reject it.
    * ``shard_shape`` — ``(shards_x, shards_y)`` domain decomposition of
      the fabric for the sharded engine (an ``int`` means a 1-D
      ``(n, 1)`` split).  Requires ``engine="sharded"``; the layout is
      validated against the grid at engine construction.
    * ``fused_tile`` — ``(tile_x, tile_y)`` cache-tile shape for the
      fused hot-loop engine's tiled sweeps (an ``int`` means a square
      ``(n, n)`` tile).  Requires a tile-capable engine
      (``engine="fused"`` or ``engine="sharded"``); omitting it lets the
      engine auto-pick a tile from the grid and dtype.
    """

    spec: WseSpecs | GpuSpecs | None = None
    engine: str | None = None
    simd_width: int | None = None
    block_shape: tuple[int, int, int] | None = None
    variant: str | None = None
    reuse_buffers: bool | None = None
    comm_only: bool = False
    fixed_iterations: int | None = None
    batch_size: int | None = None
    shard_shape: tuple[int, int] | None = None
    fused_tile: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.spec is not None and not isinstance(self.spec, (WseSpecs, GpuSpecs)):
            raise ConfigurationError(
                f"machine.spec must be a WseSpecs or GpuSpecs, got "
                f"{type(self.spec).__name__}"
            )
        if self.engine is not None and self.engine not in FABRIC_ENGINES:
            raise unknown_name_error(
                "fabric engine", self.engine, FABRIC_ENGINES, "engines"
            )
        object.__setattr__(
            self, "simd_width", _check_optional_int("simd_width", self.simd_width, 1)
        )
        if self.block_shape is not None:
            # Like shard_shape and fused_tile, an entry is never rounded:
            # two requests differing only there must not share a key.
            try:
                shape = tuple(self.block_shape)
            except TypeError:
                shape = ()
            if len(shape) != 3 or not all(_is_int(v) and v >= 1 for v in shape):
                raise ConfigurationError(
                    f"block_shape must be three positive integers, got "
                    f"{self.block_shape!r}"
                )
            object.__setattr__(self, "block_shape", tuple(int(v) for v in shape))
        if self.variant is not None:
            variant = getattr(self.variant, "value", self.variant)
            if not isinstance(variant, str):
                raise ConfigurationError(f"variant must be a string, got {self.variant!r}")
            object.__setattr__(self, "variant", variant)
        if self.reuse_buffers is not None:
            object.__setattr__(self, "reuse_buffers", bool(self.reuse_buffers))
        object.__setattr__(self, "comm_only", bool(self.comm_only))
        object.__setattr__(
            self,
            "fixed_iterations",
            _check_optional_int("fixed_iterations", self.fixed_iterations, 1),
        )
        object.__setattr__(
            self, "batch_size", _check_optional_int("batch_size", self.batch_size, 1)
        )
        if self.shard_shape is not None:
            object.__setattr__(
                self, "shard_shape", normalize_shard_shape(self.shard_shape)
            )
            if self.engine != "sharded":
                raise ConfigurationError(
                    f"shard_shape configures the sharded engine; set "
                    f"engine='sharded' (got engine={self.engine!r})"
                )
        if self.fused_tile is not None:
            object.__setattr__(
                self, "fused_tile", normalize_fused_tile(self.fused_tile)
            )
            if self.engine not in TILE_ENGINES:
                raise ConfigurationError(
                    f"fused_tile configures the tiled engines; set engine "
                    f"to one of {', '.join(map(repr, TILE_ENGINES))} "
                    f"(got engine={self.engine!r})"
                )

    def set_fields(self) -> set[str]:
        """Names of knobs that differ from their defaults."""
        default = _DEFAULT_MACHINE
        return {
            name for name in MACHINE_FIELDS
            if getattr(self, name) != getattr(default, name)
        }


_DEFAULT_MACHINE = MachineSpec()

#: Names of every MachineSpec knob (used for per-backend strictness checks).
MACHINE_FIELDS = tuple(f.name for f in dataclasses.fields(MachineSpec))


@dataclass(frozen=True)
class SolveSpec:
    """The complete, validated configuration of one solve.

    Immutable and hashable-by-value; cheap to share across plan entries,
    worker processes and the on-disk result store.

    Examples
    --------
    >>> spec = SolveSpec(
    ...     tolerance=ToleranceSpec(rel_tol=1e-9, max_iters=2000),
    ...     precision=PrecisionSpec("float64"),
    ... )
    >>> spec = SolveSpec.from_kwargs(dtype=np.float64, rel_tol=1e-9)
    >>> SolveSpec.from_dict(spec.to_dict()) == spec
    True
    """

    tolerance: ToleranceSpec = field(default_factory=ToleranceSpec)
    precision: PrecisionSpec = field(default_factory=PrecisionSpec)
    machine: MachineSpec = field(default_factory=MachineSpec)
    preconditioner: str = "none"
    mg_levels: int | None = None
    mg_smoother_iters: int | None = None
    time: TimeSpec | None = None

    def __post_init__(self) -> None:
        if self.preconditioner not in PRECONDITIONERS:
            raise ConfigurationError(
                f"unknown preconditioner {self.preconditioner!r}; choose one "
                f"of {', '.join(PRECONDITIONERS)}"
            )
        object.__setattr__(
            self, "mg_levels", _check_optional_int("mg_levels", self.mg_levels, 1)
        )
        object.__setattr__(
            self,
            "mg_smoother_iters",
            _check_optional_int("mg_smoother_iters", self.mg_smoother_iters, 1),
        )
        if self.mg_levels is not None and self.mg_levels > MG_MAX_LEVELS:
            raise ConfigurationError(
                f"mg_levels must be <= {MG_MAX_LEVELS}, got {self.mg_levels}"
            )
        if (self.mg_smoother_iters is not None
                and self.mg_smoother_iters > MG_MAX_SMOOTHER_ITERS):
            raise ConfigurationError(
                f"mg_smoother_iters must be <= {MG_MAX_SMOOTHER_ITERS}, got "
                f"{self.mg_smoother_iters}"
            )
        if self.preconditioner != "mg":
            set_knobs = [
                name for name in _MG_KNOBS if getattr(self, name) is not None
            ]
            if set_knobs:
                raise ConfigurationError(
                    f"{', '.join(set_knobs)} configure the multigrid "
                    f"preconditioner; set preconditioner='mg' (got "
                    f"preconditioner={self.preconditioner!r})"
                )
        if self.time is not None and not isinstance(self.time, TimeSpec):
            raise ConfigurationError(
                f"time must be a TimeSpec or None, got "
                f"{type(self.time).__name__}"
            )

    # -- flat-kwarg bridge ---------------------------------------------------

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "SolveSpec":
        """Build a spec from the legacy flat-kwarg vocabulary.

        Unknown keys raise :class:`ConfigurationError` naming the nearest
        valid key — the typo ``tol_rt=1e-9`` fails loudly instead of being
        silently swallowed by a backend ``**options`` bag.
        """
        return cls().with_options(**kwargs)

    def with_options(self, **kwargs: Any) -> "SolveSpec":
        """A new spec with flat-kwarg overrides applied over this one."""
        changes: dict[str, dict[str, Any]] = {}
        for key, value in kwargs.items():
            if key not in KWARG_MAP:
                raise unknown_name_error(
                    "solve option", key, sorted(KWARG_MAP), "options"
                )
            section, name = KWARG_MAP[key]
            if key == "jacobi":
                value = "jacobi" if value else "none"
            changes.setdefault(section, {})[name] = value
        top = changes.pop("", {})
        for section, knobs in changes.items():
            base = getattr(self, section)
            if base is None:
                # A lone physics knob must not silently turn a steady
                # spec transient: establishing a time section requires
                # the defining knob.
                if "n_steps" not in knobs:
                    raise ConfigurationError(
                        f"option(s) {', '.join(sorted(knobs))} configure "
                        f"the time section, but this spec has no time "
                        f"schedule; include n_steps=... (or set spec.time "
                        f"to a TimeSpec)"
                    )
                base = TimeSpec()
            top[section] = replace(base, **knobs)
        return replace(self, **top) if top else self

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dict that :meth:`from_dict` round-trips exactly."""
        data = _to_data(self)
        if self.preconditioner != "mg":
            # The mg knobs only appear when the mg preconditioner is
            # selected, so other specs' payloads (and fingerprints) are
            # byte-identical to what earlier releases produced.
            for name in _MG_KNOBS:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveSpec":
        """Inverse of :meth:`to_dict`; unknown sections or keys raise."""
        return _from_data(cls, data, "SolveSpec section")

    def fingerprint(self) -> str:
        """Stable content hash of this configuration (store/memo key part)."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- backend support checks ----------------------------------------------

    def require_machine_support(self, backend: str, supported: set[str]) -> None:
        """Raise if a machine knob is set that ``backend`` cannot honour."""
        unsupported = sorted(self.machine.set_fields() - set(supported))
        if unsupported:
            raise ConfigurationError(
                f"backend {backend!r} does not support machine option(s) "
                f"{', '.join(map(repr, unsupported))}; supported: "
                f"{', '.join(sorted(supported)) or '(none)'}"
            )

    def require_time(self) -> TimeSpec:
        """The time schedule, or a :class:`ConfigurationError` for a
        steady spec (every simulate and stream door asks here)."""
        if self.time is None:
            raise ConfigurationError(
                "a simulation needs a time schedule: set spec.time to a "
                "TimeSpec (or pass n_steps=/dt=/... keywords); use solve() "
                "for steady problems"
            )
        return self.time


def _values(section: Any) -> dict[str, Any]:
    """A dataclass's field values by name, in declaration order."""
    return {name: getattr(section, name) for name in _field_types(type(section))}


@functools.cache
def _field_types(cls: type) -> dict[str, tuple]:
    """Each field's annotated types by name (``X | None`` gives
    ``(X, NoneType)``, so a section's class comes first)."""
    return {
        name: typing.get_args(hint) or (hint,)
        for name, hint in typing.get_type_hints(cls).items()
    }


def _to_data(value: Any) -> Any:
    """A spec value as JSON data: a section as the dict of its fields, a
    tuple as a list, a :class:`WseSpecs`/:class:`GpuSpecs` as its kind
    dict."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (WseSpecs, GpuSpecs)):
        kind = "wse" if isinstance(value, WseSpecs) else "gpu"
        return {"kind": kind, **dataclasses.asdict(value)}
    if dataclasses.is_dataclass(value):
        return {name: _to_data(v) for name, v in _values(value).items()}
    return value


def _from_data(cls: type, data: Mapping[str, Any], what: str) -> Any:
    """Inverse of :func:`_to_data` for the section ``cls``: lists come
    back as tuples, dicts as the field's section or machine spec; an
    unknown key raises."""
    types = _field_types(cls)
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigurationError(
            f"unknown {what}(s) {', '.join(map(repr, unknown))}; expected "
            f"{', '.join(types)}"
        )
    values = {}
    for name, value in data.items():
        kind = types[name][0]
        if isinstance(value, list):
            value = tuple(value)
        elif isinstance(value, Mapping) and dataclasses.is_dataclass(kind):
            value = (
                _machine_spec_from_dict(value) if kind is WseSpecs
                else _from_data(kind, value, f"{name} key")
            )
        values[name] = value
    return cls(**values)


def _flat_vocabulary() -> dict[str, tuple[str, str]]:
    """Every flat keyword mapped to the (section, field) it sets: a
    section's fields under the section's name, the spec's own under
    ``""``."""
    vocabulary = {}
    for name, types in _field_types(SolveSpec).items():
        if dataclasses.is_dataclass(types[0]):
            vocabulary.update((knob, (name, knob)) for knob in _field_types(types[0]))
        else:
            vocabulary[name] = ("", name)
    return vocabulary


#: The flat-kwarg vocabulary ``from_kwargs`` understands, mapped to the
#: (section, field) it configures.  ``specs`` is the GPU-native spelling of
#: the machine spec; ``jacobi`` the dataflow-native preconditioner toggle.
KWARG_MAP: dict[str, tuple[str, str]] = {
    **_flat_vocabulary(),
    "specs": ("machine", "spec"),
    "jacobi": ("", "preconditioner"),
}


def _machine_spec_from_dict(data: Mapping[str, Any]) -> WseSpecs | GpuSpecs:
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind == "wse":
        return WseSpecs(**payload)
    if kind == "gpu":
        return GpuSpecs(**payload)
    raise ConfigurationError(
        f"machine spec dict needs 'kind' of 'wse' or 'gpu', got {kind!r}"
    )


def coerce_spec(spec: Any) -> SolveSpec:
    """Accept a :class:`SolveSpec`, a ``to_dict`` payload, or ``None``."""
    if spec is None:
        return SolveSpec()
    if isinstance(spec, SolveSpec):
        return spec
    if isinstance(spec, Mapping):
        return SolveSpec.from_dict(spec)
    raise ConfigurationError(
        f"expected a SolveSpec, a SolveSpec.to_dict() mapping, or None; "
        f"got {type(spec).__name__}"
    )


def resolve_spec(spec: Any, options: Mapping[str, Any]) -> SolveSpec:
    """The Python front doors' one spec resolver.

    ``spec=`` (anything :func:`coerce_spec` accepts) or flat keyword
    options (first-class sugar for :meth:`SolveSpec.from_kwargs`), not
    both.  ``repro.solve``/``solve_many``/``simulate*`` and the service's
    ``submit``/``stream`` all resolve through here.
    """
    if spec is not None and options:
        raise ConfigurationError(
            f"pass configuration either as spec=... or as keyword "
            f"options, not both (got spec plus "
            f"{', '.join(sorted(options))})"
        )
    if options:
        return SolveSpec.from_kwargs(**options)
    return coerce_spec(spec)


__all__ = [
    "FABRIC_ENGINES",
    "KWARG_MAP",
    "MACHINE_FIELDS",
    "MG_MAX_LEVELS",
    "MG_MAX_SMOOTHER_ITERS",
    "MachineSpec",
    "PRECONDITIONERS",
    "PrecisionSpec",
    "SUPPORTED_DTYPES",
    "SolveSpec",
    "TILE_ENGINES",
    "TIME_FIELDS",
    "TimeSpec",
    "ToleranceSpec",
    "coerce_spec",
    "normalize_fused_tile",
    "normalize_shard_shape",
    "resolve_spec",
]

"""Tests for the typed SolveSpec layer (`repro.spec`).

ISSUE-2 acceptance: unknown keys are rejected with the nearest valid key
named; `to_dict()`/`from_dict()` round-trips byte-identically (including
machine specs and block shapes); precision/tolerance/machine fields are
validated at construction.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.gpu.specs import A100, GpuSpecs
from repro.spec import (
    TIME_FIELDS,
    MachineSpec,
    PrecisionSpec,
    SolveSpec,
    TimeSpec,
    ToleranceSpec,
    coerce_spec,
)
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2, WseSpecs


class TestFromKwargs:
    def test_maps_flat_vocabulary_into_sections(self):
        spec = SolveSpec.from_kwargs(
            tol_rtr=2e-10, rel_tol=1e-9, max_iters=500, dtype=np.float32,
            spec=WSE2, simd_width=2, variant="precomputed",
            reuse_buffers=False, comm_only=True, fixed_iterations=7,
        )
        assert spec.tolerance == ToleranceSpec(2e-10, 1e-9, 500)
        assert spec.precision.dtype == "float32"
        assert spec.machine.spec == WSE2
        assert spec.machine.simd_width == 2
        assert spec.machine.variant == "precomputed"
        assert spec.machine.reuse_buffers is False
        assert spec.machine.comm_only is True
        assert spec.machine.fixed_iterations == 7

    def test_unknown_key_names_nearest_valid_key(self):
        with pytest.raises(ConfigurationError, match="did you mean 'tol_rtr'"):
            SolveSpec.from_kwargs(tol_rt=1e-9)
        with pytest.raises(ConfigurationError, match="did you mean 'max_iters'"):
            SolveSpec.from_kwargs(max_iter=10)
        with pytest.raises(ConfigurationError, match="unknown solve option"):
            SolveSpec.from_kwargs(completely_bogus=1)

    def test_specs_spelling_and_jacobi_toggle(self):
        spec = SolveSpec.from_kwargs(specs=A100, jacobi=True)
        assert spec.machine.spec == A100
        assert spec.preconditioner == "jacobi"
        assert SolveSpec.from_kwargs(jacobi=False).preconditioner == "none"

    def test_engine_knob(self):
        assert SolveSpec.from_kwargs(engine="vectorized").machine.engine == "vectorized"
        assert SolveSpec.from_kwargs(engine="event").machine.engine == "event"
        # Omitting it keeps today's behaviour (backend default = event).
        assert SolveSpec().machine.engine is None

    def test_with_options_layers_over_base(self):
        base = SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-8)
        derived = base.with_options(comm_only=True, fixed_iterations=3)
        assert derived.tolerance.rel_tol == 1e-8
        assert derived.machine.comm_only is True
        # The base is unchanged (specs are immutable values).
        assert base.machine.comm_only is False


class TestValidation:
    def test_dtype_normalized_and_restricted(self):
        assert PrecisionSpec(np.float64).dtype == "float64"
        assert PrecisionSpec("f4").dtype == "float32"
        with pytest.raises(ConfigurationError, match="not supported"):
            PrecisionSpec("int32")
        with pytest.raises(ConfigurationError, match="dtype"):
            PrecisionSpec("not-a-dtype")

    def test_tolerance_bounds(self):
        with pytest.raises(ConfigurationError, match="tol_rtr"):
            ToleranceSpec(tol_rtr=-1.0)
        with pytest.raises(ConfigurationError, match="max_iters"):
            ToleranceSpec(max_iters=0)

    def test_machine_field_bounds(self):
        with pytest.raises(ConfigurationError, match="simd_width"):
            MachineSpec(simd_width=0)
        with pytest.raises(ConfigurationError, match="engine"):
            MachineSpec(engine="quantum")
        with pytest.raises(ConfigurationError, match="block_shape"):
            MachineSpec(block_shape=(16, 8))
        with pytest.raises(ConfigurationError, match="fixed_iterations"):
            MachineSpec(fixed_iterations=0)
        with pytest.raises(ConfigurationError, match="WseSpecs or GpuSpecs"):
            MachineSpec(spec="CS-2")

    def test_block_shape_entries_must_be_integers(self):
        """A block entry is never rounded, so two requests that differ
        only there never share a fingerprint; numpy integers pass."""
        for bad in ((16.7, 8, 8), (True, "8", 8.9), (16, 8, 8.0), "16x8x8", 16):
            with pytest.raises(ConfigurationError, match="block_shape"):
                SolveSpec.from_kwargs(block_shape=bad)
        spec = SolveSpec.from_kwargs(block_shape=(np.int64(16), np.int32(8), 8))
        assert spec.machine.block_shape == (16, 8, 8)
        assert all(type(v) is int for v in spec.machine.block_shape)
        assert spec.fingerprint() == SolveSpec.from_kwargs(
            block_shape=(16, 8, 8)
        ).fingerprint()

    def test_preconditioner_restricted(self):
        with pytest.raises(ConfigurationError, match="preconditioner"):
            SolveSpec(preconditioner="ilu")

    def test_require_machine_support(self):
        spec = SolveSpec.from_kwargs(simd_width=2, block_shape=(16, 8, 8))
        with pytest.raises(ConfigurationError, match="block_shape"):
            spec.require_machine_support("wse", {"simd_width"})
        spec.require_machine_support("wse", {"simd_width", "block_shape"})


class TestRoundTrip:
    CASES = {
        "default": SolveSpec(),
        "tolerances": SolveSpec.from_kwargs(tol_rtr=2e-10, rel_tol=1e-9, max_iters=42),
        "wse": SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(32, 32), dtype="float32", simd_width=1,
            variant="fused_mobility", reuse_buffers=False, comm_only=True,
            fixed_iterations=5,
        ),
        "wse_vectorized": SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(128, 128), dtype="float32",
            engine="vectorized", fixed_iterations=3,
        ),
        "gpu": SolveSpec.from_kwargs(
            specs=A100, block_shape=(16, 8, 8), dtype="float64",
        ),
        "jacobi": SolveSpec.from_kwargs(preconditioner="jacobi"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_to_dict_from_dict_byte_identical(self, name):
        spec = self.CASES[name]
        payload = spec.to_dict()
        text = json.dumps(payload, sort_keys=True)  # must be JSON-able
        rebuilt = SolveSpec.from_dict(payload)
        assert rebuilt == spec
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == text

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_json_wire_round_trip(self, name):
        # Through an actual JSON encode/decode (what the ResultStore does).
        spec = self.CASES[name]
        wire = json.loads(json.dumps(spec.to_dict()))
        rebuilt = SolveSpec.from_dict(wire)
        assert rebuilt == spec
        assert isinstance(rebuilt.machine.spec, (WseSpecs, GpuSpecs, type(None)))

    def test_fingerprint_stable_and_distinct(self):
        a = SolveSpec.from_kwargs(rel_tol=1e-9)
        assert a.fingerprint() == SolveSpec.from_kwargs(rel_tol=1e-9).fingerprint()
        assert a.fingerprint() != SolveSpec.from_kwargs(rel_tol=1e-8).fingerprint()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="section"):
            SolveSpec.from_dict({"tolerances": {}})
        with pytest.raises(ConfigurationError, match="tolerance key"):
            SolveSpec.from_dict({"tolerance": {"tol_rt": 1e-9}})
        with pytest.raises(ConfigurationError, match="kind"):
            SolveSpec.from_dict({"machine": {"spec": {"fabric_width": 2}}})

    def test_specs_are_picklable(self):
        # Plans cross process boundaries; the spec must survive pickle.
        for spec in self.CASES.values():
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestCoerce:
    def test_accepts_spec_mapping_none(self):
        spec = SolveSpec.from_kwargs(rel_tol=1e-9)
        assert coerce_spec(spec) is spec
        assert coerce_spec(spec.to_dict()) == spec
        assert coerce_spec(None) == SolveSpec()

    def test_rejects_junk(self):
        with pytest.raises(ConfigurationError, match="SolveSpec"):
            coerce_spec(42)


# -- every field, one section at a time ---------------------------------------


def _flat_kwargs(spec):
    """Every knob ``spec`` sets (every field that is not ``None``) as one
    flat keyword: a section's fields under their own names."""
    options = {}
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if dataclasses.is_dataclass(value):
            options.update(
                (f.name, getattr(value, f.name)) for f in dataclasses.fields(value)
            )
        else:
            options[field.name] = value
    return {key: value for key, value in options.items() if value is not None}


def _with_field(obj, name, value):
    """``obj`` with one field replaced and no validation run: the
    fingerprint must tell every field apart, whatever the cross-field
    rules allow (``shard_shape`` pins ``engine``, for one)."""
    clone = copy.copy(obj)
    object.__setattr__(clone, name, value)
    return clone


class TestEveryField:
    """One spec per section with every field off its default, so a field
    missed by the dict round trip, the flat vocabulary or the fingerprint
    fails here.  ``""`` is the spec's own fields (the preconditioner and
    the mg knobs)."""

    SPECS = {
        "tolerance": SolveSpec(
            tolerance=ToleranceSpec(tol_rtr=3e-10, rel_tol=1e-7, max_iters=321)
        ),
        "precision": SolveSpec(precision=PrecisionSpec("float64")),
        "machine": SolveSpec(machine=MachineSpec(
            spec=WSE2.with_fabric(16, 16), engine="sharded", simd_width=1,
            block_shape=(8, 4, 2), variant="fused_mobility",
            reuse_buffers=False, comm_only=True, fixed_iterations=9,
            batch_size=3, shard_shape=(2, 1), fused_tile=(4, 4),
        )),
        "": SolveSpec(preconditioner="mg", mg_levels=3, mg_smoother_iters=4),
        "time": SolveSpec(time=TimeSpec(
            n_steps=3, dt=(0.5, 1.0, 2.0), total_compressibility=2e-4,
            porosity=0.3, initial_condition=5.0, warm_start=False,
        )),
    }

    #: SHA-256 of ``json.dumps(spec.to_dict())`` (key order included) and
    #: ``spec.fingerprint()`` of each spec above: stored records and
    #: cache keys are these bytes, so they must not move.
    PINNED = {
        "tolerance": (
            "666d92247f7ffda3df0f18023957c1544c5a2d16e4c49fe7ed24b5a6fbbdb743",
            "f1438fdcf28ac839c0b0fd72a4d115fc24b6293c92f4a3fdc58ccb1e6c24e1a4",
        ),
        "precision": (
            "44555a3fb9e2e14a924cf343958badfbb7f94470be4a808c3a537ea9be80d8af",
            "ee7d795177a666fc5f853da5ff10483bc12e8f2d72e74cb98cdd597f96c85461",
        ),
        "machine": (
            "be4b84ac56b697ac6f225b0f59d1ac252f93c85b138775f30923188f46ed7809",
            "2726d105306eb46f6b3da78927dc2266846164d0378e2dd6f19e004a7550588e",
        ),
        "": (
            "44bef7ab8fafda513a3cb0e3fa327df0c3c9a4563dd138e8249e277584281576",
            "793addb0aff90006c8910e394af7d2f16686f02494309497ae6a4db576ad69ff",
        ),
        "time": (
            "c9436efa785eebb3b7fda990cfc5bd23f73798cf3753bb48e86fd5720decab50",
            "6e706cac9e82464b0f966b352c6a6dc0dda376f305f75b10f74504831ecb1ffc",
        ),
    }

    @classmethod
    def _fields(cls, spec, section):
        """The section object and its knobs' (name, default) pairs; the
        spec's own knobs are its fields that are not a section above."""
        owner = getattr(spec, section) if section else spec
        default = type(owner)()
        return owner, [
            (f.name, getattr(default, f.name)) for f in dataclasses.fields(owner)
            if section or f.name not in cls.SPECS
        ]

    @pytest.mark.parametrize("section", sorted(SPECS))
    def test_every_field_is_set(self, section):
        owner, fields = self._fields(self.SPECS[section], section)
        unset = [name for name, default in fields if getattr(owner, name) == default]
        assert unset == []

    @pytest.mark.parametrize("section", sorted(SPECS))
    def test_round_trips(self, section):
        spec = self.SPECS[section]
        assert SolveSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert SolveSpec.from_kwargs(**_flat_kwargs(spec)) == spec

    @pytest.mark.parametrize("section", sorted(SPECS))
    def test_every_field_moves_the_fingerprint(self, section):
        spec = self.SPECS[section]
        owner, fields = self._fields(spec, section)
        for name, default in fields:
            changed = _with_field(owner, name, default)
            if section:
                changed = dataclasses.replace(spec, **{section: changed})
            assert changed.fingerprint() != spec.fingerprint(), name

    @pytest.mark.parametrize("section", sorted(SPECS))
    def test_payload_and_fingerprint_pinned(self, section):
        spec = self.SPECS[section]
        text = json.dumps(spec.to_dict())
        assert (hashlib.sha256(text.encode()).hexdigest(), spec.fingerprint()) \
            == self.PINNED[section]

    #: The fields the fabric builder does not read: the GPU's block (a
    #: ConfigurationError there), the lanes ``batch_size`` cuts above it,
    #: and the time section's (the stepping loop's keywords).
    NOT_BUILT = {"block_shape", "batch_size", *TIME_FIELDS}

    #: What each field needs beside it to make a valid spec (and, for
    #: ``rel_tol``, no absolute floor to hide behind).
    COMPANIONS = {
        "rel_tol": {"tol_rtr": 0.0},
        "shard_shape": {"engine": "sharded"},
        "fused_tile": {"engine": "fused"},
        "comm_only": {"fixed_iterations": 9},
        "mg_levels": {"preconditioner": "mg"},
        "mg_smoother_iters": {"preconditioner": "mg"},
    }

    #: Where the built engine (or its report) shows each field.
    CARRIED = {
        "tol_rtr": lambda engine, report: engine.program.tol_rtr,
        "rel_tol": lambda engine, report: engine.program.tol_rtr,
        "max_iters": lambda engine, report: engine.program.max_iters,
        "dtype": lambda engine, report: report.pressure.dtype.name,
        "spec": lambda engine, report: engine.spec,
        "engine": lambda engine, report: report.engine,
        "simd_width": lambda engine, report: engine.simd_width,
        "variant": lambda engine, report: engine.program.variant.value,
        "reuse_buffers": lambda engine, report: engine.program.reuse_buffers,
        "comm_only": lambda engine, report: engine.program.comm_only,
        "fixed_iterations": lambda engine, report: engine.program.fixed_iterations,
        "shard_shape": lambda engine, report: (
            report.shard["layout"]["shards_x"], report.shard["layout"]["shards_y"]
        ),
        "fused_tile": lambda engine, report: tuple(report.fused["tile"]),
        "preconditioner": lambda engine, report: engine.program.preconditioner,
        "mg_levels": lambda engine, report: engine.program.mg_levels,
        "mg_smoother_iters": lambda engine, report: engine.program.mg_smoother_iters,
    }

    def test_fabric_builder_carries_every_knob_it_supports(self):
        """Each field of the specs above, set alone (with what it needs),
        reaches the program or the engine the fabric builder returns; a
        new field fails here until the builder reads it or it is named in
        ``NOT_BUILT``."""
        from helpers import make_problem
        from repro.core.solver import _build, resolve_tolerance
        from repro.solvers.preconditioning import build_preconditioner

        fields = {}
        for section, spec in self.SPECS.items():
            owner, names = self._fields(spec, section)
            fields.update((name, getattr(owner, name)) for name, _ in names)
        assert set(self.CARRIED) == set(fields) - self.NOT_BUILT
        problem = make_problem(4, 4, 2)
        for name, reads in self.CARRIED.items():
            value = fields[name]
            spec = SolveSpec.from_kwargs(
                **self.COMPANIONS.get(name, {}), **{name: value}
            )
            engine = _build(spec, [problem], [None], [None], [None], batched=False)
            if name == "rel_tol":
                value = resolve_tolerance(
                    problem, build_preconditioner(problem, "none"), tol_rtr=0.0,
                    rel_tol=value,
                )
            assert reads(engine, engine.run()) == value, name

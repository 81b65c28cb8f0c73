"""Persistence: save/load problems and solution reports as ``.npz``.

A downstream user running parameter sweeps wants to checkpoint problems
and results without pickling arbitrary objects.  Everything is stored as
plain arrays + a small attribute vector, so files are portable and
inspectable with ``numpy.load`` alone.
"""

from __future__ import annotations

import json

import numpy as np

from repro.mesh.boundary import DirichletSet
from repro.mesh.grid import CartesianGrid3D
from repro.physics.darcy import SinglePhaseProblem, build_problem
from repro.util.errors import ValidationError

#: Format marker for forward compatibility.
FORMAT_VERSION = 1


def save_problem(path, problem: SinglePhaseProblem) -> None:
    """Write a problem definition to ``path`` (``.npz``)."""
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "problem",
        "nx": problem.grid.nx,
        "ny": problem.grid.ny,
        "nz": problem.grid.nz,
        "dx": problem.grid.dx,
        "dy": problem.grid.dy,
        "dz": problem.grid.dz,
        "viscosity": problem.viscosity,
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        permeability=np.asarray(problem.permeability),
        dirichlet_mask=problem.dirichlet.mask,
        dirichlet_values=problem.dirichlet.values,
    )


def load_problem(path) -> SinglePhaseProblem:
    """Read a problem saved by :func:`save_problem`."""
    with np.load(path) as data:
        meta = _read_meta(data, expected_kind="problem")
        grid = CartesianGrid3D(
            int(meta["nx"]), int(meta["ny"]), int(meta["nz"]),
            dx=float(meta["dx"]), dy=float(meta["dy"]), dz=float(meta["dz"]),
        )
        dirichlet = DirichletSet(
            grid,
            mask=data["dirichlet_mask"],
            values=data["dirichlet_values"],
        )
        return build_problem(
            grid,
            data["permeability"],
            dirichlet,
            viscosity=float(meta["viscosity"]),
        )


def save_solution(path, pressure: np.ndarray, *, iterations: int,
                  converged: bool, residual_history=None,
                  extra: dict | None = None) -> None:
    """Write a solve outcome to ``path`` (``.npz``).

    ``extra`` may carry scalar metadata (backend name, tolerances, ...)
    serialized into the JSON header.
    """
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "solution",
        "iterations": int(iterations),
        "converged": bool(converged),
    }
    if extra:
        for key, value in extra.items():
            if key in meta:
                raise ValidationError(f"extra key {key!r} collides with metadata")
            meta[key] = value
    history = np.asarray(
        residual_history if residual_history is not None else [], dtype=np.float64
    )
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        pressure=np.asarray(pressure),
        residual_history=history,
    )


def load_solution(path) -> dict:
    """Read a solution saved by :func:`save_solution`.

    Returns a dict with ``pressure``, ``iterations``, ``converged``,
    ``residual_history`` and any extra metadata keys.
    """
    with np.load(path) as data:
        meta = _read_meta(data, expected_kind="solution")
        out = dict(meta)
        out.pop("format_version")
        out.pop("kind")
        out["pressure"] = data["pressure"]
        out["residual_history"] = data["residual_history"].tolist()
        return out


def _read_meta(data, *, expected_kind: str) -> dict:
    if "meta" not in data:
        raise ValidationError("not a repro file: missing metadata header")
    meta = json.loads(bytes(data["meta"]).decode())
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported format version {meta.get('format_version')!r}"
        )
    if meta.get("kind") != expected_kind:
        raise ValidationError(
            f"expected a {expected_kind} file, got {meta.get('kind')!r}"
        )
    return meta

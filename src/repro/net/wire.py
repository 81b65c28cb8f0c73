"""Wire codecs: how solve requests and results cross the network.

The gateway speaks JSON.  A solve/stream request body is::

    {
      "target":  "quarter_five_spot"                       # by name, or
                 | {"scenario": "...", "params": {...}},   # parameterized
      "backend": "wse",                                    # optional
      "spec":    <SolveSpec.to_dict()>,                    # optional, or
      "options": {"rel_tol": 1e-8, "n_steps": 4, ...}      # flat kwargs
    }

A stream's opening frame may add ``"resume"`` (a boolean, default
true) and ``"last_step"`` (the last step the client holds, a
non-negative integer, default 0); a solve body may not.

Targets are *declarative* on the wire — a registered scenario name plus
JSON-able parameters — which is exactly what keeps the content
fingerprint (and therefore the cache identity, the ETag and the store
records) identical between a remote request and the same request made
in-process.  Raw :class:`~repro.physics.darcy.SinglePhaseProblem`
objects don't travel; callers with bespoke fields register a scenario.

Responses are :meth:`SolveResult.to_dict` /
:meth:`StepResult.to_dict` payloads (ndarrays base64-encoded, exact);
errors are ``{"error": {"type", "message", "category"}}`` with the
failure category of :func:`repro.util.errors.classify_failure`, the one
the service records.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.scenarios.base import Scenario
from repro.spec import SolveSpec, resolve_spec
from repro.util.errors import ConfigurationError, classify_failure


def encode_json(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def decode_json(data: bytes) -> Any:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"request body is not valid JSON: {exc}") from None


def target_to_wire(target: Any) -> Any:
    """The JSON form of a solve target (scenario name or Scenario)."""
    if isinstance(target, str):
        return target
    if isinstance(target, Scenario):
        return {"scenario": target.name, "params": dict(target.params)}
    raise ConfigurationError(
        f"cannot send {type(target).__name__} over the wire: gateway "
        f"targets are registered scenario names (optionally with params); "
        f"register bespoke problems as scenarios first"
    )


def target_from_wire(payload: Any) -> Any:
    """Decode a wire target into what :func:`repro.session.plan_entry`
    accepts (a name string or a bound :class:`Scenario`)."""
    if isinstance(payload, str):
        return payload
    if isinstance(payload, Mapping) and "scenario" in payload:
        name = payload["scenario"]
        params = payload.get("params") or {}
        if not isinstance(name, str):
            raise ConfigurationError("target.scenario must be a string")
        if not isinstance(params, Mapping):
            raise ConfigurationError("target.params must be an object")
        from repro.scenarios.base import scenario as bind_scenario

        return bind_scenario(name, **params)
    raise ConfigurationError(
        'request "target" must be a scenario name or '
        '{"scenario": ..., "params": {...}}'
    )


def spec_from_wire(payload: Mapping[str, Any]) -> SolveSpec:
    """Resolve the request's ``spec`` / ``options`` into a SolveSpec,
    through the front doors' one rule (:func:`repro.spec.resolve_spec`)."""
    spec = payload.get("spec")
    options = payload.get("options") or {}
    if not isinstance(options, Mapping):
        raise ConfigurationError('request "options" must be an object')
    if spec is not None and not isinstance(spec, Mapping):
        raise ConfigurationError(
            'request "spec" must be a SolveSpec.to_dict() object'
        )
    return resolve_spec(spec, options)


def parse_solve_payload(payload: Any) -> tuple[Any, str, SolveSpec]:
    """Decode one solve body into ``(target, backend, spec)``."""
    if not isinstance(payload, Mapping):
        raise ConfigurationError("request body must be a JSON object")
    unknown = sorted(set(payload) - {"target", "backend", "spec", "options"})
    if unknown:
        raise ConfigurationError(
            f"unknown request field{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))}"
        )
    if "target" not in payload:
        raise ConfigurationError('request body needs a "target"')
    backend = payload.get("backend", "reference")
    if not isinstance(backend, str):
        raise ConfigurationError('request "backend" must be a string')
    return (
        target_from_wire(payload["target"]),
        backend,
        spec_from_wire(payload),
    )


def parse_stream_payload(payload: Any) -> tuple[Any, str, SolveSpec, bool, int]:
    """Decode a stream's opening frame into ``(target, backend, spec,
    resume, last_step)``."""
    if not isinstance(payload, Mapping):
        raise ConfigurationError("request body must be a JSON object")
    body = dict(payload)
    resume = body.pop("resume", True)
    last_step = body.pop("last_step", 0)
    if not isinstance(resume, bool):
        raise ConfigurationError(
            f'stream "resume" must be true or false, got {resume!r}'
        )
    if type(last_step) is not int or last_step < 0:  # a bool is no step
        raise ConfigurationError(
            f'stream "last_step" must be a non-negative integer, got {last_step!r}'
        )
    return (*parse_solve_payload(body), resume, last_step)


def error_payload(error: BaseException) -> dict[str, Any]:
    """The wire face of a failure, carrying its failure category."""
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "category": classify_failure(error),
        }
    }


def status_for_error(error: BaseException) -> int:
    """HTTP status by failure category: malformed requests are the
    client's fault (400), everything else is a server-side 500."""
    return 400 if classify_failure(error) == "config" else 500


__all__ = [
    "decode_json",
    "encode_json",
    "error_payload",
    "parse_solve_payload",
    "parse_stream_payload",
    "spec_from_wire",
    "status_for_error",
    "target_from_wire",
    "target_to_wire",
]

"""Wire codecs: how solve requests and results cross the network.

The gateway speaks JSON.  A solve/stream request body is::

    {
      "target":  "quarter_five_spot"                       # by name, or
                 | {"scenario": "...", "params": {...}},   # parameterized
      "backend": "wse",                                    # optional
      "spec":    <SolveSpec.to_dict()>,                    # optional, or
      "options": {"rel_tol": 1e-8, "n_steps": 4, ...}      # flat kwargs
    }

Targets are *declarative* on the wire — a registered scenario name plus
JSON-able parameters — which is exactly what keeps the content
fingerprint (and therefore the cache identity, the ETag and the store
records) identical between a remote request and the same request made
in-process.  Raw :class:`~repro.physics.darcy.SinglePhaseProblem`
objects don't travel; callers with bespoke fields register a scenario.

Responses are :meth:`SolveResult.to_dict` /
:meth:`StepResult.to_dict` payloads (ndarrays base64-encoded, exact);
errors are ``{"error": {"type", "message", "category"}}`` with the
retry-taxonomy category so clients can make the same
retry-or-fail-fast call the service makes internally.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.scenarios.base import Scenario
from repro.serve.retry import classify_failure
from repro.spec import SolveSpec, resolve_spec
from repro.util.errors import ConfigurationError


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
    """Decode one request body into ``(target, backend, spec)``."""
    if not isinstance(payload, Mapping):
        raise ConfigurationError("request body must be a JSON object")
    unknown = sorted(
        set(payload)
        - {"target", "backend", "spec", "options", "resume", "last_step"}
    )
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


def error_payload(error: BaseException) -> dict[str, Any]:
    """The wire face of a failure, carrying its retry-taxonomy category."""
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
    "spec_from_wire",
    "status_for_error",
    "target_from_wire",
    "target_to_wire",
]

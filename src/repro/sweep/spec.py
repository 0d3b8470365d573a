"""Model specs: the one vocabulary that turns a model description into a backend.

The paper's CPU model is reachable three ways — a GSPN, a phase-type
stage expansion, or the renewal closed form — and every front end
(``sweep``, ``steady`` and ``query`` on the command line, the ``serve``
daemon's requests) describes the model it wants as the same plain-data
**spec**::

    {"kind": "gspn", "net": "mm1k", "buffer": 20, "solver": "gmres"}
    {"kind": "phase-type", "stages": 16, "params": {"AR": 0.5}}

:data:`MODEL_KEYS` lists the keys each kind accepts;
:func:`canonical_model_spec` validates a spec against it and fills in
every default, :func:`spec_fingerprint` hashes the canonical form (the
daemon's template-cache key) and :func:`build_backend` instantiates the
unprepared backend it describes.  Anything malformed raises
:class:`RequestError`.

This module imports nothing from the daemon or the distributed layer,
so a one-shot ``sweep`` or ``steady`` process does not load them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.params import CPUModelParams
from repro.markov.ctmc import STEADY_STATE_METHODS
from repro.petri.analysis import ReachabilityOptions
from repro.sweep.backends import (
    GSPNBackend,
    SweepBackend,
    make_backend,
    resolve_cpu_axis,
)
from repro.sweep.nets import DEMO_NETS

__all__ = [
    "CPU_DEFAULT_METRICS",
    "DEFAULT_MAX_MARKINGS",
    "DEFAULT_NET",
    "DEFAULT_STAGES",
    "MODEL_KEYS",
    "MODEL_KINDS",
    "NET_SIZE_KWARGS",
    "RequestError",
    "build_backend",
    "canonical_model_spec",
    "default_metrics",
    "spec_fingerprint",
]

MODEL_KINDS = ("gspn", "phase-type", "phase-type-batched", "renewal")

_SOLVER_KEYS = ("solver", "tol", "max_iter")

#: the keys each model kind accepts besides ``kind``; the renewal closed
#: form solves nothing, so it takes no solver keys
MODEL_KEYS: Dict[str, Tuple[str, ...]] = {
    "gspn": ("net", "buffer", "nodes", "max_markings", "backend")
    + _SOLVER_KEYS,
    "phase-type": ("params", "stages", "n_max") + _SOLVER_KEYS,
    "phase-type-batched": ("params", "stages", "n_max", "batch_size")
    + _SOLVER_KEYS,
    "renewal": ("params",),
}

#: which size keys each demo net accepts, and the constructor keyword
#: each maps onto
NET_SIZE_KWARGS: Dict[str, Dict[str, str]] = {
    "mm1k": {"buffer": "K"},
    "cpu-gspn": {"buffer": "buffer_capacity"},
    "wsn-cluster": {"buffer": "buffer_capacity", "nodes": "n_nodes"},
    "deadlock": {},
}

#: default metric columns of the CPU-parameter kinds
CPU_DEFAULT_METRICS = ("fraction:standby", "fraction:active", "power")

DEFAULT_NET = "cpu-gspn"
DEFAULT_STAGES = 32
DEFAULT_MAX_MARKINGS = 2_000_000


class RequestError(ValueError):
    """A malformed model spec or service request (the daemon answers
    ``bad-request`` / HTTP 400)."""


def spec_fingerprint(spec: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON serialisation of a model spec.

    *spec* must already be canonical (plain JSON types, defaults filled
    in — :func:`canonical_model_spec`); the hash is over
    ``json.dumps(..., sort_keys=True)`` so key order never matters and
    every field always contributes.
    """
    payload = json.dumps(
        spec, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _opt_int(spec: Mapping[str, Any], key: str, minimum: int = 1) -> Optional[int]:
    value = spec.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"model.{key} must be an integer, got {value!r}")
    if float(value) != int(value):
        raise RequestError(f"model.{key} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise RequestError(f"model.{key} must be >= {minimum}, got {value}")
    return value


def _opt_float(spec: Mapping[str, Any], key: str) -> Optional[float]:
    value = spec.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"model.{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise RequestError(f"model.{key} must be finite, got {value!r}")
    return value


def _check_keys(spec: Mapping[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise RequestError(
            f"unknown model spec key(s) {unknown} for kind "
            f"{spec.get('kind')!r} (allowed: {sorted(allowed)})"
        )


def _canonical_params(spec: Mapping[str, Any]) -> Dict[str, float]:
    params_in = spec.get("params") or {}
    if not isinstance(params_in, Mapping):
        raise RequestError(
            f"model.params must be a mapping, got {type(params_in).__name__}"
        )
    params: Dict[str, float] = {}
    for name, value in params_in.items():
        try:
            field = resolve_cpu_axis(str(name))
        except KeyError as exc:
            raise RequestError(exc.args[0]) from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                f"model.params[{name!r}] must be a number, got {value!r}"
            )
        params[field] = float(value)
    return dict(sorted(params.items()))


def canonical_model_spec(spec: Any) -> Dict[str, Any]:
    """Validate a model spec and return its canonical form.

    Canonicalisation is what makes fingerprint collisions impossible by
    construction: every size- and solver-relevant field is present (its
    default filled in), axis aliases are resolved to one spelling, and
    numeric types are pinned (``int`` knobs stay ints, rates become
    floats) — so two specs fingerprint equal iff they configure the same
    prepared template.  The canonical form is itself a valid spec that
    canonicalises to itself.
    """
    if not isinstance(spec, Mapping):
        raise RequestError(
            f"model spec must be a mapping, got {type(spec).__name__}"
        )
    kind = spec.get("kind", "gspn")
    if kind not in MODEL_KINDS:
        raise RequestError(
            f"unknown model kind {kind!r} (have: {list(MODEL_KINDS)})"
        )
    allowed = MODEL_KEYS[kind]
    _check_keys(spec, ("kind",) + allowed)
    canonical: Dict[str, Any] = {"kind": kind}
    if "solver" in allowed:
        solver = spec.get("solver", "auto")
        if solver not in STEADY_STATE_METHODS:
            raise RequestError(
                f"model.solver must be {'/'.join(STEADY_STATE_METHODS)}, "
                f"got {solver!r}"
            )
        canonical.update(
            solver=solver,
            tol=_opt_float(spec, "tol"),
            max_iter=_opt_int(spec, "max_iter"),
        )
    if kind == "gspn":
        net = spec.get("net", DEFAULT_NET)
        if net not in DEMO_NETS:
            raise RequestError(
                f"unknown net {net!r} (have: {sorted(DEMO_NETS)})"
            )
        backend = spec.get("backend", "auto")
        if backend not in ("auto", "dense", "sparse"):
            raise RequestError(
                f"model.backend must be auto/dense/sparse, got {backend!r}"
            )
        for knob in ("buffer", "nodes"):
            if spec.get(knob) is not None and knob not in NET_SIZE_KWARGS[net]:
                raise RequestError(
                    f"model.{knob} does not apply to net {net!r}"
                )
        canonical.update(
            net=net,
            buffer=_opt_int(spec, "buffer"),
            nodes=_opt_int(spec, "nodes"),
            backend=backend,
            max_markings=_opt_int(spec, "max_markings") or DEFAULT_MAX_MARKINGS,
        )
        return canonical
    canonical["params"] = _canonical_params(spec)
    if "stages" in allowed:
        canonical["stages"] = _opt_int(spec, "stages") or DEFAULT_STAGES
        canonical["n_max"] = _opt_int(spec, "n_max")
    if "batch_size" in allowed:
        batch_size = spec.get("batch_size", "auto")
        if batch_size != "auto":
            if isinstance(batch_size, bool) or not isinstance(batch_size, int):
                raise RequestError(
                    f"model.batch_size must be 'auto' or an int >= 1, "
                    f"got {batch_size!r}"
                )
            if batch_size < 1:
                raise RequestError(
                    f"model.batch_size must be >= 1, got {batch_size}"
                )
        canonical["batch_size"] = batch_size
    return canonical


def build_backend(canonical: Mapping[str, Any]) -> SweepBackend:
    """Instantiate the (unprepared) backend a canonical spec describes.

    A ``gspn`` spec explores the net's reachability graph here, in the
    :class:`~repro.sweep.backends.GSPNBackend` constructor.
    """
    kind = canonical["kind"]
    if kind == "gspn":
        factory, _ = DEMO_NETS[canonical["net"]]
        mapping = NET_SIZE_KWARGS[canonical["net"]]
        size_kwargs = {
            mapping[knob]: canonical[knob]
            for knob in ("buffer", "nodes")
            if canonical.get(knob) is not None
        }
        return GSPNBackend(
            factory(**size_kwargs),
            options=ReachabilityOptions(max_markings=canonical["max_markings"]),
            ctmc_backend=canonical["backend"],
            method=canonical["solver"],
            tol=canonical["tol"],
            max_iter=canonical["max_iter"],
        )
    params = replace(CPUModelParams.paper_defaults(), **canonical["params"])
    if kind == "renewal":
        return make_backend("renewal", params=params)
    kwargs: Dict[str, Any] = dict(
        params=params,
        stages=canonical["stages"],
        n_max=canonical["n_max"],
        method=canonical["solver"],
        tol=canonical["tol"],
        max_iter=canonical["max_iter"],
    )
    if kind == "phase-type-batched":
        kwargs["batch_size"] = canonical["batch_size"]
    return make_backend(kind, **kwargs)


def default_metrics(canonical: Mapping[str, Any]) -> List[str]:
    """The metric columns a request without ``metrics`` gets."""
    if canonical["kind"] == "gspn":
        return list(DEMO_NETS[canonical["net"]][1])
    return list(CPU_DEFAULT_METRICS)

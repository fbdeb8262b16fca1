"""repro.api — the unified runtime surface of the reproduction.

One typed protocol (:class:`AttentionBackend` + frozen
:class:`BackendCapabilities`), one string-keyed registry
(:func:`register_backend` / :func:`get_backend` / :func:`list_backends`)
and one facade (:class:`Runtime` configured by a frozen
:class:`RuntimeConfig`) over every execution engine and baseline model
in the repo.  Backend choice — previously a scatter of constructor
kwargs, hand-picked baseline functions and ad-hoc
CLI wiring — is a single extensible axis: the serving session, the
cluster simulator, the benches and the CLI all select backends by
registered name, and a new backend registered here shows up in all of
them at once.

Quickstart::

    from repro.api import Runtime, list_backends

    print(list_backends())
    # ['dense', 'functional', 'functional-legacy', 'sanger',
    #  'sparse-reference', 'systolic']

    rt = Runtime(backend="functional")
    result = rt.attend(pattern, q, k, v, heads=12)  # typed AttendResult
    cost = rt.estimate(pattern, heads=12)           # typed EstimateResult
"""

from .protocol import (
    AttendResult,
    AttentionBackend,
    BackendCapabilities,
    CapabilityError,
    EstimateResult,
)
from .registry import (
    BackendSpec,
    backend_spec,
    get_backend,
    list_backends,
    register_backend,
)
from .runtime import Runtime, RuntimeConfig

# Importing the adapters registers the built-in backends.
from . import backends as _backends  # noqa: F401
from .backends import engine_factory

__all__ = [
    "AttendResult",
    "AttentionBackend",
    "BackendCapabilities",
    "BackendSpec",
    "CapabilityError",
    "EstimateResult",
    "Runtime",
    "RuntimeConfig",
    "backend_spec",
    "engine_factory",
    "get_backend",
    "list_backends",
    "register_backend",
]

"""Registry completeness and stability: the CI gate for repro.api.

Every built-in backend must be registered under its stable name, every
factory must build a working instance, and the static capability table
must match what the instances report — the ``engines list`` CLI and the
serving layer both trust those flags.
"""

import pytest

from repro.api import (
    AttentionBackend,
    BackendCapabilities,
    Runtime,
    RuntimeConfig,
    backend_spec,
    get_backend,
    list_backends,
    register_backend,
)
from repro.api import registry as registry_module

#: The committed backend surface: names are API, removals are breaking.
EXPECTED_BACKENDS = (
    "dense",
    "functional",
    "functional-legacy",
    "sanger",
    "sparse-reference",
    "systolic",
)


class TestCompleteness:
    def test_every_builtin_backend_is_registered(self):
        assert tuple(list_backends()) == EXPECTED_BACKENDS  # sorted + exact

    @pytest.mark.parametrize("name", EXPECTED_BACKENDS)
    def test_every_adapter_instantiates(self, name):
        backend = get_backend(name)
        assert isinstance(backend, AttentionBackend)
        assert backend.name == name

    @pytest.mark.parametrize("name", EXPECTED_BACKENDS)
    def test_static_capabilities_match_instances(self, name):
        spec = backend_spec(name)
        assert isinstance(spec.capabilities, BackendCapabilities)
        assert get_backend(name).capabilities == spec.capabilities
        assert spec.summary  # the engines-list table needs a description

    def test_salo_engine_flags_track_the_engine_table(self):
        """The SALO adapters must mirror repro.core.salo.ENGINE_BACKENDS."""
        from repro.core.salo import ENGINE_BACKENDS

        for mode, (_, batch, lens, _) in ENGINE_BACKENDS.items():
            caps = backend_spec(mode).capabilities
            assert caps.supports_batch == batch
            assert caps.supports_valid_lens == lens
            assert caps.bit_exact and caps.has_cost_model and caps.needs_structure


class TestRegistryApi:
    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(KeyError, match="functional"):
            get_backend("no-such-backend")
        with pytest.raises(KeyError):
            backend_spec("no-such-backend")

    def test_duplicate_registration_is_loud(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(
                "functional", lambda config: None, BackendCapabilities()
            )

    def test_replace_and_custom_registration(self):
        name = "test-dummy-backend"

        class Dummy(AttentionBackend):
            capabilities = BackendCapabilities(has_cost_model=False, can_execute=False)

        Dummy.name = name
        try:
            register_backend(name, lambda config: Dummy(), Dummy.capabilities)
            assert name in list_backends()
            # A registered name is immediately constructible everywhere.
            assert isinstance(get_backend(name), Dummy)
            register_backend(
                name, lambda config: Dummy(), Dummy.capabilities, replace=True
            )
        finally:
            registry_module._REGISTRY.pop(name, None)
        assert name not in list_backends()

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", lambda config: None, BackendCapabilities())


class TestRuntimeConstruction:
    def test_runtime_config_is_frozen_and_defaulted(self):
        config = RuntimeConfig()
        assert config.backend == "functional"
        with pytest.raises(Exception):  # dataclasses.FrozenInstanceError
            config.backend = "dense"

    def test_runtime_kwarg_shorthand(self):
        runtime = Runtime(backend="sanger")
        assert runtime.config.backend == "sanger"
        assert not runtime.capabilities.can_execute

    def test_runtime_rejects_unknown_backend(self):
        with pytest.raises(KeyError):
            Runtime(backend="no-such-backend")

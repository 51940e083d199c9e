"""Registry, EngineSpec and capability-surface tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    SerialBackend,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.backends import registry as registry_module


class TestRegistry:
    def test_builtin_names_registered(self):
        assert backend_names() == ["serial", "fleet"]

    @pytest.mark.parametrize("name", ["auto", "threads", "processes", "remote"])
    def test_removed_backends_are_unknown(self, backend_amm, name):
        """The cost-model router, the thread pool, the shared-memory
        process pool and the ``remote`` alias of a fleet of adopted
        agents are gone: asking for them fails like any typo, naming
        what is registered."""
        from repro.backends import UnknownBackendError

        with pytest.raises(UnknownBackendError) as excinfo:
            create_backend(name, backend_amm)
        message = str(excinfo.value)
        assert message.endswith("registered backends: fleet, serial")

    def test_create_unknown_backend_raises(self, backend_amm):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("bogus", backend_amm)

    def test_unknown_backend_is_keyerror_listing_names(self, backend_amm):
        """Regression: a typo'd backend name raises a KeyError (it is a
        failed registry lookup) whose message lists every registered
        name — while staying a ValueError for historical callers."""
        from repro.backends import UnknownBackendError

        with pytest.raises(KeyError) as excinfo:
            create_backend("prcoesses", backend_amm)  # the classic typo
        assert isinstance(excinfo.value, UnknownBackendError)
        assert isinstance(excinfo.value, ValueError)
        message = str(excinfo.value)
        for name in ("serial", "fleet"):
            assert name in message
        # KeyError.__str__ would repr() the message into quoted noise;
        # the subclass must read as a sentence.
        assert not message.startswith('"') and not message.startswith("'")

    def test_create_builds_requested_type(self, backend_amm):
        backend = create_backend("serial", backend_amm)
        assert isinstance(backend, SerialBackend)
        backend.close()

    def test_resolve_none_uses_default(self, backend_amm):
        backend, owned = resolve_backend(None, backend_amm)
        try:
            assert backend.capabilities().name == registry_module.DEFAULT_BACKEND
            assert owned is True
        finally:
            backend.close()

    def test_resolve_instance_passthrough(self, backend_amm):
        instance = SerialBackend(backend_amm)
        resolved, owned = resolve_backend(instance, backend_amm)
        assert resolved is instance
        assert owned is False
        instance.close()

    def test_resolve_rejects_other_types(self, backend_amm):
        with pytest.raises(TypeError):
            resolve_backend(42, backend_amm)

    def test_custom_backend_registration(self, backend_amm, request_codes, request_seeds):
        class RecordingBackend(SerialBackend):
            name = "recording"
            calls = 0

            def recall_batch_seeded(self, codes_batch, request_seeds):
                type(self).calls += 1
                return super().recall_batch_seeded(codes_batch, request_seeds)

        register_backend("recording", RecordingBackend)
        try:
            assert "recording" in backend_names()
            backend = create_backend("recording", backend_amm)
            try:
                backend.recall_batch_seeded(request_codes[:2], request_seeds[:2])
                assert RecordingBackend.calls == 1
            finally:
                backend.close()
        finally:
            registry_module._REGISTRY.pop("recording", None)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_backend("", SerialBackend)


class TestEngineSpec:
    def test_rebuilt_engine_matches(self, backend_amm, request_codes, request_seeds):
        """A worker's engine: the spec crosses the wire, then
        ``build_engine`` factorises a private replica from it."""
        from repro.backends import wire

        spec = wire.spec_from_wire(
            *wire.spec_to_wire(EngineSpec.from_module(backend_amm))
        )
        engine = spec.build_engine()
        rebuilt = spec.module.recognise_batch_seeded(
            request_codes, request_seeds, engine=engine
        )
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        assert np.array_equal(rebuilt.winner_column, reference.winner_column)
        assert np.array_equal(rebuilt.codes, reference.codes)
        np.testing.assert_allclose(
            rebuilt.column_currents, reference.column_currents, rtol=1e-12
        )


class TestCapabilities:
    def test_capability_shapes(self, backend_amm, spawned_fleet):
        serial = SerialBackend(backend_amm)
        capabilities = serial.capabilities()
        assert capabilities == BackendCapabilities(
            name="serial", workers=1, shards_batches=False, escapes_gil=False
        )
        serial.close()
        fleet = spawned_fleet.capabilities()
        assert fleet.name == "fleet"
        assert fleet.workers == 2
        assert fleet.shards_batches and fleet.escapes_gil

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            RecallBackend()

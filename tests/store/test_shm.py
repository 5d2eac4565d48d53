"""Shared-memory publication of hot reference codes."""

import numpy as np
import pytest

from repro.store import ShmPublisher, attach_codes, release_attachments


@pytest.fixture()
def publisher():
    pub = ShmPublisher()
    yield pub
    release_attachments()
    pub.close()


class TestPublishAttach:
    def test_roundtrip(self, publisher, rng):
        codes = rng.integers(0, 5, size=10_000).astype(np.uint8)
        handle = publisher.publish("k1", codes)
        assert handle is not None
        name, length = handle
        view = attach_codes(name, length)
        np.testing.assert_array_equal(view, codes)
        assert not view.flags.writeable

    def test_idempotent_per_key(self, publisher, rng):
        codes = rng.integers(0, 5, size=1000).astype(np.uint8)
        assert publisher.publish("k1", codes) == publisher.publish("k1", codes)

    def test_empty_codes_declined(self, publisher):
        assert publisher.publish("k0", np.zeros(0, dtype=np.uint8)) is None

    def test_byte_cap_declined(self, rng):
        pub = ShmPublisher(byte_cap=100)
        try:
            small = rng.integers(0, 4, size=50).astype(np.uint8)
            big = rng.integers(0, 4, size=200).astype(np.uint8)
            assert pub.publish("small", small) is not None
            assert pub.publish("big", big) is None
        finally:
            release_attachments()
            pub.close()

    def test_full_shm_filesystem_declined(self, publisher, rng, monkeypatch):
        # A segment past the tmpfs's free space would be created and then
        # SIGBUS the writer; the publisher declines it instead.
        from types import SimpleNamespace

        from repro.store import shm

        free = SimpleNamespace(f_bavail=2, f_frsize=4096)
        monkeypatch.setattr(shm.os, "statvfs", lambda path: free)
        codes = rng.integers(0, 4, size=3 * 4096).astype(np.uint8)
        assert publisher.publish("too-big", codes) is None
        assert publisher.publish("fits", codes[:4096]) is not None

    def test_close_unlinks(self, rng):
        pub = ShmPublisher()
        codes = rng.integers(0, 4, size=100).astype(np.uint8)
        handle = pub.publish("k", codes)
        release_attachments()
        pub.close()
        with pytest.raises(FileNotFoundError):
            attach_codes(handle[0], handle[1])


class TestUnregisterFailureObservability:
    def test_failed_unregister_counts_and_warns_once(
        self, publisher, rng, monkeypatch
    ):
        from multiprocessing import resource_tracker

        from repro import obs
        from repro.store import shm

        registry, _tracer = obs.enable()
        try:
            monkeypatch.setattr(shm, "_unregister_warned", False)

            def boom(*_args, **_kwargs):
                raise RuntimeError("tracker gone")

            monkeypatch.setattr(resource_tracker, "unregister", boom)
            codes = rng.integers(0, 4, size=512).astype(np.uint8)
            name, length = publisher.publish("k-fail", codes)
            counter = registry.counter("repro_shm_attach_errors_total")
            before = counter.value()
            with pytest.warns(RuntimeWarning, match="could not unregister"):
                view = attach_codes(name, length)
            # The attach itself still succeeds.
            np.testing.assert_array_equal(view, codes)
            assert counter.value() == before + 1
        finally:
            obs.disable()

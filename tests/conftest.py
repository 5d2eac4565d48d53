"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.fleet import FleetApp, FleetHTTPServer
from repro.genome import build_pair, mutate, random_codes, SegmentClass
from repro.scoring import default_scheme, unit_scheme


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def small_scheme():
    """Tiny hand-checkable scheme."""
    return unit_scheme()


@pytest.fixture()
def exact_scheme():
    """Unit scheme with pruning effectively disabled (exact DP)."""
    return unit_scheme(ydrop=10**6)


@pytest.fixture()
def bench_scheme():
    """The scaled HOXD70 scheme the benchmark suite uses."""
    return default_scheme(gap_extend=60, ydrop=2400)


@pytest.fixture(scope="session")
def session_cache_dir(tmp_path_factory):
    """Isolated profile cache for tests that exercise workloads."""
    return tmp_path_factory.mktemp("repro_cache")


def make_homologous_pair(rng, *, core=120, flank=150, divergence=0.08, indel=0.01):
    """A (target, query) suffix pair sharing a mutated core then random tails."""
    base = random_codes(rng, core)
    q_core = mutate(base, rng, divergence=divergence, indel_rate=indel)
    target = np.concatenate([base, random_codes(rng, flank)])
    query = np.concatenate([q_core, random_codes(rng, flank)])
    return target, query


@pytest.fixture()
def homologous_pair(rng):
    return make_homologous_pair(rng)


@pytest.fixture()
def table_builds(monkeypatch, tmp_path):
    """Spy on ``build_seed_table``; returns a callable giving the call count.

    Every call appends a line to a file, so builds in forked job workers
    count too.  Patches the two names it is called by: ``find_seeds``'
    inline build and the reference store's.
    """
    import os

    import repro.seeding.seeds as seeds
    import repro.store.store as store_module

    log = tmp_path / "table-builds.log"
    log.touch()
    real = seeds.build_seed_table

    def spy(*args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(seeds, "build_seed_table", spy)
    monkeypatch.setattr(store_module, "build_seed_table", spy)
    return lambda: len(log.read_text().splitlines())


@pytest.fixture(scope="session")
def tiny_genome_pair():
    """A small synthetic chromosome pair with known planted homology."""
    return build_pair(
        "tiny",
        target_length=40_000,
        query_length=40_000,
        classes=[
            SegmentClass("eager", 60, 19, 21, divergence=0.01),
            SegmentClass("bin1", 12, 30, 55, divergence=0.07, indel_rate=0.003),
            SegmentClass("bin2", 2, 90, 200, divergence=0.08, indel_rate=0.002),
        ],
        rng=77,
    )


class Door:
    """The HTTP front door over ``service``, on its own event-loop thread.

    Boots the real :class:`~repro.fleet.FleetHTTPServer` (the one server
    ``repro serve`` runs) on an ephemeral port; :meth:`stop` drains it
    the way SIGTERM does.
    """

    def __init__(self, service, *, quotas=None, grace_s=30.0, max_align_body=None):
        self.service = service
        self.draining = threading.Event()
        self.app = FleetApp(
            service,
            draining=self.draining,
            quotas=quotas,
            max_align_body=max_align_body,
        )
        self.server = None
        ready = threading.Event()

        def run():
            async def main():
                self.server = FleetHTTPServer(
                    self.app, "127.0.0.1", 0,
                    draining=self.draining, grace_s=grace_s,
                )
                await self.server.start()
                ready.set()
                await self.server.serve_forever()

            asyncio.run(main())

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not ready.wait(10):
            raise RuntimeError("front door did not start")
        self.host, self.port = self.server.address

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def stop(self):
        """Drain and join the server; a no-op once it already drained."""
        if self.thread.is_alive():
            self.server.initiate_shutdown()
        self.thread.join(timeout=30)

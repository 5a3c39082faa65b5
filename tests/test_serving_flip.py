"""Serving plane: flip atomicity, corruption fallback, co-simulation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import BackendConfig
from repro.errors import ServingError
from repro.experiments import build_experiment, small_config
from repro.model.dlrm import DLRM
from repro.serving import (
    InferenceServer,
    LookupRequest,
    ServingConfig,
    ServingPublisher,
    run_serving,
)
from repro.storage.backends import corrupt_stored_object
from repro.storage.engine import drain


def settle(exp) -> None:
    """Advance the clock past every in-flight background write."""
    exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")


@pytest.fixture
def published_pair():
    """An experiment with two published versions + golden snapshots."""
    exp = build_experiment(
        small_config(
            policy="consecutive",
            quantizer="none",
            interval_batches=5,
            num_tables=2,
            rows_per_table=256,
            batch_size=32,
            keep_last=1_000_000,
        )
    )
    publisher = ServingPublisher(
        exp.store,
        exp.clock,
        DLRM(exp.config.model),
        exp.controller.job_id,
        hot_rows_per_table=16,
    )
    golden = []
    for _ in range(2):
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        golden.append(
            {
                t: publisher.replica.table_weight(t).copy()
                for t in range(exp.model.num_tables)
            }
        )
    assert len(publisher.versions) == 2
    return exp, publisher, golden


def _modified_row(publisher) -> tuple[int, int]:
    """A (table, row) version 1 actually changed — the telling probe."""
    v1 = publisher.versions[1]
    for table_id in sorted(v1.modified_rows):
        rows = v1.modified_rows[table_id]
        if rows.size:
            return table_id, int(rows[0])
    raise AssertionError("increment modified no rows")


class TestFlipAtomicity:
    def test_inflight_lookup_finishes_on_old_version(
        self, published_pair
    ):
        """A flip mid-lookup must not tear the in-flight request."""
        exp, publisher, golden = published_pair
        server = InferenceServer(
            "s0",
            exp.store,
            publisher,
            cache_rows=64,
            warm_pins=False,
        )
        drain(server.flip_steps(publisher.versions[0], exp.clock.now))
        assert server.version_index == 0
        table_id, row = _modified_row(publisher)
        request = LookupRequest(
            request_id=0,
            arrival_s=exp.clock.now,
            rows=((table_id, row),),
        )
        lookup = server.lookup_steps(request)
        next(lookup)  # the miss announced its read; request in flight
        drain(server.flip_steps(publisher.versions[1], exp.clock.now))
        assert server.version_index == 1
        result = drain(lookup)
        # The request captured version 0 and must finish there, with
        # version 0's value — not the newer one the flip installed.
        assert result.version_index == 0
        np.testing.assert_array_equal(
            result.values[(table_id, row)], golden[0][table_id][row]
        )
        assert not np.array_equal(
            golden[0][table_id][row], golden[1][table_id][row]
        )

    def test_next_lookup_sees_new_version(self, published_pair):
        exp, publisher, golden = published_pair
        server = InferenceServer(
            "s0", exp.store, publisher, cache_rows=64, warm_pins=False
        )
        drain(server.flip_steps(publisher.versions[1], exp.clock.now))
        table_id, row = _modified_row(publisher)
        result = drain(
            server.lookup_steps(
                LookupRequest(
                    request_id=0,
                    arrival_s=exp.clock.now,
                    rows=((table_id, row),),
                )
            )
        )
        assert result.version_index == 1
        np.testing.assert_array_equal(
            result.values[(table_id, row)], golden[1][table_id][row]
        )

    def test_lookup_before_any_flip_raises(self, published_pair):
        exp, publisher, _ = published_pair
        server = InferenceServer(
            "s0", exp.store, publisher, cache_rows=64
        )
        with pytest.raises(ServingError):
            next(
                server.lookup_steps(
                    LookupRequest(
                        request_id=0, arrival_s=0.0, rows=((0, 0),)
                    )
                )
            )


class TestCorruptionFallback:
    def test_lookup_falls_back_to_older_version(self, published_pair):
        """A corrupt chunk poisons the version; the request replays."""
        exp, publisher, golden = published_pair
        server = InferenceServer(
            "s0", exp.store, publisher, cache_rows=64, warm_pins=False
        )
        drain(server.flip_steps(publisher.versions[1], exp.clock.now))
        table_id, row = _modified_row(publisher)
        bad_key = publisher.versions[1].row_ref(table_id, row).key
        corrupt_stored_object(exp.store.backend, bad_key)
        result = drain(
            server.lookup_steps(
                LookupRequest(
                    request_id=0,
                    arrival_s=exp.clock.now,
                    rows=((table_id, row),),
                )
            )
        )
        assert result.version_index == 0
        assert result.fallback_depth == 1
        assert server.version_fallbacks == 1
        assert server.version_index == 0
        np.testing.assert_array_equal(
            result.values[(table_id, row)], golden[0][table_id][row]
        )

    def test_corruption_after_a_good_decode_still_falls_back(
        self, published_pair
    ):
        """A warm decoded-chunk cache must not vouch for a key: once the
        stored bytes rot, the next read of that chunk fails its hash
        even though the same key's good bytes were decoded before."""
        exp, publisher, golden = published_pair
        server = InferenceServer(
            "s0", exp.store, publisher, cache_rows=1, warm_pins=False
        )
        drain(server.flip_steps(publisher.versions[1], exp.clock.now))
        table_id, row = _modified_row(publisher)
        request = LookupRequest(
            request_id=0, arrival_s=exp.clock.now, rows=((table_id, row),)
        )
        clean = drain(server.lookup_steps(request))
        assert (clean.version_index, clean.misses) == (1, 1)
        assert server.decoded_chunks.decodes == 1
        # Push the row out of the one-row cache so it must be re-read.
        other = next(
            r
            for r in publisher.versions[1].modified_rows[table_id].tolist()
            if r != row
        )
        drain(
            server.lookup_steps(
                LookupRequest(
                    request_id=1,
                    arrival_s=exp.clock.now,
                    rows=((table_id, other),),
                )
            )
        )
        assert not server.current.cache.contains(table_id, row)
        bad_key = publisher.versions[1].row_ref(table_id, row).key
        corrupt_stored_object(exp.store.backend, bad_key)
        result = drain(server.lookup_steps(request))
        assert result.version_index == 0
        assert result.fallback_depth == 1
        assert server.version_fallbacks == 1
        assert server.version_index == 0
        np.testing.assert_array_equal(
            result.values[(table_id, row)], golden[0][table_id][row]
        )

    def test_cold_start_flip_falls_back_when_latest_corrupt(
        self, published_pair
    ):
        """A fresh server warming onto a corrupt latest version must
        land on the older clean one instead."""
        exp, publisher, _ = published_pair
        v1 = publisher.versions[1]
        # Corrupt every chunk the latest version's warm pass would
        # read: the chunks its hot rows live in.
        bad_keys = {
            v1.row_ref(t, int(r)).key
            for t in sorted(v1.hot_rows)
            for r in v1.hot_rows[t]
        }
        assert bad_keys, "latest version announced no hot rows"
        for key in bad_keys:
            corrupt_stored_object(exp.store.backend, key)
        server = InferenceServer(
            "s0", exp.store, publisher, cache_rows=64, warm_pins=True
        )
        drain(server.flip_steps(v1, exp.clock.now))
        assert server.version_index == 0
        assert server.version_fallbacks >= 1


class TestCoSimulation:
    CONFIG = dict(
        policy="consecutive",
        interval_batches=25,
        num_tables=2,
        rows_per_table=2048,
        batch_size=64,
    )

    def _exp_config(self):
        config = small_config(**self.CONFIG)
        return dataclasses.replace(
            config,
            checkpoint=dataclasses.replace(
                config.checkpoint, chunk_rows=256
            ),
        )

    def _serving(self, **overrides):
        base = dict(
            num_servers=2,
            cache_rows=64,
            qps=16.0,
            num_queries=200,
            train_intervals=5,
            hot_rows_per_table=48,
        )
        base.update(overrides)
        return ServingConfig(**base)

    def test_atomic_flips_under_load(self):
        """>= 3 flips under live traffic, zero torn lookups, and at
        least one request finishing on a pre-flip version (so the
        atomicity claim was actually exercised by a straddler)."""
        report = run_serving(self._exp_config(), self._serving())
        assert report.version_flips >= 3
        assert report.torn_lookups == 0
        assert report.requests == 200
        assert report.straddled_requests > 0
        assert report.publishes >= 3
        assert report.cache_hits > 0

    def test_deterministic_under_fixed_seed(self):
        first = run_serving(self._exp_config(), self._serving())
        second = run_serving(self._exp_config(), self._serving())
        assert first == second

    def test_exhausted_training_write_does_not_kill_the_run(self):
        """A training PUT that runs out of retries loses that one
        checkpoint — aborted, scrubbed, training continues, exactly as
        on the fleet path — instead of escaping ``run()``."""
        config = self._exp_config()
        config = dataclasses.replace(
            config,
            storage=dataclasses.replace(
                config.storage,
                backend=BackendConfig(
                    kind="s3like", put_failure_prob=0.02, failure_seed=5
                ),
                max_retries=0,
            ),
        )
        serving = self._serving(num_queries=60)
        report = run_serving(config, serving)
        assert 1 <= report.publishes < serving.train_intervals
        assert report.version_flips >= 1
        assert report.torn_lookups == 0
        assert report.requests == 60

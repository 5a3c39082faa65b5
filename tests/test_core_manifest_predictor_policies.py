"""Unit tests: manifests, refresh predictors, checkpoint policies."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manifest import (
    KIND_FULL,
    KIND_INCREMENTAL,
    CheckpointManifest,
    ChunkRecord,
    ShardRecord,
    checkpoint_prefix,
    chunk_key,
    manifest_key,
)
from repro.core.policies import (
    ConsecutivePolicy,
    FullPolicy,
    IntermittentPolicy,
    OneShotPolicy,
    PolicyState,
    make_policy,
)
from repro.core.predictor import (
    HistoryPredictor,
    LinearTrendPredictor,
)
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    RestoreChainBrokenError,
)


def make_manifest(
    ckpt_id: str,
    kind: str = KIND_FULL,
    base: str | None = None,
    interval: int = 0,
) -> CheckpointManifest:
    return CheckpointManifest(
        checkpoint_id=ckpt_id,
        job_id="job0",
        kind=kind,
        base_id=base,
        interval_index=interval,
        policy="one_shot",
        quantizer="adaptive",
        bit_width=4,
        created_at_s=float(interval),
        valid_at_s=float(interval) + 0.5,
        shards=(
            ShardRecord(
                shard_id=0,
                table_id=0,
                row_start=0,
                row_end=10,
                chunks=(ChunkRecord("job0/x/chunk0", 10, 400, "ab" * 32),),
            ),
        ),
        dense_key="job0/x/dense.bin",
        dense_bytes=100,
        dense_digest="cd" * 32,
    )


class TestManifest:
    def test_json_roundtrip(self):
        manifest = make_manifest("ckpt-1", KIND_INCREMENTAL, "ckpt-0", 3)
        out = CheckpointManifest.from_json(manifest.to_json())
        assert out == manifest

    def test_logical_bytes(self):
        manifest = make_manifest("c")
        assert manifest.logical_bytes == 500
        assert manifest.embedding_rows_stored == 10

    def test_incremental_requires_base(self):
        with pytest.raises(CheckpointCorruptError, match="base"):
            make_manifest("c", KIND_INCREMENTAL, base=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(CheckpointCorruptError, match="kind"):
            make_manifest("c", kind="diff")

    def test_corrupt_json_rejected(self):
        with pytest.raises(CheckpointCorruptError, match="JSON"):
            CheckpointManifest.from_json(b"{not json")

    def test_missing_field_rejected(self):
        with pytest.raises(CheckpointCorruptError, match="field"):
            CheckpointManifest.from_json("{}")

    @given(
        valid_at_s=st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]),
        job_id=st.text(max_size=12),
        progress=st.dictionaries(st.text(max_size=12), st.integers()),
    )
    @settings(max_examples=150, deadline=None)
    def test_json_with_valid_at_matches_to_json(
        self, valid_at_s, job_id, progress
    ):
        """The writer encodes its manifest once and patches the
        validity time in; the text must be what ``to_json`` writes."""
        draft = dataclasses.replace(
            make_manifest("ckpt-1", KIND_INCREMENTAL, "ckpt-0", 3),
            job_id=job_id,
            valid_at_s=0.0,
            trainer_progress={"valid_at_s": 1.5, **progress},
        )
        final = dataclasses.replace(draft, valid_at_s=valid_at_s)
        assert CheckpointManifest.json_with_valid_at(
            draft.to_json(), valid_at_s
        ) == final.to_json()

    def test_key_helpers(self):
        assert manifest_key("j", "c") == "j/c/manifest.json"
        assert chunk_key("j", "c", 2, 3) == "j/c/shard00002/chunk000003.bin"
        assert checkpoint_prefix("j", "c") == "j/c/"


class TestHistoryPredictor:
    def test_paper_rule_exact(self):
        """Fc = 1 + sum(Si); Ic = (i+1) * Si; full iff Fc <= Ic."""
        predictor = HistoryPredictor()
        # S = [0.25]: Fc = 1.25, Ic = 2*0.25 = 0.5 -> incremental.
        assert not predictor.should_take_full([0.25])
        # S grows to [0.25, 0.35, 0.45, 0.5]: Fc = 2.55, Ic = 5*0.5=2.5
        assert not predictor.should_take_full([0.25, 0.35, 0.45, 0.5])
        # One more: [0.25, 0.35, 0.45, 0.5, 0.52]: Fc=3.07, Ic=6*0.52=3.12
        assert predictor.should_take_full([0.25, 0.35, 0.45, 0.5, 0.52])

    def test_empty_history_stays_incremental(self):
        assert not HistoryPredictor().should_take_full([])

    def test_negative_size_rejected(self):
        with pytest.raises(CheckpointError):
            HistoryPredictor().should_take_full([-0.1])

    def test_flat_small_increments_never_refresh(self):
        predictor = HistoryPredictor()
        sizes: list[float] = []
        for _ in range(50):
            sizes.append(0.01)
            if predictor.should_take_full(sizes):
                break
        # Ic = (i+1)*0.01 needs ~100 intervals to reach Fc ~= 1.5.
        assert len(sizes) == 50


class TestLinearTrendPredictor:
    def test_falls_back_with_short_history(self):
        predictor = LinearTrendPredictor()
        assert not predictor.should_take_full([0.3])

    def test_growing_trend_triggers_earlier_than_history(self):
        """Extrapolation sees growth the last-size heuristic misses."""
        sizes = [0.1, 0.2, 0.3]
        # History: Fc = 1.6, Ic = 4 * 0.3 = 1.2 -> stays incremental.
        assert not HistoryPredictor().should_take_full(sizes)
        # Trend projects 0.4 + 0.5 + 0.6 + 0.7 = 2.2 >= 1.6 -> refresh.
        assert LinearTrendPredictor().should_take_full(sizes)

    def test_flat_trend_agrees_with_history(self):
        sizes = [0.3, 0.3, 0.3]
        assert LinearTrendPredictor().should_take_full(
            sizes
        ) == HistoryPredictor().should_take_full(sizes)


class TestPolicies:
    def test_full_policy_always_full(self):
        policy = FullPolicy()
        for i in range(5):
            assert policy.decide(PolicyState(i, ())) == KIND_FULL
        assert policy.reset_tracker_after(KIND_FULL)

    def test_one_shot_full_then_incremental(self):
        policy = OneShotPolicy()
        assert policy.decide(PolicyState(0, ())) == KIND_FULL
        for i in range(1, 5):
            state = PolicyState(i, tuple([0.3] * i))
            assert policy.decide(state) == KIND_INCREMENTAL
        assert not policy.reset_tracker_after(KIND_INCREMENTAL)
        assert policy.reset_tracker_after(KIND_FULL)

    def test_consecutive_resets_every_time(self):
        policy = ConsecutivePolicy()
        assert policy.reset_tracker_after(KIND_INCREMENTAL)
        assert policy.reset_tracker_after(KIND_FULL)

    def test_intermittent_refreshes_baseline(self):
        policy = IntermittentPolicy()
        assert policy.decide(PolicyState(0, ())) == KIND_FULL
        assert (
            policy.decide(PolicyState(1, (0.25,))) == KIND_INCREMENTAL
        )
        # Large accumulated increments force a refresh.
        sizes = (0.5, 0.8, 0.9, 0.95)
        assert policy.decide(PolicyState(4, sizes)) == KIND_FULL

    def test_factory(self):
        for name in ("full", "one_shot", "consecutive", "intermittent"):
            assert make_policy(name).name == name
        with pytest.raises(CheckpointError):
            make_policy("magic")


class TestRestoreChains:
    def test_full_chain_is_single(self):
        manifests = {"a": make_manifest("a")}
        chain = FullPolicy().restore_chain(manifests["a"], manifests)
        assert [m.checkpoint_id for m in chain] == ["a"]

    def test_one_shot_chain_is_base_plus_target(self):
        manifests = {
            "a": make_manifest("a"),
            "b": make_manifest("b", KIND_INCREMENTAL, "a", 1),
            "c": make_manifest("c", KIND_INCREMENTAL, "a", 2),
        }
        chain = OneShotPolicy().restore_chain(manifests["c"], manifests)
        assert [m.checkpoint_id for m in chain] == ["a", "c"]

    def test_consecutive_chain_walks_all_links(self):
        manifests = {
            "a": make_manifest("a"),
            "b": make_manifest("b", KIND_INCREMENTAL, "a", 1),
            "c": make_manifest("c", KIND_INCREMENTAL, "b", 2),
            "d": make_manifest("d", KIND_INCREMENTAL, "c", 3),
        }
        chain = ConsecutivePolicy().restore_chain(
            manifests["d"], manifests
        )
        assert [m.checkpoint_id for m in chain] == ["a", "b", "c", "d"]

    def test_missing_base_detected(self):
        manifests = {
            "b": make_manifest("b", KIND_INCREMENTAL, "missing", 1)
        }
        with pytest.raises(RestoreChainBrokenError, match="missing"):
            OneShotPolicy().restore_chain(manifests["b"], manifests)

    def test_cycle_detected(self):
        manifests = {
            "a": make_manifest("a", KIND_INCREMENTAL, "b", 0),
            "b": make_manifest("b", KIND_INCREMENTAL, "a", 1),
        }
        with pytest.raises(RestoreChainBrokenError, match="cycle"):
            OneShotPolicy().restore_chain(manifests["a"], manifests)

    def test_protected_ids_cover_bases(self):
        manifests = {
            "a": make_manifest("a"),
            "b": make_manifest("b", KIND_INCREMENTAL, "a", 1),
            "c": make_manifest("c", KIND_INCREMENTAL, "a", 2),
        }
        protected = OneShotPolicy().protected_ids(
            [manifests["c"]], manifests
        )
        assert protected == {"a", "c"}  # b is deletable

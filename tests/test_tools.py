"""Unit tests for the tools package: inspection, scrub, CLI, config IO."""

from __future__ import annotations

import json

import pytest

from repro.config import (
    CheckpointConfig,
    ExperimentConfig,
    ModelConfig,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
from repro.errors import ConfigError
from repro.experiments import build_experiment, small_config
from repro.tools.cli import main as cli_main
from repro.tools.inspect import (
    format_summaries,
    list_jobs,
    scrub_checkpoint,
    scrub_job,
    summarize_job,
)

import backend_ops as ops


def drain(exp) -> None:
    exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")


@pytest.fixture
def populated_exp():
    exp = build_experiment(
        small_config(
            interval_batches=5,
            num_tables=3,
            rows_per_table=512,
            batch_size=32,
        )
    )
    exp.controller.run_intervals(2)
    drain(exp)
    return exp


class TestConfigSerialization:
    def test_roundtrip_default(self):
        config = ExperimentConfig()
        out = experiment_config_from_dict(
            experiment_config_to_dict(config)
        )
        assert out == config

    def test_roundtrip_custom(self):
        config = small_config(
            policy="consecutive", bit_width=2, rows_per_table=123
        )
        blob = json.dumps(experiment_config_to_dict(config))
        out = experiment_config_from_dict(json.loads(blob))
        assert out == config
        assert out.model.rows_per_table == config.model.rows_per_table

    def test_missing_sections_default(self):
        out = experiment_config_from_dict({})
        assert out == ExperimentConfig()

    def test_bad_section_rejected(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            experiment_config_from_dict(
                {"checkpoint": {"nonsense_field": 1}}
            )

    def test_tuples_restored(self):
        config = ExperimentConfig(
            model=ModelConfig(
                num_tables=2,
                rows_per_table=(10, 20),
                embedding_dim=8,
                bottom_mlp=(16, 8),
                top_mlp=(8, 1),
            )
        )
        out = experiment_config_from_dict(
            experiment_config_to_dict(config)
        )
        assert isinstance(out.model.rows_per_table, tuple)


class TestInspection:
    def test_list_jobs(self, populated_exp):
        assert list_jobs(populated_exp.store) == ["job0"]

    def test_summaries_match_manifests(self, populated_exp):
        summaries = summarize_job(populated_exp.store, "job0")
        assert len(summaries) == 2
        assert summaries[0].kind == "full"
        assert summaries[0].interval_index == 0
        assert summaries[1].interval_index == 1
        assert all(s.logical_bytes > 0 for s in summaries)

    def test_format_summaries(self, populated_exp):
        text = format_summaries(summarize_job(populated_exp.store, "job0"))
        assert "ckpt-000000" in text
        assert "full" in text
        assert format_summaries([]) == "(no checkpoints)"

    def test_scrub_clean_store(self, populated_exp):
        report = scrub_job(populated_exp.store, "job0")
        assert report.clean
        assert report.objects_checked > 0
        assert report.bytes_checked > 0

    def test_scrub_detects_corruption(self, populated_exp):
        exp = populated_exp
        manifests = list(exp.controller.manifests.values())
        victim = manifests[0].shards[0].chunks[0].key
        blob = bytearray(ops.read(exp.store.backend, victim))
        blob[len(blob) // 2] ^= 0xFF
        ops.write(exp.store.backend, victim, bytes(blob))
        report = scrub_checkpoint(exp.store, manifests[0])
        assert not report.clean
        assert victim in report.corrupt_keys

    def test_scrub_records_a_missing_object_and_keeps_going(
        self, populated_exp
    ):
        exp = populated_exp
        manifests = list(exp.controller.manifests.values())
        clean = scrub_job(exp.store, "job0")
        missing = manifests[0].shards[0].chunks[0].key
        rotted = manifests[-1].dense_key
        ops.delete(exp.store.backend, missing)
        blob = bytearray(ops.read(exp.store.backend, rotted))
        blob[len(blob) // 2] ^= 0xFF
        ops.write(exp.store.backend, rotted, bytes(blob))
        report = scrub_job(exp.store, "job0")
        assert report.corrupt_keys == [missing, rotted]
        assert report.objects_checked == clean.objects_checked


class TestCli:
    def test_run_inspect_scrub_restore_cycle(self, tmp_path):
        store_dir = str(tmp_path / "store")
        args = [
            "run", "--store-dir", store_dir, "--intervals", "2",
            "--interval-batches", "4", "--tables", "2",
            "--rows", "256",
        ]
        assert cli_main(args) == 0
        assert cli_main(["inspect", "--store-dir", store_dir]) == 0
        assert cli_main(["scrub", "--store-dir", store_dir]) == 0
        assert cli_main(["restore", "--store-dir", store_dir]) == 0

    def test_resumed_run_continues_numbering(self, tmp_path):
        store_dir = str(tmp_path / "store")
        base_args = [
            "run", "--store-dir", store_dir, "--intervals", "1",
            "--interval-batches", "4", "--tables", "2",
            "--rows", "256",
        ]
        assert cli_main(base_args) == 0
        assert cli_main(base_args) == 0  # resumes, must not collide
        from repro.config import StorageConfig
        from repro.distributed.clock import SimClock
        from repro.storage.backends import FileBackend
        from repro.storage.object_store import ObjectStore

        store = ObjectStore(
            StorageConfig(), SimClock(), backend=FileBackend(store_dir)
        )
        summaries = summarize_job(store, "job0")
        ids = [s.checkpoint_id for s in summaries]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 2

    def test_restore_without_config_fails(self, tmp_path):
        code = cli_main(
            ["restore", "--store-dir", str(tmp_path / "empty")]
        )
        assert code == 2

    def test_scrub_exit_code_on_corruption(self, tmp_path):
        store_dir = str(tmp_path / "store")
        assert cli_main([
            "run", "--store-dir", store_dir, "--intervals", "1",
            "--interval-batches", "4", "--tables", "2",
            "--rows", "256",
        ]) == 0
        # Corrupt one chunk file on disk.
        import pathlib

        chunks = [
            p
            for p in pathlib.Path(store_dir).rglob("chunk*.bin")
        ]
        blob = bytearray(chunks[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        chunks[0].write_bytes(bytes(blob))
        assert cli_main(["scrub", "--store-dir", store_dir]) == 1

    def test_scrub_reports_a_missing_object_like_scan(
        self, tmp_path, capsys
    ):
        """A deleted object is exit 1 and a ``CORRUPT:`` line from
        ``scrub``, as it is from ``scan`` — not an ``error:`` abort."""
        store_dir = tmp_path / "store"
        assert cli_main([
            "run", "--store-dir", str(store_dir), "--intervals", "1",
            "--interval-batches", "4", "--tables", "2",
            "--rows", "256",
        ]) == 0
        (store_dir / "job0" / "ckpt-000000" / "dense.bin").unlink()
        capsys.readouterr()
        assert cli_main(["scrub", "--store-dir", str(store_dir)]) == 1
        assert (
            "CORRUPT: job0/ckpt-000000/dense.bin"
            in capsys.readouterr().out
        )
        code = cli_main(
            ["scan", "--store-dir", str(store_dir), "--no-quarantine"]
        )
        assert code == 1


class TestCompactParams:
    def test_fp16_metadata_halves_param_bytes(self, trained_tensor):
        from repro.quant import make_quantizer

        fp32 = make_quantizer("asymmetric", bits=4).quantize(
            trained_tensor
        )
        fp16 = make_quantizer(
            "asymmetric", bits=4, compact_params=True
        ).quantize(trained_tensor)
        assert fp16.param_bytes == fp32.param_bytes // 2
        assert fp16.params["xmin"].dtype == "float16"

    @pytest.mark.parametrize("name", ["symmetric", "asymmetric", "adaptive"])
    def test_fp16_roundtrip_error_marginal(self, name, trained_tensor):
        from repro.quant import make_quantizer, mean_l2_error

        fp32_q = make_quantizer(name, bits=4)
        fp16_q = make_quantizer(name, bits=4, compact_params=True)
        e32 = mean_l2_error(
            trained_tensor, fp32_q.roundtrip(trained_tensor)
        )
        e16 = mean_l2_error(
            trained_tensor, fp16_q.roundtrip(trained_tensor)
        )
        assert e16 <= e32 * 1.1

    def test_fp16_grid_self_consistent(self, trained_tensor):
        """Quantizing the reconstruction again must be a fixed point —
        encode and decode agree on the rounded bounds."""
        from repro.quant import make_quantizer

        import numpy as np

        q = make_quantizer("asymmetric", bits=4, compact_params=True)
        once = q.roundtrip(trained_tensor)
        twice = q.roundtrip(once)
        np.testing.assert_allclose(twice, once, atol=1e-3)

    def test_fp16_serialization_roundtrip(self, trained_tensor):
        from repro.quant import make_quantizer
        from repro.serialize import decode_quantized, encode_quantized

        import numpy as np

        q = make_quantizer("adaptive", bits=2, compact_params=True)
        qt = q.quantize(trained_tensor)
        back = decode_quantized(encode_quantized(qt))
        np.testing.assert_array_equal(
            q.dequantize(back), q.dequantize(qt)
        )

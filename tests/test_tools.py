"""Unit tests for the tools package: inspection, scan, CLI, config IO."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.config import (
    CheckpointConfig,
    ExperimentConfig,
    ModelConfig,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
from repro.core.integrity import (
    REASON_DIGEST_MISMATCH,
    REASON_MISSING,
    scan_job,
    verify_checkpoint,
)
from repro.errors import ConfigError
from repro.experiments import build_experiment, small_config
from repro.tools.cli import main as cli_main
from repro.tools.inspect import format_summaries, list_jobs, summarize_job

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

    def test_scan_clean_store(self, populated_exp):
        report = scan_job(populated_exp.store, "job0", quarantine=False)
        assert report.clean
        assert report.checkpoints_scanned == 2
        assert report.objects_scanned > 0
        assert report.bytes_verified > 0

    def test_scan_detects_corruption(self, populated_exp):
        exp = populated_exp
        manifests = list(exp.controller.manifests.values())
        victim = manifests[0].shards[0].chunks[0].key
        blob = bytearray(ops.read(exp.store.backend, victim))
        blob[len(blob) // 2] ^= 0xFF
        ops.write(exp.store.backend, victim, bytes(blob))
        issues = verify_checkpoint(exp.store, manifests[0])
        assert [(i.key, i.reason) for i in issues] == [
            (victim, REASON_DIGEST_MISMATCH)
        ]
        report = scan_job(exp.store, "job0", quarantine=False)
        assert not report.clean
        assert report.corrupt_checkpoint_ids == [manifests[0].checkpoint_id]

    def test_scan_records_a_missing_object_and_keeps_going(
        self, populated_exp
    ):
        exp = populated_exp
        manifests = list(exp.controller.manifests.values())
        clean = scan_job(exp.store, "job0", quarantine=False)
        assert clean.clean
        missing = manifests[0].shards[0].chunks[0].key
        rotted = manifests[-1].dense_key
        ops.delete(exp.store.backend, missing)
        blob = bytearray(ops.read(exp.store.backend, rotted))
        blob[len(blob) // 2] ^= 0xFF
        ops.write(exp.store.backend, rotted, bytes(blob))
        report = scan_job(exp.store, "job0", quarantine=False)
        assert [(i.key, i.reason) for i in report.issues] == [
            (missing, REASON_MISSING),
            (rotted, REASON_DIGEST_MISMATCH),
        ]
        assert report.objects_scanned == clean.objects_scanned


class TestCli:
    def test_run_inspect_scan_restore_cycle(self, tmp_path):
        store_dir = str(tmp_path / "store")
        args = [
            "run", "--store-dir", store_dir, "--intervals", "2",
            "--interval-batches", "4", "--tables", "2",
            "--rows", "256",
        ]
        assert cli_main(args) == 0
        assert cli_main(["inspect", "--store-dir", store_dir]) == 0
        assert cli_main(
            ["scan", "--store-dir", store_dir, "--no-quarantine"]
        ) == 0
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

    def test_rejected_run_on_a_fresh_store_writes_nothing(
        self, tmp_path, capsys
    ):
        store_dir = tmp_path / "store"
        code = cli_main([
            "run", "--store-dir", str(store_dir), "--job", "j",
            "--intervals", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(path.is_file() for path in store_dir.rglob("*"))

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--intervals", "0", "--tables", "2"], "--intervals"),
            (["--intervals", "1", "--tables", "2"], "model.num_tables"),
            (["--intervals", "1", "--policy", "full"], "checkpoint.policy"),
        ],
    )
    def test_rejected_run_leaves_the_job_restorable(
        self, tmp_path, capsys, flags, named
    ):
        """A run whose flags cannot continue a job exits 2 with one
        ``error:`` line, before touching the store: the job's stored
        config and checkpoints stay byte-identical and it still
        restores."""
        store_dir = tmp_path / "store"
        run = [
            "run", "--store-dir", str(store_dir), "--job", "j",
            "--interval-batches", "4", "--tables", "3", "--rows", "256",
        ]
        assert cli_main([*run, "--intervals", "2"]) == 0

        def digests() -> dict[Path, str]:
            return {
                path: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(store_dir.rglob("*"))
                if path.is_file()
            }

        before = digests()
        capsys.readouterr()
        assert cli_main([*run, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert digests() == before
        restore = ["restore", "--store-dir", str(store_dir), "--job", "j"]
        assert cli_main(restore) == 0
        assert capsys.readouterr().out.endswith("model at batch 8\n")

    def test_scan_no_quarantine_is_read_only(self, tmp_path, capsys):
        """``scan --no-quarantine`` flags a flipped chunk with exit 1
        and leaves every ``manifest.json`` byte-identical; the default
        ``scan`` rewrites the corrupt checkpoint's manifest."""
        store_dir = tmp_path / "store"
        assert cli_main([
            "run", "--store-dir", str(store_dir), "--intervals", "2",
            "--interval-batches", "4", "--tables", "2",
            "--rows", "256",
        ]) == 0

        def manifest_digests() -> dict[Path, str]:
            return {
                path: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(store_dir.rglob("manifest.json"))
            }

        chunk = sorted(store_dir.rglob("chunk*.bin"))[0]
        blob = bytearray(chunk.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        before = manifest_digests()
        assert len(before) == 2
        capsys.readouterr()
        scan = ["scan", "--store-dir", str(store_dir)]
        assert cli_main([*scan, "--no-quarantine"]) == 1
        key = chunk.relative_to(store_dir).as_posix()
        assert f"CORRUPT {key}: {REASON_DIGEST_MISMATCH}" in (
            capsys.readouterr().out
        )
        assert manifest_digests() == before
        # The check above can see a rewrite: quarantining changes one.
        assert cli_main(scan) == 1
        after = manifest_digests()
        assert [p for p in before if after[p] != before[p]] == [
            chunk.parent.parent / "manifest.json"
        ]

    def test_scan_reports_a_missing_object(self, tmp_path, capsys):
        """A deleted object is exit 1 and a ``CORRUPT`` line — not an
        ``error:`` abort."""
        store_dir = tmp_path / "store"
        assert cli_main([
            "run", "--store-dir", str(store_dir), "--intervals", "1",
            "--interval-batches", "4", "--tables", "2",
            "--rows", "256",
        ]) == 0
        (store_dir / "job0" / "ckpt-000000" / "dense.bin").unlink()
        capsys.readouterr()
        code = cli_main(
            ["scan", "--store-dir", str(store_dir), "--no-quarantine"]
        )
        assert code == 1
        assert (
            f"CORRUPT job0/ckpt-000000/dense.bin: {REASON_MISSING}"
            in capsys.readouterr().out
        )

    def test_scrub_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["scrub", "--store-dir", "unused"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "scrub" in err

    def test_fleet_header_names_every_setting_off_its_default(
        self, tmp_path
    ):
        """Two runs that differ must differ on line 1 of the artifact:
        the header is the command that reproduces the run."""

        def header(*flags: str) -> str:
            out = tmp_path / str(len(flags))
            argv = ["fleet", "--jobs", "4", "--intervals", "2"]
            assert cli_main([*argv, *flags, "--out", str(out)]) == 0
            text = (out / "fleet_cli_aggregate.txt").read_text()
            return text.splitlines()[0]

        flags = (
            "--no-failures", "--quota-bytes", "9999999",
            "--preempt-wait", "0", "--rack-size", "2",
        )
        default, tuned = header(), header(*flags)
        assert default == "== Fleet run: 4 jobs x 2 intervals (seed 990951) =="
        assert tuned != default
        for flag in ("--no-failures", "--quota-bytes 9999999",
                     "--preempt-wait 0.0", "--rack-size 2"):
            assert flag in tuned

    @pytest.mark.parametrize(
        "argv", [["--qps", "0"], ["--queries", "-1"], ["--servers", "0"]]
    )
    def test_serve_rejects_out_of_range_input(self, argv, capsys):
        assert cli_main(["serve", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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

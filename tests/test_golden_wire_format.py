"""Stored objects, pinned byte for byte to a recording.

``golden_wire_format.json`` holds the sha256 of every chunk, dense and
manifest object two seeded ``small_config`` runs leave in an in-memory
store — fp32 (``none``) full checkpoints, and adaptive 4-bit
incremental ones — as commit ``fb119a5`` wrote them, before the codec
and frame encoders were rewritten for speed. The wire format has one
version and one encoder; this recording is what says a faster encoder
is still *that* encoder (frame layout, JSON header spelling and key
order, little-endian bodies, manifest text).

Chunk bytes hold trained float32 weights, and a BLAS build on another
CPU may round a training step differently; each case therefore also
records a fingerprint of the trained model state, and where that
differs from the recording the case is skipped (the bytes would differ
for a reason that is not the format — ``test_serialize_differential``
covers the format there).

Regenerate — only for a deliberate wire-format change, which also
needs a ``VERSION`` bump and a reader for the old one — with::

    PYTHONPATH=src python tests/test_golden_wire_format.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import build_experiment, small_config
from repro.storage.requests import OP_GET, OP_LIST, StorageRequest

GOLDEN = Path(__file__).with_name("golden_wire_format.json")

#: chunk_rows=200 cuts each 512-row shard into three chunks, so a checkpoint
#: has a head chunk, lookahead chunks and chunks beyond the lookahead.
CASES = {
    "none_full": dict(policy="full", quantizer="none", bit_width=None),
    "adaptive4_incremental": dict(
        policy="consecutive", quantizer="adaptive", bit_width=4
    ),
}


def record(case: str) -> dict:
    """Run one seeded case; hash its trained state and stored objects."""
    config = small_config(
        interval_batches=6,
        num_tables=3,
        rows_per_table=512,
        batch_size=32,
        keep_last=8,
        **CASES[case],
    )
    config = dataclasses.replace(
        config,
        checkpoint=dataclasses.replace(config.checkpoint, chunk_rows=200),
    )
    exp = build_experiment(config)
    exp.controller.run_intervals(3)

    state = hashlib.sha256()
    for table_id in range(exp.model.num_tables):
        state.update(exp.model.table_weight(table_id).tobytes())
        state.update(exp.model.table_accumulator(table_id).tobytes())
    for name, arr in sorted(exp.model.dense_state().items()):
        state.update(name.encode("utf-8") + np.asarray(arr).tobytes())

    backend = exp.store.backend
    objects = {
        key: hashlib.sha256(
            backend.get_object(StorageRequest(OP_GET, key))
        ).hexdigest()
        for key in backend.list_objects(StorageRequest(OP_LIST, ""))
    }
    return {"state_sha256": state.hexdigest(), "objects": objects}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stored_objects_match_the_recording(case):
    golden = json.loads(GOLDEN.read_text())[case]
    actual = record(case)
    if actual["state_sha256"] != golden["state_sha256"]:
        pytest.skip(
            "training rounds differently on this host than on the "
            "recording host; stored bytes are not comparable"
        )
    kinds = {key.rsplit("/", 1)[1][:5] for key in actual["objects"]}
    assert kinds == {"chunk", "dense", "manif"}
    assert sorted(actual["objects"]) == sorted(golden["objects"])
    drifted = [
        key
        for key, digest in actual["objects"].items()
        if golden["objects"][key] != digest
    ]
    assert not drifted, f"stored bytes changed: {drifted}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: record(case) for case in CASES}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")

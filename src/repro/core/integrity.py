"""End-to-end checkpoint integrity: scan, verify, quarantine.

The write path records a sha256 digest for every stored object (chunk
digests in :class:`~repro.core.manifest.ChunkRecord`, the dense blob's
in :class:`~repro.core.manifest.CheckpointManifest`); the restore path
re-hashes everything it reads. This module is the *operator plane* on
top of those digests: :func:`scan_job` walks a job's stored
checkpoints, classifies every bad object (missing, truncated,
bit-rotted), and **quarantines** checkpoints that can no
longer restore by rewriting their manifest with ``quarantined: true``
— a marker the resume planner
(:meth:`~repro.core.restore.CheckpointRestorer.plan_resume`) and
retention (:meth:`~repro.core.retention.RetentionManager.enforce`)
both respect, and which survives process restarts because it lives in
the stored manifest itself.

Scans are untimed: every request — the discovery LIST, the reads,
the quarantine marker's PUT — goes through
:meth:`~repro.storage.engine.TransferEngine.retry_probe` rather than
the request-timed store: an operator tool must not perturb the
simulated storage timeline it is inspecting, and must not die on a
throttled request either.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from ..errors import ObjectNotFoundError
from ..reporting import series
from ..storage.object_store import ObjectStore
from ..storage.requests import OP_GET, OP_LIST, OP_PUT
from .manifest import CheckpointManifest, manifest_key


def sha256_hex(data: bytes) -> str:
    """The digest format recorded in manifests: sha256, lowercase hex."""
    return hashlib.sha256(data).hexdigest()


#: Issue reasons, in the order checks run per object.
REASON_MISSING = "missing"
REASON_TRUNCATED = "truncated"
REASON_DIGEST_MISMATCH = "digest-mismatch"
REASON_MANIFEST_CORRUPT = "manifest-corrupt"


@dataclass(frozen=True)
class ObjectIssue:
    """One bad stored object found by a scan."""

    key: str
    checkpoint_id: str
    reason: str
    detail: str = ""


@dataclass
class IntegrityReport:
    """Outcome of scanning one job's stored checkpoints."""

    job_id: str
    checkpoints_scanned: int = series(
        "Checkpoints with a readable manifest scanned.", default=0
    )
    objects_scanned: int = series(
        "Stored objects (manifests, chunks, dense) scanned.", default=0
    )
    bytes_verified: int = series(
        "Bytes of objects that passed every integrity check.", default=0
    )
    issues: list[ObjectIssue] = series(
        "Objects that failed an integrity check this scan.",
        name="corrupt_objects",
        default_factory=list,
    )
    corrupt_checkpoint_ids: list[str] = series(
        "Checkpoints with at least one corrupt object.",
        name="corrupt_checkpoints",
        default_factory=list,
    )
    quarantined_ids: list[str] = series(
        "Checkpoints newly quarantined by this scan.",
        name="quarantined_checkpoints",
        default_factory=list,
    )
    already_quarantined_ids: list[str] = series(
        "Checkpoints a previous scan had already quarantined.",
        name="already_quarantined_checkpoints",
        default_factory=list,
    )
    #: A mid-write crash; the manifest-last invariant already hides
    #: them from restores, so they are reported but not quarantined.
    torn_checkpoint_ids: list[str] = series(
        "Checkpoints with stored objects but no manifest.",
        name="torn_checkpoints",
        default_factory=list,
    )
    #: Key -> reason. Discovery skip-and-records these, so they need
    #: no quarantine marker.
    unreadable_manifests: dict[str, str] = series(
        "Manifest objects that failed to parse.", default_factory=dict
    )

    @property
    def clean(self) -> bool:
        return not self.issues and not self.torn_checkpoint_ids


def verify_checkpoint(
    store: ObjectStore,
    manifest: CheckpointManifest,
    report: IntegrityReport | None = None,
) -> list[ObjectIssue]:
    """Verify every stored object of one checkpoint.

    Per object: existence, recorded-size match (truncation) and sha256
    digest match. Updates ``report`` counters when given; returns the
    issues found.
    """
    issues: list[ObjectIssue] = []
    checks: list[tuple[str, int, str]] = [
        (chunk.key, chunk.logical_bytes, chunk.digest)
        for shard in manifest.shards
        for chunk in shard.chunks
    ]
    checks.append(
        (manifest.dense_key, manifest.dense_bytes, manifest.dense_digest)
    )
    for key, expected_bytes, digest in checks:
        if report is not None:
            report.objects_scanned += 1
        try:
            blob = store.engine.retry_probe(OP_GET, key)
        except ObjectNotFoundError:
            issues.append(
                ObjectIssue(key, manifest.checkpoint_id, REASON_MISSING)
            )
            continue
        if len(blob) != expected_bytes:
            issues.append(
                ObjectIssue(
                    key,
                    manifest.checkpoint_id,
                    REASON_TRUNCATED,
                    f"stored {len(blob)} bytes, manifest records "
                    f"{expected_bytes}",
                )
            )
            continue
        actual = sha256_hex(blob)
        if actual != digest:
            issues.append(
                ObjectIssue(
                    key,
                    manifest.checkpoint_id,
                    REASON_DIGEST_MISMATCH,
                    f"stored bytes hash {actual}, manifest records "
                    f"{digest}",
                )
            )
            continue
        if report is not None:
            report.bytes_verified += len(blob)
    if report is not None:
        report.issues.extend(issues)
    return issues


def quarantine_checkpoint(
    store: ObjectStore, manifest: CheckpointManifest
) -> CheckpointManifest:
    """Persist the quarantine marker into the stored manifest.

    Rewrites the manifest object with ``quarantined: true`` (operator
    plane: untimed, retried like the scan's reads). The marker sticks
    across restarts: any later discovery re-reads the stored JSON and
    drops the checkpoint from resume plans and retention keep slots.
    """
    quarantined = replace(manifest, quarantined=True)
    key = manifest_key(manifest.job_id, manifest.checkpoint_id)
    store.engine.retry_probe(
        OP_PUT, key, quarantined.to_json().encode("utf-8")
    )
    return quarantined


def scan_job(
    store: ObjectStore, job_id: str, quarantine: bool = True
) -> IntegrityReport:
    """Scan one job's stored checkpoints for corruption.

    Walks every checkpoint under ``job_id``: unparseable manifests are
    recorded (discovery already skips them), torn checkpoints (objects
    without a manifest) are listed, and every chunk/dense object of
    each readable manifest is verified per :func:`verify_checkpoint`.
    Checkpoints with bad objects are quarantined unless
    ``quarantine=False`` (report-only mode).
    """
    report = IntegrityReport(job_id=job_id)
    keys = store.engine.retry_probe(OP_LIST, f"{job_id}/")
    manifest_keys = sorted(
        k for k in keys if k.endswith("/manifest.json")
    )
    with_manifest = {k.rsplit("manifest.json", 1)[0] for k in manifest_keys}
    torn: list[str] = []
    for key in keys:
        parts = key.split("/")
        if len(parts) < 3:
            continue
        if f"{parts[0]}/{parts[1]}/" not in with_manifest:
            if parts[1] not in torn:
                torn.append(parts[1])
    report.torn_checkpoint_ids = torn

    for mkey in manifest_keys:
        checkpoint_id = mkey.split("/")[-2]
        blob = store.engine.retry_probe(OP_GET, mkey)
        report.objects_scanned += 1
        try:
            manifest = CheckpointManifest.from_json(blob)
        except Exception as exc:  # CheckpointCorruptError, by contract
            report.unreadable_manifests[mkey] = str(exc)
            report.issues.append(
                ObjectIssue(
                    mkey, checkpoint_id, REASON_MANIFEST_CORRUPT, str(exc)
                )
            )
            continue
        report.bytes_verified += len(blob)
        report.checkpoints_scanned += 1
        if manifest.quarantined:
            report.already_quarantined_ids.append(manifest.checkpoint_id)
            continue
        issues = verify_checkpoint(store, manifest, report)
        if issues:
            report.corrupt_checkpoint_ids.append(manifest.checkpoint_id)
            if quarantine:
                quarantine_checkpoint(store, manifest)
                report.quarantined_ids.append(manifest.checkpoint_id)
    return report


def format_integrity_report(report: IntegrityReport) -> str:
    """Human-readable scan summary (the ``repro scan`` output)."""
    lines = [
        f"job {report.job_id}: scanned "
        f"{report.checkpoints_scanned} checkpoints, "
        f"{report.objects_scanned} objects, "
        f"{report.bytes_verified} bytes verified"
    ]
    for issue in report.issues:
        detail = f" ({issue.detail})" if issue.detail else ""
        lines.append(
            f"  CORRUPT {issue.key}: {issue.reason}{detail}"
        )
    for checkpoint_id in report.torn_checkpoint_ids:
        lines.append(
            f"  TORN {checkpoint_id}: objects present but no manifest"
        )
    for checkpoint_id in report.quarantined_ids:
        lines.append(f"  QUARANTINED {checkpoint_id}")
    for checkpoint_id in report.already_quarantined_ids:
        lines.append(f"  already quarantined: {checkpoint_id}")
    if report.clean:
        lines.append("  clean: no corruption found")
    return "\n".join(lines)

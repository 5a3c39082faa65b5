"""Published checkpoint versions and their row locators.

A *published version* is one checkpoint the serving publisher has
applied to its golden replica and announced to the inference fleet. The
version carries everything a server needs to answer row lookups against
exactly that snapshot without holding the model itself:

* a **row locator** — per table, which stored chunk object holds each
  row's *newest* value as of this version, with the manifest's sha256
  digest so every fetched chunk is integrity-verified before a single
  row is served;
* the **modified rows** this version changed relative to the previous
  one — the invalidation set a version-pinned cache uses to carry
  unmodified entries across an atomic flip;
* the publisher's current **hot rows** — the most frequently modified
  rows across publishes (tracker stats by construction: incremental
  checkpoints store exactly the rows the modified-row trackers marked),
  which servers pin in their caches.

Locators map rows to the chunks of *several* checkpoints: after an
incremental publish, an untouched row still points at the full
baseline's chunk while a retrained row points at the increment's. That
is what makes serving reads cheap — a lookup fetches one chunk, never a
chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ServingError


@dataclass(frozen=True)
class RowRef:
    """Where one row's newest value lives: a chunk object + its digest."""

    key: str
    digest: str
    table_id: int


@dataclass(frozen=True)
class PublishedVersion:
    """One checkpoint version announced to the inference fleet."""

    version_index: int
    checkpoint_id: str
    kind: str
    #: Snapshot time of the underlying checkpoint (training-side).
    created_at_s: float
    #: When the publisher finished applying it and announced it.
    published_at_s: float
    #: table id -> row id -> :class:`RowRef` holding the row's newest
    #: value as of this version.
    locator: dict[int, dict[int, RowRef]] = field(repr=False)
    #: Rows this version changed vs the previous published version
    #: (every row, for a full checkpoint) — the flip invalidation set.
    modified_rows: dict[int, np.ndarray] = field(repr=False)
    #: The publisher's hot set at publish time: top rows by cumulative
    #: modification frequency, per table. Servers pin these.
    hot_rows: dict[int, np.ndarray] = field(repr=False)

    def row_ref(self, table_id: int, row: int) -> RowRef:
        """The chunk holding ``row``'s value at this version."""
        try:
            return self.locator[table_id][int(row)]
        except KeyError:
            raise ServingError(
                f"version {self.checkpoint_id!r} has no location for "
                f"row {row} of table {table_id}"
            ) from None

def rows_changed_between(
    versions: list[PublishedVersion], old_index: int, new_index: int
) -> dict[int, np.ndarray]:
    """Rows modified by any version in ``(old_index, new_index]``.

    ``versions`` is the publisher's append-only version list (index ==
    ``version_index``). A server flipping from ``old_index`` straight to
    ``new_index`` must drop cached entries for exactly this union — the
    rows whose values differ between the two snapshots are a subset of
    it, and everything else is bit-identical across the flip.
    """
    if not 0 <= old_index <= new_index < len(versions):
        raise ServingError(
            f"invalid version span ({old_index}, {new_index}] over "
            f"{len(versions)} published versions"
        )
    merged: dict[int, list[np.ndarray]] = {}
    for version in versions[old_index + 1 : new_index + 1]:
        for table_id, rows in version.modified_rows.items():
            merged.setdefault(table_id, []).append(np.asarray(rows))
    return {
        table_id: np.unique(np.concatenate(parts))
        for table_id, parts in merged.items()
    }

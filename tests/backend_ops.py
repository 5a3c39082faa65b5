"""One-key helpers over the ``Backend`` request API, for tests.

Until PR 20 these five were methods on ``Backend`` itself. ``src/``
speaks the request API (or ``TransferEngine.retry_probe``) now; tests
that only want to poke a byte into a raw backend, or look at what
landed there, keep the short spelling through these functions. Each
builds the classed request the method it replaced built.
"""

from __future__ import annotations

from repro.storage.backends import Backend
from repro.storage.requests import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    StorageRequest,
)


def write(backend: Backend, key: str, data: bytes) -> None:
    backend.put_object(StorageRequest(OP_PUT, key, len(data)), data)


def read(backend: Backend, key: str) -> bytes:
    return backend.get_object(StorageRequest(OP_GET, key))


def delete(backend: Backend, key: str) -> None:
    backend.delete_object(StorageRequest(OP_DELETE, key))


def exists(backend: Backend, key: str) -> bool:
    return backend.head_object(StorageRequest(OP_HEAD, key))


def list_keys(backend: Backend, prefix: str = "") -> list[str]:
    return backend.list_objects(StorageRequest(OP_LIST, prefix))

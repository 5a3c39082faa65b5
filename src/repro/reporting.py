"""Declare a reported number once, on the report dataclass itself.

A report field declared with :func:`series` *is* its Prometheus series:
:func:`repro.tools.metrics.report_metrics` and the ``docs/metrics.md``
generator both walk :func:`declared_series`, so the name, HELP and TYPE
of an exported number have one definition, next to the number. A
per-row counter declared with :func:`additive` rolls up through
:func:`totals`, so "sum this over the fleet / the tier" is said once
for every counter instead of once per counter.

Both helpers return plain :func:`dataclasses.field` objects carrying
metadata: field names, order, defaults, ``compare`` flags and
``repr()`` of the reports are untouched.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True)
class Series:
    """How one report attribute is exported."""

    help: str
    #: Series name after ``repro_<prefix>_`` (None = the attribute's).
    name: str | None = None
    type: str = "gauge"  # "gauge" or "counter"


def series(
    help: str, name: str | None = None, type: str = "gauge", **field_kwargs
):
    """A dataclass field exported as a Prometheus series.

    ``help`` doubles as the field's documentation. ``field_kwargs``
    (``default``, ``default_factory``, ``compare`` ...) go to
    :func:`dataclasses.field` unchanged. Sized values (tuples, lists,
    dicts) export their ``len()``.
    """
    return dataclasses.field(
        metadata={"series": Series(help, name, type)}, **field_kwargs
    )


class _SeriesProperty(property):
    series: Series


def derived_series(
    help: str, name: str | None = None
) -> Callable[[Callable[[Any], Any]], property]:
    """Decorator: a read-only property exported like a :func:`series`
    gauge."""

    def wrap(getter: Callable[[Any], Any]) -> property:
        prop = _SeriesProperty(getter, doc=help)
        prop.series = Series(help, name)
        return prop

    return wrap


def declared_series(cls: type) -> list[tuple[str, Series]]:
    """``(attribute, Series)`` of a report class, fields first."""
    declared = [
        (f.name, f.metadata["series"])
        for f in dataclasses.fields(cls)
        if "series" in f.metadata
    ]
    declared += [
        (attr, value.series)
        for attr, value in vars(cls).items()
        if isinstance(value, _SeriesProperty)
    ]
    return declared


def additive(**field_kwargs):
    """A dataclass field whose values add across rows (a counter)."""
    return dataclasses.field(metadata={"additive": True}, **field_kwargs)


def additive_fields(cls: type) -> tuple[str, ...]:
    """Names of the :func:`additive` fields of a row class."""
    return tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.metadata.get("additive")
    )


def totals(rows: Iterable[Any], names: Iterable[str]) -> dict[str, Any]:
    """Each named attribute summed over ``rows``."""
    rows = tuple(rows)
    return {name: sum(getattr(row, name) for row in rows) for name in names}

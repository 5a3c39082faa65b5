"""Hypothesis strategies drawn from the config fields' own declarations.

``settings_strategy(cls)`` draws keyword arguments for the
:func:`repro.config.setting` fields of a config class from what each
field declares — its type, whether it takes None, its bounds and its
choices — so the search space follows the declarations instead of a
hand-kept list. Every draw is inside its own field's range: a drawn
config can only fail a rule that relates several fields.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.config import Setting, declared_settings

#: Magnitude cap for a draw the declaration leaves unbounded.
SPAN = 2**31


def _numbers(spec: Setting) -> st.SearchStrategy:
    bounds = dict(spec.bounds)
    low = bounds.get(">=", bounds.get(">"))
    high = bounds.get("<=", bounds.get("<"))
    if spec.type is int:
        return st.integers(
            -SPAN if low is None else low + (">" in bounds),
            SPAN if high is None else high - ("<" in bounds),
        )
    return st.floats(
        -SPAN if low is None else low,
        SPAN if high is None else high,
        exclude_min=">" in bounds,
        exclude_max="<" in bounds,
    )


def value_strategy(spec: Setting) -> st.SearchStrategy:
    """Values one declared setting accepts on its own."""
    if spec.choices:
        values = st.sampled_from(spec.choices)
    elif spec.type is bool:
        values = st.booleans()
    elif spec.type is str:
        values = st.text(max_size=8)
    else:
        values = _numbers(spec)
    return values | st.none() if spec.optional else values


def settings_strategy(cls: type, names=None) -> st.SearchStrategy:
    """Keyword arguments for ``cls``: every setting, or only ``names``."""
    declared = declared_settings(cls)
    return st.fixed_dictionaries(
        {name: value_strategy(declared[name]) for name in names or declared}
    )

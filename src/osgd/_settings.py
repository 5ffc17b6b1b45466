"""Run settings, each declared once on its config dataclass field.

A setting's field holds its default, its checks and, when it is not the
section's key prefix plus the field name, its dotted key, the setting's
one spelling.  Its type comes from its default (an int, float, str or
tuple of ints, unless ``as_type`` says otherwise): the type decides how
config-file text is parsed and the type check every value meets.  The
same checks run for constructor arguments and file values alike, and
every failed check names the key.
"""
from __future__ import annotations

import math
from dataclasses import field, fields, replace

import numpy as np


def is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_sizes(n, s, q):
    """(n, s, q) as Python ints, after the integer rule of :func:`is_int`
    and 1 <= q <= s <= n: the one size check of every oracle."""
    if not (is_int(n) and is_int(s) and is_int(q)):
        raise ValueError(f"n, s, q must be integers, got ({n!r}, {s!r}, {q!r})")
    if not 1 <= q <= s <= n:
        raise ValueError(f"need 1 <= q <= s <= n, got (n={n}, s={s}, q={q})")
    return int(n), int(s), int(q)


def _int_list(raw):
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


INTEGER = (is_int, "must be an integer")

# default's type -> (text parser, (test, rule) checks every value meets)
_TYPES = {
    int: (int, INTEGER),
    float: (float, (lambda v: is_int(v) or isinstance(v, (float, np.floating)),
                    "must be a number")),
    str: (str, (lambda v: isinstance(v, str), "must be a string")),
    tuple: (_int_list,
            (lambda v: isinstance(v, tuple), "must be a list of integers"),
            (lambda v: all(map(is_int, v)),
             "must be an integer in every entry")),
}

AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
FINITE = (math.isfinite, "must be finite")
NONNEG = (lambda v: v >= 0, "must be nonnegative")  # also rejects nan
NONNEG_ENTRIES = (lambda v: min(v, default=0) >= 0, "must be nonnegative")
POSITIVE_FINITE = (lambda v: math.isfinite(v) and v > 0,
                   "must be positive and finite")
UNIT = (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")  # also rejects nan


def check_value(name, value, *checks):
    """Raise a one-line ValueError naming ``name`` and the rule of the first
    ``(test, rule)`` check that ``value`` fails."""
    for test, rule in checks:
        if not test(value):
            raise ValueError(f"{name} {rule}, got {value!r}")


def one_of(choices):
    return (lambda v: v in choices, f"must be one of {', '.join(choices)}")


def setting(default, *checks, key=None, as_type=None):
    """Field of one run setting: ``default``, then its ``(test, rule)``
    checks.  ``as_type`` replaces the parser and type checks of the
    default's type; ``key`` replaces the section prefix plus the field name."""
    parse, *type_checks = as_type or _TYPES[type(default)]
    return field(default=default, metadata={
        "key": key, "parse": parse, "checks": (*type_checks, *checks)})


def key_of(section, f):
    return f.metadata.get("key") or section._prefix + f.name


class Section:
    """Base of a frozen config dataclass whose fields are settings or
    sections.  Building one checks every setting, naming its key."""

    _prefix = ""

    def __post_init__(self):
        for f in fields(self):
            check_value(key_of(self, f), getattr(self, f.name),
                        *f.metadata.get("checks", ()))


def from_flat(section, flat):
    """``section`` with each setting that ``flat`` names (popped from it)
    parsed from text; text its type cannot parse is kept for the type
    check to reject.  Nested sections start from ``section``'s own."""
    changes = {}
    for f in fields(section):
        value, key = getattr(section, f.name), key_of(section, f)
        if isinstance(value, Section):
            changes[f.name] = from_flat(value, flat)
        elif key in flat:
            raw = flat.pop(key)
            try:
                changes[f.name] = f.metadata["parse"](raw)
            except ValueError:
                changes[f.name] = raw
    return replace(section, **changes)

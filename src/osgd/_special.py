"""The scipy.special functions osgd uses, imported on first use.

Importing scipy.special takes about 0.3 s on a 2-core Xeon, twice as
long as numpy, and adds 20-26 MB to peak RSS, yet only three paths need
it: the binary cross-entropy gradient and the sigmoid activation
(``expit``) and the float gamma path (``gammaln``).  They read the
function from this module instead of importing it, and a name's first
read imports scipy.special and binds the name here, so later reads are
plain attribute lookups.  An ``Objective`` or model reads what it needs
when it is built and ``coeffs.gamma_weights_float`` when it is called: a
run that needs scipy loads it at build time, never inside a step, and a
run that does not never loads it.
"""
from __future__ import annotations

import importlib

_NAMES = ("expit", "gammaln")


def __getattr__(name):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("scipy.special"), name)
    globals()[name] = value
    return value

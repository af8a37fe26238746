"""Known-bad fixture for RL7 (dtype discipline in precision hot modules).

Checked under a forced hot-module path (``src/repro/nn/fused.py``); every
dtype-less array factory below must fire, every pinned one must not.
"""

import numpy as np
from numpy import asarray, empty as np_empty


def sloppy(values, n):
    a = np.asarray(values)  # RL7: result dtype follows the input
    b = np.zeros(n)  # RL7: dtype left implicit
    c = np.empty((n, n))  # RL7: same
    d = asarray(values)  # RL7: from-import alias resolves too
    e = np_empty(n)  # RL7: renamed from-import alias resolves too
    return a, b, c, d, e


def disciplined(values, n, dtype):
    a = np.asarray(values, dtype=dtype)  # pinned via kwarg
    b = np.zeros(n, np.float64)  # pinned positionally
    c = np.empty((n, n), dtype=np.float32)
    d = np.asarray(values)  # repro-lint: disable=RL7 — suppression honoured
    e = np.arange(n)  # not a tracked factory
    return a, b, c, d, e

"""Comparison of parameter sets, the name -> Tensor dicts the package uses."""

import numpy as np


def same_params(a, b) -> bool:
    """True iff a and b hold the same names with equal values."""
    return set(a) == set(b) and all(np.array_equal(p.data, b[k].data) for k, p in a.items())

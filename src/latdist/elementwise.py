"""Scalar math that also takes arrays, bit-identical to the scalar results.

The planner evaluates its formulas on whole grids. numpy's log2 and log1p
do not round like math.log2 and math.log1p: numpy's log2 can differ in the
last bit (on some builds, at integers such as 1621), which moves
blocklengths and the golden hull, and its log1p can differ from build to
build, which would move the fading moments. numpy has no log-gamma, and a
port of one onto numpy's SIMD functions would round by the CPU. So every
value that reaches an output comes from these array forms, which call the
math functions once per element, as ``channel`` does for Q and its
inverse. Callers whose arguments repeat deduplicate them first:
``codec.log2_composition_count``, and ``codec.log2_comb`` through it,
keep a table per part count of the values these forms give for integer
totals below a bound, such as the lattice sizes of budget grids, and
evaluate each such total once per process; larger totals are evaluated
once per run of equal consecutive totals.

A comparison whose answer is all that leaves may use numpy outside a guard
band that bounds the rounding, and take the exact form inside it, as the
solver's refine does with the log2 it passes to ``channel._z``
(``optimizer._refine``).
"""

from __future__ import annotations

import math

import numpy as np

# Integers below this fit in int64 with room to add a count such as a
# dimension without wrapping.
_INT64_LIMIT = 2.0**62


def _per_element(fn, x):
    if isinstance(x, np.ndarray):
        values = map(fn, x.ravel().tolist())
        return np.fromiter(values, float, x.size).reshape(x.shape)
    return fn(x)


def log2(x):
    """math.log2; elementwise on an array, giving a float array."""
    return _per_element(math.log2, x)


def log1p(x):
    """math.log1p; elementwise on an array, giving a float array."""
    return _per_element(math.log1p, x)


def lgamma(x):
    """math.lgamma; elementwise on an array, giving a float array."""
    return _per_element(math.lgamma, x)


def brief(x):
    """x as an error message shows it: an array summarized to a few elements."""
    if isinstance(x, np.ndarray):
        return np.array2string(x, threshold=6, edgeitems=3, max_line_width=1000)
    return x


def to_int(x):
    """Integer-valued floats as integers.

    A scalar gives an int. An array gives an int64 array, or an object array
    of Python ints when a value reaches 2**62. NaN and infinities
    raise ValueError and OverflowError, as int() does.
    """
    if np.ndim(x) == 0:
        return int(x)
    if np.all(np.abs(x) < _INT64_LIMIT):
        return x.astype(np.int64)
    return np.array([int(v) for v in x.ravel().tolist()], dtype=object).reshape(x.shape)

import math

import numpy as np

from latdist.elementwise import lgamma


def test_lgamma_on_repeated_values_equals_math_lgamma():
    rng = np.random.default_rng(47)
    ints = rng.integers(1, 60, size=(7, 300))
    floats = rng.choice(rng.uniform(0.1, 1e6, 40), size=500)
    for x in (ints, floats, ints[:, ::-1].T):
        got = lgamma(x)
        assert got.shape == x.shape and got.dtype == float
        assert [v.hex() for v in got.ravel().tolist()] == [
            math.lgamma(v).hex() for v in x.ravel().tolist()
        ]


def test_lgamma_on_big_python_ints_equals_math_lgamma():
    values = [2**62, 2**62 + 1, 2**70, 3, 2**62, 2**100 + 7, 2**70]
    x = np.array(values, dtype=object)
    assert lgamma(x).tolist() == [math.lgamma(v) for v in values]


def test_lgamma_of_a_scalar_is_a_float():
    assert lgamma(7) == math.lgamma(7) and type(lgamma(7)) is float
    assert lgamma(np.array([], dtype=np.int64)).shape == (0,)

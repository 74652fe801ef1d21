"""geometry._dot against np.dot bit for bit, and np.dot against an exact fma
chain: the portability canary of every float dot in the package.  On a BLAS
whose ddot on a few entries is not the chain d = fma(x_i, y_i, d) these
tests fail first.  Also: the float forms of the reflection and of its
normalization against the array forms they replaced, and the replay's
numpy calls, which must not grow with its steps."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conebilliards import curve as curve_module
from conebilliards import geometry
from conebilliards.errors import DomainError, GrazingError
from conebilliards.spiral import SpiralParams

import oracles


def _bits(x: float):
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def _full(lo_exp: int, hi_exp: int):
    """Floats with all 53 bits of the significand in play, of magnitude
    2^lo_exp to 2^hi_exp."""
    return st.builds(lambda m, e: math.ldexp(m, e - 53), st.integers(-2**53, 2**53),
                     st.integers(lo_exp, hi_exp))


# ordinary and wide exponents, signed zeros, factors whose products are
# subnormal or whose split products are (below DOT_TINY), and factors at
# the split's overflow limit (2^996)
_entry = st.one_of(st.floats(-4.0, 4.0), _full(-600, 600), st.sampled_from([0.0, -0.0]),
                   _full(-545, -520), _full(-1020, -940), _full(990, 998))


@st.composite
def _pairs(draw):
    """(x, y) of one length from 2 to 8, 3 (_dot's only length) in over half,
    at times scaled down so that every product lies near the bottom of the
    normal range; half the time the last product cancels the others' fma
    chain to within a few ulps, or exactly."""
    n = draw(st.just(3) | st.integers(2, 8))
    x = [draw(_entry) for _ in range(n)]
    y = [draw(_entry) for _ in range(n)]
    if draw(st.booleans()):
        scale = draw(st.integers(-1030, -940))
        x = [math.ldexp(a, scale) for a in x]
    if draw(st.booleans()) and x[-1] != 0.0:
        try:
            head = oracles.fma_chain(x[:-1], y[:-1])
        except OverflowError:
            return x, y
        y[-1] = -head / x[-1] * (1.0 + draw(st.sampled_from([0.0, 2**-52, -2**-53, 2**-40])))
    return x, y


def _finite_dot(x, y) -> bool:
    """np.dot of the pair neither overflows nor meets inf - inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        return math.isfinite(np.dot(x, y)) and all(math.isfinite(a * b) for a, b in zip(x, y))


@given(_pairs())
@settings(max_examples=3000, deadline=None)
@example(([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]))
@example(([-0.0, 0.0, -0.0], [1.0, -1.0, 1.0]))                    # signed zeros
@example(([1e-160, -1e-160, 1e-160], [1e-160, 1e-160, 3e-160]))   # subnormal products
@example(([-1e-200, -0.0, 2.0], [1e-200, 1.0, 0.0]))              # a product rounded to -0.0
@example(([2.0**996, 3.0, 2.0**-20], [2.0**-10, 2.0**995, 2.0**990]))  # the split overflows
@example(([0.0, -1.024374879060886e-166, 1.0], [1.0, 6.378344091421343e-142, 0.0]))  # and underflows
@example(([1.0, 2.0**-30, 2.0**-60], [1.0, 2.0**-24, 2.0**-29]))  # ties of the fma rounding
@example(([1.5e300, 1e-300, -1.5e300], [1.0, 1.0, 1.0]))
def test_dot_is_np_dot_and_the_fma_chain(pair):
    x, y = pair
    if not _finite_dot(x, y):
        return
    want = float(np.dot(np.array(x), np.array(y)))
    assert _bits(oracles.fma_chain(x, y)) == _bits(want)  # the BLAS this package assumes
    if len(x) == 3:  # _dot serves R^3 only
        assert _bits(geometry._dot(x, y)) == _bits(want)


def test_dot_takes_the_split_path_on_ordinary_vectors(monkeypatch):
    # the float chain, not np.dot, serves the 3-vectors a step meets
    monkeypatch.setattr(geometry.np, "dot", None)
    rng = np.random.default_rng(28)
    for _ in range(2000):
        x, y = rng.normal(size=3).tolist(), rng.normal(size=3).tolist()
        assert _bits(geometry._dot(x, y)) == _bits(oracles.fma_chain(x, y))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_float_forms_match_array_oracles(dim):
    # the float reflection and normalization against the array forms they
    # replaced: the same bits, the same exceptions in R^3; every other
    # dimension is refused
    rng = np.random.default_rng(100 + dim)
    for _ in range(3000):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        normal = rng.normal(size=dim) * 10.0 ** rng.uniform(-8, 8)
        if rng.uniform() < 0.05:
            normal = v * rng.uniform(0.5, 2.0) + 1e-13 * rng.normal(size=dim)
        if dim != 3:
            for args in ((v.tolist(), normal.tolist()), (v, normal)):
                with pytest.raises(DomainError):
                    geometry.reflect_direction(*args)
            continue
        want = oracles.normalized_array(normal)
        assert np.array(geometry._normalized(normal.tolist())).tobytes() == np.array(want).tobytes()
        try:
            want = oracles.reflect_direction_array(v, normal).tobytes()
        except (DomainError, GrazingError) as exc:
            with pytest.raises(type(exc)):
                geometry.reflect_direction(v.tolist(), normal.tolist())
            continue
        for args in ((v.tolist(), normal.tolist()), (v, normal)):
            assert np.array(geometry.reflect_direction(*args)).tobytes() == want


def _numpy_calls(fn) -> int:
    """Calls into numpy while fn runs: C functions and methods of numpy, and
    Python functions defined in numpy's files."""
    root = np.__file__.rsplit("/", 1)[0]
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            calls += (getattr(arg, "__module__", None) or "").startswith("numpy") or isinstance(
                owner, (np.ndarray, np.generic)) or owner is np
        elif event == "call":
            calls += frame.f_code.co_filename.startswith(root)

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_replay_steps_make_no_numpy_calls(built_curve):
    # the step loop runs on floats: 200 steps call numpy no more often than 2,
    # whose calls are the start and the closed-form comparison at the end
    params = SpiralParams(a=0.0)
    curve_module.replay(built_curve, params, steps=2)  # the closed form's tables, built once
    short = _numpy_calls(lambda: curve_module.replay(built_curve, params, steps=2))
    long = _numpy_calls(lambda: curve_module.replay(built_curve, params, steps=200))
    assert 0 < long <= short

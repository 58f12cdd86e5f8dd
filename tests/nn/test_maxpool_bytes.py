"""MaxPool2D against the im2col/argmax/col2im pooling it replaced.

The reference below is the earlier ``MaxPool2D`` kernel, kept verbatim
(forward: unfold every window into a row, ``argmax`` it, gather the
winner; backward: scatter each gradient to its argmax column, then
``col2im``).  The strided-slice kernel must agree with it byte for byte,
not merely numerically: ``np.array_equal`` treats ``-0.0 == 0.0``, so
every comparison here goes through ``.tobytes()``.  Inputs are quantized
to a few levels so windows tie, and ``-0.0`` is planted in both the input
and the incoming gradient.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.layers import MaxPool2D


def reference_forward(x, k, s):
    n, c, h, w = x.shape
    oh = F.conv_out_size(h, k, s, 0)
    ow = F.conv_out_size(w, k, s, 0)
    cols = F.im2col(x.reshape(n * c, 1, h, w), k, k, s, 0)  # (N*C*OH*OW, k*k)
    arg = cols.argmax(axis=1)
    out = cols[np.arange(cols.shape[0]), arg]
    return out.reshape(n, c, oh, ow), arg


def reference_backward(grad, x_shape, arg, k, s):
    n, c, h, w = x_shape
    gflat = grad.reshape(-1)
    cols = np.zeros((gflat.shape[0], k * k), dtype=grad.dtype)
    cols[np.arange(gflat.shape[0]), arg] = gflat
    gx = F.col2im(cols, (n * c, 1, h, w), k, k, s, 0)
    return gx.reshape(n, c, h, w)


def quantized(rng, shape, dtype):
    """Values on a coarse grid (ties everywhere), with -0.0 planted."""
    a = rng.integers(-3, 4, size=shape).astype(dtype)
    a[rng.random(shape) < 0.25] = -0.0
    return a


@st.composite
def geometries(draw):
    k = draw(st.integers(1, 4))
    s = draw(st.integers(1, 5))  # s < k, s == k and s > k
    h = draw(st.integers(k, k + 3 * s + 2))  # not always a multiple of s
    w = draw(st.integers(k, k + 3 * s + 2))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    return n, c, h, w, k, s


def assert_matches_reference(x, k, s, rng):
    ref_out, arg = reference_forward(x, k, s)

    layer = MaxPool2D(k, stride=s)
    eval_out = layer.forward(x, training=False)
    assert eval_out.dtype == ref_out.dtype and eval_out.shape == ref_out.shape
    assert eval_out.tobytes() == ref_out.tobytes()

    train_out = layer.forward(x, training=True)
    assert train_out.tobytes() == ref_out.tobytes()

    grad = quantized(rng, ref_out.shape, x.dtype)
    gx = layer.backward(grad)
    ref_gx = reference_backward(grad, x.shape, arg, k, s)
    assert gx.dtype == ref_gx.dtype and gx.shape == ref_gx.shape
    assert gx.tobytes() == ref_gx.tobytes()


@given(
    geom=geometries(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_byte_identical_to_im2col_reference(geom, dtype, seed):
    n, c, h, w, k, s = geom
    rng = np.random.default_rng(seed)
    assert_matches_reference(quantized(rng, (n, c, h, w), dtype), k, s, rng)


def test_nan_windows_pool_like_argmax(rng):
    """argmax ranks NaN above every number, so a window holding NaN pools
    to NaN.  Its gradient goes to the window's last offset (the old
    kernel sent it to the first NaN): no offset compares equal to NaN."""
    for dtype in (np.float32, np.float64):
        x = quantized(rng, (2, 3, 7, 8), dtype)
        x[rng.random(x.shape) < 0.1] = np.nan
        for k, s in [(2, 2), (3, 1), (2, 3)]:
            ref_out, arg = reference_forward(x, k, s)
            layer = MaxPool2D(k, stride=s)
            assert layer.forward(x, training=True).tobytes() == ref_out.tobytes()
            assert np.isnan(ref_out).any()
            grad = quantized(rng, ref_out.shape, dtype)
            last = np.where(np.isnan(ref_out).reshape(-1), k * k - 1, arg)
            expected = reference_backward(grad, x.shape, last, k, s)
            assert layer.backward(grad).tobytes() == expected.tobytes()


def test_signed_zero_ties_follow_first_max():
    """A window of tied zeros pools to its first element's sign, and a
    routed -0.0 gradient lands as +0.0 (0.0 + -0.0), as in the reference."""
    x = np.array([[[[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, -0.0, 0.0]]]])
    grad = np.array([[[[-0.0, -0.0]]]])
    layer = MaxPool2D(2)
    out = layer.forward(x, training=True)
    assert np.signbit(out).tolist() == [[[[True, False]]]]
    gx = layer.backward(grad)
    assert not np.signbit(gx).any()
    ref_out, arg = reference_forward(x, 2, 2)
    assert out.tobytes() == ref_out.tobytes()
    assert gx.tobytes() == reference_backward(grad, x.shape, arg, 2, 2).tobytes()


@pytest.mark.parametrize("k,s,size", [(5, 1, 4), (3, 2, 2), (4, 4, 3)])
def test_kernel_larger_than_input_raises(k, s, size):
    x = np.zeros((1, 1, size, size))
    with pytest.raises(ValueError):
        MaxPool2D(k, stride=s).forward(x)
    with pytest.raises(ValueError):
        reference_forward(x, k, s)

"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

The convolution path is implemented with an explicit ``unfold`` (im2col)
primitive followed by a matrix multiplication.  This mirrors how the CIM
convolution framework of the paper maps a convolution onto crossbar arrays:
the unfolded activation columns are exactly what gets driven onto the word
lines, and the unrolled weight matrix is what gets programmed into the cells.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from .tensor import Tensor

__all__ = [
    "unfold",
    "unfold_array",
    "unfold_index",
    "fold_grad",
    "conv2d",
    "conv_output_size",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "nll_loss",
    "one_hot",
    "dropout",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


@lru_cache(maxsize=256)
def _im2col_index_cache(channels: int, height: int, width: int,
                        kh: int, kw: int, sh: int, sw: int):
    """Index arrays gathering sliding windows from a padded ``(N, C, H, W)`` input.

    The arrays depend only on the (padded) spatial geometry, not on the batch
    or the data, so they are memoised: repeated inference calls with the same
    layer geometry — the common case for the frozen inference engine — reuse
    the cached indices instead of rebuilding them every forward.  The cached
    arrays are shared; callers must treat them as read-only.
    """
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


@lru_cache(maxsize=256)
def _im2col_index_cache_nlk(channels: int, height: int, width: int,
                            kh: int, kw: int, sh: int, sw: int):
    """Transposed ``(L, K)`` variant of :func:`_im2col_index_cache`.

    Indexing a padded input with these arrays yields columns in ``(N, L, K)``
    layout directly, which is what the engine's fused GEMM consumes — saving
    the ``(N, K, L) -> (N, L, K)`` transpose-copy on the hot path.
    """
    k, i, j, out_h, out_w = _im2col_index_cache(channels, height, width, kh, kw, sh, sw)
    return (np.ascontiguousarray(k.T), np.ascontiguousarray(i.T),
            np.ascontiguousarray(j.T), out_h, out_w)


@lru_cache(maxsize=256)
def _im2col_flat_index_cache(channels: int, height: int, width: int,
                             kh: int, kw: int, sh: int, sw: int, layout: str):
    """Flat gather indices into a padded ``(N, C*H*W)`` view.

    ``x[:, k, i, j]`` (one slice + three advanced indices) makes NumPy build
    the result with the advanced subspace first and hand back a transposed,
    non-contiguous array — so the engine's follow-up ``reshape`` silently
    copied every column matrix.  A single ``np.take`` along the flattened
    ``C*H*W`` axis gathers the same elements (bit-identical: pure data
    movement) directly into a C-contiguous array in the requested layout,
    which benchmarks several times faster and makes the reshape free.
    """
    k, i, j, out_h, out_w = _im2col_index_cache(channels, height, width,
                                                kh, kw, sh, sw)
    flat = k * (height * width) + i * width + j          # (K, L)
    if layout == "nlk":
        flat = flat.T
    return np.ascontiguousarray(flat), out_h, out_w


def _im2col_indices(x_padded_shape, kernel, stride):
    """Return index arrays that gather sliding windows from a padded input."""
    _, channels, height, width = x_padded_shape
    kh, kw = kernel
    sh, sw = stride
    return _im2col_index_cache(int(channels), int(height), int(width),
                               int(kh), int(kw), int(sh), int(sw))


def unfold_index(channels: int, height: int, width: int,
                 kernel_size: IntPair, stride: IntPair = 1,
                 layout: str = "nkl") -> np.ndarray:
    """Cached flat im2col gather indices of one padded ``(C, H, W)`` sample.

    ``np.take(x.reshape(n, C * H * W), index, axis=1)`` on an already
    padded ``(N, C, H, W)`` array yields exactly the columns of
    :func:`unfold_array` (``index`` is ``(K, L)`` for ``"nkl"``, ``(L, K)``
    for ``"nlk"``).  The array is shared across callers: treat it as
    read-only.
    """
    if layout not in ("nkl", "nlk"):
        raise ValueError(f"unknown layout {layout!r}; expected 'nkl' or 'nlk'")
    kernel = _pair(kernel_size)
    stride = _pair(stride)
    return _im2col_flat_index_cache(int(channels), int(height), int(width),
                                    int(kernel[0]), int(kernel[1]),
                                    int(stride[0]), int(stride[1]), layout)[0]


def unfold_array(x: np.ndarray, kernel_size: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0, layout: str = "nkl") -> np.ndarray:
    """Pure-NumPy im2col (no autograd graph).

    Parameters
    ----------
    x:
        Input array of shape ``(N, C, H, W)``.
    kernel_size, stride, padding:
        Convolution geometry.
    layout:
        ``"nkl"`` returns ``(N, C*kh*kw, L)`` — the layout of :func:`unfold`;
        ``"nlk"`` returns ``(N, L, C*kh*kw)``, the layout consumed by the
        frozen inference engine's fused matmul.

    This is the inference fast path behind :func:`unfold`: it reuses the
    memoised gather indices and skips the backward-closure bookkeeping.
    """
    kernel = _pair(kernel_size)
    stride = _pair(stride)
    ph, pw = _pair(padding)
    x = np.asarray(x)
    if ph or pw:
        # hand-rolled constant-0 pad: ``np.pad``'s generic machinery costs
        # >100us/call in pure Python; a zeros allocation plus one interior
        # slice-assign writes the identical bytes
        n0, c0, h0, w0 = x.shape
        padded = np.zeros((n0, c0, h0 + 2 * ph, w0 + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h0, pw:pw + w0] = x
        x = padded
    n, channels, height, width = x.shape
    flat = unfold_index(channels, height, width, kernel, stride, layout)
    return np.take(x.reshape(n, channels * height * width), flat, axis=1)


def unfold(x: Tensor, kernel_size: IntPair, stride: IntPair = 1,
           padding: IntPair = 0, layout: str = "nkl") -> Tensor:
    """im2col: extract sliding local blocks.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel_size, stride, padding:
        Convolution geometry.
    layout:
        ``"nkl"`` returns ``(N, C*kh*kw, L)``, matching
        ``torch.nn.functional.unfold``; ``"nlk"`` returns ``(N, L, C*kh*kw)``,
        the layout the CIM pipeline's MAC stage consumes directly — choosing
        it here avoids a large transpose node in the autograd graph.

    Returns
    -------
    Tensor
        Columns in the requested layout, where ``L = out_h * out_w``.  The
        backward pass scatter-adds the gradient back into the input (col2im).
    """
    kernel = _pair(kernel_size)
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    ph, pw = padding

    x_padded = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    _, channels, height, width = x_padded.shape
    if layout == "nkl":
        k, i, j, out_h, out_w = _im2col_index_cache(
            channels, height, width, kernel[0], kernel[1], stride[0], stride[1])
    elif layout == "nlk":
        k, i, j, out_h, out_w = _im2col_index_cache_nlk(
            channels, height, width, kernel[0], kernel[1], stride[0], stride[1])
    else:
        raise ValueError(f"unknown layout {layout!r}; expected 'nkl' or 'nlk'")
    cols = x_padded[:, k, i, j]  # (N, K, L) or (N, L, K)

    padded_shape = x_padded.shape
    input_shape = x.shape

    def backward(grad):
        if not x.requires_grad:
            return
        grad = np.asarray(grad)
        dx_padded = np.zeros(padded_shape, dtype=grad.dtype)
        np.add.at(dx_padded, (slice(None), k, i, j), grad)
        if ph or pw:
            dx = dx_padded[:, :, ph:ph + input_shape[2], pw:pw + input_shape[3]]
        else:
            dx = dx_padded
        x._accumulate(dx)

    return Tensor._make(cols, (x,), backward)


def fold_grad(cols_grad: np.ndarray, input_shape, kernel_size: IntPair,
              stride: IntPair = 1, padding: IntPair = 0) -> np.ndarray:
    """col2im scatter-add used for testing the :func:`unfold` backward pass."""
    kernel = _pair(kernel_size)
    stride = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = input_shape
    padded_shape = (n, c, h + 2 * ph, w + 2 * pw)
    k, i, j, _, _ = _im2col_indices(padded_shape, kernel, stride)
    out = np.zeros(padded_shape, dtype=cols_grad.dtype)
    np.add.at(out, (slice(None), k, i, j), cols_grad)
    if ph or pw:
        out = out[:, :, ph:ph + h, pw:pw + w]
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0, groups: int = 1) -> Tensor:
    """2-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in // groups, kh, kw)``.
    bias:
        Optional ``(C_out,)`` bias.
    groups:
        Number of convolution groups; the CIM framework uses grouped
        convolution to evaluate all crossbar arrays of a layer in parallel.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_per_group, kh, kw = weight.shape
    if c_in != c_in_per_group * groups:
        raise ValueError(
            f"input channels ({c_in}) do not match weight ({c_in_per_group}) x groups ({groups})")
    if c_out % groups != 0:
        raise ValueError("output channels must be divisible by groups")

    out_h = conv_output_size(h, kh, stride[0], padding[0])
    out_w = conv_output_size(w, kw, stride[1], padding[1])

    cols = unfold(x, (kh, kw), stride, padding)  # (N, C_in*kh*kw, L)
    length = out_h * out_w

    if groups == 1:
        w_mat = weight.reshape(c_out, c_in_per_group * kh * kw)
        out = w_mat.matmul(cols)  # (N, C_out, L) via broadcasting
    else:
        oc_per_group = c_out // groups
        # (N, groups, C_in/g*kh*kw, L)
        cols_g = cols.reshape(n, groups, c_in_per_group * kh * kw, length)
        # (groups, oc/g, C_in/g*kh*kw)
        w_g = weight.reshape(groups, oc_per_group, c_in_per_group * kh * kw)
        out = w_g.matmul(cols_g)  # (N, groups, oc/g, L)
        out = out.reshape(n, c_out, length)

    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape ``(out, in)``."""
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Max pooling over spatial windows."""
    kernel = _pair(kernel_size)
    stride = _pair(stride if stride is not None else kernel_size)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel[0], stride[0], padding[0])
    out_w = conv_output_size(w, kernel[1], stride[1], padding[1])

    cols = unfold(x, kernel, stride, padding)  # (N, C*kh*kw, L)
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    out = cols.max(axis=2)
    return out.reshape(n, c, out_h, out_w)


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """Average pooling over spatial windows."""
    kernel = _pair(kernel_size)
    stride = _pair(stride if stride is not None else kernel_size)
    padding = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel[0], stride[0], padding[0])
    out_w = conv_output_size(w, kernel[1], stride[1], padding[1])

    cols = unfold(x, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    out = cols.mean(axis=2)
    return out.reshape(n, c, out_h, out_w)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    log_sum = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_sum


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to a one-hot float matrix ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``labels`` under ``log_probs``."""
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = log_probs.shape[-1]
    targets = Tensor(one_hot(labels, num_classes))
    picked = (log_probs * targets).sum(axis=-1)
    return -picked.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  label_smoothing: float = 0.0) -> Tensor:
    """Cross-entropy between raw ``logits`` and integer ``labels``.

    ``label_smoothing`` mixes the one-hot target with a uniform distribution,
    matching the common training recipe for small classification models.
    """
    num_classes = logits.shape[-1]
    log_probs = log_softmax(logits, axis=-1)
    target = one_hot(labels, num_classes)
    if label_smoothing > 0.0:
        target = (1.0 - label_smoothing) * target + label_smoothing / num_classes
    loss = -(log_probs * Tensor(target)).sum(axis=-1)
    return loss.mean()


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)

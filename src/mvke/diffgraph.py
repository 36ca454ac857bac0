"""Dense tensors with reverse-mode gradients.

A small numpy-backed engine. Its primitives, each one graph node with a
hand-written gradient, are ``add``, ``mul``, ``matmul``, ``affine`` (``x @ W + b``),
``transpose``, ``reshape``, ``reduce_sum``, ``reduce_mean``, ``tanh``, ``relu``,
``sigmoid``, ``softmax``, ``gather_rows``, ``gather_mix`` (rows gathered through a
shared index and mixed by weights), ``cosine_similarity`` and ``bce_loss``.
Attention is composed of them: ``attention_weights(q, k)`` is
``softmax(Q K^T / sqrt(d))``, and a caller mixes values with
``matmul(attention_weights(q, k), v)``. Plus a finite-difference gradient
checker and a line-JSON checkpoint format.

Graph nodes do not scan their outputs for NaN or infinity. Non-finite values
are caught, as ``NumericsError`` unless noted, where they enter or leave: the
``Tensor`` constructor, checkpoint decode in ``load_params`` (``DataError``), the
training loss, the gradients and parameters in the optimizer, ``grad_check``'s
loss, and the inference outputs of the model classes (see ``require_finite``).

Arithmetic follows the operands: an op computes in the dtype of its inputs
and casts its own constants to it, and a graph node is recorded only when
an input has ``requires_grad``, so a forward over non-tracking views of the
parameters (``raw_tensor``) builds no graph. The global precision
(``set_precision``, ``precision``) is read only where raw numbers become a
``Tensor``: parameter initialization and tests. The degenerate-norm count of
``cosine_similarity`` is the one other module global.

Model parameters are plain ``dict[str, Tensor]`` maps; the name is a
dot-separated path (for example ``"experts.q_proj.w"``, which stacks the
query projections of all experts along its first axis) so checkpoint I/O
and per-module updates can route by prefix.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericsError

_DTYPES = {"f32": np.float32, "f64": np.float64}

_dtype = np.float64
_degenerate_norms = 0

BCE_EPS = 1e-7
NORM_EPS = 1e-12


def set_precision(name: str) -> None:
    """Select the global float precision, ``"f32"`` or ``"f64"``."""
    global _dtype
    if name not in _DTYPES:
        raise ConfigError(f"unknown precision {name!r}, expected 'f32' or 'f64'")
    _dtype = _DTYPES[name]


@contextmanager
def precision(name: str):
    """Temporarily switch the global precision."""
    global _dtype
    prev = _dtype
    set_precision(name)
    try:
        yield
    finally:
        _dtype = prev


def degenerate_norm_count() -> int:
    """Number of cosine evaluations that hit the norm clamp so far."""
    return _degenerate_norms


def reset_degenerate_norm_count() -> None:
    global _degenerate_norms
    _degenerate_norms = 0


class Tensor:
    """A dense n-d float array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_dtype)
        if not np.all(np.isfinite(arr)):
            raise NumericsError("tensor created with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool,
              parents: tuple["Tensor", ...], grad_fn: Callable | None) -> "Tensor":
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        t.requires_grad = requires_grad
        t._parents = parents
        t._grad_fn = grad_fn
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=_dtype))


def raw_tensor(arr: np.ndarray, requires_grad: bool = False) -> Tensor:
    """Wrap an array as a leaf tensor without casting or finite checks."""
    return Tensor._wrap(arr, requires_grad, (), None)


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` itself, or NumericsError naming ``what`` if it holds NaN or infinity."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in {what}")
    return arr


def _node(arr: np.ndarray, parents: tuple[Tensor, ...], grad_fn: Callable) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor._wrap(arr, True, parents, grad_fn)
    return Tensor._wrap(arr, False, (), None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape.

    The sum over the second-to-last axis (a stacked bias ``[k, 1, q]``) is a
    ones-row matmul: numpy's own sum over a middle axis is more than 10x slower.
    """
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            if axis == grad.ndim - 2:
                grad = np.ones((1, grad.shape[axis]), dtype=grad.dtype) @ grad
            else:
                grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), grad_fn)


def _matmul_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``; an inner size of 1 makes it an outer product, taken as a broadcast multiply.

    Each entry of an outer product is a single product, so both forms give
    the same values; the multiply avoids one tiny matmul per leading index.
    """
    return x * y if x.shape[-1] == 1 else x @ y


def _matmul_grads(a: Tensor, b: Tensor, g: np.ndarray) -> tuple:
    """Gradients of ``a @ b`` with respect to the operands that require one, else None."""
    ga = (_unbroadcast(_matmul_values(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
          if a.requires_grad else None)
    gb = (_unbroadcast(_matmul_values(np.swapaxes(a.data, -1, -2), g), b.data.shape)
          if b.requires_grad else None)
    return ga, gb


def _check_matmul(op: str, a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ConfigError(f"{op} shape mismatch: {a.shape} @ {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in numpy.

    ``[n, p] @ [k, p, q] -> [k, n, q]`` applies one matrix per leading index
    of ``b`` to the same ``a``; gradients sum back over broadcast axes.
    """
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul("matmul", a, b)
    out = _matmul_values(a.data, b.data)

    def grad_fn(g):
        return _matmul_grads(a, b, g)

    return _node(out, (a, b), grad_fn)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node; ``x @ w`` broadcasts as in ``matmul``.

    ``b`` must broadcast to the shape of ``x @ w``: ``[q]`` for one ``[p, q]``
    matrix, ``[k, 1, q]`` for a stack ``[k, p, q]`` of them.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul("affine", x, w)
    out = x.data @ w.data
    try:
        out += b.data
    except ValueError as e:
        raise ConfigError(f"affine bias {b.shape} does not broadcast to {out.shape}") from e

    def grad_fn(g):
        return (*_matmul_grads(x, w, g),
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _node(out, (x, w, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    a = as_tensor(a)
    if a.ndim < 2:
        raise ConfigError(f"transpose expects at least 2 axes, got {a.shape}")

    def grad_fn(g):
        return (np.swapaxes(g, -1, -2),)

    return _node(np.swapaxes(a.data, -1, -2), (a,), grad_fn)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.data.shape),)

    return _node(out, (a,), grad_fn)


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _node(np.asarray(out), (a,), grad_fn)


def reduce_mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return _node(np.asarray(out), (a,), grad_fn)


# ---------------------------------------------------------------------------
# element-wise nonlinearities


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def grad_fn(g):
        dx = np.multiply(out, out)
        np.subtract(1.0, dx, out=dx)
        dx *= g
        return (dx,)

    return _node(out, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def grad_fn(g):
        return (g * (a.data > 0),)

    return _node(out, (a,), grad_fn)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Stable sigmoid: ``1 / (1 + e)`` where ``x >= 0``, else ``e / (1 + e)``, ``e = exp(-|x|)``."""
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    out = np.add(e, 1.0, out=np.empty_like(x))
    np.divide(e, out, out=e)
    np.divide(1.0, out, out=out)
    np.copyto(out, e, where=x < 0)
    return out


def _sigmoid_scalar(z: float) -> float:
    """``_sigmoid_values`` for one Python float."""
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid_values(a.data)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max subtraction)."""
    a = as_tensor(a)
    # the max as np.maximum over slices of the axis: numpy's reduction over a
    # short last axis is several times slower, and a max is exact in any order
    top = functools.reduce(np.maximum, np.moveaxis(a.data, axis, 0))
    e = np.exp(a.data - np.expand_dims(top, axis))
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _node(out, (a,), grad_fn)


# ---------------------------------------------------------------------------
# structured ops


def gather_rows(table: Tensor, indices) -> Tensor:
    """Lookup ``table[indices]`` along axis 0 with scatter-add gradients.

    ``table`` has at least one axis and ``indices`` any shape; the result
    has shape ``indices.shape + table.shape[1:]``. Repeated indices add
    their gradients.
    """
    table = as_tensor(table)
    if table.ndim < 1:
        raise ConfigError(f"gather_rows expects a table of rank >= 1, got {table.shape}")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DataError("gather_rows indices must be integers")
    rows = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise DataError(f"gather_rows index out of range for table with {rows} rows")
    out = np.take(table.data, idx, axis=0)

    def grad_fn(g):
        flat = idx.reshape(-1)
        g = g.reshape(len(flat), *table.data.shape[1:])
        dt = np.zeros_like(table.data)
        order, ids, starts = _sorted_runs(flat, rows)
        dt[ids] = _run_sums(np.take(g, order, axis=0), starts)
        return (dt,)

    return _node(out, (table,), grad_fn)


def _sorted_runs(flat: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, ids, starts)``: the stable order that sorts ``flat``, its distinct
    ids in increasing order, and where each id's run starts in ``flat[order]``.

    ``_run_sums(x[order], starts)`` then sums the entries of ``x`` per id.
    """
    # ids in the narrowest unsigned type that holds them sort by radix
    order = np.argsort(flat.astype(np.min_scalar_type(rows - 1)), kind="stable")
    ids = flat[order]
    first = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return order, ids[starts], starts


def _run_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of the runs of ``x`` that begin at ``starts``.

    A run of one row is its own sum; only longer runs go through
    ``np.add.reduceat``, which costs about a microsecond per run.
    """
    lengths = np.diff(starts, append=len(x))
    sums = x[starts]
    many = lengths > 1
    if many.any():
        sums[many] = np.add.reduceat(x[np.repeat(many, lengths)],
                                     np.cumsum(lengths[many]) - lengths[many], axis=0)
    return sums


def gather_mix(weights: Tensor, values: Tensor, index) -> Tensor:
    """``out[k, b] = sum_j weights[k, b, j] * values[k, index[b, j]]``: each of
    ``k`` tables ``values [k, U, e]`` mixed through one shared ``index [B, m]``
    by its own ``weights [k, B, m]``; the result has shape ``[k, B, e]``.

    One node for gathering rows and taking their weighted sum. Its gradient
    sorts ``index`` once for all ``k`` tables and sums the contributions to
    each row in one pass over the sorted runs.
    """
    weights, values = as_tensor(weights), as_tensor(values)
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DataError("gather_mix index must be integers")
    if (weights.ndim != 3 or values.ndim != 3 or idx.ndim != 2
            or weights.shape != (values.shape[0], *idx.shape)):
        raise ConfigError(f"gather_mix shape mismatch: weights {weights.shape}, "
                          f"values {values.shape}, index {idx.shape}")
    k, rows, e = values.shape
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise DataError(f"gather_mix index out of range for {rows} rows")
    picked = np.take(values.data, idx, axis=1)  # [k, B, m, e]
    out = (weights.data[:, :, None, :] @ picked)[:, :, 0]

    def grad_fn(g):
        dw = np.einsum("kbme,kbe->kbm", picked, g) if weights.requires_grad else None
        dv = None
        if values.requires_grad:
            order, ids, starts = _sorted_runs(idx.reshape(-1), rows)
            # [B*m, k, e]: each (example, column)'s weighted output gradient, in row order
            parts = np.take(np.swapaxes(g, 0, 1), order // idx.shape[1], axis=0)
            parts *= np.take(weights.data.reshape(k, -1), order, axis=1).T[:, :, None]
            dv = np.zeros_like(values.data)
            dv[:, ids] = np.swapaxes(_run_sums(parts, starts), 0, 1)
        return dw, dv

    return _node(out, (weights, values), grad_fn)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between vectors along the last axis.

    Accepts ``[..., d] x [..., d] -> [...]``; ``[d] x [d]`` gives a scalar. Norms
    below 1e-12 are clamped (and counted) so degenerate embeddings do not
    produce NaN.
    """
    global _degenerate_norms
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape or a.ndim < 1:
        raise ConfigError(f"cosine_similarity shape mismatch: {a.shape} vs {b.shape}")
    av = a.data.reshape(-1, a.shape[-1])
    bv = b.data.reshape(-1, b.shape[-1])
    dot = (av * bv).sum(axis=1)
    na = np.sqrt((av * av).sum(axis=1))
    nb = np.sqrt((bv * bv).sum(axis=1))
    if not (np.all(np.isfinite(na)) and np.all(np.isfinite(nb))):
        raise NumericsError("embedding norm overflow in cosine_similarity")
    clamped_a = na < NORM_EPS
    clamped_b = nb < NORM_EPS
    n_clamped = int(clamped_a.sum() + clamped_b.sum())
    if n_clamped:
        _degenerate_norms += n_clamped
    na_c = np.maximum(na, NORM_EPS)
    nb_c = np.maximum(nb, NORM_EPS)
    denom = na_c * nb_c
    cos = np.clip(dot / denom, -1.0, 1.0)
    out = cos.reshape(a.shape[:-1])

    def grad_fn(g):
        gv = g.reshape(-1, 1)
        cosv = (dot / denom).reshape(-1, 1)
        da = gv * (bv / denom.reshape(-1, 1))
        db = gv * (av / denom.reshape(-1, 1))
        # the norm term vanishes where the clamp is active (denominator constant)
        da -= gv * cosv * av / (na_c * na_c).reshape(-1, 1) * (~clamped_a).reshape(-1, 1)
        db -= gv * cosv * bv / (nb_c * nb_c).reshape(-1, 1) * (~clamped_b).reshape(-1, 1)
        return da.reshape(a.shape), db.reshape(b.shape)

    return _node(out, (a, b), grad_fn)


def attention_weights(q: Tensor, k: Tensor, mask: Tensor | None = None) -> Tensor:
    """``softmax(Q K^T / sqrt(d) + mask)``: ``[..., q, d] x [..., n, d] -> [..., q, n]``.

    A ``-inf`` in ``mask`` gives exactly zero weight and exactly zero gradient.
    """
    kt = transpose(k)
    scores = matmul(q, kt)
    scale = raw_tensor(np.asarray(1.0 / math.sqrt(kt.shape[-2]), dtype=scores.data.dtype))
    scores = mul(scores, scale)
    return softmax(scores if mask is None else add(scores, mask), axis=-1)


def bce_loss(p: Tensor, y) -> Tensor:
    """Binary cross-entropy of ``p`` against 0/1 labels of its shape, one node.

    The mean along the last axis, summed over any leading axis: a ``[n_tasks, B]`` input
    gives the sum of the tasks' mean losses, bit for bit the sum of one call per row.
    ``p`` is clipped to ``[BCE_EPS, 1 - BCE_EPS]``; clipped entries get a zero gradient.
    """
    p = as_tensor(p)
    yd = np.asarray(y.data if isinstance(y, Tensor) else y, dtype=p.data.dtype)
    if yd.shape != p.shape:
        raise ConfigError(f"bce_loss shape mismatch: {p.shape} vs {yd.shape}")
    if not np.all((yd == 0.0) | (yd == 1.0)):
        raise DataError("bce_loss labels must be 0 or 1")
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    out = -np.mean(yd * np.log(pc) + (1.0 - yd) * np.log(1.0 - pc), axis=-1).sum()

    def grad_fn(g):
        inside = (p.data > BCE_EPS) & (p.data < 1.0 - BCE_EPS)
        return (g * inside * (pc - yd) / (pc * (1.0 - pc) * p.shape[-1]),)

    return _node(np.asarray(out), (p,), grad_fn)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every reachable tensor that requires it.

    Gradients accumulate additively across calls until zeroed.
    """
    if not isinstance(loss, Tensor):
        raise ConfigError("backward expects a Tensor")
    if loss.size != 1:
        raise ConfigError(f"backward expects a scalar loss, got shape {loss.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    for node in reversed(topo):
        if node._grad_fn is None or node.grad is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(node.grad)):
            if pg is None or not parent.requires_grad:
                continue
            parent.grad = pg if parent.grad is None else parent.grad + pg


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.zero_grad()


# ---------------------------------------------------------------------------
# gradient checking


def _checked_loss(f: Callable[[], Tensor]) -> Tensor:
    loss = f()
    require_finite(loss.data, "the grad_check loss")
    return loss


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5, max_entries: int | None = None,
               seed: int = 0) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic closure over ``params`` returning a
    scalar loss. Returns the maximum relative error over all checked
    entries. Requires float64 parameters; ``max_entries`` subsamples large
    parameter tensors. A non-finite loss raises NumericsError.
    """
    not_f64 = sorted(name for name, t in params.items() if t.data.dtype != np.float64)
    if not_f64:
        raise ConfigError(f"grad_check requires float64 parameters, got {not_f64[:5]}")
    zero_grads(params)
    backward(_checked_loss(f))
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }
    zero_grads(params)

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        if max_entries is not None and flat.size > max_entries:
            entries = rng.choice(flat.size, size=max_entries, replace=False)
        else:
            entries = np.arange(flat.size)
        flat_analytic = analytic[name].reshape(-1)
        for i in entries:
            orig = flat[i]
            try:
                flat[i] = orig + h
                up = _checked_loss(f).item()
                flat[i] = orig - h
                down = _checked_loss(f).item()
            except NumericsError as e:
                raise NumericsError(
                    f"non-finite intermediate while checking {name!r}: {e}") from e
            finally:
                flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            ana = float(flat_analytic[i])
            rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel


# ---------------------------------------------------------------------------
# array codec, shared by checkpoints, serving caches and the ground truth:
# a dtype name ("f32" or "f64") stands for little-endian bytes of that width


def dtype_name(arr: np.ndarray) -> str:
    """Codec name of an array: ``"f32"`` for float32, ``"f64"`` otherwise."""
    return "f32" if arr.dtype == np.float32 else "f64"


def codec_dtype(name) -> np.dtype:
    """Little-endian numpy dtype for a codec name; DataError for any other name."""
    if not isinstance(name, str) or name not in _DTYPES:
        raise DataError(f"unknown dtype {name!r}, expected 'f32' or 'f64'")
    return np.dtype(_DTYPES[name]).newbyteorder("<")


def to_payload(arr: np.ndarray) -> tuple[dict, np.ndarray]:
    """(``{"shape", "dtype"}`` record, little-endian C-contiguous payload) of
    ``arr``; the payload shares ``arr``'s memory when ``arr`` already is one."""
    name = dtype_name(arr)
    return ({"shape": list(arr.shape), "dtype": name},
            np.ascontiguousarray(arr, dtype=codec_dtype(name)))


def from_payload(record: dict, payload) -> np.ndarray:
    """Little-endian view of the bytes-like ``payload`` with the record's shape.

    Raises DataError for a missing key, an unknown dtype or a payload whose
    length does not fill the shape.
    """
    try:
        code = codec_dtype(record["dtype"])
        shape = tuple(record["shape"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed array record: {e!r}") from e
    if (not all(type(n) is int and n >= 0 for n in shape)
            or len(payload) != math.prod(shape) * code.itemsize):
        raise DataError(f"{len(payload)} payload bytes do not fill shape {list(shape)} "
                        f"of {record['dtype']}")
    return np.frombuffer(payload, dtype=code).reshape(shape)


def encode_array(arr: np.ndarray) -> dict:
    """``{"shape", "dtype", "data"}`` record; ``data`` is base64 of the payload."""
    record, payload = to_payload(arr)
    return {**record, "data": base64.b64encode(payload.tobytes()).decode("ascii")}


def decode_array(record: dict) -> np.ndarray:
    """Writable native-order array from an ``encode_array`` record.

    Raises DataError for invalid base64, then as ``from_payload``.
    """
    try:
        raw = base64.b64decode(record["data"], validate=True)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed array record: {e!r}") from e
    values = from_payload(record, raw)
    return values.astype(values.dtype.newbyteorder("="))


# ---------------------------------------------------------------------------
# checkpoint I/O: one JSON object per line, name plus an array record


def save_params(params: dict[str, Tensor], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, t in params.items():
            record = {"name": name, **encode_array(t.data)}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_params(path) -> dict[str, Tensor]:
    """Parameters from ``save_params``; DataError naming the file and line.

    A parameter holding NaN or infinity is refused the same way, naming it.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    params: dict[str, Tensor] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            name = record["name"]
            if not isinstance(name, str) or name in params:
                raise DataError(f"duplicate or non-string parameter name {name!r}")
            values = decode_array(record)
            if not np.isfinite(values).all():
                raise DataError(f"parameter {name!r} holds non-finite values")
            params[name] = raw_tensor(values, requires_grad=True)
        except (KeyError, TypeError, ValueError, DataError) as e:
            raise DataError(f"{path}: malformed checkpoint line {lineno}: {e}") from e
    return params

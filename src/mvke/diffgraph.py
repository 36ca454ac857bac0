"""Dense tensors with reverse-mode gradients.

A small numpy-backed engine: just enough primitives for embedding towers,
scaled dot-product attention, cosine scoring and BCE training, plus a
finite-difference gradient checker and a line-JSON checkpoint format.

Model parameters are plain ``dict[str, Tensor]`` maps; the name is a
dot-separated path (for example ``"expert.3.q_proj.w"``) so checkpoint
I/O and per-module updates can route by prefix.
"""

from __future__ import annotations

import base64
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericsError

_DTYPES = {"f32": np.float32, "f64": np.float64}

_dtype = np.float64
_grad_enabled = True
_degenerate_norms = 0

BCE_EPS = 1e-7
NORM_EPS = 1e-12


def set_precision(name: str) -> None:
    """Select the global float precision, ``"f32"`` or ``"f64"``."""
    global _dtype
    if name not in _DTYPES:
        raise ConfigError(f"unknown precision {name!r}, expected 'f32' or 'f64'")
    _dtype = _DTYPES[name]


def precision_name() -> str:
    return "f32" if _dtype is np.float32 else "f64"


@contextmanager
def precision(name: str):
    """Temporarily switch the global precision."""
    prev = precision_name()
    set_precision(name)
    try:
        yield
    finally:
        set_precision(prev)


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward-only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


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
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=_dtype))


def raw_tensor(arr: np.ndarray, requires_grad: bool = False) -> Tensor:
    """Wrap an array as a leaf tensor without casting or finite checks."""
    return Tensor._wrap(arr, requires_grad, (), None)


def _node(arr: np.ndarray, op: str, parents: tuple[Tensor, ...],
          grad_fn: Callable) -> Tensor:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values produced by {op}")
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor._wrap(arr, True, parents, grad_fn)
    return Tensor._wrap(arr, False, (), None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, "add", (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(out, "sub", (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def grad_fn(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _node(out, "mul", (a, b), grad_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def grad_fn(g):
        return (-g,)

    return _node(-a.data, "neg", (a,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigError(f"matmul expects 2-d tensors, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ConfigError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _node(out, "matmul", (a, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ConfigError(f"transpose expects a 2-d tensor, got {a.shape}")

    def grad_fn(g):
        return (g.T,)

    return _node(a.data.T, "transpose", (a,), grad_fn)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def grad_fn(g):
        return (g.reshape(a.data.shape),)

    return _node(out, "reshape", (a,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    if not tensors:
        raise ConfigError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, "concat", tensors, grad_fn)


def reduce_sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _node(np.asarray(out), "reduce_sum", (a,), grad_fn)


def reduce_mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return _node(np.asarray(out), "reduce_mean", (a,), grad_fn)


# ---------------------------------------------------------------------------
# element-wise nonlinearities


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def grad_fn(g):
        return (g * (1.0 - out * out),)

    return _node(out, "tanh", (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def grad_fn(g):
        return (g * (a.data > 0),)

    return _node(out, "relu", (a,), grad_fn)


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid_values(a.data)

    def grad_fn(g):
        return (g * out * (1.0 - out),)

    return _node(out, "sigmoid", (a,), grad_fn)


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def grad_fn(g):
        return (g / a.data,)

    return _node(out, "log", (a,), grad_fn)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def grad_fn(g):
        return (g * inside,)

    return _node(out, "clip", (a,), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max subtraction)."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _node(out, "softmax", (a,), grad_fn)


# ---------------------------------------------------------------------------
# structured ops


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup ``table[indices]`` with scatter-add gradients.

    ``indices`` may have any shape; the result has shape
    ``indices.shape + (row_dim,)``.
    """
    table = as_tensor(table)
    if table.ndim != 2:
        raise ConfigError(f"gather_rows expects a 2-d table, got {table.shape}")
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DataError("gather_rows indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DataError(
            f"gather_rows index out of range for table with {table.shape[0]} rows")
    out = table.data[idx]

    def grad_fn(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (dt,)

    return _node(out, "gather_rows", (table,), grad_fn)


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between vectors, row-wise for 2-d inputs.

    Accepts ``[d] x [d] -> scalar`` or ``[n, d] x [n, d] -> [n]``. Norms
    below 1e-12 are clamped (and counted) so degenerate embeddings do not
    produce NaN.
    """
    global _degenerate_norms
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape or a.ndim not in (1, 2):
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

    return _node(out, "cosine_similarity", (a, b), grad_fn)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
    """Attention ``softmax(Q K^T / sqrt(d)) V`` for 2-d Q, K, V.

    Returns ``(output [q, v_dim], weights [q, n])``; the weights are a
    probability distribution per query row and are reused by the serving
    cache.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ConfigError("scaled_dot_attention expects 2-d Q, K, V")
    if q.shape[1] != k.shape[1]:
        raise ConfigError(f"query dim {q.shape[1]} != key dim {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ConfigError(f"key count {k.shape[0]} != value count {v.shape[0]}")
    scale = 1.0 / math.sqrt(k.shape[1])
    logits = mul(matmul(q, transpose(k)), scale)
    weights = softmax(logits, axis=-1)
    out = matmul(weights, v)
    return out, weights


def bce_loss(p: Tensor, y) -> Tensor:
    """Mean binary cross-entropy of probabilities ``p`` against 0/1 labels."""
    p = as_tensor(p)
    yd = np.asarray(y.data if isinstance(y, Tensor) else y, dtype=_dtype)
    if yd.shape != p.shape:
        raise ConfigError(f"bce_loss shape mismatch: {p.shape} vs {yd.shape}")
    if not np.all((yd == 0.0) | (yd == 1.0)):
        raise DataError("bce_loss labels must be 0 or 1")
    pc = clip(p, BCE_EPS, 1.0 - BCE_EPS)
    y_t = Tensor(yd)
    return neg(reduce_mean(add(mul(y_t, log(pc)),
                               mul(sub(1.0, y_t), log(sub(1.0, pc))))))


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


def grad_check(f: Callable[[], Tensor], params: dict[str, Tensor],
               h: float = 1e-5, max_entries: int | None = None,
               seed: int = 0) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic closure over ``params`` returning a
    scalar loss. Returns the maximum relative error over all checked
    entries. Requires 64-bit precision; ``max_entries`` subsamples large
    parameter tensors.
    """
    if _dtype is not np.float64:
        raise ConfigError("grad_check requires f64 precision")
    zero_grads(params)
    backward(f())
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
                with no_grad():
                    flat[i] = orig + h
                    up = float(f().data)
                    flat[i] = orig - h
                    down = float(f().data)
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


def encode_array(arr: np.ndarray) -> dict:
    """``{"shape", "dtype", "data"}`` record; ``data`` is base64 of the bytes."""
    name = dtype_name(arr)
    data = base64.b64encode(arr.astype(codec_dtype(name)).tobytes()).decode("ascii")
    return {"shape": list(arr.shape), "dtype": name, "data": data}


def decode_array(record: dict) -> np.ndarray:
    """Writable native-order array from an ``encode_array`` record.

    Raises DataError for a missing key, an unknown dtype, invalid base64 or
    a payload whose length does not fill the shape.
    """
    try:
        code = codec_dtype(record["dtype"])
        shape = tuple(record["shape"])
        raw = base64.b64decode(record["data"], validate=True)
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed array record: {e!r}") from e
    if (not all(type(n) is int and n >= 0 for n in shape)
            or len(raw) != math.prod(shape) * code.itemsize):
        raise DataError(f"{len(raw)} payload bytes do not fill shape {list(shape)} "
                        f"of {record['dtype']}")
    return np.frombuffer(raw, dtype=code).reshape(shape).astype(code.newbyteorder("="))


# ---------------------------------------------------------------------------
# checkpoint I/O: one JSON object per line, name plus an array record


def save_params(params: dict[str, Tensor], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, t in params.items():
            record = {"name": name, **encode_array(t.data)}
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_params(path) -> dict[str, Tensor]:
    """Parameters from ``save_params``; DataError naming the file and line."""
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
            params[name] = raw_tensor(decode_array(record), requires_grad=True)
        except (KeyError, TypeError, ValueError, DataError) as e:
            raise DataError(f"{path}: malformed checkpoint line {lineno}: {e}") from e
    return params

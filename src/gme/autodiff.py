"""Dense float64 tensors with taped reverse-mode differentiation.

Primitives execute eagerly on numpy arrays.  Inside a ``with Tape()`` block
every primitive application is recorded in forward order, and ``backward``
replays the records in reverse to accumulate gradients into the inputs.
Outside a tape the same primitives run without recording, which is how
inference and finite-difference probes are evaluated.

Also home to the SGD step with exponential rate decay, the finite-difference
gradient checker, glorot initialization, checkpoint round-tripping, and the
single-seed RNG derivation used across the package.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "GradientError",
    "Tensor",
    "Parameter",
    "Tape",
    "backward",
    "add",
    "sub",
    "mul",
    "matmul",
    "take_rows",
    "row_update",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "softmax",
    "dropout",
    "absolute",
    "mean",
    "SgdSchedule",
    "sgd_step",
    "grad_check",
    "glorot_uniform",
    "derive_rng",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
]


class ShapeError(ValueError):
    """Operand shapes do not conform to an op's dimension rules."""


class GradientError(RuntimeError):
    """Non-finite loss or gradient encountered while optimizing."""


_LOCAL = threading.local()  # independent tapes may run on separate threads


def _tape_stack() -> list:
    stack = getattr(_LOCAL, "tapes", None)
    if stack is None:
        stack = _LOCAL.tapes = []
    return stack


class Tensor:
    """A float64 array plus the gradient slot filled in by ``backward``."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.data.shape} is not scalar")
        return float(self.data)

    def __float__(self) -> float:
        return self.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(Tensor):
    """Trainable tensor: named, with a persistent pre-allocated gradient."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Each entry is (output, inputs, backward_fn) appended in execution order,
    so a reversed replay visits consumers before producers.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._nodes)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    stack = _tape_stack()
    if stack:
        stack[-1]._nodes.append((out, inputs, backward_fn))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(input) into every tensor recorded on the tape.

    The reversed replay visits each recorded node exactly once; nodes whose
    output never reached the loss carry no gradient and are skipped.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss of shape {loss.data.shape} is not scalar")
    loss.grad = np.ones_like(loss.data)
    for out, inputs, backward_fn in reversed(tape._nodes):
        gout = out.grad
        if gout is None:
            continue
        grads = backward_fn(gout)
        for tensor, g in zip(inputs, grads):
            if g is None:
                continue
            if tensor.grad is None:
                tensor.grad = np.zeros_like(tensor.data)
            tensor.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` after a broadcast forward."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    """Operand shapes must broadcast under numpy's rules."""
    sa, sb = a.data.shape, b.data.shape
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {sa} and {sb}") from None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("add", a, b)
    out = Tensor(a.data + b.data)
    sa, sb = a.data.shape, b.data.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("sub", a, b)
    out = Tensor(a.data - b.data)
    sa, sb = a.data.shape, b.data.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise("mul", a, b)
    out = Tensor(a.data * b.data)
    sa, sb = a.data.shape, b.data.shape

    def _bwd(g):
        return _unbroadcast(g * b.data, sa), _unbroadcast(g * a.data, sb)

    return _record(out, (a, b), _bwd)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} must be 1-D or 2-D")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(a.data @ b.data)
    da, db = a.data, b.data

    def _bwd(g):
        if da.ndim == 2 and db.ndim == 2:
            return g @ db.T, da.T @ g
        if da.ndim == 2 and db.ndim == 1:
            return np.outer(g, db), da.T @ g
        if da.ndim == 1 and db.ndim == 2:
            return db @ g, np.outer(da, g)
        return g * db, g * da

    return _record(out, (a, b), _bwd)


def take_rows(x, indices) -> Tensor:
    """Gather rows (2-D input) or entries (1-D input) by an integer index array.

    The output takes the index array's shape, so a column of indices into a
    vector gives a column.
    """
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"take_rows: input of shape {x.data.shape} is not 1-D or 2-D")
    out = Tensor(x.data[idx])
    xshape = x.data.shape

    def _bwd(g):
        gx = np.zeros(xshape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), _bwd)


def row_update(x, indices, rows) -> Tensor:
    """Functional row replacement: out = x with out[indices] = rows."""
    x, rows = _as_tensor(x), _as_tensor(rows)
    idx = np.asarray(indices, dtype=np.intp)
    if x.data.ndim != 2 or rows.data.ndim != 2:
        raise ShapeError(f"row_update: shapes {x.data.shape} and {rows.data.shape} must be 2-D")
    if rows.data.shape != (idx.size, x.data.shape[1]):
        raise ShapeError(f"row_update: rows of shape {rows.data.shape} do not fit {idx.size} slots of width {x.data.shape[1]}")
    if np.unique(idx).size != idx.size:
        raise ShapeError("row_update: duplicate row indices")
    data = x.data.copy()
    data[idx] = rows.data
    out = Tensor(data)

    def _bwd(g):
        gx = g.copy()
        gx[idx] = 0.0
        return gx, g[idx]

    return _record(out, (x, rows), _bwd)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0
    return _record(out, (x,), lambda g: (g * mask,))


def leaky_relu(x, negative_slope: float = 0.2) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.where(x.data > 0.0, x.data, negative_slope * x.data))
    scale = np.where(x.data > 0.0, 1.0, negative_slope)
    return _record(out, (x,), lambda g: (g * scale,))


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.tanh(x.data))
    y = out.data
    return _record(out, (x,), lambda g: (g * (1.0 - y * y),))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    y = np.empty_like(d)
    pos = d >= 0.0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y)
    return _record(out, (x,), lambda g: (g * y * (1.0 - y),))


def softmax(x, mask) -> Tensor:
    """Row-wise softmax of a 2-D score matrix over the entries where mask is nonzero.

    Masked-out entries get weight 0 and a row with no entries is all zeros.
    Each row is stable under a constant shift of its scores.
    """
    x = _as_tensor(x)
    keep = np.asarray(mask) != 0
    if x.data.ndim != 2 or keep.shape != x.data.shape:
        raise ShapeError(f"softmax: scores of shape {x.data.shape} need a 2-D mask of the "
                         f"same shape, got {keep.shape}")
    top = np.max(x.data, axis=1, keepdims=True, initial=-np.inf, where=keep)
    e = np.exp(np.where(keep, x.data - top, -np.inf))
    total = e.sum(axis=1, keepdims=True)
    y = np.divide(e, total, out=np.zeros_like(e), where=total > 0.0)
    out = Tensor(y)

    def _bwd(g):
        return (y * (g - (y * g).sum(axis=1, keepdims=True)),)

    return _record(out, (x,), _bwd)


def dropout(x, keep_prob: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability 1-keep and rescale.

    keep_prob == 1 is the identity and records nothing; training-mode gating
    is the caller's job.
    """
    x = _as_tensor(x)
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout: keep_prob {keep_prob} outside (0, 1]")
    if keep_prob == 1.0:
        return x
    mask = (rng.random(x.data.shape) < keep_prob) / keep_prob
    out = Tensor(x.data * mask)
    return _record(out, (x,), lambda g: (g * mask,))


def absolute(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.abs(x.data))
    s = np.sign(x.data)
    return _record(out, (x,), lambda g: (g * s,))


def mean(x) -> Tensor:
    x = _as_tensor(x)
    if x.data.size == 0:
        raise ShapeError("mean: empty input")
    out = Tensor(x.data.mean())
    shape, n = x.data.shape, x.data.size
    return _record(out, (x,), lambda g: (np.full(shape, float(g) / n),))


@dataclass(frozen=True)
class SgdSchedule:
    """Exponentially decayed learning rate: rate(s) = r0 * decay^(s // every)."""

    initial_rate: float = 0.02
    decay_factor: float = 0.96
    decay_every: int = 1

    def __post_init__(self):
        if self.initial_rate <= 0.0:
            raise ValueError(f"initial_rate {self.initial_rate} must be positive")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError(f"decay_factor {self.decay_factor} outside (0, 1]")
        if self.decay_every < 1:
            raise ValueError(f"decay_every {self.decay_every} must be a positive integer")

    def rate(self, step: int) -> float:
        return self.initial_rate * self.decay_factor ** (step // self.decay_every)


def sgd_step(params, schedule: SgdSchedule, step: int) -> float:
    """Apply one SGD update at `step` and zero the gradients. Returns the rate used.

    Refuses the whole step if any gradient is non-finite, naming the parameter.
    """
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise GradientError(f"non-finite gradient in parameter {p.name!r} at step {step}")
    rate = schedule.rate(step)
    for p in params:
        p.data -= rate * p.grad
        p.grad[...] = 0.0
    return rate


def grad_check(loss_fn, params, epsilon: float = 1e-5, floor: float = 1e-6) -> float:
    """Max relative error between taped gradients and central differences.

    `loss_fn` must be a deterministic closure returning the scalar loss
    tensor; it is re-evaluated untaped with each parameter entry perturbed by
    ±epsilon.  Relative error per entry is
    |analytic - numeric| / max(|analytic|, |numeric|, floor).
    The floor sits at the resolution of the difference quotient itself
    (loss cancellation noise is about 1e-16 * |loss| / epsilon), so
    gradients too small for central differences to measure do not raise
    false alarms; they are below anything training could act on anyway.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    backward(tape, loss)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = grads.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            hi = float(loss_fn().data)
            flat[i] = saved - epsilon
            lo = float(loss_fn().data)
            flat[i] = saved
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise GradientError(f"non-finite loss while perturbing {p.name!r}[{i}]")
            numeric = (hi - lo) / (2.0 * epsilon)
            a = aflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            if rel > worst:
                worst = rel
    for p in params:
        p.zero_grad()
    return worst


def glorot_uniform(rng: np.random.Generator, shape: tuple, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Stable per-module generator: one user seed fans out by label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


CHECKPOINT_FORMAT = "gme-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params, meta: dict | None = None) -> None:
    """Write parameters as a versioned JSON container; round-trips bitwise."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "parameters": [
            {
                "name": p.name,
                "shape": list(p.data.shape),
                "dtype": "float64",
                "data": base64.b64encode(
                    np.ascontiguousarray(p.data, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for p in params
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> float64 array, meta dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')} in {path}")
    values = {}
    for entry in doc["parameters"]:
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(entry["shape"])
        values[entry["name"]] = arr
    return values, doc.get("meta", {})

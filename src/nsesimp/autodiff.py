"""Dense float64 tensors with reverse-mode automatic differentiation.

Storage is a row-major numpy float64 array per tensor.  Operations record
nodes onto the currently active :class:`Tape` (entered as a context
manager); with no active tape they run forward-only, which is the mode
used for decoding and for finite-difference evaluation.  :func:`backward`
replays the tape once, in reverse, and accumulates gradients into the
``grad`` slot of every tensor marked ``requires_grad``.

Broadcasting is deliberately narrow: elementwise ops accept equal shapes,
a vector broadcast over the rows of a matrix, or a column broadcast over
a matrix.  Everything else is a :class:`DimensionError`, which keeps the
backward rules short enough to audit by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    InvalidCheckError,
    NumericError,
    UsageError,
)

Array = np.ndarray


class Tensor:
    """A dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would widen 0-d to (1,); ndim>0 is safe here
            # because 0-d arrays are always contiguous.
            arr = np.ascontiguousarray(arr)
        self.data: Array = arr
        self.grad: Array | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of ops; execution order is a topological order."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._prev: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = self._prev
        self._prev = None


_ACTIVE: Tape | None = None


def _emit(data: Array, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    with np.errstate(over="ignore"):
        total = data.sum()
    # the fast-path sum can overflow for huge finite values; re-check
    # element-wise before deciding
    if not np.isfinite(total) and not np.isfinite(data).all():
        raise NumericError("operation produced NaN or Inf")
    out = Tensor(data)
    if _ACTIVE is not None:
        _ACTIVE.nodes.append(_Node(out, inputs, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    Repeated calls without zeroing accumulate.  Tensors with
    ``requires_grad=False`` are skipped silently.
    """
    if loss.shape != ():
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[int, Array] = {id(loss): np.ones((), dtype=np.float64)}
    owners: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        g_out = grads.pop(id(node.out), None)
        if g_out is None:
            continue
        owners.pop(id(node.out), None)
        if node.out.requires_grad:
            _accumulate(node.out, g_out)
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None:
                continue
            k = id(t)
            if k in grads:
                grads[k] = grads[k] + g
            else:
                grads[k] = g
                owners[k] = t
    for k, g in grads.items():
        t = owners[k]
        if t.requires_grad:
            _accumulate(t, g)


def _accumulate(t: Tensor, g: Array) -> None:
    # t.grad is always a buffer of t's own (a copy or an earlier sum), so it
    # can be added to in place; g may alias other gradients, so it is copied.
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# elementwise ops


def _ew_check(a: Array, b: Array) -> None:
    if a.shape == b.shape:
        return
    for big, small in ((a, b), (b, a)):
        if big.ndim == 2 and small.ndim == 1 and big.shape[1] == small.shape[0]:
            return  # vector broadcast over matrix rows
        if (
            big.ndim == 2
            and small.ndim == 2
            and small.shape == (big.shape[0], 1)
        ):
            return  # column broadcast
    raise DimensionError(f"incompatible elementwise shapes {a.shape} and {b.shape}")


def _reduce_to(g: Array, shape: tuple[int, ...]) -> Array:
    if g.shape == shape:
        return g
    if len(shape) == 1:
        return g.sum(axis=0)
    return g.sum(axis=1, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    _ew_check(a.data, b.data)
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _reduce_to(g, ash), _reduce_to(g, bsh)

    return _emit(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _ew_check(a.data, b.data)
    ash, bsh = a.shape, b.shape

    def bw(g):
        return _reduce_to(g, ash), _reduce_to(-g, bsh)

    return _emit(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _ew_check(a.data, b.data)
    ad, bd = a.data, b.data

    def bw(g):
        return _reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)

    return _emit(ad * bd, (a, b), bw)


# ---------------------------------------------------------------------------
# matmul and friends


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise DimensionError(f"matmul {ad.shape} x {bd.shape}")

        def bw(g):
            return g @ bd.T, ad.T @ g

    elif ad.ndim == 2 and bd.ndim == 1:
        if ad.shape[1] != bd.shape[0]:
            raise DimensionError(f"matmul {ad.shape} x {bd.shape}")

        def bw(g):
            return np.outer(g, bd), ad.T @ g

    elif ad.ndim == 1 and bd.ndim == 2:
        if ad.shape[0] != bd.shape[0]:
            raise DimensionError(f"matmul {ad.shape} x {bd.shape}")

        def bw(g):
            return bd @ g, np.outer(ad, g)

    else:
        raise DimensionError(f"matmul unsupported ranks {ad.shape} x {bd.shape}")
    return _emit(ad @ bd, (a, b), bw)


def affine_rows(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Row-wise affine map: out[t] = W x[t] + b for x [T, I], W [O, I], b [O].

    One node for a whole sequence, so W's gradient is a single g^T x matmul
    instead of one outer product per row.
    """
    xd, Wd, bd = x.data, W.data, b.data
    if (
        xd.ndim != 2
        or Wd.ndim != 2
        or bd.shape != (Wd.shape[0],)
        or xd.shape[1] != Wd.shape[1]
    ):
        raise DimensionError(f"affine_rows x{xd.shape}, W{Wd.shape}, b{bd.shape}")

    def bw(g):
        return g @ Wd, g.T @ xd, g.sum(axis=0)

    return _emit(xd @ Wd.T + bd, (x, W, b), bw)


# ---------------------------------------------------------------------------
# activations and normalizers


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    e = np.exp(-np.abs(xd))
    out = np.where(xd >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        return (g * out * (1.0 - out),)

    return _emit(out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return _emit(out, (x,), bw)


def _as_rows(xd: Array) -> tuple[Array, bool]:
    if xd.ndim == 1:
        return xd[None, :], True
    if xd.ndim == 2:
        return xd, False
    raise DimensionError(f"expected vector or matrix, got shape {xd.shape}")


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction; a vector is a single row."""
    m, one_d = _as_rows(x.data)
    z = m - m.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = p[0] if one_d else p

    def bw(g):
        gm = g[None, :] if one_d else g
        dx = p * (gm - (gm * p).sum(axis=1, keepdims=True))
        return (dx[0] if one_d else dx,)

    return _emit(out, (x,), bw)


def log_softmax_rows(x: Tensor) -> Tensor:
    m, one_d = _as_rows(x.data)
    z = m - m.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out2 = z - lse
    p = np.exp(out2)
    out = out2[0] if one_d else out2

    def bw(g):
        gm = g[None, :] if one_d else g
        dx = gm - p * gm.sum(axis=1, keepdims=True)
        return (dx[0] if one_d else dx,)

    return _emit(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape surgery


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; leading dims must agree."""
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim or ad.ndim not in (1, 2):
        raise DimensionError(f"concat ranks {ad.shape} and {bd.shape}")
    if ad.ndim == 2 and ad.shape[0] != bd.shape[0]:
        raise DimensionError(f"concat leading dims {ad.shape} and {bd.shape}")
    split = ad.shape[-1]

    def bw(g):
        return g[..., :split], g[..., split:]

    return _emit(np.concatenate([ad, bd], axis=-1), (a, b), bw)


def narrow(x: Tensor, lo: int, hi: int) -> Tensor:
    """Contiguous slice of a vector."""
    xd = x.data
    if xd.ndim != 1:
        raise DimensionError("narrow expects a vector")
    if not (0 <= lo <= hi <= xd.shape[0]):
        raise DimensionError(f"narrow [{lo}:{hi}] outside length {xd.shape[0]}")

    def bw(g):
        z = np.zeros_like(xd)
        z[lo:hi] = g
        return (z,)

    return _emit(xd[lo:hi].copy(), (x,), bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape

    def bw(g):
        return (g.reshape(old),)

    return _emit(x.data.reshape(shape), (x,), bw)


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row."""
    if not vectors:
        raise UsageError("stack_rows of nothing")
    n = vectors[0].shape
    for v in vectors:
        if v.data.ndim != 1 or v.shape != n:
            raise DimensionError("stack_rows expects equal-length vectors")

    def bw(g):
        return tuple(g[i] for i in range(len(vectors)))

    return _emit(np.stack([v.data for v in vectors]), tuple(vectors), bw)


def take_rows(m: Tensor, ids) -> Tensor:
    """Gather rows of a matrix by index; duplicate ids sum their gradients."""
    md = m.data
    if md.ndim != 2:
        raise DimensionError("take_rows expects a matrix")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("take_rows expects a flat id sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= md.shape[0]):
        raise IndexError(f"row id out of range for {md.shape[0]} rows")

    def bw(g):
        z = np.zeros_like(md)
        np.add.at(z, idx, g)
        return (z,)

    return _emit(md[idx], (m,), bw)


def row(m: Tensor, i: int) -> Tensor:
    """Single row of a matrix as a vector."""
    md = m.data
    if md.ndim != 2:
        raise DimensionError("row expects a matrix")
    if not 0 <= i < md.shape[0]:
        raise IndexError(f"row {i} out of range for {md.shape[0]} rows")

    def bw(g):
        z = np.zeros_like(md)
        z[i] = g
        return (z,)

    return _emit(md[i].copy(), (m,), bw)


def gather_rows(m: Tensor, ids) -> Tensor:
    """Pick one entry per row: out[t] = m[t, ids[t]]."""
    md = m.data
    if md.ndim != 2:
        raise DimensionError("gather_rows expects a matrix")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.shape != (md.shape[0],):
        raise DimensionError("gather_rows needs one id per row")
    if idx.size and (idx.min() < 0 or idx.max() >= md.shape[1]):
        raise IndexError("column id out of range")
    rows_ix = np.arange(md.shape[0])

    def bw(g):
        z = np.zeros_like(md)
        z[rows_ix, idx] = g
        return (z,)

    return _emit(md[rows_ix, idx], (m,), bw)


def pick(x: Tensor, i: int) -> Tensor:
    """Scalar entry of a vector."""
    xd = x.data
    if xd.ndim != 1:
        raise DimensionError("pick expects a vector")
    if not 0 <= i < xd.shape[0]:
        raise IndexError(f"index {i} out of range")

    def bw(g):
        z = np.zeros_like(xd)
        z[i] = g
        return (z,)

    return _emit(np.asarray(xd[i]), (x,), bw)


# ---------------------------------------------------------------------------
# reductions and scalar algebra


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape

    def bw(g):
        return (np.full(shape, float(g)),)

    return _emit(np.asarray(x.data.sum()), (x,), bw)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        return (g * c,)

    return _emit(x.data * c, (x,), bw)


# ---------------------------------------------------------------------------
# dropout


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scale survivors by 1/(1-rate); identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    mask = keep * factor

    def bw(g):
        return (g * mask,)

    return _emit(x.data * mask, (x,), bw)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Max relative finite-difference error per checked parameter."""

    max_errors: list[float]
    names: list[str]
    tol: float
    failures: list[str] = field(default_factory=list)

    @property
    def max_error(self) -> float:
        return max(self.max_errors) if self.max_errors else 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    names: Sequence[str] | None = None,
    scale_floor: float = 1e-3,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be deterministic (fixed seeds, dropout off); this is verified
    by evaluating it twice and requiring bit-identical values.  The relative
    error divides by max(|analytic|, |numeric|, scale_floor) so that
    near-zero gradients are judged on an absolute scale.
    """
    if names is None:
        names = [f"param{i}" for i in range(len(params))]
    v1 = float(f().data)
    v2 = float(f().data)
    if v1 != v2:
        raise InvalidCheckError("function is not deterministic; cannot grad-check")

    saved = [p.grad for p in params]
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    for p, g in zip(params, saved):
        p.grad = g

    max_errors = []
    failures = []
    for p, name, a in zip(params, names, analytic):
        flat = p.data.reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = float(f().data)
            flat[j] = orig - eps
            down = float(f().data)
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            aj = float(a.reshape(-1)[j])
            denom = max(abs(aj), abs(numeric), scale_floor)
            worst = max(worst, abs(aj - numeric) / denom)
        max_errors.append(worst)
        if worst > tol:
            failures.append(name)
    return GradCheckReport(max_errors=max_errors, names=list(names), tol=tol, failures=failures)

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
backward rules short enough to audit by hand.  The products, softmaxes and
shape ops take matrices only: one sequence's state is a [1, n] row, and k
sequences step together as [k, n] rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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
    if not np.isfinite(data).all():
        raise NumericError("operation produced NaN or Inf")
    out = Tensor(data)
    if _ACTIVE is not None:
        _ACTIVE.nodes.append(_Node(out, inputs, backward_fn))
    return out


class _Outer(NamedTuple):
    """The gradient ``g.T @ x`` of a weight, kept as its two row blocks.

    ``g`` is [n, O] and ``x`` is [n, I].  A weight used at many steps of a
    recurrence gets one of these per step; :func:`backward` sums them all
    with a single matrix product instead of forming and adding a
    weight-sized product per step.
    """

    g: Array
    x: Array


class _Rows(NamedTuple):
    """The gradient of gathering rows ``idx`` of a table: ``g`` at those rows.

    :func:`backward` adds these straight into a trainable table's ``grad``,
    so an embedding gather costs no table-sized gradient array per backward.
    """

    idx: Array
    g: Array


def _resolve(parts: list, dense: Array | None, shape) -> Array:
    """Sum of the deferred parts (and of ``dense``) as a fresh array."""
    outers = [p for p in parts if type(p) is _Outer]
    if outers:
        G = np.concatenate([o.g for o in outers])
        total = G.T @ np.concatenate([o.x for o in outers])
        if dense is not None:
            total += dense
    else:
        total = np.zeros(shape) if dense is None else dense.copy()
    rows = [p for p in parts if type(p) is _Rows]
    if rows:
        # ufunc.at adds in order, so one call is bitwise one call per part
        idx = np.concatenate([p.idx for p in rows])
        np.add.at(total, idx, np.concatenate([p.g for p in rows]))
    return total


def _scatter_rows(t: Tensor, parts: list[_Rows]) -> None:
    # duplicate ids are summed first, in order, so t.grad gets one total per
    # row and repeated calls add up bitwise like separate gradients
    ids, inv = np.unique(np.concatenate([p.idx for p in parts]), return_inverse=True)
    rows = np.zeros((ids.size,) + t.shape[1:])
    np.add.at(rows, inv, np.concatenate([p.g for p in parts]))
    if t.grad is None:
        t.grad = np.zeros(t.shape)
    t.grad[ids] += rows


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    Repeated calls without zeroing accumulate.  Tensors with
    ``requires_grad=False`` are skipped silently.  A trainable weight's
    per-step outer products and a trainable table's gathered rows are
    collected during the sweep and added to its ``grad`` once, at the end.
    """
    if loss.shape != ():
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[int, Array] = {id(loss): np.ones((), dtype=np.float64)}
    deferred: dict[int, list] = {}
    owners: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        k_out = id(node.out)
        g_out = grads.pop(k_out, None)
        if k_out in deferred:
            g_out = _resolve(deferred.pop(k_out), g_out, node.out.shape)
        if g_out is None:
            continue
        owners.pop(k_out, None)
        if node.out.requires_grad:
            _accumulate(node.out, g_out)
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None:
                continue
            k = id(t)
            owners[k] = t
            if isinstance(g, (_Outer, _Rows)):
                deferred.setdefault(k, []).append(g)
            elif k in grads:
                grads[k] = grads[k] + g
            else:
                grads[k] = g
    for k, t in owners.items():
        if not t.requires_grad:
            continue
        parts = deferred.get(k)
        if parts is None:
            _accumulate(t, grads[k])
        elif k not in grads and all(type(p) is _Rows for p in parts):
            _scatter_rows(t, parts)
        else:
            _accumulate(t, _resolve(parts, grads.get(k), t.shape), owned=True)


def _accumulate(t: Tensor, g: Array, owned: bool = False) -> None:
    # t.grad is always a buffer of t's own (a copy or an earlier sum), so it
    # can be added to in place; g may alias other gradients, so it is copied
    # unless the caller made it for t alone.  Each backward adds one total
    # per tensor, so repeated calls sum bitwise like separate gradients.
    if t.grad is None:
        t.grad = g if owned else g.copy()
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
    """Matrix product of two matrices."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise DimensionError(f"matmul {ad.shape} x {bd.shape}")

    def bw(g):
        return g @ bd.T, ad.T @ g

    return _emit(ad @ bd, (a, b), bw)


def affine_rows(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """Row-wise affine map: out[t] = W x[t] + b for x [T, I], W [O, I], b [O].

    With ``b=None`` it is the plain product x Wᵀ.  A trainable W's gradient
    is kept as the row blocks (g, x), so :func:`backward` sums the uses of a
    weight at every step of a recurrence with one Gᵀ·X product.  A one-row
    x gives the same bits as the matrix-vector product ``W @ x[0]``: numpy
    hands both to the same BLAS call.
    """
    xd, Wd = x.data, W.data
    bsh = None if b is None else b.shape
    if (
        xd.ndim != 2
        or Wd.ndim != 2
        or xd.shape[1] != Wd.shape[1]
        or bsh not in (None, (Wd.shape[0],))
    ):
        raise DimensionError(f"affine_rows x{xd.shape}, W{Wd.shape}, b{bsh}")

    def bw(g):
        grads = (g @ Wd, _Outer(g, xd) if W.requires_grad else g.T @ xd)
        return grads if b is None else grads + (g.sum(axis=0),)

    if b is None:
        return _emit(xd @ Wd.T, (x, W), bw)
    return _emit(xd @ Wd.T + b.data, (x, W, b), bw)


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


def _check_matrix(op: str, xd: Array) -> None:
    if xd.ndim != 2:
        raise DimensionError(f"{op} expects a matrix, got shape {xd.shape}")


def softmax_rows(x: Tensor, mask: Array | None = None) -> Tensor:
    """Row-wise softmax of a matrix, with max-subtraction.

    With a boolean ``mask`` of x's shape, the entries where it is False get
    weight exactly 0.0 and no gradient; the others share each row's mass.
    A row with every entry masked has no softmax and raises.
    """
    m = x.data
    _check_matrix("softmax_rows", m)
    if mask is not None:
        if mask.shape != m.shape:
            raise DimensionError(f"softmax_rows mask {mask.shape} for input {m.shape}")
        if not mask.any(axis=1).all():
            raise UsageError("softmax_rows mask leaves a row with no entry")
        m = np.where(mask, m, -np.inf)
    z = m - m.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _emit(p, (x,), bw)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log-softmax of a matrix."""
    m = x.data
    _check_matrix("log_softmax_rows", m)
    z = m - m.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def bw(g):
        # the probabilities are only needed here, so tape-free decoding
        # never pays for a second V-sized exp
        return (g - np.exp(out) * g.sum(axis=1, keepdims=True),)

    return _emit(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape surgery


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Join two matrices side by side; their row counts must agree."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[0] != bd.shape[0]:
        raise DimensionError(f"concat {ad.shape} and {bd.shape}")
    split = ad.shape[1]

    def bw(g):
        return g[:, :split], g[:, split:]

    return _emit(np.concatenate([ad, bd], axis=1), (a, b), bw)


def narrow(x: Tensor, lo: int, hi: int) -> Tensor:
    """Columns ``lo:hi`` of every row of a matrix."""
    xd = x.data
    _check_matrix("narrow", xd)
    if not (0 <= lo <= hi <= xd.shape[1]):
        raise DimensionError(f"narrow [{lo}:{hi}] outside width {xd.shape[1]}")

    def bw(g):
        z = np.zeros_like(xd)
        z[:, lo:hi] = g
        return (z,)

    return _emit(xd[:, lo:hi].copy(), (x,), bw)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    old = x.shape

    def bw(g):
        return (g.reshape(old),)

    return _emit(x.data.reshape(shape), (x,), bw)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack m equal-shape [k, n] blocks into an [m·k, n] matrix, in order."""
    if not rows:
        raise UsageError("stack_rows of nothing")
    shape = rows[0].shape
    if len(shape) != 2 or any(r.shape != shape for r in rows):
        raise DimensionError("stack_rows expects equal-shape [k, n] blocks")
    k = shape[0]

    def bw(g):
        return tuple(g[i * k : (i + 1) * k] for i in range(len(rows)))

    return _emit(np.concatenate([r.data for r in rows]), tuple(rows), bw)


def take_rows(m: Tensor, ids) -> Tensor:
    """Gather rows of a matrix by index; duplicate ids sum their gradients."""
    md = m.data
    _check_matrix("take_rows", md)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("take_rows expects a flat id sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= md.shape[0]):
        raise IndexError(f"row id out of range for {md.shape[0]} rows")

    def bw(g):
        return (_Rows(idx, g),)

    return _emit(md[idx], (m,), bw)


def gather_rows(m: Tensor, ids) -> Tensor:
    """Pick one entry per row: out[t] = m[t, ids[t]]."""
    md = m.data
    _check_matrix("gather_rows", md)
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
# time-major sequences
#
# An [S·B, D] matrix holds B sequences of S steps, time-major: row t·B + b is
# step t of sequence b.  A [k, ·] matrix of queries, k a multiple of B, gives
# its row j to sequence j mod B: one row per sequence for a batch, or k rows
# that all belong to the single sequence when B = 1.  Each row meets only its
# own sequence's S steps, so the work grows linearly in B.  With B = 1 each
# product is the plain 2-D one (q mᵀ, a m), bit for bit.


def _by_sequence(xd: Array, batch: int) -> Array:
    """View [r·B, n] rows as [B, r, n], row j at (j mod B, j div B)."""
    return xd.reshape(-1, batch, xd.shape[1]).transpose(1, 0, 2)


def _rows(x3: Array) -> Array:
    """Inverse of :func:`_by_sequence`: [B, r, n] back to [r·B, n] rows."""
    return x3.transpose(1, 0, 2).reshape(-1, x3.shape[2])


def _step_outer(w: Array, x: Array, batch: int) -> Array:
    """Σ_j w[j, t] x[j] over the rows j of sequence b, at time-major row t·B + b."""
    if w.shape[0] != batch:
        wv, xv = _by_sequence(w, batch), _by_sequence(x, batch)
        return _rows(wv.transpose(0, 2, 1) @ xv)
    # one row per sequence: a plain broadcast product, written time-major
    # in place (a stack of rank-1 matmuls is several times slower)
    S, D = w.shape[1], x.shape[1]
    out = np.empty((S * batch, D))
    np.multiply(w.T[:, :, None], x, out=out.reshape(S, batch, D))
    return out


def _check_sequences(op: str, xd: Array, md: Array, batch: int, mix: bool) -> None:
    # x holds [k, D] queries, or for a mix [k, S] weights, for an [S·B, D] m
    if (
        xd.ndim == 2
        and md.ndim == 2
        and batch >= 1
        and not (xd.shape[0] % batch or md.shape[0] % batch)
        and xd.shape[1] == (md.shape[0] // batch if mix else md.shape[1])
    ):
        return
    raise DimensionError(f"{op} got {xd.shape} against {md.shape} for {batch} sequences")


def seq_scores(q: Tensor, m: Tensor, batch: int) -> Tensor:
    """out[j, t] = q[j] · m[t·B + j mod B]: each row's scores over its sequence.

    ``q`` is [k, D] and ``m`` the [S·B, D] time-major matrix of B sequences;
    the result is [k, S].
    """
    qd, md = q.data, m.data
    _check_sequences("seq_scores", qd, md, batch, mix=False)
    qv, mv = _by_sequence(qd, batch), _by_sequence(md, batch)

    def bw(g):
        gv = _by_sequence(g, batch)
        return _rows(gv @ mv), _step_outer(g, qd, batch)

    return _emit(_rows(qv @ mv.transpose(0, 2, 1)), (q, m), bw)


def seq_mix(a: Tensor, m: Tensor, batch: int) -> Tensor:
    """out[j] = Σ_t a[j, t] m[t·B + j mod B]: each row's mix of its sequence.

    ``a`` is [k, S] and ``m`` the [S·B, D] time-major matrix of B sequences;
    the result is [k, D].
    """
    ad, md = a.data, m.data
    _check_sequences("seq_mix", ad, md, batch, mix=True)
    av, mv = _by_sequence(ad, batch), _by_sequence(md, batch)

    def bw(g):
        gv = _by_sequence(g, batch)
        return _rows(gv @ mv.transpose(0, 2, 1)), _step_outer(ad, g, batch)

    return _emit(_rows(av @ mv), (a, m), bw)


def blend_rows(m: Tensor, s: Tensor, w: Tensor) -> Tensor:
    """Move every step of each time-major sequence toward its row of ``w``.

    ``m`` is [S·B, D], ``s`` is [B, S] and ``w`` is [B, D].  Row t·B + b of
    the result is m[t·B + b] + s[b, t] (w[b] - m[t·B + b]).  As one op it
    keeps a single [S·B, D] array on the tape, where sub, mul and add would
    keep three.
    """
    md, sd, wd = m.data, s.data, w.data
    if (
        md.ndim != 2
        or wd.ndim != 2
        or sd.ndim != 2
        or md.shape[1] != wd.shape[1]
        or sd.shape[0] != wd.shape[0]
        or md.shape[0] != sd.size
    ):
        raise DimensionError(f"blend_rows m{md.shape}, s{sd.shape}, w{wd.shape}")
    N, D = md.shape
    B = wd.shape[0]
    col = sd.T.reshape(-1, B, 1)
    mv = md.reshape(-1, B, D)

    def bw(g):
        gv = g.reshape(-1, B, D)
        g_col = gv * col
        return (g - g_col.reshape(N, D), (gv * (wd - mv)).sum(axis=2).T, g_col.sum(axis=0))

    return _emit((mv + col * (wd - mv)).reshape(N, D), (m, s, w), bw)


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

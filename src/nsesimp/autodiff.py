"""Dense float64 tensors with reverse-mode automatic differentiation.

Storage is a row-major numpy float64 array per tensor.  Operations record
nodes onto the currently active :class:`Tape` (entered as a context
manager); with no active tape they run forward-only, which is the mode
used for decoding and for finite-difference evaluation.  :func:`backward`
replays the tape once, in reverse, and accumulates gradients into the
``grad`` slot of every tensor marked ``requires_grad``.

Every op is a whole layer step with a backward rule written out by hand:
the row-wise affine map, tanh, the softmaxes, the fused LSTM cell, the
masked cross-entropy loss :func:`xent_rows`, row and column surgery, the
per-sequence attention products and dropout.  There is no elementwise
binary op and so no broadcasting rule: each op takes the shapes its
docstring names, and any other is a :class:`DimensionError`.  The products,
softmaxes, the loss and the shape ops take matrices only: one sequence's
state is a [1, n] row, and k sequences step together as [k, n] rows.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError

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
    """Ordered record of ops; execution order is a topological order.

    :func:`backward` empties it, so one tape serves one backward.
    """

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

    :func:`backward` adds every gather's rows, in order, into the table's
    summed gradient with one ``np.add.at`` (see :func:`_resolve`).
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


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    The sweep consumes the tape: each node is taken off ``tape.nodes`` when
    the sweep reaches it, so the activations its backward saved are freed
    as it goes, and a second call on the same tape is a :class:`UsageError`.
    Calls on fresh tapes without zeroing accumulate.  Tensors with
    ``requires_grad=False`` are skipped silently.  One pending entry per
    tensor, keyed by its id, holds the tensor, the sum of its dense
    gradients so far and its deferred parts (a weight's per-step outer
    products, a table's gathered rows).  A tensor made by an op takes its
    entry's total when the sweep reaches its node; what is left at the end
    are leaves, and a trainable one gets its total added to its ``grad``.
    """
    if loss.shape != ():
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not tape.nodes:
        raise UsageError("backward needs a tape with recorded ops; each backward empties its tape")
    # id(tensor) -> [tensor, dense sum or None, deferred parts]
    pending: dict[int, list] = {id(loss): [loss, np.ones(()), []]}
    while tape.nodes:
        node = tape.nodes.pop()
        entry = pending.pop(id(node.out), None)
        if entry is None:
            continue
        _, dense, parts = entry
        g_out = _resolve(parts, dense, node.out.shape) if parts else dense
        if node.out.requires_grad:
            _accumulate(node.out, g_out)
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None:
                continue
            entry = pending.setdefault(id(t), [t, None, []])
            if isinstance(g, (_Outer, _Rows)):
                entry[2].append(g)
            else:
                entry[1] = g if entry[1] is None else entry[1] + g
    for t, dense, parts in pending.values():
        if not t.requires_grad:
            continue
        if parts:
            _accumulate(t, _resolve(parts, dense, t.shape), owned=True)
        else:
            _accumulate(t, dense)


def _accumulate(t: Tensor, g: Array, owned: bool = False) -> None:
    # t.grad is always a buffer of t's own (a copy or an earlier sum), so it
    # can be added to in place; g may alias other gradients, so it is copied
    # unless the caller made it for t alone.  Each backward adds one total
    # per tensor, so calls over fresh tapes sum bitwise like separate gradients.
    if t.grad is None:
        t.grad = g if owned else g.copy()
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# products


def affine_rows(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """Row-wise affine map: out[t] = W x[t] + b for x [T, I], W [O, I], b [O].

    With ``b=None`` it is the plain product x Wᵀ.  W's gradient is kept as
    the row blocks (g, x), so :func:`backward` sums the uses of a weight at
    every step of a recurrence with one Gᵀ·X product.  A one-row x gives
    the same bits as the matrix-vector product ``W @ x[0]``: numpy hands
    both to the same BLAS call.
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
        grads = (g @ Wd, _Outer(g, xd))
        return grads if b is None else grads + (g.sum(axis=0),)

    if b is None:
        return _emit(xd @ Wd.T, (x, W), bw)
    return _emit(xd @ Wd.T + b.data, (x, W, b), bw)


# ---------------------------------------------------------------------------
# activations and normalizers


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


def _shift_rows(m: Array) -> tuple[Array, Array, Array]:
    """(z, top, lse): each row less its max ``top``, and log Σ exp z per row, as columns."""
    top = m.max(axis=1, keepdims=True)
    z = m - top
    return z, top, np.log(np.exp(z).sum(axis=1, keepdims=True))


def log_softmax_rows(x: Tensor) -> Tensor:
    """Row-wise log-softmax of a matrix."""
    m = x.data
    _check_matrix("log_softmax_rows", m)
    out, _, lse = _shift_rows(m)
    out -= lse

    def bw(g):
        # the probabilities are only needed here, so tape-free decoding
        # never pays for a second V-sized exp
        return (g - np.exp(out) * g.sum(axis=1, keepdims=True),)

    return _emit(out, (x,), bw)


def xent_rows(logits: Tensor, ids, mask: Array) -> Tensor:
    """Masked mean negative log-likelihood: -Σ_r mask[r] log softmax(logits[r])[ids[r]] / Σ mask.

    ``mask`` holds a 0/1 weight per row and selects at least one row.  The
    tape keeps only each row's max and log-sum-exp; the backward forms
    softmax·(-s), s = -mask / Σ mask, in one [N, V] buffer and then sets
    each row's target entry.  The loss, and its gradient under a positive
    upstream gradient such as backward's root, round as log_softmax_rows
    followed by a one-per-row gather, a product with the mask, a sum and a
    scale would round them, bit for bit.
    """
    m = logits.data
    _check_matrix("xent_rows", m)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.shape != (m.shape[0],) or mask.shape != idx.shape:
        raise DimensionError(f"xent_rows logits {m.shape}, ids {idx.shape}, mask {mask.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= m.shape[1]):
        raise IndexError(f"target id out of range for {m.shape[1]} classes")
    rows = np.arange(m.shape[0])
    z, top, lse = _shift_rows(m)
    picked = z[rows, idx] - lse[:, 0]
    c = -1.0 / mask.sum()

    def bw(g):
        s = (g * c) * mask
        p = m - top
        p -= lse
        np.exp(p, out=p)
        at = p[rows, idx]
        p *= -s[:, None]
        # the unfused rule's target entry is s - softmax·(row sum), where the
        # row sum of s's scatter is s + 0.0: +0.0, not -0.0, at a padding row
        p[rows, idx] = s - at * (s + 0.0)
        return (p,)

    return _emit(np.asarray((picked * mask).sum() * c), (logits,), bw)


# ---------------------------------------------------------------------------
# the LSTM cell


def lstm_cell(wx: Tensor, h_prev: Tensor, c_prev: Tensor, W_h: Tensor, b: Tensor) -> Tensor:
    """One LSTM transition of k rows as a single op; returns [h | c], [k, 2H].

    ``wx`` is the [k, 4H] input projection W_x x, ``h_prev`` and ``c_prev``
    the [k, H] states, ``W_h`` [4H, H] and ``b`` [4H].  The gate sum
    (wx + h_prev W_hᵀ) + b holds the blocks i, f, g, o, and
    c = σ(f) c_prev + σ(i) tanh(g), h = σ(o) tanh(c).  Every value is
    rounded as separate sum, sigmoid (from exp(-|z|)), tanh and product ops
    would round it, in the same order, so [h | c] is theirs bit for bit.
    The tape keeps the gates, tanh(c) and the output.  The backward is
    written out by hand and rounds as those ops' rules do, so the gradients
    are theirs bit for bit too; W_h's gradient is kept as row blocks, as in
    :func:`affine_rows`.
    """
    wxd, hd, cd, Wd, bd = wx.data, h_prev.data, c_prev.data, W_h.data, b.data
    if not (
        hd.ndim == 2
        and cd.shape == hd.shape
        and wxd.shape == (hd.shape[0], 4 * hd.shape[1])
        and Wd.shape == (4 * hd.shape[1], hd.shape[1])
        and bd.shape == (4 * hd.shape[1],)
    ):
        raise DimensionError(
            f"lstm_cell wx{wxd.shape}, h{hd.shape}, c{cd.shape}, W_h{Wd.shape}, b{bd.shape}"
        )
    H = hd.shape[1]
    z = wxd + hd @ Wd.T
    z += bd
    if not np.isfinite(z).all():
        raise NumericError("operation produced NaN or Inf")
    # sigmoid as 1/(1+e) where z >= 0 and e/(1+e) elsewhere, e = exp(-|z|),
    # in one buffer: e <= 1, so max(e, [z >= 0]) is the numerator.  The cell
    # candidate block is tanh instead.
    gates = np.abs(z)
    np.negative(gates, out=gates)
    np.exp(gates, out=gates)
    denom = 1.0 + gates
    np.maximum(gates, z >= 0, out=gates)
    gates /= denom
    gates[:, 2 * H : 3 * H] = np.tanh(z[:, 2 * H : 3 * H])
    i, f, g, o = (gates[:, j * H : (j + 1) * H] for j in range(4))
    c = f * cd + i * g
    tc = np.tanh(c)

    def bw(grad):
        gh = grad[:, :H]
        dc = grad[:, H:] + gh * o * (1.0 - tc * tc)
        dz = np.concatenate((dc * g, dc * cd, dc * i, gh * tc), axis=1)
        # through each activation as the per-op rules round it: (u σ)(1 - σ)
        # for a sigmoid block and u (1 - g²) for the tanh block
        slope = gates.copy()
        slope[:, 2 * H : 3 * H] = 1.0
        dz *= slope
        np.subtract(1.0, gates, out=slope)
        slope[:, 2 * H : 3 * H] = 1.0 - g * g
        dz *= slope
        return (
            dz,
            dz @ Wd,
            dc * f,
            _Outer(dz, hd),
            dz.sum(axis=0),
        )

    return _emit(np.concatenate((o * tc, c), axis=1), (wx, h_prev, c_prev, W_h, b), bw)


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


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: scale survivors by 1/(1-rate).

    A rate of 0 returns ``x`` itself and records nothing; a positive rate
    draws its mask from ``rng``, which must then be given.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return x
    if rng is None:
        raise UsageError(f"dropout at rate {rate} needs a generator")
    keep = rng.random(x.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    mask = keep * factor

    def bw(g):
        return (g * mask,)

    return _emit(x.data * mask, (x,), bw)

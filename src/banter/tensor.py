"""Dense float64 tensors with a reverse-mode gradient tape.

Everything the model computes flows through the small op set in this module.
Each op validates its inputs, checks the result for NaN/Inf, and registers an
adjoint rule on the active :class:`Tape` so that :func:`backward` can
accumulate gradients in exact reverse execution order.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """A forward operation produced a NaN or Inf value."""


# serial numbers for Tensor.key: unlike id(), never reused once a tensor is
# freed
_SERIAL = itertools.count()


class Tensor:
    """A dense array of float64 values with an optional gradient buffer.

    ``data`` is always a C-contiguous float64 ndarray. ``grad`` is ``None``
    until the first accumulation, then an ndarray of ``data``'s shape.
    Scalars are shape-() tensors. ``requires_grad`` marks a leaf that asks
    for its gradient, never an op output. ``key`` is a serial number no
    other tensor of the process gets; the tape names tensors by it.
    """

    __slots__ = ("data", "grad", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        # asarray with order="C" keeps 0-d shapes; ascontiguousarray would
        # promote scalars to shape (1,)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.key = next(_SERIAL)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(())[()])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a rule may return a 0-d adjoint as a numpy scalar
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


class _Node:
    """One executed op: its name, its output's key, its parents' keys and
    its adjoint rule.

    A parent that needs no gradient has key ``None``. A node holds no
    tensor, so an op output lives only as long as some rule keeps its array.
    """

    __slots__ = ("op", "out_key", "parent_keys", "backward_fn")

    def __init__(self, op, out_key, parent_keys, backward_fn):
        self.op = op
        self.out_key = out_key
        self.parent_keys = parent_keys
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed ops, replayed in reverse by backward().

    Use as a context manager around a forward pass::

        with Tape():
            loss = ...
            backward(loss)

    A tape keeps what its nodes' rules read, not the op outputs, so a
    forward pass holds the sum of the arrays its rules saved, plus the
    shapes of the tensors its nodes made and the leaves that need a
    gradient. Discarding a tape never touches parameter values.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        # the shape of every tensor this tape's nodes made, by key
        self._shapes: dict[int, tuple[int, ...]] = {}
        # every leaf that needs a gradient (a parent that no node of this
        # tape made, such as a parameter or a graph input), by key
        self._leaves: dict[int, Tensor] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = None


_ACTIVE: Tape | None = None  # the one tape that records ops


def active_tape() -> Tape | None:
    return _ACTIVE


def _check_finite(op: str, values: np.ndarray) -> None:
    """Raise a NumericError naming ``op`` if ``values`` holds a NaN or Inf."""
    if not np.isfinite(values).all():
        raise NumericError(f"{op}: non-finite output")


def _needs(parents: Sequence[Tensor]) -> tuple[bool, ...] | None:
    """Per parent, whether an op's node differentiates it: a leaf that asks
    for its gradient, or an output the active tape recorded. None when the
    op records no node: no tape is active, or no parent needs a gradient."""
    tape = active_tape()
    if tape is None:
        return None
    shapes = tape._shapes
    needs = tuple([p.requires_grad or p.key in shapes for p in parents])
    return needs if True in needs else None


def _finish(op: str, outputs: Sequence[Tensor], parents: Sequence[Tensor],
            backward_fn: Callable) -> None:
    """Check the output, then record the node if ``_needs`` asks for one.

    Every op has exactly one output, passed as a one-element list, and
    ``backward_fn`` gets its adjoint as one, because perfbench plants a
    ``lambda gs: ...`` rule and tests call ``backward_fn([g])``. The rule
    must close over the arrays, shapes and flags it reads, never over a
    Tensor, so the tape keeps no activation that no rule reads. A
    non-finite output raises a NumericError naming the op.
    """
    (out,) = outputs
    _check_finite(op, out.data)
    needs = _needs(parents)
    if needs is None:
        return
    tape = active_tape()
    tape._leaves.update([(p.key, p) for p in parents if p.requires_grad])
    tape._shapes[out.key] = out.data.shape
    parent_keys = tuple([p.key if need else None
                         for p, need in zip(parents, needs)])
    tape._nodes.append(_Node(op, out.key, parent_keys, backward_fn))


class _Outer(NamedTuple):
    """A weight adjoint ``rows.T @ cols`` handed to ``backward`` unformed.

    A weight used m times gets m of these; ``backward`` forms their sum as
    one product of the stacked factors instead of m products.
    """

    rows: np.ndarray  # (m, d): the adjoint of the layer's output
    cols: np.ndarray  # (m, k): the layer's input


def _take_adjoint(key: int, adjoints: dict, outers: dict) -> np.ndarray | None:
    """Pop a tensor's adjoint: its dense sum plus its stacked outer terms."""
    g = adjoints.pop(key, None)
    terms = outers.pop(key, None)
    if terms:
        rows = np.concatenate([t.rows for t in terms])
        cols = np.concatenate([t.cols for t in terms])
        product = rows.T @ cols
        g = product if g is None else g + product
    return g


def backward(loss: Tensor) -> None:
    """Accumulate adjoints of ``loss`` into every reachable requires_grad leaf.

    Traverses the active tape in exact reverse execution order. Only leaves
    (parameters and graph inputs) receive a ``.grad``; op outputs keep
    ``None``, so their adjoints are freed as soon as their node has run.
    Outer-product terms (``_Outer``) a tensor receives are kept in reverse
    execution order and summed as one product just before the tensor's own
    node runs, or, for a leaf, after the last node. A tensor's second and
    later dense adjoints are summed into a fresh array each time, so no
    array a rule returned is ever written. A rule's adjoint whose
    shape is not its parent's raises ``ShapeError`` naming the op. Repeated
    calls accumulate until ``.grad`` is set back to ``None``.
    """
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward() requires an active Tape context")
    if loss.shape != ():
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")

    shapes, leaves = tape._shapes, tape._leaves
    adjoints: dict[int, np.ndarray] = {loss.key: np.ones((), dtype=np.float64)}
    outers: dict[int, list[_Outer]] = {}

    for node in reversed(tape._nodes):
        g = _take_adjoint(node.out_key, adjoints, outers)
        if g is None:
            continue
        parent_grads = node.backward_fn([g])
        for key, pg in zip(node.parent_keys, parent_grads):
            if pg is None or key is None:
                continue
            outer = isinstance(pg, _Outer)
            got = (pg.rows.shape[1], pg.cols.shape[1]) if outer else pg.shape
            shape = shapes[key] if key in shapes else leaves[key].data.shape
            if got != shape:
                raise ShapeError(f"backward of {node.op}: adjoint of shape "
                                 f"{got} for a parent of shape {shape}")
            if outer:
                outers.setdefault(key, []).append(pg)
            elif key in adjoints:
                # a rule may hand one array to several parents, so a sum
                # goes into a fresh array, never into one a rule returned
                adjoints[key] = np.add(adjoints[key], pg, dtype=np.float64)
            else:
                adjoints[key] = pg

    # whatever is left belongs to leaves, or to a loss no node made
    for key in dict.fromkeys([*adjoints, *outers]):
        leaves.get(key, loss).accumulate_grad(
            _take_adjoint(key, adjoints, outers))


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    _finish("add", [out], [a, b], lambda gs: (gs[0], gs[0]))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    a_data, b_data = a.data, b.data
    out = Tensor(a_data * b_data)

    def bwd(gs):
        return gs[0] * b_data, gs[0] * a_data

    _finish("mul", [out], [a, b], bwd)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (no gradient flows to the constant)."""
    c = float(c)
    out = Tensor(a.data * c)
    _finish("scale", [out], [a], lambda gs: (gs[0] * c,))
    return out


# ---------------------------------------------------------------------------
# linear algebra


def concat(xs: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; the adjoint splits back into the inputs."""
    if len(xs) == 0:
        raise ValueError("concat of an empty list")
    ndim = xs[0].data.ndim
    for x in xs[1:]:
        if x.data.ndim != ndim:
            raise ShapeError("concat: mixed ranks")
        for ax in range(ndim):
            if ax != axis % ndim and x.shape[ax] != xs[0].shape[ax]:
                raise ShapeError(
                    f"concat: non-concat dim {ax} differs: {x.shape} vs {xs[0].shape}")
    out = Tensor(np.concatenate([x.data for x in xs], axis=axis))
    offsets = np.cumsum([x.shape[axis % ndim] for x in xs])[:-1]

    def bwd(gs):
        return tuple(np.split(gs[0], offsets, axis=axis))

    _finish("concat", [out], list(xs), bwd)
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.sum(a.data))
    shape = a.shape
    _finish("sum_all", [out], [a], lambda gs: (np.full(shape, gs[0]),))
    return out


def sum_axis(a: Tensor, axis: int) -> Tensor:
    """Sum over one axis, which the result drops."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"sum_axis: no axis {axis} in shape {a.shape}")
    axis %= a.data.ndim
    out = Tensor(a.data.sum(axis=axis))
    shape = a.shape

    def bwd(gs):
        return (np.broadcast_to(np.expand_dims(gs[0], axis), shape),)

    _finish("sum_axis", [out], [a], bwd)
    return out


def _rowwise_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` with every row computed as its own matrix-vector product.

    A GEMM over all rows lets BLAS choose its blocking, and with it the
    summation order inside a row, from the row count: with OpenBLAS a row
    of ``x @ w.T`` can change in its last bits when rows are appended. Here
    row i comes out the same for any number of rows.
    """
    return np.matmul(x[:, None, :], w.T)[:, 0]


def _affine(op: str, x: Tensor, w: Tensor, b: Tensor, product,
            rectify: bool = False) -> Tensor:
    """``product(x.data, w.data) + b`` as one tape node named ``op``, and
    with ``rectify`` its ReLU too.

    ``_finish`` checks the affine output; only then does the ReLU run, in
    the same buffer. So the output is checked once, and a -inf that the
    ReLU would turn into 0 still raises a NumericError naming the op. The
    rule reads its mask off the rectified output, an array the op's
    consumers usually keep anyway.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(f"{op}: bad operand ranks {x.shape}, "
                         f"{w.shape}, {b.shape}")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ShapeError(f"{op}: {x.shape} rows through {w.shape} "
                         f"+ {b.shape}")
    x_data, w_data, needs = x.data, w.data, _needs([x, w, b])
    # an overflow is reported below as this op's NumericError, not first
    # as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        y = product(x_data, w_data)
        y += b.data
    rectified = y if rectify else None
    out = Tensor(y)
    rows = x.shape[0]
    d, k = w.shape
    # stacking copies both factors and holds them until the weight's
    # adjoint is formed; it pays only while the copy costs less than adding
    # the d x k product, a copied value pricing like four additions
    stack = 4 * rows * (d + k) < d * k

    def bwd(gs):
        g = gs[0] if rectified is None else gs[0] * (rectified > 0.0)
        dx = g @ w_data if needs[0] else None
        dw = _Outer(g, x_data) if stack else g.T @ x_data
        return dx, dw, g.sum(axis=0)

    _finish(op, [out], [x, w, b], bwd)
    if rectify:
        np.maximum(y, 0.0, out=y)
    return out


def affine_relu_rows(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``relu`` of one affine map applied to every row: max((m, k) @ (d,
    k).T + (d,), 0), as one tape node.

    One GEMM, so a row's bits may depend on how many rows there are; fine
    for rows that all belong to one utterance. Rows that are dialog
    positions go through ``affine_rowwise``.
    """
    return _affine("affine_relu_rows", x, w, b, lambda xd, wd: xd @ wd.T,
                   rectify=True)


def affine_rowwise(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One affine map applied to every row, (m, k) @ (d, k).T + (d,),
    computed one row at a time.

    Row i is bit for bit the same however many rows follow it, so a dialog
    prefix scores its positions exactly as the whole dialog does. The
    backward pass still forms the weight gradient as one GEMM.
    """
    return _affine("affine_rowwise", x, w, b, _rowwise_product)


# ---------------------------------------------------------------------------
# activations and related pointwise ops


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    # the mask is formed only for a node that will be recorded
    mask = a.data > 0.0 if _needs([a]) else None

    def bwd(gs):
        return (gs[0] * mask,)

    _finish("relu", [out], [a], bwd)
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y)

    def bwd(gs):
        return (gs[0] * (1.0 - y * y),)

    _finish("tanh", [out], [a], bwd)
    return out


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, stable in both tails: exp only sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Tensor) -> Tensor:
    y = _stable_sigmoid(a.data)
    out = Tensor(y)

    def bwd(gs):
        return (gs[0] * y * (1.0 - y),)

    _finish("sigmoid", [out], [a], bwd)
    return out


# ---------------------------------------------------------------------------
# model-specific ops


def exp_shifted(a: Tensor, shift: np.ndarray) -> Tensor:
    """``exp(a - shift)`` for a constant ``shift`` of ``a``'s shape or of
    its last axis.

    No gradient flows to ``shift``. A composite whose value does not depend
    on the shift, as a softmax's does not, still gets its exact gradient.
    """
    shift = np.asarray(shift, dtype=np.float64)
    if shift.shape not in (a.shape, a.shape[-1:]):
        raise ShapeError(f"exp_shifted: shift of shape {shift.shape} for "
                         f"shape {a.shape}")
    y = np.subtract(a.data, shift)
    np.exp(y, out=y)
    out = Tensor(y)
    _finish("exp_shifted", [out], [a], lambda gs: (gs[0] * y,))
    return out


def _window_factors(shift: np.ndarray, size: int) -> list[np.ndarray] | None:
    """Per window offset j, the (m, d) factors exp(shift[k + j] - peak[k]),
    where peak[k] is the largest shift in window k; None for a (d,) shift,
    whose factors are all 1."""
    if shift.ndim == 1:
        return None
    m = shift.shape[0] - size + 1
    peak = shift[:m].copy()
    for j in range(1, size):
        np.maximum(peak, shift[j:j + m], out=peak)
    return [np.exp(shift[j:j + m] - peak) for j in range(size)]


def _window_sums(x: np.ndarray, size: int,
                 factors: list[np.ndarray] | None) -> np.ndarray:
    """The (n - size + 1, d) window sums of an (n, d) matrix: row k is
    ``sum_j f[k, j] x[k + j]`` over j = 0 .. size - 1, with f[k, j] =
    ``factors[j][k]``, or 1 when ``factors`` is None.

    The terms are added in order of j into a fresh buffer, so every pass
    that sums the same matrix gets the same bits.
    """
    m = x.shape[0] - size + 1
    if factors is not None:
        total = factors[0] * x[:m]
        for j in range(1, size):
            total += factors[j] * x[j:j + m]
        return total
    if size == 1:
        return x[:m].copy()
    total = np.add(x[:m], x[1:1 + m])
    for j in range(2, size):
        total += x[j:j + m]
    return total


def window_ratio(num: Tensor, den: Tensor, size: int,
                 shift: np.ndarray) -> Tensor:
    """Ratio of the window sums of two (n, d) matrices, per column.

    Window k holds rows k .. k + size - 1. Row k of the (n - size + 1, d)
    result is ``sum_j f[k, j] num[k + j] / sum_j f[k, j] den[k + j]``,
    where ``shift`` is the constant a caller took off before exponentiating
    (``den = exp(x - shift)``) and f[k, j] = exp(shift[k + j] - peak[k])
    puts window k's rows back on the scale of its largest shift. A (d,)
    shift is one scale for every row: every f is 1, so both sums are
    ``size`` shifted adds, in the backward pass too, with no factor
    formed. An (n, d) shift should be the values themselves, as
    ``hier_attend`` uses it: an f that underflows then stands for a
    weight below exp(-745). No gradient flows to ``shift``. Both passes
    take the window sums from ``_window_sums``; the rule keeps the result
    and ``den``'s array, not the denominators, and sums them again.
    """
    _same_shape("window_ratio", num, den)
    if num.data.ndim != 2:
        raise ShapeError(f"window_ratio expects matrices, got shape "
                         f"{num.shape}")
    n, d = num.shape
    if not 1 <= size <= n:
        raise ShapeError(f"window_ratio: window of {size} over {n} rows")
    shift = np.asarray(shift, dtype=np.float64)
    if shift.shape not in ((d,), (n, d)):
        raise ShapeError(f"window_ratio: shift of shape {shift.shape} for "
                         f"shape {num.shape}")
    m = n - size + 1
    factors = _window_factors(shift, size)
    den_data = den.data
    ratio = _window_sums(num.data, size, factors)
    np.divide(ratio, _window_sums(den_data, size, factors), out=ratio)
    out = Tensor(ratio)

    def bwd(gs):
        # d ratio[k] / d num[k + j] = f[k, j] / bottom[k], and
        # d ratio[k] / d den[k + j] = -f[k, j] ratio[k] / bottom[k]
        a = _window_sums(den_data, size, factors)
        np.divide(gs[0], a, out=a)
        b = a * ratio
        fa = [a] * size if factors is None else [f * a for f in factors]
        fb = [b] * size if factors is None else [f * b for f in factors]
        # slice 0 is written, not added to a zero fill; 0.0 + a and
        # 0.0 - b give a zero the sign that adding to the fill would
        d_num = np.empty((n, d))
        d_den = np.empty((n, d))
        np.add(0.0, fa[0], out=d_num[:m])
        np.subtract(0.0, fb[0], out=d_den[:m])
        d_num[m:] = 0.0
        d_den[m:] = 0.0
        for j in range(1, size):
            d_num[j:j + m] += fa[j]
            d_den[j:j + m] -= fb[j]
        return d_num, d_den

    _finish("window_ratio", [out], [num, den], bwd)
    return out


def window_weights(e: np.ndarray, size: int,
                   shift: np.ndarray) -> np.ndarray:
    """The (n - size + 1, k * size, d) weights of a (k, n, d) stack ``e``
    of k blocks, or (n - size + 1, size, d) for one (n, d) block: slot
    b * size + j of window k weighs block b's row k + j by f[k, j]
    e[b, k + j] over the window's sum over every block, as
    ``window_ratio(mul(e, x), e, size, shift)`` weighs the rows of x. A
    window's weights sum to 1 per column.
    """
    blocks = np.reshape(e, (-1,) + e.shape[-2:])
    m = e.shape[-2] - size + 1
    factors = _window_factors(shift, size)
    rows = np.stack([blocks[:, j:j + m] if factors is None
                     else factors[j] * blocks[:, j:j + m]
                     for j in range(size)], axis=2)
    rows = rows.transpose(1, 0, 2, 3).reshape(m, -1, e.shape[-1])
    return rows / rows.sum(axis=1, keepdims=True)


def lstm_sequence(x: Tensor, w: Sequence[Tensor], u: Sequence[Tensor],
                  b: Sequence[Tensor]) -> Tensor:
    """Forget-gate LSTM over the rows of ``x`` from a zero state.

    ``x`` is (n, d_in); ``w``, ``u`` and ``b`` hold the (h, d_in) input
    weights, (h, h) recurrent weights and (h,) biases of the gates in the
    order input, forget, cell, output. Row t of the (n, h) result is

        z_k = W_k x_t + U_k h_{t-1} + b_k
        c_t = sigmoid(z_f) * c_{t-1} + sigmoid(z_i) * tanh(z_g)
        h_t = sigmoid(z_o) * tanh(c_t)

    so it sees rows 0..t of ``x`` only. The whole sequence is one tape
    node. The forward pass stacks the four gates and walks the steps in
    numpy; the input projections of all steps are computed up front, but
    one row at a time (``_rowwise_product``), unlike ``affine_relu_rows``:
    rows here are dialog positions, and a dialog prefix must give its
    positions the same bits as the whole dialog. The backward pass stacks
    the gates again, runs backpropagation through time in numpy, then forms
    each weight gradient as one GEMM over all steps.
    """
    if len(w) != 4 or len(u) != 4 or len(b) != 4:
        raise ShapeError("lstm_sequence: needs w, u and b for 4 gates")
    if x.data.ndim != 2 or x.shape[0] < 1:
        raise ShapeError(f"lstm_sequence: expects a non-empty (n, d_in) "
                         f"matrix, got shape {x.shape}")
    if w[0].data.ndim != 2:
        raise ShapeError(f"lstm_sequence: input weights {w[0].shape}")
    hd = w[0].shape[0]
    for k in range(4):
        if w[k].shape != (hd, x.shape[1]):
            raise ShapeError(f"lstm_sequence: input shape {x.shape} through "
                             f"gate weights {w[k].shape}")
        if u[k].shape != (hd, hd) or b[k].shape != (hd,):
            raise ShapeError(f"lstm_sequence: recurrence {u[k].shape} or "
                             f"bias {b[k].shape} does not fit width {hd}")
    x_data, needs = x.data, _needs([x, *w, *u, *b])
    # the rule keeps the gate arrays, which the parameters hold anyway, not
    # the stacked copies
    w_data = [t.data for t in w]
    u_data = [t.data for t in u]
    w_all = np.concatenate(w_data)
    u_all = np.concatenate(u_data)
    b_all = np.concatenate([t.data for t in b])
    n = x.shape[0]
    projected = _rowwise_product(x_data, w_all)
    # per step: sigmoid(z_i), sigmoid(z_f), tanh(z_g), sigmoid(z_o)
    acts = np.empty((n, 4 * hd))
    cells = np.empty((n, hd))
    tanh_cells = np.empty((n, hd))
    hiddens = np.empty((n, hd))
    cell_gate = slice(2 * hd, 3 * hd)
    h = np.zeros(hd)
    c = np.zeros(hd)
    for t in range(n):
        z = (projected[t] + u_all @ h) + b_all
        a = _stable_sigmoid(z)
        a[cell_gate] = np.tanh(z[cell_gate])
        i, f, g, o = a[:hd], a[hd:2 * hd], a[cell_gate], a[3 * hd:]
        c = f * c + i * g
        tanh_cells[t] = np.tanh(c)
        h = o * tanh_cells[t]
        acts[t], cells[t], hiddens[t] = a, c, h
    out = Tensor(hiddens)

    def bwd(gs):
        d_hiddens = gs[0]
        u_stack = np.concatenate(u_data)
        i, f, g, o = (acts[:, k * hd:(k + 1) * hd] for k in range(4))
        c_prev = np.vstack([np.zeros((1, hd)), cells[:-1]])
        # dz = dL/dc (i, f, g blocks) or dL/dh (o block) times these
        factors = np.hstack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                             i * (1.0 - g * g),
                             tanh_cells * o * (1.0 - o)])
        h_to_c = o * (1.0 - tanh_cells * tanh_cells)
        d_z = np.empty((n, 4 * hd))
        dh_next = np.zeros(hd)
        dc_next = np.zeros(hd)
        for t in range(n - 1, -1, -1):
            dh = d_hiddens[t] + dh_next
            dc = dh * h_to_c[t] + dc_next
            blocks = d_z[t].reshape(4, hd)
            blocks[:3] = dc
            blocks[3] = dh
            d_z[t] *= factors[t]
            dc_next = dc * f[t]
            dh_next = d_z[t] @ u_stack
        dx = d_z @ np.concatenate(w_data) if needs[0] else None
        dw = d_z.T @ x_data
        du = d_z[1:].T @ hiddens[:-1]
        db = d_z.sum(axis=0)
        gates = [slice(k * hd, (k + 1) * hd) for k in range(4)]
        return (dx, *(dw[s] for s in gates), *(du[s] for s in gates),
                *(db[s] for s in gates))

    _finish("lstm_sequence", [out], [x, *w, *u, *b], bwd)
    return out


def dropout(a: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: kept units are scaled by 1/(1-rate) during training.

    Eval mode is the exact identity (returns the input tensor itself).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training:
        return a
    if rate == 0.0:
        return a
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep) / keep

    def bwd(gs):
        return (gs[0] * mask,)

    out = Tensor(a.data * mask)
    _finish("dropout", [out], [a], bwd)
    return out


BCE_EPS = 1e-7


def conv_relu_mean(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """The acoustic encoder as one tape node: the mean over frames of the
    ReLU of a 1D convolution over time, zero-padded to the input length.

    ``x`` is (frames, in_channels), ``kernels`` is (out_channels, width,
    in_channels) with odd width, ``bias`` is (out_channels,); the result
    is (1, out_channels). As in ``_affine``, the convolution is checked
    before the ReLU rectifies it in place, so a -inf the ReLU would hide
    still raises a NumericError naming the op. The rule keeps the padded
    frames and the ReLU's boolean mask, not the rectified matrix.
    """
    op = "conv_relu_mean"
    if x.data.ndim != 2 or kernels.data.ndim != 3 or bias.data.ndim != 1:
        raise ShapeError(f"{op}: bad operand ranks")
    frames, c_in = x.shape
    c_out, width, k_in = kernels.shape
    if k_in != c_in:
        raise ShapeError(f"{op}: {c_in} input channels vs kernel {k_in}")
    if bias.shape[0] != c_out:
        raise ShapeError(f"{op}: bias/kernel channel mismatch")
    if width % 2 == 0:
        raise ShapeError(f"{op}: kernel width must be odd")
    pad = width // 2
    padded = np.zeros((frames + width - 1, c_in))
    padded[pad:pad + frames] = x.data
    k_data, needs = kernels.data, _needs([x, kernels, bias])
    # an overflow is reported as this op's NumericError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = np.tile(bias.data, (frames, 1))
        for tap in range(width):
            result += padded[tap:tap + frames] @ k_data[:, tap, :].T
        _check_finite(op, result)
        # the mask is formed only for a node that will be recorded
        mask = result > 0.0 if needs else None
        np.maximum(result, 0.0, out=result)
        out = Tensor(result.mean(axis=0, keepdims=True))

    def bwd(gs):
        g = np.tile(gs[0] / frames, (frames, 1)) * mask
        d_kernels = np.zeros_like(k_data)
        for tap in range(width):
            d_kernels[:, tap, :] = g.T @ padded[tap:tap + frames]
        dx = None
        if needs[0]:
            d_padded = np.zeros_like(padded)
            for tap in range(width):
                d_padded[tap:tap + frames] += g @ k_data[:, tap, :]
            dx = d_padded[pad:pad + frames]
        return dx, d_kernels, g.sum(axis=0)

    _finish(op, [out], [x, kernels, bias], bwd)
    return out


def bce_loss(p: Tensor, y) -> Tensor:
    """Binary cross-entropy -[y ln p + (1-y) ln(1-p)], summed over ``p``.

    ``y`` holds one 0/1 label per entry of ``p``; a one-entry ``p`` also
    takes a bare label. Each ``p`` is clamped to [BCE_EPS, 1-BCE_EPS] so the
    loss stays finite; the gradient is zero where the clamp is active.
    """
    labels = np.asarray(y)
    if labels.size != p.data.size:
        raise ShapeError(f"bce_loss: {labels.size} labels for probabilities "
                         f"of shape {p.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"bce_loss labels must be 0 or 1, got {y!r}")
    labels = labels.reshape(p.shape).astype(np.float64)
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    losses = -(labels * np.log(pc) + (1.0 - labels) * np.log(1.0 - pc))
    out = Tensor(losses.sum())
    inside = (p.data >= BCE_EPS) & (p.data <= 1.0 - BCE_EPS)

    def bwd(gs):
        dp = (pc - labels) / (pc * (1.0 - pc))
        return (np.where(inside, gs[0] * dp, 0.0),)

    _finish("bce_loss", [out], [p], bwd)
    return out

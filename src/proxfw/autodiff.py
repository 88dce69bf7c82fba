"""Tape-based reverse-mode differentiation over a flat parameter vector.

A :class:`Tape` records a small numpy program once and replays it at
arbitrary parameter values: ``forward`` evaluates the program and caches
every intermediate, ``backward`` runs a single reverse sweep that visits
each node exactly once, and ``jvp`` propagates forward tangents for
directional derivatives. Graphs are built through :class:`Ref` handles,
which overload the usual arithmetic operators, so model code reads like
plain numpy.

A program can also be recorded once and run on many inputs. ``input()``
records a slot in place of the input array; ``replay(X)`` returns a new
tape that shares the recorded nodes (one list copy, no rebuild) with the
slot bound to ``X``. Nodes appended to the replay, such as a loss head,
stay off the recorded program.

Every node records whether its value depends on a parameter. Sweeps skip
the rest: ``backward`` computes no adjoint into a node that depends on
no parameter (the input matrix of a first layer, say), and ``jvp``
carries no zero tangents through such nodes. Parameter gradients and
output tangents are computed by the same operations as a full sweep.
Each relu's derivative mask is computed once per forward cache, from
the relu's own output (``out > 0`` exactly when ``in > 0``, NaN and -0.0
included), and shared by every later ``backward`` and ``jvp`` at that
point.

A forward writes an add, sub or relu result into its operand ``a``'s
buffer when that operand is a matmul, add or sub node with no other
consumer and the result has the operand's shape. No rule reads the value
of such a node, only its shape, so the sweeps are unchanged and a wide
layer keeps one buffer instead of three. The writes are decided as nodes
are recorded; a later node that consumes the operand, such as a head
appended to a replay, cancels the write. Parameter views, constants, the
input and reshape views are never written.

Supported primitives: parameter views, constants, input slots, add, sub,
mul, neg, matmul, relu, exp, log, max (last-axis reduction), rowsum,
total, select (index / per-row gather) and reshape. Piecewise-linear
primitives use a fixed subgradient convention: max routes its adjoint to
the lowest-index maximizer and relu uses derivative 0 at 0, so backward
passes are deterministic even at kinks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape", "Ref", "forward_eval", "backward_grad", "fd_gradient_oracle"]


def _unbroadcast(grad, shape):
    # sum an upstream adjoint down to `shape`, undoing numpy broadcasting
    if grad.shape == shape:
        return grad
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ops that may write into their first operand, and the ops whose values
# they may overwrite: no rule reads a matmul, add or sub value, only its shape
_WRITERS = frozenset(("add", "sub", "relu"))
_OVERWRITABLE = frozenset(("matmul", "add", "sub"))


def _as_value(v):
    # every node value is float64: an array unless a reduction or an op on
    # 0-d operands returned a numpy scalar
    return v if type(v) is np.ndarray else np.asarray(v, dtype=float)


class _Node:
    # live: the node's value depends on at least one parameter
    __slots__ = ("op", "a", "b", "payload", "live")

    def __init__(self, op, a, b, payload, live):
        self.op = op
        self.a = a
        self.b = b
        self.payload = payload
        self.live = live


class Ref:
    """Handle to one tape node. Operators append new nodes to the tape."""

    __slots__ = ("tape", "index")

    def __init__(self, tape, index):
        self.tape = tape
        self.index = index

    def _lift(self, other):
        if isinstance(other, Ref):
            if other.tape is not self.tape:
                raise ValueError("cannot combine nodes from different tapes")
            return other
        return self.tape.constant(other)

    def __add__(self, other):
        return self.tape._push("add", self, self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.tape._push("sub", self, self._lift(other))

    def __rsub__(self, other):
        return self.tape._push("sub", self._lift(other), self)

    def __mul__(self, other):
        return self.tape._push("mul", self, self._lift(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self.tape._push("matmul", self, self._lift(other))

    def __neg__(self):
        return self.tape._push("neg", self)

    def relu(self):
        return self.tape._push("relu", self)

    def exp(self):
        return self.tape._push("exp", self)

    def log(self):
        return self.tape._push("log", self)

    def max(self):
        """Reduce over the last axis; ties resolve to the lowest index."""
        return self.tape._push("max", self)

    def rowsum(self):
        return self.tape._push("rowsum", self)

    def total(self):
        return self.tape._push("total", self)

    def select(self, index):
        """Pick one entry (1-D input) or one column per row (2-D input)."""
        return self.tape._push("select", self, payload=np.asarray(index, dtype=int))

    def reshape(self, shape):
        return self.tape._push("reshape", self, payload=tuple(shape))


class Tape:
    """A recorded computation over a parameter vector of fixed length.

    Nodes are stored in construction order, which is a topological order
    by construction, so forward and reverse sweeps each visit every node
    exactly once. The output is the most recently appended node.
    ``bound_input`` is the array that input nodes read: None on a
    recorded program, the replayed ``X`` on a replay.
    """

    def __init__(self, num_params: int):
        if num_params < 0:
            raise ValueError("num_params must be nonnegative")
        self.num_params = int(num_params)
        self.nodes: list[_Node] = []
        self.bound_input = None
        self._values = None
        self._w = None
        self._relu_masks = {}
        self.last_backward_visits = 0
        # _reader: node -> its only consumer, or -1 once a second one reads
        # it; _in_place: the nodes whose forward writes into operand a
        self._reader: dict[int, int] = {}
        self._in_place: set[int] = set()

    def __len__(self):
        return len(self.nodes)

    def _push(self, op, a=None, b=None, payload=None) -> Ref:
        nodes = self.nodes
        ia = a.index if a is not None else -1
        ib = b.index if b is not None else -1
        live = op == "param" or (ia >= 0 and nodes[ia].live) or (ib >= 0 and nodes[ib].live)
        n = len(nodes)
        reader = self._reader
        for k in (ia, ib):
            if k >= 0 and reader.setdefault(k, n) != n:
                # a second consumer reads k, so no earlier node may overwrite it
                self._in_place.discard(reader[k])
                reader[k] = -1
        if op in _WRITERS and ia != ib and reader[ia] == n and nodes[ia].op in _OVERWRITABLE:
            self._in_place.add(n)
        nodes.append(_Node(op, ia, ib, payload, live))
        self._values = None
        return Ref(self, n)

    def param(self, start: int, shape=()) -> Ref:
        """View of the parameter slots ``[start, start + prod(shape))``."""
        shape = tuple(int(s) for s in shape)
        size = int(np.prod(shape)) if shape else 1
        if start < 0 or start + size > self.num_params:
            raise ValueError(
                f"parameter view [{start}, {start + size}) falls outside a "
                f"vector of length {self.num_params}"
            )
        return self._push("param", payload=(int(start), shape, size))

    def constant(self, value) -> Ref:
        return self._push("const", payload=np.asarray(value, dtype=float))

    def input(self) -> Ref:
        """The slot for the input array that each :meth:`replay` binds."""
        return self._push("input")

    def replay(self, X) -> Tape:
        """A new tape running this tape's program with its input bound to ``X``.

        The new tape shares the recorded nodes, so it costs one list copy;
        nodes appended to it stay off this tape.
        """
        tape = Tape(self.num_params)
        tape.nodes = self.nodes.copy()
        tape._reader = self._reader.copy()
        tape._in_place = self._in_place.copy()
        tape.bound_input = np.asarray(X, dtype=float)
        return tape

    @property
    def output(self) -> Ref:
        if not self.nodes:
            raise ValueError("tape is empty")
        return Ref(self, len(self.nodes) - 1)

    # ------------------------------------------------------------------

    def forward(self, w):
        """Evaluate the recorded program at ``w`` and cache intermediates."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.num_params,):
            raise ValueError(
                f"tape expects a parameter vector of length {self.num_params}, "
                f"got shape {w.shape}"
            )
        vals = []
        in_place = self._in_place
        for i, node in enumerate(self.nodes):
            op = node.op
            if op == "param":
                start, shape, size = node.payload
                v = w[start : start + size].reshape(shape)
            elif op == "const":
                v = node.payload
            elif op == "input":
                v = self.bound_input
                if v is None:
                    raise ValueError("the input slot is unbound; run the program through replay")
            elif op == "add" or op == "sub":
                va, vb = vals[node.a], vals[node.b]
                ufunc = np.add if op == "add" else np.subtract
                # in place only when broadcasting leaves va's shape unchanged
                if i in in_place and vb.shape == va.shape[va.ndim - vb.ndim :]:
                    v = ufunc(va, vb, out=va)
                else:
                    v = ufunc(va, vb)
            elif op == "mul":
                v = vals[node.a] * vals[node.b]
            elif op == "neg":
                v = -vals[node.a]
            elif op == "matmul":
                v = vals[node.a] @ vals[node.b]
            elif op == "relu":
                va = vals[node.a]
                v = np.maximum(va, 0.0, out=va) if i in in_place else np.maximum(va, 0.0)
            elif op == "exp":
                v = np.exp(vals[node.a])
            elif op == "log":
                v = np.log(vals[node.a])
            elif op == "max":
                v = np.max(vals[node.a], axis=-1)
            elif op == "rowsum":
                v = np.sum(vals[node.a], axis=-1)
            elif op == "total":
                v = np.sum(vals[node.a])
            elif op == "select":
                va = vals[node.a]
                if va.ndim <= 1:
                    v = va[int(node.payload)]
                else:
                    v = va[np.arange(va.shape[0]), node.payload]
            elif op == "reshape":
                v = vals[node.a].reshape(node.payload)
            else:  # pragma: no cover
                raise ValueError(f"unknown op {op!r}")
            vals.append(_as_value(v))
        self._values = vals
        self._relu_masks = {}
        self._w = w.copy()
        return vals[-1] if vals else np.float64(0.0)

    def backward(self, seed=None, at: Ref | None = None):
        """Reverse sweep; returns the gradient w.r.t. the parameter vector.

        ``seed`` is the adjoint of the node ``at`` (default: the output).
        With no seed the output must be scalar and the seed is 1. Requires
        a cached ``forward``; each call visits every node exactly once and
        records the count in ``last_backward_visits``. No adjoint is
        computed for a node that depends on no parameter.
        """
        if self._values is None:
            raise ValueError("run forward before backward")
        vals = self._values
        nodes = self.nodes
        out_index = at.index if at is not None else len(nodes) - 1
        out_val = vals[out_index]
        if seed is None:
            if out_val.size != 1:
                raise ValueError("default backward seed requires a scalar output")
            seed = np.ones_like(out_val)
        else:
            seed = np.asarray(seed, dtype=float)
            if seed.shape != out_val.shape:
                raise ValueError(
                    f"seed shape {seed.shape} does not match output shape {out_val.shape}"
                )
        adj: list = [None] * len(nodes)
        if nodes[out_index].live:
            adj[out_index] = seed
        grad = np.zeros(self.num_params)

        def acc(j, g):
            # never updated in place, so the first write may alias g
            adj[j] = g if adj[j] is None else adj[j] + g

        # only live nodes receive adjoints, and a live unary node has a live
        # operand, so only the binary ops check their operands
        for i in range(len(nodes) - 1, -1, -1):
            g = adj[i]
            if g is None:
                continue
            node = nodes[i]
            op = node.op
            if op == "param":
                start, _shape, size = node.payload
                grad[start : start + size] += g.ravel()
            elif op == "add":
                if nodes[node.a].live:
                    acc(node.a, _unbroadcast(g, vals[node.a].shape))
                if nodes[node.b].live:
                    acc(node.b, _unbroadcast(g, vals[node.b].shape))
            elif op == "sub":
                if nodes[node.a].live:
                    acc(node.a, _unbroadcast(g, vals[node.a].shape))
                if nodes[node.b].live:
                    acc(node.b, -_unbroadcast(g, vals[node.b].shape))
            elif op == "mul":
                if nodes[node.a].live:
                    acc(node.a, _unbroadcast(g * vals[node.b], vals[node.a].shape))
                if nodes[node.b].live:
                    acc(node.b, _unbroadcast(g * vals[node.a], vals[node.b].shape))
            elif op == "neg":
                acc(node.a, -g)
            elif op == "matmul":
                va, vb = vals[node.a], vals[node.b]
                if nodes[node.a].live:
                    if vb.ndim == 1:
                        acc(node.a, np.outer(g, vb) if va.ndim == 2 else g * vb)
                    else:
                        acc(node.a, g @ vb.T if va.ndim == 2 else vb @ g)
                if nodes[node.b].live:
                    if va.ndim == 2:
                        acc(node.b, va.T @ g)
                    else:
                        acc(node.b, np.outer(va, g) if vb.ndim == 2 else g * va)
            elif op == "relu":
                acc(node.a, g * self._relu_mask(i))
            elif op == "exp":
                acc(node.a, g * vals[i])
            elif op == "log":
                acc(node.a, g / vals[node.a])
            elif op == "max":
                va = vals[node.a]
                if va.ndim == 0:
                    ga = np.asarray(g, dtype=float)
                else:
                    ga = np.zeros_like(va)
                    if va.ndim == 1:
                        ga[int(np.argmax(va))] = g
                    else:
                        ga[np.arange(va.shape[0]), np.argmax(va, axis=-1)] = g
                acc(node.a, ga)
            elif op == "rowsum":
                va = vals[node.a]
                acc(node.a, np.broadcast_to(np.expand_dims(g, -1), va.shape))
            elif op == "total":
                acc(node.a, np.broadcast_to(g, vals[node.a].shape))
            elif op == "select":
                va = vals[node.a]
                ga = np.zeros_like(va)
                if va.ndim <= 1:
                    ga[int(node.payload)] = g
                else:
                    ga[np.arange(va.shape[0]), node.payload] = g
                acc(node.a, ga)
            elif op == "reshape":
                acc(node.a, np.asarray(g).reshape(vals[node.a].shape))
        self.last_backward_visits = len(nodes)
        return grad

    def jvp(self, w, dw):
        """Forward-mode sweep. Returns ``(value, tangent)`` of the output.

        The tangent is the directional derivative of the recorded program
        at ``w`` along ``dw``; at max/relu kinks the same lowest-index and
        inactive-at-0 conventions as ``backward`` apply. Primal values
        come from the forward cache, which is refreshed only when it does
        not hold ``w``, so repeated calls at one point propagate tangents
        alone. Nodes that depend on no parameter carry no tangent (None)
        rather than zeros.
        """
        w = np.asarray(w, dtype=float)
        dw = np.asarray(dw, dtype=float)
        if w.shape != (self.num_params,) or dw.shape != (self.num_params,):
            raise ValueError("jvp expects w and dw of length num_params")
        if not self.nodes:
            z = np.float64(0.0)
            return z, z
        vals = self._values_at(w)
        tans: list = []
        for i, node in enumerate(self.nodes):
            if not node.live:
                tans.append(None)
                continue
            op = node.op
            ta = tans[node.a] if node.a >= 0 else None
            tb = tans[node.b] if node.b >= 0 else None
            if op == "param":
                start, shape, size = node.payload
                t = dw[start : start + size].reshape(shape)
            elif op in ("add", "sub"):
                if tb is None:
                    t = ta
                elif ta is None:
                    t = tb if op == "add" else -tb
                else:
                    t = ta + tb if op == "add" else ta - tb
                if t.shape != vals[i].shape:  # a broadcast operand was constant
                    t = np.broadcast_to(t, vals[i].shape)
            elif op in ("mul", "matmul"):
                product = np.multiply if op == "mul" else np.matmul
                if tb is None:
                    t = product(ta, vals[node.b])
                elif ta is None:
                    t = product(vals[node.a], tb)
                else:
                    t = product(ta, vals[node.b]) + product(vals[node.a], tb)
            elif op == "neg":
                t = -ta
            elif op == "relu":
                t = ta * self._relu_mask(i)
            elif op == "exp":
                t = ta * vals[i]
            elif op == "log":
                t = ta / vals[node.a]
            elif op == "max":
                va = vals[node.a]
                if va.ndim <= 1:
                    t = ta[..., int(np.argmax(va))]
                else:
                    t = ta[np.arange(va.shape[0]), np.argmax(va, axis=-1)]
            elif op == "rowsum":
                t = np.sum(ta, axis=-1)
            elif op == "total":
                t = np.sum(ta)
            elif op == "select":
                if vals[node.a].ndim <= 1:
                    t = ta[int(node.payload)]
                else:
                    t = ta[np.arange(ta.shape[0]), node.payload]
            elif op == "reshape":
                t = ta.reshape(node.payload)
            else:  # pragma: no cover
                raise ValueError(f"unknown op {op!r}")
            tans.append(_as_value(t))
        out = tans[-1]
        return vals[-1], np.zeros_like(vals[-1]) if out is None else out

    def _values_at(self, w):
        # the forward cache at the float vector ``w``, recomputed only when it
        # holds another point
        cached = self._w
        if self._values is None or cached.shape != w.shape or not (cached == w).all():
            self.forward(w)
        return self._values

    def _relu_mask(self, i):
        # derivative of relu node i at the cached point, computed once per
        # forward from its output, as its input may have been overwritten
        mask = self._relu_masks.get(i)
        if mask is None:
            mask = self._relu_masks[i] = self._values[i] > 0.0
        return mask


def forward_eval(tape: Tape, w):
    """Evaluate the function recorded on ``tape`` at ``w``."""
    return tape.forward(w)


def backward_grad(tape: Tape, w):
    """Gradient of the tape's scalar output at ``w``.

    Reuses the forward cache when it matches ``w``, otherwise re-runs the
    forward pass first. Rejects tapes whose output is not a scalar.
    """
    if tape._values_at(np.asarray(w, dtype=float))[-1].size != 1:
        raise ValueError("backward_grad needs a scalar output; add a scalar head first")
    return tape.backward()


def fd_gradient_oracle(function, w, epsilon: float = 1e-5):
    """Central-difference gradient of ``function`` at ``w``.

    Slow (two function calls per coordinate) and accurate to roughly
    ``epsilon**2`` away from kinks; meant as an independent check on
    :func:`backward_grad`, never for training.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    w = np.asarray(w, dtype=float)
    grad = np.zeros_like(w)
    for i in range(w.size):
        step = np.zeros_like(w)
        step[i] = epsilon
        grad[i] = (float(function(w + step)) - float(function(w - step))) / (2.0 * epsilon)
    return grad

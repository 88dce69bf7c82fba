"""Tape-based reverse-mode differentiation over a flat parameter vector.

A :class:`Tape` records a small numpy program once and replays it at
arbitrary parameter values: ``forward`` evaluates the program and caches
every intermediate, ``backward`` runs a single reverse sweep that visits
each node exactly once, and ``jvp`` propagates forward tangents for
directional derivatives. Graphs are built through :class:`Ref` handles,
which overload the usual arithmetic operators, so model code reads like
plain numpy.

Supported primitives: parameter views, constants, add, sub, mul, neg,
matmul, relu, exp, log, max (last-axis reduction), rowsum, total, select
(index / per-row gather) and reshape. Piecewise-linear primitives use a
fixed subgradient convention: max routes its adjoint to the lowest-index
maximizer and relu uses derivative 0 at 0, so backward passes are
deterministic even at kinks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tape", "Ref", "forward_eval", "backward_grad", "fd_gradient_oracle"]


def _unbroadcast(grad, shape):
    # sum an upstream adjoint down to `shape`, undoing numpy broadcasting
    grad = np.asarray(grad, dtype=float)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class _Node:
    __slots__ = ("op", "a", "b", "payload")

    def __init__(self, op, a=-1, b=-1, payload=None):
        self.op = op
        self.a = a
        self.b = b
        self.payload = payload


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
    """

    def __init__(self, num_params: int):
        if num_params < 0:
            raise ValueError("num_params must be nonnegative")
        self.num_params = int(num_params)
        self.nodes: list[_Node] = []
        self._values = None
        self._w = None
        self.last_backward_visits = 0

    def __len__(self):
        return len(self.nodes)

    def _push(self, op, a=None, b=None, payload=None) -> Ref:
        self.nodes.append(
            _Node(
                op,
                a.index if a is not None else -1,
                b.index if b is not None else -1,
                payload,
            )
        )
        self._values = None
        return Ref(self, len(self.nodes) - 1)

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
        for node in self.nodes:
            op = node.op
            if op == "param":
                start, shape, size = node.payload
                v = w[start : start + size].reshape(shape)
            elif op == "const":
                v = node.payload
            elif op == "add":
                v = vals[node.a] + vals[node.b]
            elif op == "sub":
                v = vals[node.a] - vals[node.b]
            elif op == "mul":
                v = vals[node.a] * vals[node.b]
            elif op == "neg":
                v = -vals[node.a]
            elif op == "matmul":
                v = vals[node.a] @ vals[node.b]
            elif op == "relu":
                v = np.maximum(vals[node.a], 0.0)
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
            vals.append(np.asarray(v, dtype=float))
        self._values = vals
        self._w = w.copy()
        return vals[-1] if vals else np.float64(0.0)

    def backward(self, seed=None, at: Ref | None = None):
        """Reverse sweep; returns the gradient w.r.t. the parameter vector.

        ``seed`` is the adjoint of the node ``at`` (default: the output).
        With no seed the output must be scalar and the seed is 1. Requires
        a cached ``forward``; each call visits every node exactly once and
        records the count in ``last_backward_visits``.
        """
        if self._values is None:
            raise ValueError("run forward before backward")
        vals = self._values
        out_index = at.index if at is not None else len(self.nodes) - 1
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
        adj: list = [None] * len(self.nodes)
        adj[out_index] = seed
        grad = np.zeros(self.num_params)
        visits = 0

        def acc(j, g):
            if adj[j] is None:
                adj[j] = np.zeros_like(vals[j])
            adj[j] = adj[j] + g

        for i in range(len(self.nodes) - 1, -1, -1):
            visits += 1
            g = adj[i]
            if g is None:
                continue
            node = self.nodes[i]
            op = node.op
            if op == "param":
                start, _shape, size = node.payload
                grad[start : start + size] += np.asarray(g, dtype=float).ravel()
            elif op == "const":
                pass
            elif op == "add":
                acc(node.a, _unbroadcast(g, vals[node.a].shape))
                acc(node.b, _unbroadcast(g, vals[node.b].shape))
            elif op == "sub":
                acc(node.a, _unbroadcast(g, vals[node.a].shape))
                acc(node.b, -_unbroadcast(g, vals[node.b].shape))
            elif op == "mul":
                acc(node.a, _unbroadcast(g * vals[node.b], vals[node.a].shape))
                acc(node.b, _unbroadcast(g * vals[node.a], vals[node.b].shape))
            elif op == "neg":
                acc(node.a, -g)
            elif op == "matmul":
                va, vb = vals[node.a], vals[node.b]
                if va.ndim == 2 and vb.ndim == 2:
                    acc(node.a, g @ vb.T)
                    acc(node.b, va.T @ g)
                elif va.ndim == 1 and vb.ndim == 2:
                    acc(node.a, vb @ g)
                    acc(node.b, np.outer(va, g))
                elif va.ndim == 2 and vb.ndim == 1:
                    acc(node.a, np.outer(g, vb))
                    acc(node.b, va.T @ g)
                else:
                    acc(node.a, g * vb)
                    acc(node.b, g * va)
            elif op == "relu":
                va = vals[node.a]
                acc(node.a, g * (va > 0.0))
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
        self.last_backward_visits = visits
        return grad

    def jvp(self, w, dw):
        """Forward-mode sweep. Returns ``(value, tangent)`` of the output.

        The tangent is the directional derivative of the recorded program
        at ``w`` along ``dw``; at max/relu kinks the same lowest-index and
        inactive-at-0 conventions as ``backward`` apply. Primal values
        come from the forward cache, which is refreshed only when it does
        not hold ``w``, so repeated calls at one point propagate tangents
        alone.
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
            op = node.op
            if op == "param":
                start, shape, size = node.payload
                t = dw[start : start + size].reshape(shape)
            elif op == "const":
                t = np.zeros_like(node.payload)
            elif op == "add":
                t = tans[node.a] + tans[node.b]
            elif op == "sub":
                t = tans[node.a] - tans[node.b]
            elif op == "mul":
                t = tans[node.a] * vals[node.b] + vals[node.a] * tans[node.b]
            elif op == "neg":
                t = -tans[node.a]
            elif op == "matmul":
                t = tans[node.a] @ vals[node.b] + vals[node.a] @ tans[node.b]
            elif op == "relu":
                t = tans[node.a] * (vals[node.a] > 0.0)
            elif op == "exp":
                t = tans[node.a] * vals[i]
            elif op == "log":
                t = tans[node.a] / vals[node.a]
            elif op == "max":
                va = vals[node.a]
                if va.ndim <= 1:
                    t = tans[node.a][..., int(np.argmax(va))]
                else:
                    t = tans[node.a][np.arange(va.shape[0]), np.argmax(va, axis=-1)]
            elif op == "rowsum":
                t = np.sum(tans[node.a], axis=-1)
            elif op == "total":
                t = np.sum(tans[node.a])
            elif op == "select":
                ta = tans[node.a]
                if vals[node.a].ndim <= 1:
                    t = ta[int(node.payload)]
                else:
                    t = ta[np.arange(ta.shape[0]), node.payload]
            elif op == "reshape":
                t = tans[node.a].reshape(node.payload)
            else:  # pragma: no cover
                raise ValueError(f"unknown op {op!r}")
            tans.append(np.asarray(t, dtype=float))
        return vals[-1], tans[-1]

    def _values_at(self, w):
        # the forward cache at ``w``, recomputed only when it holds another point
        if self._values is None or not np.array_equal(self._w, w):
            self.forward(w)
        return self._values


def forward_eval(tape: Tape, w):
    """Evaluate the function recorded on ``tape`` at ``w``."""
    return tape.forward(w)


def backward_grad(tape: Tape, w):
    """Gradient of the tape's scalar output at ``w``.

    Reuses the forward cache when it matches ``w``, otherwise re-runs the
    forward pass first. Rejects tapes whose output is not a scalar.
    """
    if tape._values_at(w)[-1].size != 1:
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

"""Tape-based reverse-mode differentiation over a flat parameter vector.

A :class:`Tape` records a small numpy program once and replays it at
arbitrary parameter values: ``forward`` evaluates the program and caches
every intermediate, ``backward`` runs a single reverse sweep that visits
each node exactly once, and ``jvp`` propagates forward tangents for
directional derivatives. Graphs are built through :class:`Ref` handles,
which overload the usual arithmetic operators, so model code reads like
plain numpy. ``input()`` records a slot in place of the input array, and
``replay(X)`` returns a tape that shares the recorded nodes (one list
copy) with the slot bound to ``X``; nodes appended to it, such as a loss
head, stay off the recorded program.

Each primitive is one ``_RULES`` entry, bound to its node when the node
is recorded; the sweeps loop over the bound rules and handle only the
leaves (parameter views, constants, the input slot) apart. A new
primitive is one new entry, and its tangent is derived, not written:
linear ops (add, sub, total) apply their forward to the tangents, mul
and matmul add their two one-tangent forwards, relu, exp and log apply
their adjoint rule to the tangent, and max and select take the tangent
at the entries they gather. Those entries and relu's derivative mask
(read from its output: ``out > 0`` exactly when ``in > 0``, NaN and
-0.0 included) are aux values, made once per forward cache. Max reduces
the last axis and routes its adjoint to the lowest-index maximizer, and
relu has derivative 0 at 0. Max takes operands of rank 1 or 2 and
matmul of rank at most 2; ``forward`` rejects other ranks, which their
adjoints do not handle.

Sweeps skip the nodes that depend on no parameter: ``backward`` computes
no adjoint into them (the input matrix of a first layer, say) and
``jvp`` carries no zero tangents through them. A forward writes an add,
sub or relu result into its operand ``a``'s buffer when that operand is
a matmul, add or sub node (whose values no rule reads, only their
shapes) with no other consumer and the result has its shape, so a wide
layer keeps one buffer instead of three. The writes are decided as nodes
are recorded; a later consumer of the operand, such as a head appended
to a replay, cancels the write. ``backward`` likewise masks a relu's
adjoint in the array it received when the relu's only consumer is a
matmul, whose adjoints are always new arrays; the seed of ``at=`` is
never written.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = ["Tape", "Ref", "backward_grad", "fd_gradient_oracle"]


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


def _as_value(v):
    # every node value is float64: an array unless a reduction or an op on
    # 0-d operands returned a numpy scalar
    return v if type(v) is np.ndarray else np.asarray(v, dtype=float)


# One primitive's part in each sweep, given the operand values a and b,
# the payload p, the node's value v, its aux value x = aux(a, v, p) and
# the operand tangents ta and tb (None where an operand depends on no
# parameter). forward(a, b, p, out) makes v, into out unless that is None;
# adjoints[k](g, a, b, v, x) maps the node's adjoint g to operand k's;
# tangent(rule, ta, tb, a, b, v, x, p) is one of the derivations below.
# writes: the forward may write into operand a; overwritable: no rule
# reads this node's value, so a writer may take its buffer.
_Rule = namedtuple(
    "_Rule", "forward adjoints tangent writes overwritable aux", defaults=(False, False, None)
)
# rule: the op's _RULES entry, None for a leaf; live: the node's value
# depends on at least one parameter
_Node = namedtuple("_Node", "op rule a b payload live")


def _linear(rule, ta, tb, a, b, v, x, p):
    if tb is None and b is not None:
        t = ta
    elif ta is None:  # add and sub map b alone by +-identity, its own adjoint
        t = rule.adjoints[1](tb, a, b, v, x)
    else:
        t = rule.forward(ta, tb, p, None)
    # an operand broadcast to the result's shape carried no tangent
    return t if t.shape == v.shape else np.broadcast_to(t, v.shape)


def _bilinear(rule, ta, tb, a, b, v, x, p):
    # the product rule: one forward per operand that has a tangent
    f = rule.forward
    if tb is None:
        return f(ta, b, p, None)
    return f(a, tb, p, None) if ta is None else f(ta, b, p, None) + f(a, tb, p, None)


def _pointwise(rule, ta, tb, a, b, v, x, p):
    # an elementwise scaling is its own adjoint
    return rule.adjoints[0](ta, a, b, v, x)


def _gathered(rule, ta, tb, a, b, v, x, p):
    return ta[x]


def _gather(a, pick):
    # the entries max and select read: one of a vector, one per matrix row
    return int(pick) if a.ndim <= 1 else (np.arange(a.shape[0]), pick)


def _scatter(g, a, b, v, x):
    # adjoint of max and select: g at the gathered entries x, zero elsewhere
    ga = np.zeros_like(a)
    ga[x] = g
    return ga


def _to_a(g, a, b, v, x):
    return _unbroadcast(g, a.shape)


def _to_b(g, a, b, v, x):
    return _unbroadcast(g, b.shape)


def _matmul_a(g, a, b, v, x):
    if b.ndim == 1:
        return np.outer(g, b) if a.ndim == 2 else g * b
    return g @ b.T if a.ndim == 2 else b @ g


def _matmul_b(g, a, b, v, x):
    if a.ndim == 2:
        return a.T @ g
    return np.outer(a, g) if b.ndim == 2 else g * a


def _rank_error(op, ranks, *operands):
    # the matmul and max adjoints assume rank <= 2 (max also a last axis); a
    # 3-d operand would broadcast into a wrong gradient or crash the sweep
    shapes = " and ".join(str(x.shape) for x in operands)
    return ValueError(f"{op} takes operands of rank {ranks}, got shapes {shapes}")


def _matmul(a, b, p, out):
    if a.ndim > 2 or b.ndim > 2:
        raise _rank_error("matmul", "<= 2", a, b)
    return a @ b


def _max(a, b, p, out):
    if a.ndim not in (1, 2):
        raise _rank_error("max", "1 or 2", a)
    return np.max(a, axis=-1)


_RULES = {
    "add": _Rule(
        lambda a, b, p, out: np.add(a, b, out=out),
        (_to_a, _to_b),
        _linear,
        writes=True,
        overwritable=True,
    ),
    "sub": _Rule(
        lambda a, b, p, out: np.subtract(a, b, out=out),
        (_to_a, lambda g, a, b, v, x: -_unbroadcast(g, b.shape)),
        _linear,
        writes=True,
        overwritable=True,
    ),
    "mul": _Rule(
        lambda a, b, p, out: a * b,
        (
            lambda g, a, b, v, x: _unbroadcast(g * b, a.shape),
            lambda g, a, b, v, x: _unbroadcast(g * a, b.shape),
        ),
        _bilinear,
    ),
    "matmul": _Rule(_matmul, (_matmul_a, _matmul_b), _bilinear, overwritable=True),
    "relu": _Rule(
        lambda a, b, p, out: np.maximum(a, 0.0, out=out),
        (lambda g, a, b, v, x: g * x,),
        _pointwise,
        writes=True,
        aux=lambda a, v, p: v > 0.0,
    ),
    "exp": _Rule(lambda a, b, p, out: np.exp(a), (lambda g, a, b, v, x: g * v,), _pointwise),
    "log": _Rule(lambda a, b, p, out: np.log(a), (lambda g, a, b, v, x: g / a,), _pointwise),
    "max": _Rule(
        _max,
        (_scatter,),
        _gathered,
        aux=lambda a, v, p: _gather(a, np.argmax(a, axis=-1)),
    ),
    "total": _Rule(
        lambda a, b, p, out: np.sum(a),
        (lambda g, a, b, v, x: np.broadcast_to(g, a.shape),),
        _linear,
    ),
    "select": _Rule(
        lambda a, b, p, out: a[_gather(a, p)],
        (_scatter,),
        _gathered,
        aux=lambda a, v, p: _gather(a, p),
    ),
}


_RELU = _RULES["relu"]


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

    def relu(self):
        return self.tape._push("relu", self)

    def exp(self):
        return self.tape._push("exp", self)

    def log(self):
        return self.tape._push("log", self)

    def max(self):
        """Reduce over the last axis; ties resolve to the lowest index."""
        return self.tape._push("max", self)

    def total(self):
        return self.tape._push("total", self)

    def select(self, index):
        """Pick one entry (1-D input) or one column per row (2-D input)."""
        return self.tape._push("select", self, payload=np.asarray(index, dtype=int))


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
        self._aux = {}  # node -> its aux value at the cached point
        self.last_backward_visits = 0
        # _reader: node -> its only consumer, or -1 once a second one reads
        # it; _in_place: the nodes whose forward writes into operand a
        self._reader: dict[int, int] = {}
        self._in_place: set[int] = set()

    def __len__(self):
        return len(self.nodes)

    def _push(self, op, a=None, b=None, payload=None) -> Ref:
        nodes = self.nodes
        rule = None if a is None else _RULES[op]
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
        if rule is not None and rule.writes and ia != ib and reader[ia] == n:
            if getattr(nodes[ia].rule, "overwritable", False):  # False for a leaf
                self._in_place.add(n)
        nodes.append(_Node(op, rule, ia, ib, payload, live))
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

    def forward(self, w):
        """Evaluate the recorded program at ``w`` and cache intermediates."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.num_params,):
            raise ValueError(
                f"tape expects a parameter vector of length {self.num_params}, "
                f"got shape {w.shape}"
            )
        if not self.nodes:
            raise ValueError("tape is empty")
        vals = []
        in_place = self._in_place
        for i, (op, rule, ia, ib, payload, _) in enumerate(self.nodes):
            if rule is not None:
                va = vals[ia]
                vb = vals[ib] if ib >= 0 else None
                # in place only when broadcasting leaves va's shape unchanged
                fits = i in in_place and (vb is None or vb.shape == va.shape[va.ndim - vb.ndim :])
                v = rule.forward(va, vb, payload, va if fits else None)
            elif op == "param":
                start, shape, size = payload
                v = w[start : start + size].reshape(shape)
            elif op == "const":
                v = payload
            else:
                v = self.bound_input
                if v is None:
                    raise ValueError("the input slot is unbound; run the program through replay")
            vals.append(_as_value(v))
        self._values = vals
        self._aux = {}
        self._w = w.copy()
        return vals[-1]

    def backward(self, seed=None, at: Ref | None = None):
        """Reverse sweep; returns the gradient w.r.t. the parameter vector.

        ``seed`` is the adjoint of this tape's node ``at`` (default: the
        output); with no seed the output must be scalar and the seed is 1.
        Requires a cached ``forward``. Each call visits every node once and
        records the count in ``last_backward_visits``.
        """
        if self._values is None:
            raise ValueError("run forward before backward")
        if at is not None and at.tape is not self:
            raise ValueError("cannot combine nodes from different tapes")
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
        reader = self._reader
        grad = np.zeros(self.num_params)
        for i in range(len(nodes) - 1, -1, -1):
            g = adj[i]
            if g is None:
                continue
            _, rule, ia, ib, payload, _ = nodes[i]
            if rule is None:  # the only live leaf is a parameter view
                start, _shape, size = payload
                grad[start : start + size] += g.ravel()
                continue
            va = vals[ia]
            vb = vals[ib] if ib >= 0 else None
            x = self._aux_at(i) if rule.aux is not None else None
            # adjoints are never updated in place, so the first write may
            # alias; the one exception is a relu's adjoint that its only
            # consumer, a matmul, made new
            if nodes[ia].live:
                k = reader[i] if rule is _RELU and i != out_index else -1
                if k >= 0 and nodes[k].op == "matmul":
                    ga = np.multiply(g, x, out=g)
                else:
                    ga = rule.adjoints[0](g, va, vb, vals[i], x)
                adj[ia] = ga if adj[ia] is None else adj[ia] + ga
            if ib >= 0 and nodes[ib].live:
                gb = rule.adjoints[1](g, va, vb, vals[i], x)
                adj[ib] = gb if adj[ib] is None else adj[ib] + gb
        self.last_backward_visits = len(nodes)
        return grad

    def jvp(self, w, dw):
        """Forward-mode sweep. Returns ``(value, tangent)`` of the output.

        The tangent is the directional derivative of the recorded program
        at ``w`` along ``dw``, with ``backward``'s conventions at kinks.
        Primal values come from the forward cache, which is refreshed only
        when it does not hold ``w``, so repeated calls at one point
        propagate tangents alone.
        """
        w = np.asarray(w, dtype=float)
        dw = np.asarray(dw, dtype=float)
        if w.shape != (self.num_params,) or dw.shape != (self.num_params,):
            raise ValueError("jvp expects w and dw of length num_params")
        vals = self._values_at(w)
        tans: list = []
        for i, (_, rule, ia, ib, payload, live) in enumerate(self.nodes):
            if not live:
                t = None
            elif rule is None:  # a parameter view
                start, shape, size = payload
                t = dw[start : start + size].reshape(shape)
            else:
                tb = vb = None
                if ib >= 0:
                    tb, vb = tans[ib], vals[ib]
                x = self._aux_at(i) if rule.aux is not None else None
                t = _as_value(rule.tangent(rule, tans[ia], tb, vals[ia], vb, vals[i], x, payload))
            tans.append(t)
        out = tans[-1]
        return vals[-1], np.zeros_like(vals[-1]) if out is None else out

    def _values_at(self, w):
        # the forward cache at the float vector ``w``, recomputed only when it
        # holds another point
        cached = self._w
        if self._values is None or cached.shape != w.shape or not (cached == w).all():
            self.forward(w)
        return self._values

    def _aux_at(self, i):
        # made on first use after each forward, which empties the cache
        x = self._aux.get(i)
        if x is None:
            node = self.nodes[i]
            x = self._aux[i] = node.rule.aux(self._values[node.a], self._values[i], node.payload)
        return x


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

"""Per-op and per-layer timing for the traced run, from outside the program.

`Tracer.install` rebinds public functions of the `maskprune` modules to timing
wrappers.  `layers.py`, `models.py` and others import ops by name
(``from .tensor import add, matmul, ...``), so every module attribute bound to
the original function object is rebound, not only the defining one.

Forward time is the wall time of the call, inclusive of nested traced calls.
Backward time is measured per graph node: when a traced call returns a node
whose backward rule is not yet timed, the rule is replaced by a `_TimedRule`
that charges its run time to every scope open when the node was made (the op
itself, the composite ops and the named layer instances around it).  So
``layers.linear.bwd_ms`` covers the matmul/transpose/add nodes it builds, and a
``ConvUnit`` instance is charged for its conv, batch norm and gate nodes.

Op-level accounting runs only inside ``train_step``; eval forwards are timed as
a whole (``models.eval_forward_ms``).  Install the tracer only in a process of
its own: it is never removed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Functions timed as ops, by module; the metric key is "<module>.<name>".
# This module imports `maskprune` only inside Tracer, so the orchestrator can
# read these names without the program on its path.
TENSOR_OPS = ("add", "mul", "scale", "sigmoid", "tanh", "relu", "absolute",
              "matmul", "transpose", "reshape", "concat_cols", "sum_all")
LAYER_OPS = ("conv2d", "batchnorm", "linear", "avg_pool_full", "embedding")
GATE_OPS = ("apply_gate", "apply_mask")
OBJECTIVE_OPS = ("cross_entropy", "l1_alpha", "masked_l2", "ratio_hinge")
# methods of blocks whose instances carry a ``name``: (layers class, method)
BLOCKS = (("ConvUnit", "forward"), ("ResidualBlock", "forward"), ("LstmCell", "step"))

INSTANCE = "@"   # scope-key prefix for named layer instances


class _TimedRule:
    """A node's backward rule, charging its run time to the scopes that made it."""

    __slots__ = ("rule", "keys", "tracer")

    def __init__(self, rule, keys, tracer):
        self.rule, self.keys, self.tracer = rule, keys, tracer

    def __call__(self, g):
        t0 = time.perf_counter()
        out = self.rule(g)
        dt = time.perf_counter() - t0
        bwd = self.tracer.bwd
        for k in self.keys:
            bwd[k] += dt
        self.tracer.rule_s += dt
        return out


class Tracer:
    def __init__(self):
        from maskprune import tensor
        self.tensor = tensor
        self.fwd: dict[str, float] = defaultdict(float)     # seconds
        self.bwd: dict[str, float] = defaultdict(float)     # seconds
        self.calls: dict[str, int] = defaultdict(int)
        self.stack: list[str] = []
        self.in_step = False
        self.steps = 0
        self.nodes = 0
        self.rule_s = 0.0            # time inside backward rules
        self.backward_s = 0.0        # time inside Tape.backward
        self.optimizer_s = 0.0
        self.step_s = 0.0
        self.conv_flops = 0          # dense forward FLOPs of traced conv2d calls
        self.forward_s = 0.0         # model forward, train mode
        self.eval_forward_s = 0.0
        self.augment_s = 0.0
        self._seq0 = 0

    # -- step boundaries (called by the worker's train_step wrapper) --------

    def begin_step(self):
        self._seq0 = self.tensor.Tensor(0.0).seq
        self.in_step = True

    def end_step(self, seconds: float):
        self.in_step = False
        self.nodes += self.tensor.Tensor(0.0).seq - self._seq0 - 1
        self.steps += 1
        self.step_s += seconds

    # -- wrappers -----------------------------------------------------------

    def _op(self, key, fn, scope_of=None):
        tracer = self
        Tensor = self.tensor.Tensor

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.in_step:
                return fn(*args, **kwargs)
            stack = tracer.stack
            stack.append(key)
            if scope_of is not None:
                stack.append(INSTANCE + scope_of(args))
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                keys = tuple(stack)
                del stack[-2 if scope_of is not None else -1:]
            tracer.fwd[key] += dt
            tracer.calls[key] += 1
            if scope_of is not None:
                tracer.fwd[keys[-1]] += dt
            for node in out if isinstance(out, tuple) else (out,):
                if (isinstance(node, Tensor) and node.backward_rule is not None
                        and not isinstance(node.backward_rule, _TimedRule)):
                    node.backward_rule = _TimedRule(node.backward_rule, keys, tracer)
            if key == "layers.conv2d":
                w = args[1].shape
                tracer.conv_flops += 2 * out.size * w[1] * w[2] * w[3]
            return out

        return wrapper

    def _timer(self, fn, attr):
        """Always-on wall-clock accumulator (also outside training steps)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(tracer, attr, getattr(tracer, attr) + time.perf_counter() - t0)

        return wrapper

    def install(self):
        """Rebind the traced functions in every loaded `maskprune` module."""
        from maskprune import data, gate, layers, models, objective, training
        tensor = self.tensor
        for mod, names in ((tensor, TENSOR_OPS), (layers, LAYER_OPS),
                           (gate, GATE_OPS), (objective, OBJECTIVE_OPS)):
            prefix = mod.__name__.rsplit(".", 1)[-1]
            for name in names:
                _rebind(getattr(mod, name), self._op(f"{prefix}.{name}", getattr(mod, name)))
        _rebind(objective.total_objective,
                self._op("objective.total_objective", objective.total_objective))
        _rebind(training.sgd_momentum_step,
                self._timer(training.sgd_momentum_step, "optimizer_s"))
        _rebind(data.augment, self._timer(data.augment, "augment_s"))
        for cls_name, meth in BLOCKS:
            cls = getattr(layers, cls_name)
            setattr(cls, meth, self._op(f"layers.{cls_name}.{meth}", getattr(cls, meth),
                                        scope_of=lambda args: args[0].name))

        backward = tensor.Tape.backward

        @functools.wraps(backward)
        def timed_backward(tape, loss):
            t0 = time.perf_counter()
            try:
                return backward(tape, loss)
            finally:
                self.backward_s += time.perf_counter() - t0

        tensor.Tape.backward = timed_backward

        for cls in vars(models).values():
            if (isinstance(cls, type) and issubclass(cls, models.Model)
                    and "forward" in vars(cls)):
                cls.forward = self._model_forward(cls.forward)

    def _model_forward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, tape, x, mode="train"):
            t0 = time.perf_counter()
            try:
                return fn(model, tape, x, mode)
            finally:
                dt = time.perf_counter() - t0
                if mode == "eval":
                    tracer.eval_forward_s += dt
                else:
                    tracer.forward_s += dt

        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Totals in seconds (and counts) as plain JSON data."""
        return {
            "steps": self.steps, "nodes": self.nodes, "step_s": self.step_s,
            "backward_s": self.backward_s, "rule_s": self.rule_s,
            "optimizer_s": self.optimizer_s, "forward_s": self.forward_s,
            "eval_forward_s": self.eval_forward_s, "augment_s": self.augment_s,
            "conv_flops": self.conv_flops, "fwd": dict(self.fwd), "bwd": dict(self.bwd),
            "calls": dict(self.calls), "instances": self.instances(),
        }

    def instances(self) -> dict[str, dict[str, float]]:
        """Inclusive fwd/bwd ms per step for each named layer instance."""
        names = {k[len(INSTANCE):] for k in list(self.fwd) + list(self.bwd)
                 if k.startswith(INSTANCE)}
        per = 1e3 / max(self.steps, 1)
        return {n: {"fwd_ms": self.fwd[INSTANCE + n] * per,
                    "bwd_ms": self.bwd[INSTANCE + n] * per} for n in sorted(names)}


def _rebind(orig, wrapper):
    """Point every `maskprune` module attribute bound to ``orig`` at ``wrapper``."""
    for name, mod in list(sys.modules.items()):
        if name == "maskprune" or name.startswith("maskprune."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

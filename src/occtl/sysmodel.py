"""System models: dynamics with outputs, Jacobians, and variational augmentation.

A system is a pair of expression lists, the state derivative f and the output
map h, over the variables x1..xn and t.  A `SystemSpec` checks its
dimensions, names and smoothness when it is built, so every spec that exists
is valid and no consumer checks it again.  The variational (linearised-along-
a-trajectory) system is never entered by hand: `augment` derives it from f
and h by symbolic differentiation and compiles it, so the xi-dynamics are
always the exact Jacobian of the supplied right-hand side.  Every field an
integrator runs, f alone or with its variational dynamics, every output map,
h or nu, and `jacobians` are each one kernel made by `compile_expr`.  The
tree-walking `eval_fh` is kept as the reference the kernels and the
difference-quotient oracles are checked against.

JSON document format::

    {"name": str, "n": int, "m": int, "f": [str, ...], "h": [str, ...]}

with expressions written in the `occtl.exprlang` grammar.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .exprlang import (
    Bin, Call, Const, Expr, Neg, Var, compile_expr, differentiate, evaluate,
    free_vars, parse,
)
from .exprlang import dual_env, evaluate_dual  # noqa: F401  looked up by bench/tracing.py

__all__ = [
    "SystemSpec", "AugmentedSystem", "JacobianBundle", "SystemValidationError",
    "eval_fh", "jacobians", "augment", "finite_diff_jacobian",
    "vector_field", "output_map", "system_from_json",
    "builtin_system", "json_safe", "BUILTIN_NAMES",
]


class SystemValidationError(ValueError):
    """A system specification violates a dimensional or naming invariant."""


@dataclass(frozen=True)
class SystemSpec:
    """Dynamics ``xdot = f(x, t)`` with output ``y = h(x, t)``.

    f has n components and h has m components; every expression may only
    mention x1..xn and t, and none may call abs (the right-hand sides must
    be continuously differentiable).  A spec is valid once built: one that
    breaks these rules raises SystemValidationError instead.  Instances are
    immutable and shareable.
    """

    name: str
    n: int
    m: int
    f: tuple[Expr, ...]
    h: tuple[Expr, ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise SystemValidationError(f"{self.name!r}: need n >= 1 and "
                                        f"m >= 1, got n={self.n}, m={self.m}")
        if len(self.f) != self.n:
            raise SystemValidationError(f"{self.name!r}: f has {len(self.f)} "
                                        f"components, expected n={self.n}")
        if len(self.h) != self.m:
            raise SystemValidationError(f"{self.name!r}: h has {len(self.h)} "
                                        f"components, expected m={self.m}")
        allowed = set(self.state_names) | {"t"}
        for label, exprs in (("f", self.f), ("h", self.h)):
            for i, e in enumerate(exprs):
                if unknown := free_vars(e) - allowed:
                    raise SystemValidationError(
                        f"{self.name!r}: {label}[{i}] uses unknown variable(s) "
                        f"{sorted(unknown)} (state is x1..x{self.n})")
                if _uses_abs(e):
                    raise SystemValidationError(
                        f"{self.name!r}: {label}[{i}] uses abs, which is not "
                        "differentiable; smooth right-hand sides are required")

    @classmethod
    def from_strings(cls, name: str, n: int, m: int,
                     f: list[str], h: list[str]) -> "SystemSpec":
        return cls(name, n, m, tuple(parse(s) for s in f),
                   tuple(parse(s) for s in h))

    @cached_property
    def state_names(self) -> tuple[str, ...]:
        return tuple(f"x{i + 1}" for i in range(self.n))

    @cached_property
    def _field(self):
        return compile_expr(self.f, self.state_names)

    @cached_property
    def _output(self):
        return compile_expr(self.h, self.state_names)

    @cached_property
    def _jacobians(self):
        """dfi/dxj (row-major), then dhi/dxj, then dhi/dt, in one kernel."""
        x = self.state_names
        return compile_expr(
            [differentiate(e, v) for e in self.f + self.h for v in x]
            + [differentiate(e, "t") for e in self.h], x)

    @cached_property
    def _kernels(self) -> dict:
        """Kernels other modules compile from this spec, by their own keys;
        like `_field`, each is compiled once per spec."""
        return {}

    @cached_property
    def _augmented(self) -> "AugmentedSystem":
        return AugmentedSystem(base=self)

    @cached_property
    def time_invariant(self) -> bool:
        """True when no expression of f or h mentions t."""
        return all("t" not in free_vars(e) for e in self.f + self.h)


def _uses_abs(e: Expr) -> bool:
    if isinstance(e, Call):
        return e.fn == "abs" or _uses_abs(e.arg)
    if isinstance(e, Neg):
        return _uses_abs(e.operand)
    return isinstance(e, Bin) and (_uses_abs(e.left) or _uses_abs(e.right))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _eval_stack(exprs: tuple[Expr, ...], env: Mapping) -> np.ndarray:
    cols = [np.asarray(evaluate(e, env), dtype=float) for e in exprs]
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def eval_fh(spec: SystemSpec, x, t) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (f(x, t), h(x, t)) by walking the trees: the reference path,
    which raises ExprEvalError where f or h is undefined.

    `x` may be a single state of shape (n,) or a batch (..., n); `t` a scalar
    or an array broadcastable against the batch.  Returns arrays shaped
    (..., n) and (..., m).
    """
    x = np.asarray(x, dtype=float)
    env = {name: x[..., i] for i, name in enumerate(spec.state_names)}
    env["t"] = t
    return _eval_stack(spec.f, env), _eval_stack(spec.h, env)


def vector_field(spec: SystemSpec) -> Callable[[np.ndarray, float], np.ndarray]:
    """The state derivative as a plain ``field(x, t)`` callable.

    f is compiled into one kernel the first time it is asked for and cached
    on the spec, so every later call returns the same kernel.  Accepts
    single states (n,) or batches (..., n) and returns shapes
    ``broadcast(x.shape[:-1], shape(t)) + (n,)``.
    """
    return spec._field


def output_map(spec: SystemSpec) -> Callable[[np.ndarray, float], np.ndarray]:
    """The output map as a kernel ``h(x, t)``, the twin of `vector_field`
    with ``(m,)`` trailing: nan or inf in a row where h is undefined."""
    return spec._output


@dataclass(frozen=True)
class JacobianBundle:
    """Partial derivatives of f and h at one point (or a batch of points).

    Jf is (..., n, n), Jh is (..., m, n), dh_dt is (..., m).
    """

    Jf: np.ndarray
    Jh: np.ndarray
    dh_dt: np.ndarray


def jacobians(spec: SystemSpec, x, t) -> JacobianBundle:
    """Exact Jacobians over x1..xn, and dh_dt, from compiled symbolic
    partials.  Batched like eval_fh.  Never raises: an entry is nan or inf
    where f or h is undefined or not differentiable, and 0.0 along a
    variable its component does not mention."""
    n, m = spec.n, spec.m
    out = spec._jacobians(x, t)
    batch = out.shape[:-1]
    return JacobianBundle(Jf=out[..., :n * n].reshape(batch + (n, n)),
                          Jh=out[..., n * n:-m].reshape(batch + (m, n)),
                          dh_dt=out[..., -m:])


def finite_diff_jacobian(spec: SystemSpec, x, t, step: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference (Jf, Jh): the oracle `jacobians` is tested against."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=float)
    cols_f, cols_h = [], []
    for i in range(spec.n):
        dx = np.zeros_like(x)
        dx[..., i] = step
        f_hi, h_hi = eval_fh(spec, x + dx, t)
        f_lo, h_lo = eval_fh(spec, x - dx, t)
        cols_f.append((f_hi - f_lo) / (2.0 * step))
        cols_h.append((h_hi - h_lo) / (2.0 * step))
    return np.stack(cols_f, axis=-1), np.stack(cols_h, axis=-1)


# ---------------------------------------------------------------------------
# variational augmentation
# ---------------------------------------------------------------------------

def _tangent_names(spec: SystemSpec) -> tuple[str, ...]:
    """The variational variables xi1..xin, one per state."""
    return tuple(f"xi{j + 1}" for j in range(spec.n))


def _tangents(spec: SystemSpec, exprs: tuple[Expr, ...]) -> tuple[Expr, ...]:
    """``0.0 + de/dx1*xi1 + ... + de/dxn*xin`` for each e in `exprs`: the
    directional derivatives along xi, as Jf xi and nu = Jh xi.  The sums run
    left to right; the leading 0.0 turns a sum of -0.0 terms into +0.0, and
    zero derivatives stay as ``0.0*xi_j``, which is nan when xi_j is not
    finite."""
    sums = []
    for e in exprs:
        total: Expr = Const(0.0)
        for x, v in zip(spec.state_names, _tangent_names(spec)):
            total = Bin("+", total, Bin("*", differentiate(e, x), Var(v)))
        sums.append(total)
    return tuple(sums)


def _variational_kernel(spec: SystemSpec, head: tuple[Expr, ...],
                        exprs: tuple[Expr, ...]):
    """Compile `head`, then the `_tangents` of `exprs`, into one kernel over
    x1..xn, xi1..xin."""
    return compile_expr(head + _tangents(spec, exprs),
                        spec.state_names + _tangent_names(spec))


@dataclass(frozen=True)
class AugmentedSystem:
    """State plus variational dynamics, 2n-dimensional.

    The combined field is F(x, xi, t) = (f(x, t), Jf(x, t) xi) with output
    nu = Jh(x, t) xi.  The xi-block is linear in xi and vanishes at xi = 0.
    The Jacobian entries are symbolic derivatives of the base system; F and
    nu are each compiled once into one kernel over x1..xn, xi1..xin; at the
    unit seed e_j their xi-block and nu are column j of `jacobians`' Jf and
    Jh, bit for bit.
    """

    base: SystemSpec

    @cached_property
    def _field(self):
        return _variational_kernel(self.base, self.base.f, self.base.f)

    @cached_property
    def _output(self):
        return _variational_kernel(self.base, (), self.base.h)

    def field(self, state, t) -> np.ndarray:
        return self._field(state, t)

    def output(self, state, t) -> np.ndarray:
        """nu = Jh(x, t) xi, shaped (..., m), of (..., 2n) states (x, xi)."""
        return self._output(state, t)


def augment(spec: SystemSpec) -> AugmentedSystem:
    """Attach the variational dynamics, compiled from symbolic derivatives,
    to a system; made once and cached on the spec."""
    return spec._augmented


def _integer(value, name: str) -> int:
    """`value` as an int (a numpy integer or a bool is one), else
    ValueError naming `name` and the value."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _intervals(box, name: str) -> tuple[tuple[float, float], ...]:
    """`box` as float (lo, hi) pairs, else ValueError naming `name`."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    for lo, hi in box:
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValueError(
                f"{name} interval [{lo}, {hi}] is empty or not finite")
    return box


# ---------------------------------------------------------------------------
# JSON interchange and built-in systems
# ---------------------------------------------------------------------------

def json_safe(value):
    """`value` for strict JSON: containers recursively, numpy values as
    Python lists and numbers, every number that is not finite as None."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return json_safe(value.tolist())
    return None if isinstance(value, float) and not math.isfinite(value) \
        else value


def system_from_json(doc) -> SystemSpec:
    """Build a SystemSpec from a JSON document (text or dict).

    A document other than an object of exactly a string name, integer n
    and m, and lists of strings f and h raises SystemValidationError.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise SystemValidationError(
            f"a system document is a JSON object, got {type(doc).__name__}")
    keys = ("name", "n", "m", "f", "h")
    try:
        name, n, m, f, h = (doc[key] for key in keys)
    except KeyError as missing:
        raise SystemValidationError(f"system document lacks key {missing}") from None
    if unexpected := sorted(doc.keys() - set(keys), key=str):
        raise SystemValidationError(
            f"unexpected key(s) {unexpected} in system document; "
            f"allowed are {', '.join(keys)}")
    if not isinstance(name, str):
        raise SystemValidationError(f"name must be a string, got {name!r}")
    for key, value in (("n", n), ("m", m)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise SystemValidationError(
                f"{name!r}: {key} must be an integer, got {value!r}")
    for key, value in (("f", f), ("h", h)):
        if not (isinstance(value, list)
                and all(isinstance(e, str) for e in value)):
            raise SystemValidationError(
                f"{name!r}: {key} must be a list of strings, got {value!r}")
    return SystemSpec.from_strings(name, n, m, f, h)


_BUILTIN_SOURCES = {
    # stable linear pair with a single-coordinate output
    "lti-remark1": dict(
        n=2, m=1,
        f=["-2*x1 + x2", "x1 - 2*x2"],
        h=["x1"]),
    # same dynamics, output ruined by an exponentially growing weight
    "lti-remark1-badout": dict(
        n=2, m=1,
        f=["-2*x1 + x2", "x1 - 2*x2"],
        h=["exp(2*t)*x1"]),
    # time-varying system whose state separates while the output contracts
    "ex1-timevarying": dict(
        n=2, m=1,
        f=["-0.1*x1^3 - (4 + sin(t) + 0.3*x1^2)*x2 + sin(x1 + x2) + cos(t)",
           "-0.1*x2^3 - (4 + sin(t) + 0.3*x2^2)*x1 + cos(x1 + x2) + sin(t)"],
        h=["x1 + x2"]),
    # unstable time-invariant system whose output settles to a constant
    "ex2-timeinvariant": dict(
        n=2, m=1,
        f=["-3*x2 - sin(x1 + x2)", "-3*x1 + cos(x1 + x2)"],
        h=["x1 + x2"]),
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_SOURCES))


def builtin_system(name: str) -> SystemSpec:
    """Return one of the named built-in systems."""
    try:
        src = _BUILTIN_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown built-in system {name!r}; known: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return SystemSpec.from_strings(name, src["n"], src["m"], src["f"], src["h"])

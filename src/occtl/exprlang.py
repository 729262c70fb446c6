"""Scalar math expressions over named variables, with forward-mode derivatives.

This module supplies the symbolic layer of the toolkit: right-hand sides of
vector fields, output maps, and Lyapunov candidates are all plain text parsed
into immutable expression trees, evaluated either on floats or elementwise on
numpy arrays, differentiated exactly with dual numbers or symbolically, and
compiled into one vectorised kernel per expression list.  The kernels are
the production path for f, h, their Jacobians, the variational system and a
certificate's value, nu and Vdot; the dual numbers and the tree-walking
`evaluate` are the references they are checked against.  Only `evaluate`
raises ExprEvalError on a domain violation; the compiled kernels and the
dual numbers have no domain guards and return IEEE nan or inf there, so an
integrator truncates the one sample that left f's domain, and a checker
fails the one item that left h's domain, or the one certificate sample that
left f's, h's or V's, instead of the whole run failing.

Grammar (EBNF)::

    expr    = term , { ("+" | "-") , term } ;            (* left-assoc *)
    term    = unary , { ("*" | "/") , unary } ;          (* left-assoc *)
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;                   (* right-assoc *)
    atom    = NUMBER | NAME | NAME , "(" , expr , ")" | "(" , expr , ")" ;
    NUMBER  = ( DIGITS , [ "." , [DIGITS] ] | "." , DIGITS ) , [EXPONENT] ;
    EXPONENT= ("e" | "E") , ["+" | "-"] , DIGITS ;
    NAME    = LOWER , { LOWER | DIGIT | "_" } ;

Binding strength, loosest to tightest: "+" and binary "-", then "*" and "/",
then unary "-", then "^".  "^" is right-associative, so "2^3^2" is 2^(3^2) =
512, and unary minus binds looser than "^", so "-x^2" is -(x^2).  There is no
implicit multiplication ("2x" is a syntax error).  "pi" denotes the circle
constant.  Calls are restricted to sin, cos, tan, exp, ln, sqrt, abs, tanh.

Expression trees are immutable after parsing and safe to share between
concurrent evaluations; evaluation is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Token", "Expr", "Const", "Var", "Neg", "Bin", "Call", "Dual",
    "ExprSyntaxError", "ExprEvalError", "FUNCTIONS",
    "tokenize", "parse", "to_source", "free_vars",
    "evaluate", "evaluate_dual", "dual_env",
    "differentiate", "compile_expr",
]

#: callable names accepted by the grammar
FUNCTIONS = frozenset({"sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "tanh"})

Number = Union[float, np.ndarray]


class ExprSyntaxError(ValueError):
    """Source text could not be parsed; `position` is the character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class ExprEvalError(ArithmeticError):
    """Unbound variable or numeric domain violation during evaluation."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        if subexpr is not None:
            message = f"{message} in '{to_source(subexpr)}'"
        super().__init__(message)
        self.subexpr = subexpr


# ---------------------------------------------------------------------------
# tokens and syntax tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    kind: str       # number | identifier | operator | paren | comma
    lexeme: str
    position: int


class Expr:
    """Base class of expression nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_source(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str         # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str         # member of FUNCTIONS
    arg: Expr


#: one alternative per token kind, then whitespace and any other character
_TOKEN_RE = re.compile(r"""
    (?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<identifier>[a-z][a-z0-9_]*)
  | (?P<operator>[-+*/^])
  | (?P<paren>[()])
  | (?P<comma>,)
  | (?P<space>\s+)
  | (?P<unexpected>.)""", re.VERBOSE | re.DOTALL)


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens; positions are character indices."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "unexpected":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}",
                                  m.start())
        if m.lastgroup != "space":
            tokens.append(Token(m.lastgroup, m.group(), m.start()))
    return tokens


#: nesting of parentheses, calls, negations and powers parsed, 5 frames each
_MAX_NESTING = 150

#: levels of a parsed tree; the tree walkers recurse once per level (hashing
#: twice), and a derivative can be three times as deep as its tree
_MAX_DEPTH = 256


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0   # active `unary` calls: every nesting passes one

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.source))
        self.pos += 1
        return tok

    def expect(self, kind: str, lexeme: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or tok.lexeme != lexeme:
            at = tok.position if tok else len(self.source)
            found = repr(tok.lexeme) if tok else "end of input"
            raise ExprSyntaxError(f"expected {lexeme!r}, found {found}", at)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok.lexeme!r}", tok.position)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "+-":
            self.advance()
            node = Bin(tok.lexeme, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self.peek()) and tok.kind == "operator" and tok.lexeme in "*/":
            self.advance()
            node = Bin(tok.lexeme, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nests too deeply (more than {_MAX_NESTING} "
                "levels)", tok.position if tok else len(self.source))
        if tok and tok.kind == "operator" and tok.lexeme == "-":
            self.advance()
            node: Expr = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "operator" and tok.lexeme == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.lexeme))
        if tok.kind == "identifier":
            nxt = self.peek()
            if nxt and nxt.kind == "paren" and nxt.lexeme == "(":
                if tok.lexeme not in FUNCTIONS:
                    raise ExprSyntaxError(
                        f"unknown function {tok.lexeme!r}", tok.position)
                self.advance()
                arg = self.expr()
                self.expect("paren", ")")
                return Call(tok.lexeme, arg)
            if tok.lexeme == "pi":
                return Const(math.pi)
            return Var(tok.lexeme)
        if tok.kind == "paren" and tok.lexeme == "(":
            node = self.expr()
            self.expect("paren", ")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.lexeme!r}", tok.position)


def parse(source: str) -> Expr:
    """Parse source text into an expression tree.

    Raises ExprSyntaxError (with character position) on malformed input,
    unknown functions, unbalanced parentheses, trailing tokens, nesting
    deeper than `_MAX_NESTING` or a tree deeper than `_MAX_DEPTH` levels.
    """
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    tree = _Parser(source).parse()
    depth, level = 0, [tree]   # counted level by level, without recursion
    while level:
        level = [c for e in level for c in vars(e).values() if isinstance(c, Expr)]
        depth += 1
    if depth > _MAX_DEPTH:
        raise ExprSyntaxError(f"expression tree is {depth} levels deep, "
                              f"more than {_MAX_DEPTH}", 0)
    return tree


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------

# binding levels used for minimal parenthesisation
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _print(e: Expr, need: int) -> str:
    if isinstance(e, Const):
        text = repr(float(e.value))
        level = _NEG if e.value < 0 else _ATOM
    elif isinstance(e, Var):
        text, level = e.name, _ATOM
    elif isinstance(e, Neg):
        text, level = "-" + _print(e.operand, _NEG), _NEG
    elif isinstance(e, Call):
        text, level = f"{e.fn}({_print(e.arg, 0)})", _ATOM
    elif isinstance(e, Bin):
        if e.op in "+-":
            text = f"{_print(e.left, _ADD)} {e.op} {_print(e.right, _MUL)}"
            level = _ADD
        elif e.op in "*/":
            text = f"{_print(e.left, _MUL)}{e.op}{_print(e.right, _NEG)}"
            level = _MUL
        else:  # ^ is right-associative with an atom-level base
            text = f"{_print(e.left, _ATOM)}^{_print(e.right, _NEG)}"
            level = _POW
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({text})" if level < need else text


def to_source(e: Expr) -> str:
    """Render a tree as canonical source text.

    Re-parsing the result of `to_source` reproduces the tree for any tree
    produced by `parse` (the parser never emits negative constants, the one
    node kind the printer has to canonicalise).
    """
    return _print(e, 0)


def free_vars(e: Expr) -> frozenset[str]:
    """Names of the variables occurring in the tree."""
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    return frozenset()


# ---------------------------------------------------------------------------
# plain evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, env: Mapping[str, Number]) -> Number:
    """Evaluate a tree in IEEE double precision.

    Values bound in `env` may be floats or numpy arrays of a common shape;
    array values evaluate elementwise.  A value of another type (an int, a
    bool, a float32) is taken as float on entry, as a kernel takes it; a
    float or float array is used as it is.  Raises ExprEvalError for
    unbound variables and for domain violations (ln of a non-positive
    value, square root of a negative value, division by zero), naming the
    offending subexpression.
    """
    env = {name: np.asarray(value, dtype=float)[()]   # [()]: a 0-d as a scalar
           if np.asarray(value).dtype != float else value
           for name, value in env.items()}
    with np.errstate(all="ignore"):
        return _eval(e, env)


def _eval(e: Expr, env: Mapping[str, Number]) -> Number:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, Bin):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if np.any(np.asarray(b) == 0):
                raise ExprEvalError("division by zero", e)
            return a / b
        if np.any((np.asarray(a) < 0) & (np.asarray(b) != np.floor(b))):
            raise ExprEvalError("negative base with non-integer exponent", e)
        if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
            raise ExprEvalError("zero raised to a negative power", e)
        return _power(a, b, e.right)
    if isinstance(e, Call):
        v = _eval(e.arg, env)
        if e.fn == "ln" and np.any(np.asarray(v) <= 0):
            raise ExprEvalError("ln of a non-positive value", e)
        if e.fn == "sqrt" and np.any(np.asarray(v) < 0):
            raise ExprEvalError("sqrt of a negative value", e)
        return _CALLS[e.fn](v)
    raise TypeError(f"not an expression node: {e!r}")


def _factors(exponent: Expr) -> int:
    """k for a constant exponent k of 2, 3 or 4, whose power is the
    left-to-right product u*u, (u*u)*u or ((u*u)*u)*u; else 0, for pow."""
    return isinstance(exponent, Const) and exponent.value in (2.0, 3.0, 4.0) \
        and int(exponent.value)


def _power(a: Number, b: Number, exponent: Expr) -> Number:
    """a^b, b the value of `exponent`, as the kernels compute it: numpy's
    `power` ufunc in float, on a float, an int or an array alike, so a
    value gets the bits of its row in a batch and overflows to inf."""
    if not (k := _factors(exponent)):
        return np.power(a, b, dtype=float)
    out = a
    for _ in range(k - 1):
        out = out * a
    return out


_CALLS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "ln": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh,
}


# ---------------------------------------------------------------------------
# dual numbers (forward mode)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dual:
    """Value plus gradient with respect to the active variables.

    `grad` has shape ``(k,) + shape(value)`` where k is the number of active
    variables, so batched evaluation differentiates every sample at once.
    """

    value: Number
    grad: np.ndarray


def dual_env(values: Mapping[str, Number], active: Sequence[str]) -> dict[str, Dual]:
    """Build a dual environment with unit seeds on the `active` names.

    Every name in `values` is bound; names listed in `active` get the i-th
    unit gradient (identity seeding), all others a zero gradient.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
    k = len(active)
    index = {name: i for i, name in enumerate(active)}
    env: dict[str, Dual] = {}
    for name, value in values.items():
        grad = np.zeros((k,) + shape)
        i = index.get(name)
        if i is not None:
            grad[i] = 1.0
        env[name] = Dual(np.broadcast_to(np.asarray(value, dtype=float), shape), grad)
    return env


def evaluate_dual(e: Expr, env: Mapping[str, Dual]) -> Dual:
    """Evaluate a tree on dual numbers, propagating exact partial derivatives.

    The value part is `evaluate`'s arithmetic on the value parts of `env`;
    the gradient part carries the partial derivatives with respect to the
    active variables seeded by the caller.  abs is given the subgradient 0
    at the origin.  Like `compile_expr`'s kernels, and unlike `evaluate`,
    this never raises on a domain violation: it computes under IEEE rules.
    """
    with np.errstate(all="ignore"):
        return _eval_dual(e, env)


def _grad_shape(env: Mapping[str, Dual]) -> tuple[int, ...]:
    for d in env.values():
        return d.grad.shape
    raise ExprEvalError("empty dual environment")


def _eval_dual(e: Expr, env: Mapping[str, Dual]) -> Dual:
    if isinstance(e, Const):
        return Dual(np.float64(e.value), np.zeros(_grad_shape(env)))
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprEvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        d = _eval_dual(e.operand, env)
        return Dual(-d.value, -d.grad)
    if isinstance(e, Bin):
        a = _eval_dual(e.left, env)
        b = _eval_dual(e.right, env)
        if e.op == "+":
            return Dual(a.value + b.value, a.grad + b.grad)
        if e.op == "-":
            return Dual(a.value - b.value, a.grad - b.grad)
        if e.op == "*":
            return Dual(a.value * b.value, a.grad * b.value + a.value * b.grad)
        if e.op == "/":
            return Dual(a.value / b.value,
                        (a.grad * b.value - a.value * b.grad) / (b.value * b.value))
        return _dual_pow(a, b, e.right)
    if isinstance(e, Call):
        return _dual_call(e, _eval_dual(e.arg, env))
    raise TypeError(f"not an expression node: {e!r}")


def _dual_pow(a: Dual, b: Dual, exponent: Expr) -> Dual:
    value = _power(a.value, b.value, exponent)
    if not np.any(b.grad):
        # constant exponent: plain power rule, valid for negative bases too
        p = b.value
        e = Const(p - 1.0) if isinstance(exponent, Const) else exponent
        return Dual(value, p * _power(a.value, np.asarray(p) - 1, e) * a.grad)
    # log form; ln(a), nan where the base is not positive, enters only the
    # partials along which the exponent varies, as in `differentiate`
    along_base = b.value * a.grad / a.value
    return Dual(value, value * np.where(
        b.grad == 0, along_base, b.grad * np.log(a.value) + along_base))


# ---------------------------------------------------------------------------
# symbolic differentiation
# ---------------------------------------------------------------------------

def _c(v: float) -> Const:
    return Const(float(v))


def _is(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _c(a.value + b.value)
    if _is(a, 0.0):
        return b
    if _is(b, 0.0):
        return a
    return Bin("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _c(a.value - b.value)
    if _is(b, 0.0):
        return a
    if _is(a, 0.0):
        return Neg(b)
    return Bin("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return _c(a.value * b.value)
    if _is(a, 0.0) or _is(b, 0.0):
        return _c(0.0)
    if _is(a, 1.0):
        return b
    if _is(b, 1.0):
        return a
    return Bin("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is(a, 0.0) and not _is(b, 0.0):
        return _c(0.0)
    return Bin("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is(b, 1.0):
        return a
    if _is(b, 0.0):
        return _c(1.0)
    return Bin("^", a, b)


_DERIVS = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: _add(_c(1.0), _pow(Call("tan", u), _c(2.0))),
    "exp": lambda u: Call("exp", u),
    "ln": lambda u: _div(_c(1.0), u),
    "sqrt": lambda u: _div(_c(1.0), _mul(_c(2.0), Call("sqrt", u))),
    "tanh": lambda u: _sub(_c(1.0), _pow(Call("tanh", u), _c(2.0))),
    "abs": lambda u: Call("sign", u),
}


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative with respect to `var`.

    Lightly constant-folded so derivative trees stay compact.  abs gets the
    rule sign(u)*u', with sign(0) = 0 as in the dual numbers: the symmetric
    subgradient at the kink.  sign is a call only derivative trees hold; the
    grammar and `evaluate` do not know it, and `compile_expr` emits it as
    ``np.sign``.
    """
    if isinstance(e, Const):
        return _c(0.0)
    if isinstance(e, Var):
        return _c(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        d = differentiate(e.operand, var)
        return _c(0.0) if _is(d, 0.0) else Neg(d)
    if isinstance(e, Bin):
        da = differentiate(e.left, var)
        db = differentiate(e.right, var)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        if e.op == "/":
            return _div(_sub(_mul(da, e.right), _mul(e.left, db)),
                        _pow(e.right, _c(2.0)))
        # power rule when the exponent is constant, log form otherwise
        if isinstance(e.right, Const):
            return _mul(_mul(e.right, _pow(e.left, _c(e.right.value - 1.0))), da)
        return _mul(e, _add(_mul(db, Call("ln", e.left)),
                            _mul(e.right, _div(da, e.left))))
    if isinstance(e, Call):
        inner = differentiate(e.arg, var)
        if _is(inner, 0.0):
            return _c(0.0)
        return _mul(_DERIVS[e.fn](e.arg), inner)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# compilation to plain Python (hot-loop evaluation)
# ---------------------------------------------------------------------------

#: parentheses an emitted expression nests; Python's compiler refuses 200
_NESTED = 50


def _emit_shared(exprs: tuple[Expr, ...], consts: dict[str, str],
                 lines: list[str]) -> list[str]:
    """Source of each tree, with every subtree that occurs more than once
    in `exprs`, or that nests `_NESTED` parentheses, computed once into a
    local whose assignment is appended to `lines`.  Subtrees are keyed by
    structure: a constant by the repr of its value (as `consts` is, so 0.0
    and -0.0 stay apart), a variable by its name, an operation by its
    operator and the keys of its children.  Keys are built bottom-up once
    per node object, as flat tuples ``(kind, label, child ids...)``, so the
    cost is linear in the size of the trees.  Leaves never get a local:
    they are names already."""
    ids: dict[tuple, int] = {}     # structural key -> id
    of_node: dict[int, int] = {}   # id() of a node object -> its id
    keys: list[tuple] = []
    uses: list[int] = []           # references to each id from the trees

    def add(key: tuple) -> int:
        k = ids.get(key)
        if k is None:
            k = ids[key] = len(keys)
            keys.append(key)
            uses.append(0)
            for child in key[2:]:
                uses[child] += 1
        return k

    def intern(e: Expr) -> int:
        known = of_node.get(id(e))
        if known is not None:
            return known
        if isinstance(e, Const):
            key: tuple = ("const", repr(float(e.value)))
        elif isinstance(e, Var):
            key = ("var", e.name)
        elif isinstance(e, Neg):
            key = ("neg", "-", intern(e.operand))
        elif isinstance(e, Bin) and e.op == "^" and (n := _factors(e.right)):
            # `_power`'s product, whose base occurs n times, so gets a local
            base = k = intern(e.left)
            for _ in range(n - 2):
                k = add(("bin", "*", k, base))
            key = ("bin", "*", k, base)
        elif isinstance(e, Bin):
            key = ("bin", e.op, intern(e.left), intern(e.right))
        elif isinstance(e, Call):
            key = ("call", e.fn, intern(e.arg))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        of_node[id(e)] = k = add(key)
        return k

    local: dict[int, str] = {}

    def emit(k: int) -> tuple[str, int]:   # source, parentheses nested
        kind, label, *children = keys[k]
        if kind == "const":
            return consts.setdefault(label, f"_c{len(consts)}"), 0
        if kind == "var":
            return label, 0
        if k in local:
            return local[k], 0
        # map calls emit from one frame per level, a generator from two
        args, depths = zip(*map(emit, children))
        if kind == "neg":
            text = f"(-{args[0]})"
        elif label == "^":
            text = f"_np.power({args[0]}, {args[1]})"
        elif kind == "bin":
            text = f"({args[0]} {label} {args[1]})"
        else:
            text = f"_np.{'log' if label == 'ln' else label}({args[0]})"
        if uses[k] < 2 and max(depths) < _NESTED:
            return text, 1 + max(depths)
        local[k] = f"_s{len(local)}"
        lines.append(f"        {local[k]} = {text}")
        return local[k], 0

    roots = [intern(e) for e in exprs]
    for k in roots:
        uses[k] += 1
    return [emit(k)[0] for k in roots]


def compile_expr(exprs: Sequence[Expr], names: Sequence[str]):
    """Compile trees into one kernel ``fn(x, t)`` for hot loops.

    `names` bind, in order, to the trailing-axis columns of x; expression i
    fills column i of one array shaped ``broadcast(x.shape[:-1], shape(t))
    + (len(exprs),)``.  The arithmetic is `evaluate`'s, but the kernel has no
    domain guards: constants are numpy float64 values and t is taken as an
    array, so it computes under IEEE semantics and returns nan or inf where
    `evaluate` raises (the integrators truncate such a sample alone).  u^2,
    u^3 and u^4 are `evaluate`'s products; every other power, constants'
    included, is `evaluate`'s numpy `power` and every call a numpy ufunc,
    and + - * / round alike in numpy's scalar math and its array loops, so
    one state gives the same bits as its row in a batch.  A subtree that
    occurs more than once in `exprs`, as f's subtrees do in its Jacobian,
    is computed once per call and reused; it is the same ufunc on the same
    inputs each time, so sharing it changes no bit.  A name that is neither
    in `names` nor t raises ExprEvalError here.
    """
    exprs, names = tuple(exprs), tuple(names)
    unbound = frozenset().union(*map(free_vars, exprs)) - {*names, "t"}
    if unbound:
        raise ExprEvalError(f"unbound variable(s) {sorted(unbound)}")
    lines = ["def _compiled(_x, t):", "    _x = _np.asarray(_x, dtype=float)",
             "    t = _np.asarray(t, dtype=float)"]
    lines += [f"    {name} = _x[..., {i}]" for i, name in enumerate(names)]
    batch = (f"_np.broadcast({names[0]}, t).shape" if names
             else "_np.broadcast_shapes(_x.shape[:-1], t.shape)")
    lines += [f"    _out = _np.empty({batch} + ({len(exprs)},))",
              "    with _np.errstate(all='ignore'):"]
    consts: dict[str, str] = {}   # repr of each constant -> its name
    columns = _emit_shared(exprs, consts, lines)
    lines += [f"        _out[..., {i}] = {text}"
              for i, text in enumerate(columns)]
    lines.append("    return _out")
    namespace = {"_np": np}
    namespace.update({name: np.float64(text) for text, name in consts.items()})
    source = ", ".join(map(to_source, exprs))
    exec(compile("\n".join(lines), f"<exprs {source}>", "exec"), namespace)
    return namespace["_compiled"]


def _dual_call(e: Call, d: Dual) -> Dual:
    v, g = d.value, d.grad
    fn = e.fn
    if fn == "sin":
        return Dual(np.sin(v), np.cos(v) * g)
    if fn == "cos":
        return Dual(np.cos(v), -np.sin(v) * g)
    if fn == "tan":
        t = np.tan(v)
        return Dual(t, (1.0 + t * t) * g)
    if fn == "exp":
        ev = np.exp(v)
        return Dual(ev, ev * g)
    if fn == "ln":
        return Dual(np.log(v), g / v)
    if fn == "sqrt":
        s = np.sqrt(v)
        return Dual(s, g / (2.0 * s))
    if fn == "abs":
        # sign(0) = 0, i.e. the symmetric subgradient at the kink
        return Dual(np.abs(v), np.sign(v) * g)
    if fn == "tanh":
        th = np.tanh(v)
        return Dual(th, (1.0 - th * th) * g)
    raise ExprEvalError(f"unknown function {fn!r}", e)

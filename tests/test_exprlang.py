import copy
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occtl.exprlang import (
    Bin, Call, Const, ExprEvalError, ExprSyntaxError, Neg, Var, _MAX_DEPTH,
    dual_env, evaluate, evaluate_dual, free_vars, parse, to_source, tokenize,
)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

def test_token_positions_strictly_increase():
    toks = tokenize("x1 + 2.5e-1*sin(t), y")
    positions = [t.position for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)
    assert all(t.lexeme for t in toks)
    assert any(t.kind == "comma" for t in toks)


def test_unexpected_character_reports_position():
    with pytest.raises(ExprSyntaxError) as exc:
        tokenize("x1 + X2")
    assert exc.value.position == 5


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(list("0123456789.eE" "abxyz_" "+-*/^(),"
                                    " \t\n\u00a0\u3000" "X$!\u200b")),
               max_size=30))
def test_tokens_cover_every_character_but_whitespace(source):
    try:
        toks = tokenize(source)
    except ExprSyntaxError as err:
        # the error is at the first non-space character no token covers:
        # everything before it tokenizes, and the character itself does not
        p = err.position
        assert not source[p].isspace()
        assert "".join(t.lexeme for t in tokenize(source[:p])) \
            == "".join(source[:p].split())
        with pytest.raises(ExprSyntaxError) as again:
            tokenize(source[:p + 1])
        assert again.value.position == p
        return
    assert all(source[t.position:t.position + len(t.lexeme)] == t.lexeme
               for t in toks)
    assert "".join(t.lexeme for t in toks) == "".join(source.split())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def test_two_term_sum_structure():
    assert parse("x1 + x2") == Bin("+", Var("x1"), Var("x2"))


def test_example_dynamics_parse_and_free_vars():
    src = "-0.1*x1^3 - (4 + sin(t) + 0.3*x1^2)*x2 + sin(x1 + x2) + cos(t)"
    ast = parse(src)
    assert free_vars(ast) == {"x1", "x2", "t"}


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2"), {}) == 512


def test_unary_minus_binds_looser_than_power():
    assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0
    # but tighter than *: -2*x is (-2)*x either way; check via -2^2 = -(2^2)
    assert evaluate(parse("-2^2"), {}) == -4.0


def test_left_associativity_of_minus_and_divide():
    assert evaluate(parse("2 - 3 - 4"), {}) == -5.0
    assert evaluate(parse("16/4/2"), {}) == 2.0


def test_pi_is_a_named_constant():
    assert evaluate(parse("pi"), {}) == pytest.approx(math.pi, abs=0)
    assert free_vars(parse("pi")) == frozenset()


def test_call_parses_into_call_node():
    assert parse("tanh(x1)") == Call("tanh", Var("x1"))


@pytest.mark.parametrize("src,pos", [
    ("(x1 + x2", 8),          # unbalanced paren -> error at end of input
    ("foo(x1)", 0),           # unknown function
    ("x1 + x2)", 7),          # trailing token
    ("2x", 1),                # no implicit multiplication
    ("x1 + ", 5),             # dangling operator
    ("x1, x2", 2),            # comma is not part of this grammar
    (")", 0),                 # a token no atom starts with
    ("1 + *", 4),
    ("sin(,)", 4),
])
def test_syntax_errors_carry_positions(src, pos):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(src)
    assert exc.value.position == pos


def test_empty_source_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


@pytest.mark.parametrize("opening, closing", [
    ("(", ")"), ("sin(", ")"), ("-", ""), ("x1^", "")])
def test_nesting_past_the_limit_is_a_syntax_error(opening, closing):
    # 200 levels would recurse past Python's frame limit; 100 parse
    with pytest.raises(ExprSyntaxError, match="nests too deeply"):
        parse(opening * 200 + "x1" + closing * 200)
    assert free_vars(parse(opening * 100 + "x1" + closing * 100)) == {"x1"}


def test_a_tree_past_the_depth_limit_is_a_syntax_error():
    # a sum of k terms is a tree k levels deep
    assert free_vars(parse(" + ".join(["x1"] * _MAX_DEPTH))) == {"x1"}
    with pytest.raises(ExprSyntaxError,
                       match=f"{_MAX_DEPTH + 1} levels deep, more than"):
        parse(" + ".join(["x1"] * (_MAX_DEPTH + 1)))


# ---------------------------------------------------------------------------
# canonical printer
# ---------------------------------------------------------------------------

ROUNDTRIP_SOURCES = [
    "x1 + x2",
    "-0.1*x1^3 - (4 + sin(t) + 0.3*x1^2)*x2 + sin(x1 + x2) + cos(t)",
    "2^3^2",
    "-x^2",
    "(x1 + x2)*(x1 - x2)",
    "a/(b*c)",
    "a/b*c",
    "x^-2",
    "--x1",
    "exp(2*t)*x1",
    "abs(x1)^3",
]


@pytest.mark.parametrize("src", ROUNDTRIP_SOURCES)
def test_print_parse_roundtrip(src):
    ast = parse(src)
    printed = to_source(ast)
    assert parse(printed) == ast
    assert to_source(parse(printed)) == printed  # idempotence


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const),
    st.sampled_from(["x1", "x2", "t", "a_1"]).map(Var),
)


def _branch(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: Bin(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(sorted({"sin", "cos", "exp", "tanh", "abs"})),
                  children).map(lambda t: Call(t[0], t[1])),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaf, _branch, max_leaves=25))
def test_printer_roundtrips_random_trees(tree):
    printed = to_source(tree)
    assert parse(printed) == tree
    assert to_source(parse(printed)) == printed


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_sin_zero():
    assert evaluate(parse("sin(x1)"), {"x1": 0.0}) == 0.0


def test_eval_known_component_value():
    # first component of the built-in time-invariant demo system at (3, 3)
    got = evaluate(parse("-3*x2 - sin(x1 + x2)"), {"x1": 3.0, "x2": 3.0})
    assert got == pytest.approx(-9.0 - math.sin(6.0), abs=1e-12)
    assert got == pytest.approx(-8.720585, abs=5e-7)


def test_eval_unbound_variable():
    with pytest.raises(ExprEvalError, match="unbound variable"):
        evaluate(parse("x1 + q"), {"x1": 1.0})


@pytest.mark.parametrize("src,env", [
    ("ln(x)", {"x": 0.0}),
    ("ln(x)", {"x": -1.0}),
    ("sqrt(x)", {"x": -4.0}),
    ("1/x", {"x": 0.0}),
    ("x^0.5", {"x": -2.0}),
])
def test_eval_domain_errors_name_subexpression(src, env):
    with pytest.raises(ExprEvalError):
        evaluate(parse(src), env)


def test_eval_is_referentially_transparent():
    ast = parse("sin(x1)*exp(x2) - 0.3*x1^2/(1 + x2^2)")
    env = {"x1": 0.7331, "x2": -1.25}
    first = evaluate(ast, env)
    assert all(evaluate(ast, env) == first for _ in range(5))


def test_eval_vectorized_matches_scalar_loop():
    ast = parse("-0.1*x1^3 - (4 + sin(t) + 0.3*x1^2)*x2 + sin(x1 + x2) + cos(t)")
    rng = np.random.default_rng(11)
    x1, x2, t = rng.uniform(-3, 3, size=(3, 64))
    batch = evaluate(ast, {"x1": x1, "x2": x2, "t": t})
    scalar = [evaluate(ast, {"x1": a, "x2": b, "t": c})
              for a, b, c in zip(x1, x2, t)]
    np.testing.assert_array_equal(batch, np.asarray(scalar))


# ---------------------------------------------------------------------------
# dual numbers
# ---------------------------------------------------------------------------

def test_dual_power_rule():
    env = dual_env({"x1": 3.0}, ["x1"])
    d = evaluate_dual(parse("x1^2"), env)
    assert d.value == 9.0
    np.testing.assert_allclose(d.grad, [6.0], rtol=0, atol=0)


def test_dual_partial_matches_hand_derivative():
    env = dual_env({"x1": 0.0, "x2": 0.0}, ["x1", "x2"])
    d = evaluate_dual(parse("-3*x2 - sin(x1 + x2)"), env)
    np.testing.assert_allclose(d.grad, [-1.0, -4.0], atol=1e-15)


def test_dual_constant_has_zero_gradient():
    env = dual_env({"x1": 1.0, "x2": 2.0}, ["x1", "x2"])
    d = evaluate_dual(parse("7.5"), env)
    assert d.value == 7.5
    np.testing.assert_array_equal(d.grad, np.zeros(2))


def test_abs_subgradient_zero_at_origin():
    env = dual_env({"x": 0.0}, ["x"])
    d = evaluate_dual(parse("abs(x)"), env)
    assert d.value == 0.0
    np.testing.assert_array_equal(d.grad, [0.0])


def test_dual_value_equals_plain_eval():
    ast = parse("exp(-x1)*cos(x2) + x1^3/(2 + tanh(t))")
    values = {"x1": 0.4, "x2": -1.1, "t": 2.0}
    d = evaluate_dual(ast, dual_env(values, ["x1", "x2", "t"]))
    assert float(d.value) == pytest.approx(float(evaluate(ast, values)), abs=0)


def test_dual_batched_matches_per_sample():
    ast = parse("sin(x1*x2) - 0.5*x2^2 + exp(0.1*x1)")
    rng = np.random.default_rng(5)
    x1, x2 = rng.uniform(-2, 2, size=(2, 32))
    batch = evaluate_dual(ast, dual_env({"x1": x1, "x2": x2}, ["x1", "x2"]))
    assert batch.grad.shape == (2, 32)
    for j in range(32):
        single = evaluate_dual(
            ast, dual_env({"x1": float(x1[j]), "x2": float(x2[j])}, ["x1", "x2"]))
        np.testing.assert_allclose(batch.grad[:, j], single.grad, rtol=1e-15)


# ---------------------------------------------------------------------------
# dual gradients vs central differences on random trees
# ---------------------------------------------------------------------------

_VARS = ("x1", "x2", "t")


def _random_tree(rng, depth, wild=False, pool=None):
    """Random tree biased toward numerically tame operations; `wild` adds ln,
    sqrt, variable powers and fractional or negative exponents, so many
    trees leave their domain somewhere.  Given a `pool` list, every subtree
    made is added to it, and a subtree is often an earlier one again, the
    same object or an equal copy, so the tree repeats subtrees."""
    if pool and rng.random() < 0.5:
        again = pool[rng.integers(len(pool))]
        return again if rng.random() < 0.5 else copy.deepcopy(again)
    tree = _random_node(rng, depth, wild, pool)
    if pool is not None:
        pool.append(tree)
    return tree


def _random_node(rng, depth, wild, pool):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(round(float(rng.uniform(-3, 3)), 3))
        return Var(_VARS[rng.integers(len(_VARS))])
    kind = rng.random()
    if kind < 0.15:
        return Neg(_random_tree(rng, depth - 1, wild, pool))
    if kind < 0.30:
        fns = ("sin", "cos", "tanh", "exp") + (("ln", "sqrt") if wild else ())
        fn = fns[rng.integers(len(fns))]
        return Call(fn, _random_tree(rng, depth - 1, wild, pool))
    if kind < 0.40:
        base = _random_tree(rng, depth - 1, wild, pool)
        exponent = round(float(rng.uniform(-3, 3)), 1) if wild \
            else float(rng.integers(2, 4))
        return Bin("^", base, Const(exponent))
    ops = "+-*/^" if wild else "+-*/"
    op = ops[rng.integers(len(ops))]
    return Bin(op, _random_tree(rng, depth - 1, wild, pool),
               _random_tree(rng, depth - 1, wild, pool))


def _central_diff(ast, values, h=1e-6):
    out = []
    for name in _VARS:
        hi = dict(values); hi[name] = values[name] + h
        lo = dict(values); lo[name] = values[name] - h
        out.append((evaluate(ast, hi) - evaluate(ast, lo)) / (2 * h))
    return np.asarray(out)


def test_dual_gradients_match_central_differences_random_trees():
    rng = np.random.default_rng(20240817)
    accepted = 0
    attempts = 0
    while accepted < 1000 and attempts < 20000:
        attempts += 1
        ast = _random_tree(rng, depth=6)
        values = {name: float(rng.uniform(-2, 2)) for name in _VARS}
        try:
            d = evaluate_dual(ast, dual_env(values, list(_VARS)))
            fd = _central_diff(ast, values)
        except ExprEvalError:
            continue
        grad = np.asarray(d.grad, dtype=float)
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(fd))):
            continue
        if abs(float(d.value)) > 1e3 or np.max(np.abs(grad)) > 1e4:
            continue  # finite differences lose accuracy on huge values
        assert np.all(np.abs(grad - fd) <= 1e-5 * (1.0 + np.abs(grad))), \
            f"dual/fd mismatch for {to_source(ast)} at {values}"
        accepted += 1
    assert accepted == 1000, f"only {accepted} usable random cases"


# ---------------------------------------------------------------------------
# symbolic differentiation and compilation
# ---------------------------------------------------------------------------

from occtl.exprlang import compile_expr, differentiate  # noqa: E402


def test_symbolic_derivative_matches_dual_and_fd():
    rng = np.random.default_rng(99)
    sources = [
        "-0.1*x1^3 - (4 + sin(t) + 0.3*x1^2)*x2 + sin(x1 + x2) + cos(t)",
        "-3*x2 - sin(x1 + x2)",
        "exp(2*t)*x1",
        "sqrt(1 + x1^2)/(2 + cos(x2))",
        "tanh(x1*x2) + ln(4 + x1)",
        "x1^x2",
    ]
    for src in sources:
        ast = parse(src)
        for _ in range(20):
            values = {"x1": float(rng.uniform(0.1, 2)),
                      "x2": float(rng.uniform(0.1, 2)),
                      "t": float(rng.uniform(0, 5))}
            dual = evaluate_dual(ast, dual_env(values, list(_VARS)))
            for j, name in enumerate(_VARS):
                sym = evaluate(differentiate(ast, name), values)
                assert float(sym) == pytest.approx(float(dual.grad[j]),
                                                   rel=1e-12, abs=1e-12)
            fd = _central_diff(ast, values)
            np.testing.assert_allclose(np.asarray(dual.grad, float), fd,
                                       rtol=1e-5, atol=1e-5)
    # at a negative base only the partial along the exponent takes ln(x1),
    # so the partials along x1 and t stay defined there
    ast = parse("x1^x2")
    for x1, x2 in [(-2.0, 2.0), (-0.5, 3.0), (-1.7, -1.0)]:
        values = {"x1": x1, "x2": x2, "t": 0.5}
        dual = evaluate_dual(ast, dual_env(values, list(_VARS)))
        for j, name in ((0, "x1"), (2, "t")):
            sym = evaluate(differentiate(ast, name), values)
            assert float(dual.grad[j]) == pytest.approx(float(sym), rel=1e-12)
        assert math.isnan(dual.grad[1])
    assert evaluate_dual(ast, dual_env({"x1": -2.0, "x2": 2.0},
                                       ["x1", "x2"])).grad[0] == -4.0


def test_a_first_power_differentiates_to_one():
    assert differentiate(parse("x^1"), "x") == Const(1.0)


def test_symbolic_abs_derivative_is_its_sign_with_zero_at_the_kink():
    # sign(u)*u', the dual numbers' subgradient; sign is a kernel call only
    d = differentiate(parse("abs(x1*x2)"), "x1")
    assert d == Bin("*", Call("sign", parse("x1*x2")), Var("x2"))
    fn = compile_expr([d], ["x1", "x2"])
    x = np.array([[2.0, -3.0], [-2.0, -3.0], [0.0, 5.0], [-0.0, 5.0],
                  [np.nan, 1.0]])
    got = fn(x, 0.0)[:, 0]
    dual = evaluate_dual(parse("abs(x1*x2)"), dual_env(
        {"x1": x[:, 0], "x2": x[:, 1]}, ["x1"])).grad[0]
    assert got.tobytes() == dual.tobytes()
    np.testing.assert_array_equal(got, [3.0, -3.0, 0.0, 0.0, np.nan])
    with pytest.raises(ExprSyntaxError, match="unknown function 'sign'"):
        parse("sign(x1)")


def test_compiled_matches_interpreted():
    rng = np.random.default_rng(13)
    sources = [
        "-0.1*x1^3 - (4 + sin(t) + 0.3*x1^2)*x2 + sin(x1 + x2) + cos(t)",
        "x1/(1 + x2^2)",
        "sqrt(x1^2 + x2^2)",
        "ln(exp(x1) + 1)",
        "2^3^2",
        "-x1^2",
        # a power of constants is the same product as a power of a variable
        "0.7^4",
        "1.1^3",
        "(0-1.1)^3",
        "x1 + 1.1^3",
    ]
    for src in sources:
        ast = parse(src)
        fn = compile_expr([ast], ["x1", "x2"])
        for _ in range(25):
            values = {"x1": float(rng.uniform(-2, 2)),
                      "x2": float(rng.uniform(-2, 2)),
                      "t": float(rng.uniform(0, 5))}
            env = {k: values[k] for k in free_vars(ast)}
            x = np.array([values["x1"], values["x2"]])
            assert float(fn(x, values["t"])[0]) == float(evaluate(ast, env))


def test_compiled_kernel_computes_under_ieee_where_evaluate_raises():
    # no domain guards: each violation `evaluate` raises for is numpy's
    # value, in the kernel and in the dual numbers alike
    for src, env, want in [
            ("ln(x)", {"x": -1.0}, np.nan), ("sqrt(x)", {"x": -1.0}, np.nan),
            ("1/x", {"x": 0.0}, np.inf), ("x^0.5", {"x": -2.0}, np.nan),
            ("x^y", {"x": -2.0, "y": 0.5}, np.nan),
            ("x^y", {"x": 0.0, "y": -1.0}, np.inf)]:
        with pytest.raises(ExprEvalError):
            evaluate(parse(src), env)
        names = list(env)
        row = np.array(list(env.values()))
        fn = compile_expr([parse(src)], names)
        np.testing.assert_array_equal(fn(row, 0.0), [want])
        np.testing.assert_array_equal(
            fn(np.stack([row, np.full_like(row, 4.0)]), 0.0)[0], [want])
        d = evaluate_dual(parse(src), dual_env(env, names))
        np.testing.assert_array_equal(d.value, want)
        if src == "ln(x)":
            # ln's rule 1/x is defined off ln's domain, as `differentiate`'s
            np.testing.assert_array_equal(d.grad, [-1.0])
        else:
            assert not np.isfinite(d.grad).any(), src
    # constant-only subtrees and t follow numpy too, never Python's float
    # exceptions or complex powers
    for src, want in [("1/0", np.inf), ("0^(0-1)", np.inf),
                      ("(0-8)^(1/3)", np.nan), ("1e200^2", np.inf),
                      ("1/t", np.inf), ("t/t", np.nan),
                      ("x + (0-1)^0.5", np.nan)]:
        fn = compile_expr([parse(src)], ["x"])
        for t in (0.0, 0, np.zeros(3)):
            out = fn(np.array([1.0]), t)
            assert out.dtype == float
            np.testing.assert_array_equal(out, np.full(out.shape, want))
            d = evaluate_dual(parse(src), dual_env({"x": 1.0, "t": t}, ["x"]))
            np.testing.assert_array_equal(d.value, np.full(np.shape(t), want))


def _bits(v) -> int:
    return np.asarray(v, dtype=float).reshape(()).view(np.uint64).item()


@pytest.mark.parametrize("src, env", [
    ("2^2000", {}), ("x^5", {"x": 1e103}), ("x^2.5", {"x": 1e200}),
    ("x^y", {"x": 10.0, "y": 400.0})])
def test_an_overflowing_float_power_is_inf_as_in_the_kernel(src, env):
    # Python's float ** raises OverflowError here; numpy's pow gives inf
    got = evaluate(parse(src), env)
    row = compile_expr([parse(src)], list(env))(
        np.array([list(env.values())]).reshape(1, len(env)), 0.0)[0, 0]
    assert got == math.inf and _bits(got) == _bits(row)


def test_a_float_power_has_the_bits_of_its_kernel_row():
    # a float takes numpy's power ufunc as a row does, not libm's pow, which
    # rounds some of these pairs apart
    rng = np.random.default_rng(29)
    fn = compile_expr([parse("x^y")], ["x", "y"])
    for a, b in zip(np.exp(rng.uniform(-100, 100, 2000)).tolist(),
                    rng.uniform(-5, 5, 2000).tolist()):
        assert _bits(evaluate(parse("x^y"), {"x": a, "y": b})) \
            == _bits(fn(np.array([[a, b]]), 0.0)[0, 0]), (a, b)


def test_integer_bindings_take_a_float_power():
    # numpy refuses an integer to a negative integer power; evaluate does not
    ast = parse("x^y")
    got = evaluate(ast, {"x": np.array([2, 3]), "y": -1})
    assert got.dtype == float and got.tolist() == [0.5, 1 / 3]
    got = evaluate(ast, {"x": 2, "y": -1})
    assert isinstance(got, np.float64) and got == 0.5


@pytest.mark.parametrize("source, env", [
    ("x^2", {"x": np.array([2 ** 40])}),   # int64 wraps to 0 in x*x
    ("x*y", {"x": np.array([2 ** 62]), "y": 4}),
    ("x^3", {"x": 3}),                     # the int 27 in integer arithmetic
    ("x - y", {"x": np.array([True]), "y": np.uint8(200)}),
    ("x*y + 0.1", {"x": np.float32([1.1]), "y": np.float32(3.3)}),
])
def test_bindings_other_than_float_take_the_bits_of_their_kernel_row(
        source, env):
    names = sorted(env)
    row = np.array([[float(np.asarray(env[name]).item()) for name in names]])
    want = compile_expr([parse(source)], names)(row, 0.0)[0, 0]
    got = evaluate(parse(source), env)
    assert np.asarray(got).dtype == float and _bits(got) == _bits(want)


def test_compiled_matches_evaluate_bit_for_bit_or_returns_where_it_raises():
    # evaluate sees each sample as floats and as a one-element batch, and
    # gives its row's bits either way; a sample outside the domain raises in
    # evaluate and only comes out nan or inf in its own row of the batch
    rng = np.random.default_rng(5)
    matched = raised = 0
    # then trees that repeat subtrees, which the kernel computes once
    for pool in [None] * 400 + [[] for _ in range(200)]:
        ast = _random_tree(rng, depth=5, wild=True, pool=pool)
        x = rng.uniform(-2, 2, size=(8, 2))
        t = rng.uniform(-2, 2, size=8)
        out = compile_expr([ast], ["x1", "x2"])(x, t)[:, 0]
        for j in range(8):
            at = f"{to_source(ast)} at x={x[j]}, t={t[j]}"
            env = {"x1": x[j:j + 1, 0], "x2": x[j:j + 1, 1], "t": t[j:j + 1]}
            floats = {name: float(v[0]) for name, v in env.items()}
            try:
                want = evaluate(ast, env)
            except ArithmeticError:
                raised += 1
                with pytest.raises(ArithmeticError):
                    evaluate(ast, floats)
                continue
            assert _bits(out[j]) == _bits(want), at
            assert _bits(evaluate(ast, floats)) == _bits(want), at
            matched += 1
    assert matched > 1000 and raised > 200, (matched, raised)


def test_shared_subexpressions_keep_signed_zeros_and_nans_apart():
    # Const(0.0) == Const(-0.0), but x1*0.0 and x1*-0.0 differ in sign, so
    # the kernel must not share them; nan constants are shared by repr
    x1, x2 = Var("x1"), Var("x2")
    zero, neg_zero, nan = Const(0.0), Const(-0.0), Const(math.nan)
    exprs = [Bin("*", x1, zero), Bin("*", x1, neg_zero),
             Bin("-", Bin("*", x1, neg_zero), Bin("*", x1, zero)),
             Call("sin", Bin("*", x2, neg_zero)), Neg(zero), Neg(neg_zero),
             Bin("+", Call("sin", Bin("*", x2, nan)),
                 Call("sin", Bin("*", x2, Const(math.nan)))),
             Bin("*", Neg(Bin("*", x1, nan)), Bin("*", x1, nan))]
    fn = compile_expr(exprs, ["x1", "x2"])
    x = np.array([[2.0, -3.0], [-2.0, 0.0], [0.0, -0.0], [-0.0, 5.0],
                  [np.inf, -np.inf], [np.nan, 1.0]])
    t = np.zeros(len(x))
    out = fn(x, t)
    for i, e in enumerate(exprs):
        want = evaluate(e, {"x1": x[:, 0], "x2": x[:, 1], "t": t})
        np.testing.assert_array_equal(
            out[:, i].view(np.uint64),
            np.broadcast_to(np.asarray(want, dtype=float), t.shape)
            .view(np.uint64), err_msg=to_source(e))


class _CountingNumpy:
    """numpy, with the calls made to each of `counted` tallied."""

    def __init__(self, *counted):
        self.counted, self.calls = counted, Counter()

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.counted:
            return fn

        def counting(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counting


def test_kernel_computes_each_shared_subexpression_once(monkeypatch):
    # Jf repeats f's subtrees: ex1's (f, Jf xi) kernel needs sin(t), cos(t),
    # sin(x1 + x2) and cos(x1 + x2) once each, not 11 sin/cos calls
    from occtl.sysmodel import augment, builtin_system
    kernel = augment(builtin_system("ex1-timevarying"))._field
    state = np.random.default_rng(1).uniform(-3, 3, size=(50, 4))
    want = kernel(state, 0.5)
    counting = _CountingNumpy("sin", "cos")
    monkeypatch.setitem(kernel.__globals__, "_np", counting)
    np.testing.assert_array_equal(kernel(state, 0.5), want)
    assert counting.calls == {"sin": 2, "cos": 2}


#: bases where a product and pow part ways, if anywhere: signed zeros and
#: infinities, nan, the least subnormal and cubes past the largest double
POWER_EDGES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e103, -1e103)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_small_powers_are_one_product_in_every_evaluator(k):
    # u^k for k = 2, 3, 4 is ((u*u)*u)*u cut at k factors, in the kernel,
    # in `evaluate` and in the dual numbers, on one row and in a batch
    rng = np.random.default_rng(k)
    bases = np.concatenate([POWER_EDGES, -rng.uniform(0, 10, 1992)])
    ast = parse(f"x^{k}")
    fn = compile_expr([ast], ["x"])
    batch = fn(bases[:, np.newaxis], 0.0)[:, 0]
    with np.errstate(all="ignore"):
        want = bases * bases
        for _ in range(k - 2):
            want = want * bases
    assert batch.tobytes() == want.tobytes()
    assert evaluate(ast, {"x": bases}).tobytes() == want.tobytes()
    assert evaluate_dual(ast, dual_env({"x": bases}, ["x"])) \
        .value.tobytes() == want.tobytes()
    for j, base in enumerate(bases[:len(POWER_EDGES) + 8]):
        row = fn(np.array([[base]]), 0.0)[0, 0]
        for got in (row, evaluate(ast, {"x": float(base)}),
                    evaluate_dual(ast, dual_env({"x": base}, ["x"])).value):
            assert _bits(got) == _bits(want[j]), (base, got)
    if k == 2:   # numpy's pow squares exactly, so this rule moved no bit
        assert np.power(bases, 2.0).tobytes() == want.tobytes()


def test_other_powers_stay_numpy_power(monkeypatch):
    # only a constant 2, 3 or 4 makes a product; the exponent's value alone
    # (x^y at y = 3) does not, and a power of constants is `power` too
    sources = []

    def capturing(text, *args):
        sources.append(text)
        return compile(text, *args)
    monkeypatch.setattr("occtl.exprlang.compile", capturing, raising=False)
    x = np.array([[-1.5, 3.0], [0.5, 3.0]])
    for src in ("x^5", "x^2.5", "x^-2", "x^y", "2^0.5", "(0-1.1)^5",
                "2^3^2"):
        fn = compile_expr([parse(src)], ["x", "y"])
        counting = _CountingNumpy("power")
        monkeypatch.setitem(fn.__globals__, "_np", counting)
        row = fn(x, 0.0)[1, 0]
        assert counting.calls == {"power": 1}, src
        want = evaluate(parse(src), {"x": 0.5, "y": 3.0})
        assert _bits(row) == _bits(want), src
    assert len(sources) == 7 and not any("**" in text for text in sources)


def test_ex1_kernels_make_no_power_call_and_share_a_powers_base(monkeypatch):
    from occtl.sysmodel import augment, builtin_system, vector_field
    spec = builtin_system("ex1-timevarying")
    state = np.random.default_rng(3).uniform(-3, 3, size=(50, 4))
    for kernel, x in ((vector_field(spec), state[:, :2]),
                      (augment(spec)._field, state)):
        counting = _CountingNumpy("power")
        monkeypatch.setitem(kernel.__globals__, "_np", counting)
        kernel(x, 0.5)
        assert counting.calls == {}
    fn = compile_expr([parse("sin(x1 + x2)^3")], ["x1", "x2"])
    counting = _CountingNumpy("sin", "power")
    monkeypatch.setitem(fn.__globals__, "_np", counting)
    fn(state[:, :2], 0.0)
    assert counting.calls == {"sin": 1}


def test_compiled_vectorized():
    ast = parse("sin(x1) + x1^3")
    fn = compile_expr([ast], ["x1"])
    xs = np.linspace(-2, 2, 11)
    np.testing.assert_array_equal(fn(xs[:, np.newaxis], 0.0)[:, 0],
                                  evaluate(ast, {"x1": xs}))


@pytest.mark.parametrize("src", [
    " + ".join(["-0.001*x1"] * 250),
    "sin(" * 120 + "x1" + ")" * 120,
    "-" * 120 + "x1^2"])
def test_deep_trees_compile_to_the_bits_of_evaluate(src):
    # a parenthesis pair per operation of a 250-term chain nests past the
    # 200 Python's compiler takes; locals split it, the operations stay
    ast = parse(src)
    xs = np.random.default_rng(2).uniform(-5, 5, 101)
    got = compile_expr([ast], ["x1"])(xs[:, np.newaxis], 0.0)[:, 0]
    assert got.tobytes() == evaluate(ast, {"x1": xs}).tobytes()


def test_compiled_list_fills_one_column_per_expression():
    exprs = [parse(s) for s in ("x1*t", "x2 - x1", "3", "t")]
    fn = compile_expr(exprs, ["x1", "x2"])
    x = np.array([[1.0, 2.0], [-0.5, 4.0], [0.0, -0.0]])
    t = np.array([2.0, 3.0, 5.0])
    out = fn(x, t)
    assert out.shape == (3, 4)
    for i, e in enumerate(exprs):
        want = evaluate(e, {"x1": x[:, 0], "x2": x[:, 1], "t": t})
        np.testing.assert_array_equal(out[:, i], np.broadcast_to(want, (3,)))
    # a time grid broadcasts against a single state
    assert fn(np.array([1.0, 2.0]), t).shape == (3, 4)
    assert fn(np.array([1.0, 2.0]), 0.5).shape == (4,)


@pytest.mark.parametrize("x_shape, t_shape, out_shape", [
    ((2,), (), (3,)),
    ((4, 2), (4,), (4, 3)),
    ((4, 2, 2), (4, 1), (4, 2, 3)),
    ((2,), (5,), (5, 3)),
    ((0, 2), (0,), (0, 3)),
])
def test_compiled_output_shape_is_the_broadcast_of_x_rows_and_t(
        x_shape, t_shape, out_shape):
    exprs = [parse(s) for s in ("x1*t", "x2 - x1", "3")]
    fn = compile_expr(exprs, ["x1", "x2"])
    rng = np.random.default_rng(0)
    x, t = rng.uniform(-1, 1, x_shape), rng.uniform(0, 1, t_shape)
    out = fn(x, t)
    assert out.shape == out_shape
    for i, e in enumerate(exprs):
        want = evaluate(e, {"x1": x[..., 0], "x2": x[..., 1], "t": t})
        np.testing.assert_array_equal(out[..., i],
                                      np.broadcast_to(want, out_shape[:-1]))
    # a kernel that binds no name takes the batch shape from x alone
    assert compile_expr([parse("2*t")], [])(np.ones(x_shape[:-1] + (0,)),
                                            t).shape == out_shape[:-1] + (1,)


@pytest.mark.parametrize("x_shape, t_shape", [((4, 2), (3,)),
                                              ((4, 2, 2), (4,))])
def test_compiled_rejects_times_that_do_not_broadcast(x_shape, t_shape):
    fn = compile_expr([parse("x1*t")], ["x1", "x2"])
    with pytest.raises(ValueError):
        fn(np.ones(x_shape), np.ones(t_shape))
    with pytest.raises(ValueError):
        compile_expr([parse("2*t")], [])(np.ones(x_shape[:-1] + (0,)),
                                         np.ones(t_shape))


def test_compiled_names_are_positional_and_unbound_names_rejected():
    fn = compile_expr([parse("a - b")], ["b", "a"])
    assert fn(np.array([1.0, 5.0]), 0.0)[0] == 4.0
    with pytest.raises(ExprEvalError, match="unbound"):
        compile_expr([parse("x1 + y")], ["x1"])


@pytest.mark.parametrize("src", ["(x1 + x2)^1.7", "(x1*x2)^0.5"])
def test_compiled_power_does_not_depend_on_the_batch(src):
    # `**` on one state took numpy's scalar math and differed in the last
    # bit from the batch's array loop on some rows of these draws
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 2.0, size=(2000, 2))
    t = rng.uniform(0.0, 1.0, size=2000)
    fn = compile_expr([parse(src)], ["x1", "x2"])
    batch = fn(x, t)
    differ = [j for j in range(len(x))
              if fn(x[j], t[j]).tobytes() != batch[j].tobytes()]
    assert differ == []


import ast
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import occtl
from occtl import cli
from occtl.exprlang import ExprEvalError, dual_env, evaluate_dual, to_source
from occtl.sysmodel import (
    BUILTIN_NAMES, SystemSpec, SystemValidationError, augment, builtin_system,
    eval_fh, finite_diff_jacobian, jacobians, json_safe, output_map,
    system_from_json,
)


def test_builtin_names_cover_the_four_demo_systems():
    assert set(BUILTIN_NAMES) == {
        "lti-remark1", "lti-remark1-badout", "ex1-timevarying",
        "ex2-timeinvariant"}


def test_ex2_is_valid_and_time_invariant():
    sys2 = builtin_system("ex2-timeinvariant")
    assert sys2.n == 2 and sys2.m == 1
    assert sys2.time_invariant


def test_ex1_is_time_varying():
    assert not builtin_system("ex1-timevarying").time_invariant


def test_badout_output_is_time_varying():
    assert not builtin_system("lti-remark1-badout").time_invariant


def test_unknown_state_variable_rejected():
    with pytest.raises(SystemValidationError, match="unknown variable"):
        SystemSpec.from_strings("bad", 2, 1, ["x3", "x1"], ["x1"])


def test_dimension_mismatch_rejected():
    with pytest.raises(SystemValidationError, match="expected n=2"):
        SystemSpec.from_strings("bad", 2, 1, ["x1"], ["x1"])
    with pytest.raises(SystemValidationError, match="expected m=2"):
        SystemSpec.from_strings("bad", 1, 2, ["-x1"], ["x1"])
    with pytest.raises(SystemValidationError, match="need n >= 1 and m >= 1"):
        SystemSpec.from_strings("bad", 0, 1, [], ["1"])


def test_abs_in_dynamics_rejected():
    with pytest.raises(SystemValidationError, match="abs"):
        SystemSpec.from_strings("bad", 1, 1, ["-abs(x1)"], ["x1"])


def test_unknown_builtin_name():
    with pytest.raises(KeyError):
        builtin_system("nope")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_lti_field_value():
    f, y = eval_fh(builtin_system("lti-remark1"), [1.0, 0.0], 0.0)
    np.testing.assert_allclose(f, [-2.0, 1.0], atol=0)
    np.testing.assert_allclose(y, [1.0], atol=0)


def test_ex2_field_value_at_3_3():
    f, y = eval_fh(builtin_system("ex2-timeinvariant"), [3.0, 3.0], 0.0)
    np.testing.assert_allclose(
        f, [-9.0 - math.sin(6.0), -9.0 + math.cos(6.0)], atol=1e-12)
    np.testing.assert_allclose(f, [-8.720585, -8.039830], atol=5e-7)
    assert y[0] == 6.0


def test_identity_output_map_returns_state():
    spec = SystemSpec.from_strings(
        "ident", 2, 2, ["-x1", "-x2"], ["x1", "x2"])
    x = np.array([0.3, -1.7])
    _, y = eval_fh(spec, x, 0.0)
    np.testing.assert_array_equal(y, x)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_output_map_matches_the_reference_bit_for_bit(name):
    spec = builtin_system(name)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-4, 4, size=(17, 2))
    ts = rng.uniform(0, 3, size=17)
    h = output_map(spec)
    assert output_map(spec) is h
    np.testing.assert_array_equal(h(xs, ts), eval_fh(spec, xs, ts)[1])
    np.testing.assert_array_equal(h(xs[4], ts[4]),
                                  eval_fh(spec, xs[4], ts[4])[1])


def test_output_map_is_nan_where_the_reference_raises():
    spec = SystemSpec.from_strings(
        "sqrt-out", 2, 1, ["-x1", "-x2"], ["sqrt(x1 - 0.25)"])
    y = output_map(spec)(np.array([[1.25, 0.0], [0.1, 0.0]]), 0.0)
    assert y[0, 0] == 1.0 and np.isnan(y[1, 0])
    with pytest.raises(ExprEvalError, match="sqrt of a negative value"):
        eval_fh(spec, np.array([0.1, 0.0]), 0.0)


def test_json_safe_nulls_every_non_finite_number_and_keeps_booleans():
    doc = {"a": [1.0, math.nan, (np.inf, -np.inf)], "ok": True,
           "flag": np.bool_(False), "n": np.int64(3), "s": "x", "none": None,
           "arr": np.array([[0.5, np.nan], [-0.0, 2.0]]),
           "scalar": np.float64(-np.inf), "nested": {"v": np.float32(0.25)}}
    safe = json_safe(doc)
    assert safe == {"a": [1.0, None, [None, None]], "ok": True, "flag": False,
                    "n": 3, "s": "x", "none": None,
                    "arr": [[0.5, None], [-0.0, 2.0]], "scalar": None,
                    "nested": {"v": 0.25}}
    assert safe["ok"] is True and safe["flag"] is False
    json.dumps(safe, allow_nan=False)


#: the functions that may evaluate the trees: the reference path that the
#: compiled kernels and the difference-quotient oracles are checked against
REFERENCE_PATH = {"finite_diff_jacobian", "vdot_fd"}


def _where(matches) -> set:
    """(module file, top-level name) of every node of `src/occtl` for which
    `matches(node)` holds."""
    found = set()
    for path in sorted(Path(occtl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if matches(node):
                    found.add((path.name, getattr(top, "name", None)))
    return found


def _calls(name: str):
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_eval_fh_is_called_only_by_the_reference_path():
    callers = _where(_calls("eval_fh"))
    assert {name for _, name in callers} == REFERENCE_PATH, callers


def test_only_the_reference_path_raises_and_only_main_catches():
    # the tree walker is the one evaluator with domain guards; production
    # evaluates through compiled kernels only, which never raise, so the
    # only handler left is the CLI's last resort for a stray error
    assert _where(_calls("evaluate_dual")) == set()
    assert _where(_calls("dual_env")) == set()
    assert _where(_calls("evaluate")) == {
        ("sysmodel.py", "_eval_stack"), ("lyapunov.py", "vdot_fd"),
        ("lyapunov.py", "reverify_counterexample")}

    def catches(node):
        return isinstance(node, ast.ExceptHandler) and "ExprEvalError" in {
            getattr(n, "id", None) for n in ast.walk(node.type or ast.Pass())}
    assert _where(catches) == {("cli.py", "main")}


def test_the_reporter_is_the_one_writer_of_files_and_series_text():
    # series files look one way: `_Reporter.write_series` renders them, and
    # only the CLI writes any file
    writers = {"write_text", "write_bytes", "open"}
    assert {path for path, _ in _where(
        lambda node: any(_calls(name)(node) for name in writers))} == {"cli.py"}

    def formats_17g(node):
        return isinstance(node, ast.Constant) and ".17g" in str(node.value)
    assert _where(formats_17g) == {("cli.py", "_Reporter")}
    [reporter] = [top for top in ast.parse(Path(cli.__file__).read_text()).body
                  if getattr(top, "name", None) == "_Reporter"]
    assert {method.name for method in reporter.body
            if any(map(formats_17g, ast.walk(method)))} == {"write_series"}


def test_every_name_in_a_modules_all_resolves():
    for path in sorted(Path(occtl.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"occtl.{path.stem}")
        stale = [name for name in getattr(module, "__all__", ())
                 if not hasattr(module, name)]
        assert not stale, (path.name, stale)


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a name only the tests use belongs in the tests: each name in a
    # module's __all__ is read in `src/occtl` outside its own definition
    # (export lists and imports are no reads), or named in bench/ or demos/
    package = Path(occtl.__file__).parent
    reads = set()   # (name read, top-level name of the definition reading it)
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            reads.update((getattr(node, "id", None) or node.attr,
                          getattr(top, "name", None))
                         for node in ast.walk(top)
                         if isinstance(node, ast.Attribute) or (
                             isinstance(node, ast.Name)
                             and isinstance(node.ctx, ast.Load)))
    elsewhere = "\n".join(p.read_text() for folder in ("bench", "demos")
                          for p in sorted((package.parents[1] / folder)
                                          .glob("*.py")))
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"occtl.{path.stem}")
        unused += [(path.name, name) for name in getattr(module, "__all__", ())
                   if not re.search(rf"\b{name}\b", elsewhere)
                   and not any(read == name and top != name
                               for read, top in reads)]
    assert unused == []


def test_every_module_level_import_is_read(monkeypatch):
    # a name a module imports is read there or exported in its __all__;
    # the only exceptions are `noqa: F401` imports that bench/tracing.py's
    # spans look up on that module, which go once the tracer stops naming
    # them
    monkeypatch.syspath_prepend(str(Path(occtl.__file__).parents[2] / "bench"))
    import tracing
    spanned = {(module.__name__, name) for module, name, _ in tracing._SPANS}
    unused = []
    for path in sorted(Path(occtl.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        exported = {name for top in tree.body if isinstance(top, ast.Assign)
                    and any(getattr(target, "id", None) == "__all__"
                            for target in top.targets)
                    for name in ast.literal_eval(top.value)}
        for top in tree.body:
            if not isinstance(top, (ast.Import, ast.ImportFrom)) \
                    or getattr(top, "module", None) == "__future__":
                continue
            noqa = any("noqa: F401" in line
                       for line in lines[top.lineno - 1:top.end_lineno])
            for alias in top.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read | exported and not (
                        noqa and (f"occtl.{path.stem}", name) in spanned):
                    unused.append((path.name, name))
    assert unused == []


def test_eval_fh_batched_matches_loop():
    spec = builtin_system("ex1-timevarying")
    rng = np.random.default_rng(3)
    xs = rng.uniform(-4, 4, size=(17, 2))
    f_batch, y_batch = eval_fh(spec, xs, 0.37)
    for i, x in enumerate(xs):
        f1, y1 = eval_fh(spec, x, 0.37)
        np.testing.assert_array_equal(f_batch[i], f1)
        np.testing.assert_array_equal(y_batch[i], y1)


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def test_lti_jacobian_is_constant():
    spec = builtin_system("lti-remark1")
    for x, t in [((0.0, 0.0), 0.0), ((3.0, -7.0), 2.5)]:
        b = jacobians(spec, x, t)
        np.testing.assert_allclose(b.Jf, [[-2.0, 1.0], [1.0, -2.0]], atol=1e-14)


def test_ex2_jacobian_at_origin_matches_central_differences():
    spec = builtin_system("ex2-timeinvariant")
    b = jacobians(spec, [0.0, 0.0], 0.0)
    np.testing.assert_allclose(b.Jf, [[-1.0, -4.0], [-3.0, 0.0]], atol=1e-12)
    Jf_fd, _ = finite_diff_jacobian(spec, [0.0, 0.0], 0.0, step=1e-6)
    np.testing.assert_allclose(b.Jf, Jf_fd, atol=1e-9)


def test_ex1_output_jacobian_is_ones():
    spec = builtin_system("ex1-timevarying")
    b = jacobians(spec, [0.4, -2.2], 1.3)
    np.testing.assert_allclose(b.Jh, [[1.0, 1.0]], atol=0)


def test_dh_dt_for_time_weighted_output():
    spec = builtin_system("lti-remark1-badout")  # h = exp(2 t) x1
    b = jacobians(spec, [1.5, 0.0], 0.25)
    assert b.dh_dt[0] == pytest.approx(2.0 * math.exp(0.5) * 1.5, rel=1e-14)
    np.testing.assert_allclose(b.Jh, [[math.exp(0.5), 0.0]], rtol=1e-14)


def test_finite_diff_requires_positive_step():
    with pytest.raises(ValueError):
        finite_diff_jacobian(builtin_system("lti-remark1"), [0.0, 0.0], 0.0, 0.0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compiled_jacobians_match_central_differences_randomly(name):
    spec = builtin_system(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(50):
        x = rng.uniform(-5, 5, size=spec.n)
        t = float(rng.uniform(0, 7))
        b = jacobians(spec, x, t)
        Jf_fd, Jh_fd = finite_diff_jacobian(spec, x, t, step=1e-6)
        scale_f = 1.0 + np.max(np.abs(b.Jf))
        scale_h = 1.0 + np.max(np.abs(b.Jh))
        assert np.max(np.abs(b.Jf - Jf_fd)) <= 1e-5 * scale_f
        assert np.max(np.abs(b.Jh - Jh_fd)) <= 1e-5 * scale_h


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_jacobians_equal_the_dual_numbers_bit_for_bit(name):
    spec = builtin_system(name)
    rng = np.random.default_rng(500)
    names = list(spec.state_names) + ["t"]
    for _ in range(100):
        point = rng.uniform(-5, 5, size=spec.n + 1)
        env = dual_env(dict(zip(names, point)), names)
        b = jacobians(spec, point[:-1], point[-1])
        Jf = np.array([evaluate_dual(e, env).grad[:-1] for e in spec.f])
        grads = np.array([evaluate_dual(e, env).grad for e in spec.h])
        assert np.isfinite(grads).all()
        assert np.array_equal(b.Jf, Jf)
        assert np.array_equal(b.Jh, grads[:, :-1])
        assert np.array_equal(b.dh_dt, grads[:, -1])


def test_jacobians_of_powers_equal_the_dual_numbers_bit_for_bit():
    # x^5's partial holds x^4, which compiles to a product; the dual numbers
    # must take a^(p-1) as the same product, and x^2.5's as the same pow
    spec = SystemSpec.from_strings(
        "powers", 2, 2, ["x1^5 - x2^4", "sin(x1)^3 + (x1 + x2)^3"],
        ["x1^2.5 + x2", "x2^4*t"])
    points = np.random.default_rng(23).uniform(-3, 3, size=(2000, 3))
    names = ["x1", "x2", "t"]
    env = dual_env(dict(zip(names, points.T)), names)
    b = jacobians(spec, points[:, :2], points[:, 2])
    Jf = np.stack([evaluate_dual(e, env).grad[:-1] for e in spec.f])
    grads = np.stack([evaluate_dual(e, env).grad for e in spec.h])
    assert b.Jf.tobytes() == Jf.transpose(2, 0, 1).copy().tobytes()
    # where x1 < 0 the dual numbers carry x1^1.5's nan into h1's x2 and t
    # partials as nan*0, a product `differentiate` never forms; elsewhere,
    # and in every x1 partial, bit for bit
    got = np.concatenate([b.Jh, b.dh_dt[..., None]], axis=-1)
    same = got.view(np.uint64) == grads.transpose(2, 0, 1).view(np.uint64)
    negative = points[:, 0] < 0
    assert negative.sum() > 900 and np.all(same[~negative])
    assert np.all(same[:, 1]) and np.all(same[..., 0])
    assert np.isnan(got[negative, 0, 0]).all()


def test_jacobians_of_tan_equal_the_dual_numbers_bit_for_bit():
    # the dual rule (1 + tan^2) g is the product `differentiate` forms
    spec = SystemSpec.from_strings(
        "tan", 2, 1, ["tan(x1)*x2", "tan(0.5*x1 + x2)^3"], ["tan(x1 - x2)"])
    points = np.random.default_rng(31).uniform(-1.2, 1.2, size=(2000, 3))
    names = ["x1", "x2", "t"]
    env = dual_env(dict(zip(names, points.T)), names)
    b = jacobians(spec, points[:, :2], points[:, 2])
    Jf = np.stack([evaluate_dual(e, env).grad[:-1] for e in spec.f])
    grads = np.stack([evaluate_dual(e, env).grad for e in spec.h])
    assert b.Jf.tobytes() == Jf.transpose(2, 0, 1).copy().tobytes()
    got = np.concatenate([b.Jh, b.dh_dt[..., None]], axis=-1)
    assert got.tobytes() == grads.transpose(2, 0, 1).copy().tobytes()


def test_jacobians_batched_match_loop():
    spec = builtin_system("ex1-timevarying")
    rng = np.random.default_rng(8)
    xs = rng.uniform(-3, 3, size=(9, 2))
    b = jacobians(spec, xs, 0.8)
    assert b.Jf.shape == (9, 2, 2)
    for i, x in enumerate(xs):
        bi = jacobians(spec, x, 0.8)
        np.testing.assert_array_equal(b.Jf[i], bi.Jf)
        np.testing.assert_array_equal(b.Jh[i], bi.Jh)


# ---------------------------------------------------------------------------
# augmented system
# ---------------------------------------------------------------------------

def test_augmented_field_vanishes_at_zero_xi():
    for name in BUILTIN_NAMES:
        aug = augment(builtin_system(name))
        state = np.array([0.7, -0.3, 0.0, 0.0])
        out = aug.field(state, 1.1)
        np.testing.assert_array_equal(out[2:], [0.0, 0.0])


def test_lti_xi_block_equals_state_dynamics():
    aug = augment(builtin_system("lti-remark1"))
    x = np.array([0.4, -1.9])
    out = aug.field(np.concatenate([x, x]), 0.0)
    np.testing.assert_allclose(out[2:], out[:2], atol=1e-14)


def test_ex1_variational_output_is_xi_sum():
    aug = augment(builtin_system("ex1-timevarying"))
    xi = np.array([0.3, -1.2])
    nu = aug.output(np.concatenate([[1.0, 2.0], xi]), 0.5)
    np.testing.assert_allclose(nu, [xi.sum()], atol=0)


@pytest.mark.parametrize("c", [-2.0, 0.5, 3.0])
def test_xi_block_homogeneity(c):
    aug = augment(builtin_system("ex1-timevarying"))
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        xi = rng.uniform(-2, 2, size=2)
        base = aug.field(np.concatenate([x, xi]), 0.9)[2:]
        scaled = aug.field(np.concatenate([x, c * xi]), 0.9)[2:]
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12, atol=1e-13)


def test_time_invariant_flag_consistency():
    rng = np.random.default_rng(4)
    for name in BUILTIN_NAMES:
        spec = builtin_system(name)
        if not spec.time_invariant:
            continue
        for _ in range(20):
            x = rng.uniform(-5, 5, size=spec.n)
            t1, t2 = rng.uniform(0, 50, size=2)
            f1, y1 = eval_fh(spec, x, float(t1))
            f2, y2 = eval_fh(spec, x, float(t2))
            np.testing.assert_array_equal(f1, f2)
            np.testing.assert_array_equal(y1, y2)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_json_round_trip_preserves_the_system():
    spec = builtin_system("ex1-timevarying")
    doc = {"name": spec.name, "n": spec.n, "m": spec.m,
           "f": [to_source(e) for e in spec.f],
           "h": [to_source(e) for e in spec.h]}
    assert system_from_json(json.dumps(doc)) == spec


def test_json_validation_failure():
    doc = '{"name": "bad", "n": 2, "m": 1, "f": ["x3", "x1"], "h": ["x1"]}'
    with pytest.raises(SystemValidationError):
        system_from_json(doc)


def test_json_missing_key():
    with pytest.raises(SystemValidationError, match="lacks key"):
        system_from_json({"name": "q", "n": 1, "m": 1, "f": ["x1"]})


def test_augmented_field_agrees_with_dual_jacobian_route():
    # at the unit seed e_j the xi-block and nu are column j of Jf and Jh,
    # which test_jacobians_equal_the_dual_numbers_bit_for_bit pins to the
    # dual-number Jacobians
    rng = np.random.default_rng(300)
    for name in BUILTIN_NAMES:
        spec = builtin_system(name)
        aug = augment(spec)
        for _ in range(10):
            x = rng.uniform(-3, 3, size=spec.n)
            t = float(rng.uniform(0, 6))
            b = jacobians(spec, x, t)
            for j, seed in enumerate(np.eye(spec.n)):
                state = np.concatenate([x, seed])
                assert np.array_equal(aug.field(state, t)[spec.n:],
                                      b.Jf[:, j])
                assert np.array_equal(aug.output(state, t), b.Jh[:, j])

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bspde.coefficients import _own_values
from bspde.exprdsl import (
    FUNCS,
    BinOp,
    Call,
    EvalError,
    ExprError,
    Neg,
    Num,
    Var,
    bind,
    evaluate,
    free_variables,
    parse,
)


def test_basic_tree_shape():
    e = parse("2*x + sin(t)")
    assert e == BinOp("+", BinOp("*", Num(2.0), Var("x")), Call("sin", (Var("t"),)))


def test_power_right_associative():
    assert parse("x^2^3") == BinOp("^", Var("x"), BinOp("^", Num(2.0), Num(3.0)))
    assert evaluate(parse("x^2^3"), {"x": 2.0}) == 256.0


def test_precedence():
    assert evaluate(parse("2 + 3 * 4"), {}) == 14.0
    assert evaluate(parse("-2^2"), {}) == -4.0  # ^ binds above unary minus
    assert evaluate(parse("(1 - 2) - 3"), {}) == evaluate(parse("1 - 2 - 3"), {})
    assert evaluate(parse("2^-1"), {}) == 0.5


def test_arity_and_syntax_errors():
    with pytest.raises(ExprError):
        parse("sin(x,t)")
    with pytest.raises(ExprError):
        parse("min(x)")
    with pytest.raises(ExprError):
        parse("2 +")
    with pytest.raises(ExprError):
        parse("(x")
    with pytest.raises(ExprError):
        parse("foo(x)")
    err = None
    try:
        parse("1 + $")
    except ExprError as e:
        err = e
    assert err is not None and err.pos == 4


def test_eval_values():
    assert evaluate(parse("2*x + sin(t)"), {"x": 1.0, "t": 0.0}) == 2.0
    assert evaluate(parse("exp(0)"), {}) == 1.0
    assert evaluate(parse("x^2 - 3"), {"x": 2.0}) == 1.0
    assert evaluate(parse("min(x, t) + max(x, t)"), {"x": 2.0, "t": 5.0}) == 7.0
    assert evaluate(parse("abs(-3)"), {}) == 3.0


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        evaluate(parse("1/x"), {"x": 0.0})
    with pytest.raises(EvalError):
        evaluate(parse("sqrt(x)"), {"x": -1.0})
    with pytest.raises(EvalError):
        evaluate(parse("x^0.5"), {"x": -2.0})
    with pytest.raises(EvalError):
        evaluate(parse("x + t"), {"x": 1.0})  # t unbound


def test_eval_vectorized_matches_scalar():
    e = parse("sin(x)*exp(-t) + x^2")
    xs = np.linspace(0, 1, 7)
    vec = evaluate(e, {"x": xs, "t": 0.3})
    for i, x in enumerate(xs):
        assert vec[i] == pytest.approx(evaluate(e, {"x": float(x), "t": 0.3}), rel=1e-15)


# ---------------------------------------------------------------------------
# Reference evaluator: interprets the token stream directly, no AST.
# ---------------------------------------------------------------------------

_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
    "abs": abs,
    "min": min,
    "max": max,
}


def _reference_eval(text: str, env: dict) -> float:
    from bspde.exprdsl import _tokenize

    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]][1] if pos[0] < len(toks) else None

    def advance():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def expr():
        v = term()
        while peek() in ("+", "-"):
            op = advance()[1]
            w = term()
            v = v + w if op == "+" else v - w
        return v

    def term():
        v = factor()
        while peek() in ("*", "/"):
            op = advance()[1]
            w = factor()
            v = v * w if op == "*" else v / w
        return v

    def factor():
        if peek() == "-":
            advance()
            return -factor()
        return power()

    def power():
        v = atom()
        if peek() == "^":
            advance()
            return v ** factor()
        return v

    def atom():
        kind, t, _ = advance()
        if kind == "num":
            return float(t)
        if kind == "ident":
            if t in _FUNCS:
                advance()  # (
                args = [expr()]
                while peek() == ",":
                    advance()
                    args.append(expr())
                advance()  # )
                return _FUNCS[t](*args)
            return env[t]
        if t == "(":
            v = expr()
            advance()  # )
            return v
        raise AssertionError(t)

    return expr()


def _random_expr(rng: np.random.Generator, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0, 3), 3)))
        return Var(["x", "t"][rng.integers(2)])
    kind = rng.integers(5)
    if kind == 0:
        return Neg(_random_expr(rng, depth - 1))
    if kind == 1:
        op = "+-*/"[rng.integers(4)]
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 2:
        # keep exponents small and integral-ish to avoid overflow/domain issues
        return BinOp("^", _random_expr(rng, depth - 1), Num(float(rng.integers(0, 3))))
    if kind == 3:
        fn = ["sin", "cos", "exp", "tanh", "abs"][rng.integers(5)]
        return Call(fn, (_random_expr(rng, depth - 1),))
    return Call(["min", "max"][rng.integers(2)], (_random_expr(rng, depth - 1), _random_expr(rng, depth - 1)))


def test_thousand_random_expressions_match_reference():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng, depth=4)
        text = str(e)
        assert parse(text) == e  # canonical print/parse round trip
        env = {"x": float(rng.uniform(-2, 2)), "t": float(rng.uniform(0, 2))}
        try:
            got = evaluate(e, env)
        except EvalError:
            continue  # division by zero etc.: regenerate
        if not np.isfinite(got) or abs(got) > 1e12:
            continue
        try:
            want = _reference_eval(text, env)
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        assert got == pytest.approx(want, rel=1e-15, abs=1e-15)
        checked += 1


# ---------------------------------------------------------------------------
# One rounding rule: a value's bits do not depend on how many points it is
# evaluated at.  numpy's power takes fast paths (2, 0.5 and -1) when its
# exponent is one value, so the draws put exponents that read x or t at those
# values: on the nodes x1 = k/10 and at the levels t = -1, 0.5 and 2,
# `(x1 + t*t)^t`, `(1 + t)^(0.5*x1)` and `x1^(x1 - 3)` reach all three.
# ---------------------------------------------------------------------------

NODES = np.arange(1, 49) / 10.0  # 0.1 .. 4.8: 0.5*x1 is 2 and 0.5 at 4 and 1, and x1 - 3 is -1 at 2
LEVELS = np.array([-1.0, 0.5, 2.0, 0.75])

_leaves = st.one_of(
    st.sampled_from([Var("x1"), Var("x"), Var("t")]),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 2.7]).map(Num),
)
_exponents = st.one_of(
    st.sampled_from([2.0, 0.5, -1.0, 3.0, 2.7, 0.0]).map(Num),
    st.sampled_from(["t", "x1", "0.5*x1", "x1 - 3", "2*t", "t - 1", "1 + t"]).map(parse),
)


def _extend(sub):
    positive = st.one_of(
        st.sampled_from(["x1", "1 + t", "x1 + t*t", "x1*(1 + t*t)"]).map(parse),
        sub.map(lambda e: BinOp("+", Call("abs", (e,)), Num(0.25))),
    )
    return st.one_of(
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda a: BinOp(*a)),
        st.tuples(positive, st.one_of(_exponents, sub)).map(lambda a: BinOp("^", *a)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "abs", "sqrt"]), sub).map(lambda a: Call(a[0], (a[1],))),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(lambda a: Call(a[0], a[1:])),
    )


EXPRESSIONS = st.recursive(_leaves, _extend, max_leaves=8)


def _eval_or_error(e, env):
    """The values of e at env, or None where it raises an EvalError."""
    try:
        return np.asarray(e.eval(env), dtype=float)
    except EvalError:
        return None


def _same_bits(got, want):
    want = np.ravel(want)
    return got is not None and np.broadcast_to(np.ravel(got), want.shape).tobytes() == want.tobytes()


@settings(max_examples=150, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(e=EXPRESSIONS)
def test_a_value_has_the_same_bits_at_any_number_of_points(e):
    npts = len(NODES)
    with np.errstate(all="ignore"):
        # every level's nodes at once, each point with its own t, as a chunk of levels is sampled
        full = _eval_or_error(e, bind((np.tile(NODES, len(LEVELS)),), np.repeat(LEVELS, npts)))
        per_point = [[_eval_or_error(e, bind((x,), t)) for x in NODES.tolist()] for t in LEVELS.tolist()]
        if full is None:  # an error at once is an error at some point alone
            assert any(v is None for level in per_point for v in level)
            return
        full = np.broadcast_to(full, (len(LEVELS) * npts,)).reshape(len(LEVELS), npts)
        for j, t in enumerate(LEVELS.tolist()):
            # a level alone, t bound as one number
            assert _same_bits(_eval_or_error(e, bind((NODES,), t)), full[j])
            # a path step's entry in its own shape: (npts,), or (1,) if it reads no x
            assert _same_bits(_own_values(e, bind((NODES,), t)), full[j])
            for i, x in enumerate(NODES.tolist()):
                assert _same_bits(per_point[j][i], full[j, i])
                assert _same_bits(_own_values(e, bind((np.array([x]),), t)), full[j, i])


def test_the_draws_reach_the_fast_paths_of_power():
    """A level's power with t bound as one number, taken as numpy takes it
    alone, differs in the last bit from the chunk's at each fast-path level:
    a draw of this shape tells a rule that lets it through."""
    e = parse("(x1 + t*t)^t")
    chunk = e.eval(bind((np.tile(NODES, len(LEVELS)),), np.repeat(LEVELS, len(NODES)))).reshape(len(LEVELS), -1)
    for j, t in enumerate(LEVELS.tolist()):
        if t in (-1.0, 0.5, 2.0):
            assert np.power(NODES + t * t, t).tobytes() != chunk[j].tobytes()
        assert e.eval(bind((NODES,), t)).tobytes() == chunk[j].tobytes()


def test_free_variables():
    assert free_variables(parse("2*x + sin(t)")) == {"x", "t"}
    assert free_variables(parse("1 + 2")) == set()


@pytest.mark.parametrize("name", sorted(FUNCS))
def test_function_table_drives_parser_and_evaluator(name):
    fn, arity = FUNCS[name]
    args = [0.25 * (k + 1) for k in range(arity)]
    e = parse(f"{name}({', '.join(map(str, args))})")
    assert e == Call(name, tuple(Num(a) for a in args))
    assert evaluate(e, {}) == fn(*args)
    with pytest.raises(ExprError, match=f"{name} takes {arity} argument"):
        parse(f"{name}({', '.join(['0.5'] * (arity + 1))})")

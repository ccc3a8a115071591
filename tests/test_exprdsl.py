import math

import numpy as np
import pytest

from bspde.exprdsl import (
    FUNCS,
    BinOp,
    Call,
    EvalError,
    ExprError,
    Neg,
    Num,
    Var,
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

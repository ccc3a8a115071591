"""Arithmetic expressions in x, x1, x2, t for coefficient and data functions.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative, binds above unary minus
    atom    := NUMBER | IDENT | FUNC '(' expr (',' expr)? ')' | '(' expr ')'

Unary functions: sin cos exp sqrt tanh abs; binary: min max.
Evaluation is pure and works elementwise on numpy arrays bound in the
environment; domain errors (division by zero, sqrt of a negative, fractional
power of a negative base) raise instead of producing NaN.  `^` follows
numpy on scalars as on arrays: a zero base with a negative exponent, or a
power beyond the range of doubles, is inf (with numpy's warning), which
callers report as a non-finite value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIABLES = ("x", "x1", "x2", "t")


def bind(coords, t=None) -> dict:
    """The variables of an expression at positions `coords`, one array per
    axis: x1 (also x in 1-D), x2 in 2-D, and t only when it is given."""
    env = {"x1": coords[0], "x" if len(coords) == 1 else "x2": coords[-1]}
    if t is not None:
        env["t"] = t
    return env


# name -> (numpy function, arity); the parser and Call.eval both read it
FUNCS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "exp": (np.exp, 1),
    "sqrt": (np.sqrt, 1),
    "tanh": (np.tanh, 1),
    "abs": (np.abs, 1),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}


class ExprError(ValueError):
    """Syntax error; carries the offending position in the source text."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class EvalError(ValueError):
    pass


class Expr:
    """Base class for AST nodes.  Nodes are immutable and compare structurally."""

    def eval(self, env: dict):
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, env):
        return self.value

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise EvalError(f"unbound identifier '{self.name}'") from None

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, env):
        return -self.arg.eval(env)

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(np.asarray(b) == 0):
                raise EvalError("division by zero")
            return a / b
        # power: fractional exponent of a negative base is a domain error
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if np.any((a_arr < 0) & (b_arr != np.round(b_arr))):
            raise EvalError("negative base with non-integer exponent")
        # a numpy scalar as the base, so that 0^-1 and 10^400 are inf on scalars
        # as on arrays, where a Python float raises
        return (np.float64(a) if a_arr.ndim == 0 else a) ** b

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]

    def eval(self, env):
        vals = [a.eval(env) for a in self.args]
        if self.func == "sqrt" and np.any(np.asarray(vals[0]) < 0):
            raise EvalError("sqrt of a negative value")
        return FUNCS[self.func][0](*vals)

    def __str__(self):
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Returns (kind, text, position) triples; kind in {num, ident, op}."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n:
                cj = text[j]
                if cj.isdigit() or cj == ".":
                    j += 1
                elif cj in "eE" and not seen_e and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            try:
                float(text[i:j])
            except ValueError:
                raise ExprError(f"malformed number '{text[i:j]}'", i) from None
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character '{c}'", i)
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, text: str):
        kind, t, pos = self.next()
        if t != text:
            raise ExprError(f"expected '{text}', found '{t or 'end of input'}'", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, t, pos = self.peek()
        if kind != "eof":
            raise ExprError(f"unexpected trailing input '{t}'", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            # right-associative; exponent may carry a unary minus
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, t, pos = self.next()
        if kind == "num":
            return Num(float(t))
        if kind == "ident":
            if t in VARIABLES:
                return Var(t)
            if t in FUNCS:
                self.expect("(")
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                arity = FUNCS[t][1]
                if len(args) != arity:
                    raise ExprError(f"{t} takes {arity} argument(s), got {len(args)}", pos)
                return Call(t, tuple(args))
            raise ExprError(f"unknown identifier '{t}'", pos)
        if t == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprError(f"unexpected '{t or 'end of input'}'", pos)


def parse(text: str) -> Expr:
    return _Parser(text).parse()


def evaluate(e: Expr, env: dict):
    """Evaluate an expression; env maps identifier names to finite reals or arrays."""
    return e.eval(env)


def free_variables(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Num):
        return set()
    if isinstance(e, Neg):
        return free_variables(e.arg)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= free_variables(a)
        return out
    raise TypeError(f"not an Expr: {e!r}")


def power_reads_t(e: Expr) -> bool:
    """Whether an operand of a `^` in e reads t.  numpy rounds a power of one
    number, and a power of an array to one exponent (2, 0.5 and -1 take fast
    paths), otherwise than the same power taken elementwise over arrays, so a
    sampler of many levels takes such an expression one level at a time,
    where t is one number."""
    if isinstance(e, BinOp):
        return (e.op == "^" and "t" in free_variables(e)) or power_reads_t(e.left) or power_reads_t(e.right)
    if isinstance(e, Neg):
        return power_reads_t(e.arg)
    if isinstance(e, Call):
        return any(power_reads_t(a) for a in e.args)
    return False

"""Small expression language for radially varying coefficient functions.

Expressions are built from the variables rho, x1, x2, x3 and u = x3/rho,
float literals (one too large for a double is a syntax error), the
operators + - * / ^ (with ^ binding tightest and right-associative, then
unary minus, then * /, then + -), and the functions exp, log, sqrt, sin,
cos, abs, min, max.  Evaluation is plain IEEE double arithmetic and works
elementwise on numpy arrays, so a whole grid of sample points is one
evaluation.

The operations are two tables, `OPERATORS` and `FUNCTIONS`, of
(operation, domain guard, slope rule) rows that the parser, `evaluate`
and `ray_slope` read; `ray_slope` carries each node's derivative along
the ray beside its value, exact up to rounding, with no step.  Each
evaluation runs under one numpy floating-point context that warns of
nothing; every operator and function node is checked instead, so an
overflow or a domain fault is an `ExprEvalError` at the node's offset.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprSyntaxError",
    "ExprNameError",
    "ExprEvalError",
    "EvalEnv",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "parse",
    "evaluate",
    "ray_slope",
]

VARIABLES = ("rho", "x1", "x2", "x3", "u")


def _chain(slope, factor):
    """slope * factor, but 0 where slope is 0, even where factor is not finite."""
    return np.where(slope == 0.0, 0.0, slope * factor)


#: name -> (numpy ufunc, domain guard or None, slope rule); the arity is the
#: ufunc's `nin`, a guard is (message, predicate true at a fault of the
#: arguments) and a rule maps (value, *args, *arg_slopes) to the slope;
#: abs, min and max take at a tie the one-sided slope as rho grows
FUNCTIONS = {
    "exp": (np.exp, None, lambda out, a, da: out * da),
    "log": (np.log, ("log of a non-positive value", lambda x: x <= 0.0), lambda out, a, da: da / a),
    "sqrt": (np.sqrt, ("sqrt of a negative value", lambda x: x < 0.0),
             lambda out, a, da: _chain(da, 0.5 / out)),
    "sin": (np.sin, None, lambda out, a, da: np.cos(a) * da),
    "cos": (np.cos, None, lambda out, a, da: -np.sin(a) * da),
    "abs": (np.abs, None, lambda out, a, da: np.where(a == 0.0, np.abs(da), np.sign(a) * da)),
    "min": (np.minimum, None, lambda out, a, b, da, db: np.where(
        (a < b) | (a == b) & (da <= db), da, db)),
    "max": (np.maximum, None, lambda out, a, b, da, db: np.where(
        (a > b) | (a == b) & (da >= db), da, db)),
}
#: symbol -> (operation, domain guard or None, slope rule), read like FUNCTIONS;
#: the power's log(a) term is taken only where the exponent moves
OPERATORS = {
    "+": (operator.add, None, lambda out, a, b, da, db: da + db),
    "-": (operator.sub, None, lambda out, a, b, da, db: da - db),
    "*": (operator.mul, None, lambda out, a, b, da, db: da * b + a * db),
    "/": (operator.truediv, ("division by zero", lambda left, right: right == 0.0),
          lambda out, a, b, da, db: (da - out * db) / b),
    "^": (np.power, (
        "power of zero to a negative or of a negative to a non-integer exponent",
        lambda base, power: (
            (base == 0.0) & (power < 0.0) | (base < 0.0) & (power != np.floor(power))
        ),
    ), lambda out, a, b, da, db: _chain(da * b, np.power(a, b - 1.0))
        + (_chain(db, out * np.log(a)) if np.any(db) else 0.0)),
}

#: relative tolerance for the coordinate/radius consistency check
ENV_CONSISTENCY_RTOL = 1e-12


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the byte offset of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ExprNameError(ExprSyntaxError):
    """Identifier that is neither a known variable nor a known function."""


class ExprEvalError(ArithmeticError):
    """Evaluation produced an undefined or non-finite value; carries the
    byte offset of the responsible node, and the message names the key of
    the expression (alpha0, alpha1 or phi) when the caller gave it."""

    def __init__(self, message, offset, key=None):
        where = "" if key is None else f" in {key}"
        super().__init__(f"{message}{where} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class EvalEnv:
    """Sample point(s) for evaluation: radius and ambient coordinates.

    Fields may be scalars or numpy arrays that broadcast together.  The
    coordinates must satisfy x1^2 + x2^2 + x3^2 = rho^2 to 1e-12 relative.
    """

    rho: object
    x1: object
    x2: object
    x3: object

    def __post_init__(self):
        for name in ("rho", "x1", "x2", "x3"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        if np.any(self.rho <= 0.0) or not np.all(np.isfinite(self.rho)):
            raise ValueError("rho must be positive and finite")
        rr = self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3
        if np.any(np.abs(rr - self.rho**2) > ENV_CONSISTENCY_RTOL * self.rho**2):
            raise ValueError("coordinates inconsistent with radius")

    @property
    def u(self):
        return self.x3 / self.rho


@dataclass(frozen=True)
class Const:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: int = field(default=0, compare=False)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _byte_offset(text, index):
    return len(text[:index].encode("utf-8"))


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None or m.end() == i:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(
                f"unexpected character {text[bad]!r}", _byte_offset(text, bad)
            )
        pos = _byte_offset(text, m.start(m.lastgroup))
        tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
        i = m.end()
    tokens.append(("end", "", _byte_offset(text, len(text))))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def take(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message, tok):
        raise ExprSyntaxError(message, tok[2])

    def parse(self):
        node = self.sum_expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail(f"unexpected token {tok[1]!r}", tok)
        return node

    def sum_expr(self):
        node = self.product()
        while self.peek()[1] in ("+", "-"):
            tok = self.take()
            node = Binary(tok[1], node, self.product(), pos=tok[2])
        return node

    def product(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            tok = self.take()
            node = Binary(tok[1], node, self.unary(), pos=tok[2])
        return node

    def unary(self):
        tok = self.peek()
        if tok[1] == "-":
            self.take()
            return Unary("-", self.unary(), pos=tok[2])
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok[1] == "^":
            self.take()
            # exponent may itself carry a unary minus or another power
            return Binary("^", base, self.unary(), pos=tok[2])
        return base

    def atom(self):
        tok = self.take()
        kind, value, pos = tok
        if kind == "num":
            if np.isinf(float(value)):
                raise ExprSyntaxError(f"number {value!r} is too large for a double", pos)
            return Const(float(value), pos=pos)
        if kind == "name":
            if self.peek()[1] == "(":
                if value not in FUNCTIONS:
                    raise ExprNameError(f"unknown function {value!r}", pos)
                self.take()
                args = [self.sum_expr()]
                while self.peek()[1] == ",":
                    self.take()
                    args.append(self.sum_expr())
                closing = self.take()
                if closing[1] != ")":
                    self.fail("expected ')'", closing)
                arity = FUNCTIONS[value][0].nin
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"function {value!r} expects {arity} argument(s), got {len(args)}", pos
                    )
                return Call(value, tuple(args), pos=pos)
            if value not in VARIABLES:
                raise ExprNameError(f"unknown variable {value!r}", pos)
            return Var(value, pos=pos)
        if value == "(":
            node = self.sum_expr()
            closing = self.take()
            if closing[1] != ")":
                self.fail("expected ')'", closing)
            return node
        self.fail(f"expected a value, got {value!r}" if value else "unexpected end of expression", tok)


def parse(text):
    """Parse expression text into an AST.  Raises ExprSyntaxError (with a
    byte offset) on malformed input, a literal too large for a double, or
    unknown identifiers."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def evaluate(node, env, key=None):
    """Evaluate an AST at an EvalEnv, elementwise on array environments,
    under one numpy context that ignores floating-point faults.  Each
    operator and function node is checked instead: its row's guard
    (division by zero, a power, log or sqrt outside its domain) and a
    non-finite value raise ExprEvalError with the node's offset and `key`,
    the name of the expression evaluated."""
    with np.errstate(all="ignore"):
        return _walk(node, env, key, False)[0]


def ray_slope(node, env, key=None):
    """(value, slope) of an AST at an EvalEnv: the slope is d/d rho along the
    ray through each point, by the rows' slope rules (forward mode), and is
    checked like the value, as in `evaluate`."""
    with np.errstate(all="ignore"):
        return _walk(node, env, key, True)


def _walk(node, env, key, ray):
    """(value, slope) of a node; the slope is False unless `ray`."""
    if isinstance(node, Const):
        return node.value, ray and 0.0
    if isinstance(node, Var):
        # along the ray rho and x_i = rho d_i move at value/rho, and u stays fixed
        value = getattr(env, node.name)
        return value, ray and (0.0 if node.name == "u" else value / env.rho)
    if isinstance(node, Unary):
        value, slope = _walk(node.operand, env, key, ray)
        return -value, ray and -slope
    if isinstance(node, Binary):
        (apply, guard, rule), children = OPERATORS[node.op], (node.left, node.right)
    elif isinstance(node, Call):
        (apply, guard, rule), children = FUNCTIONS[node.func], node.args
    else:
        raise TypeError(f"not an expression node: {node!r}")
    args, slopes = zip(*(_walk(child, env, key, ray) for child in children))
    if guard is not None and np.any(guard[1](*args)):
        raise ExprEvalError(guard[0], node.pos, key)
    out = apply(*args)
    slope = ray and rule(out, *args, *slopes)
    for what, checked in (("value", out), ("slope", slope)):
        if not np.isfinite(checked).all():
            raise ExprEvalError(f"non-finite {what}", node.pos, key)
    return out, slope

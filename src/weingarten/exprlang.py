"""Small expression language for radially varying coefficient functions.

Expressions are built from the variables rho, x1, x2, x3 and u = x3/rho,
float literals, the operators + - * / ^ (with ^ binding tightest and
right-associative, then unary minus, then * /, then + -), and the
functions exp, log, sqrt, sin, cos, abs, min, max.  Evaluation is plain
IEEE double arithmetic and works elementwise on numpy arrays, so a whole
grid of sample points is one evaluation.
"""

from __future__ import annotations

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
    "radial_derivative",
]

VARIABLES = ("rho", "x1", "x2", "x3", "u")
FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
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

    Fields may be scalars or equal-shaped numpy arrays.  The coordinates
    must satisfy x1^2 + x2^2 + x3^2 = rho^2 to 1e-12 relative.
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

    def along_ray(self, new_rho):
        """Same direction, different radius: coordinates rescale with rho."""
        scale = np.asarray(new_rho, float) / self.rho
        return EvalEnv(new_rho, self.x1 * scale, self.x2 * scale, self.x3 * scale)


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
                if len(args) != FUNCTIONS[value]:
                    raise ExprSyntaxError(
                        f"function {value!r} expects "
                        f"{FUNCTIONS[value]} argument(s), got {len(args)}",
                        pos,
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
    byte offset) on malformed input or unknown identifiers."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def _check_finite(value, pos, key):
    if not np.all(np.isfinite(value)):
        raise ExprEvalError("non-finite value", pos, key)
    return value


def evaluate(node, env, key=None):
    """Evaluate an AST at an EvalEnv.  Works elementwise on array
    environments; raises ExprEvalError on division by zero, domain faults
    and non-finite results, carrying the offending node's offset and
    `key`, the name of the expression evaluated."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return getattr(env, node.name)
    if isinstance(node, Unary):
        return -evaluate(node.operand, env, key)
    if isinstance(node, Binary):
        left = evaluate(node.left, env, key)
        right = evaluate(node.right, env, key)
        if node.op == "+":
            out = left + right
        elif node.op == "-":
            out = left - right
        elif node.op == "*":
            out = left * right
        elif node.op == "/":
            if np.any(np.asarray(right) == 0.0):
                raise ExprEvalError("division by zero", node.pos, key)
            out = left / right
        else:  # "^"
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                out = np.power(left, right)
        return _check_finite(out, node.pos, key)
    if isinstance(node, Call):
        args = [evaluate(a, env, key) for a in node.args]
        if node.func == "log":
            if np.any(np.asarray(args[0]) <= 0.0):
                raise ExprEvalError("log of a non-positive value", node.pos, key)
            out = np.log(args[0])
        elif node.func == "sqrt":
            if np.any(np.asarray(args[0]) < 0.0):
                raise ExprEvalError("sqrt of a negative value", node.pos, key)
            out = np.sqrt(args[0])
        elif node.func == "exp":
            with np.errstate(over="ignore"):
                out = np.exp(args[0])
        elif node.func == "sin":
            out = np.sin(args[0])
        elif node.func == "cos":
            out = np.cos(args[0])
        elif node.func == "abs":
            out = np.abs(args[0])
        elif node.func == "min":
            out = np.minimum(args[0], args[1])
        else:  # "max"
            out = np.maximum(args[0], args[1])
        return _check_finite(out, node.pos, key)
    raise TypeError(f"not an expression node: {node!r}")


def radial_derivative(node, env, h=1e-6, key=None):
    """Central-difference derivative along the ray through each sample
    point: direction cosines stay fixed, the radius moves by +-h.  `key`
    names the expression as in `evaluate`."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if np.any(env.rho - h <= 0.0):
        raise ValueError("step h too large: rho - h must stay positive")
    upper = evaluate(node, env.along_ray(env.rho + h), key)
    lower = evaluate(node, env.along_ray(env.rho - h), key)
    return (upper - lower) / (2.0 * h)

"""Small expression language for radially varying coefficient functions.

Expressions are built from the variables rho, x1, x2, x3 and u = x3/rho,
float literals (one too large for a double is a syntax error), the
operators + - * / ^ and the functions exp, log, sqrt, sin, cos, abs, min,
max.  One table of binding powers, `BINDING`, gives the precedence: ^
binds tightest and associates to the right, then unary minus, then * /,
then + -.  `parse` reads it by precedence climbing (Pratt, 1973) and
refuses a tree deeper than `MAX_DEPTH` levels, a pair of parentheses
counting as one.  Evaluation is plain IEEE double arithmetic and works
elementwise on numpy arrays, so a whole grid of sample points is one
evaluation.

The operations are (operation, domain guard, slope rule) rows of one
table, `ROWS`: the binary operators of `OPERATORS`, the functions of
`FUNCTIONS` and unary minus, "neg".  Every interior node of the AST is a
`Call` of one row to its arguments (`-a*b` is `Call("*", (Call("neg",
(a,)), b))`), and `evaluate` and `ray_slope` read each node's row;
`ray_slope` carries each node's derivative along the ray beside its
value, exact up to rounding, with no step.  Each evaluation runs under
one numpy floating-point context that warns of nothing; every `Call` is
checked instead, so an overflow or a domain fault is an `ExprEvalError`
at the node's offset.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

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
#: every row a `Call` node may name; unary minus has no text of its own, so
#: `neg(rho)` is an unknown function
ROWS = {**OPERATORS, **FUNCTIONS, "neg": (operator.neg, None, lambda out, a, da: -da)}

#: (left, right) binding power of each operator: a binary operator extends an
#: expression whose minimum power is at most its left one, and its right
#: operand takes only operators whose left power is at least its right one,
#: so + - * / (left below right) associate to the left and ^ to the right;
#: unary minus, "neg", only starts an operand, so it extends nothing
BINDING = {"+": (1, 2), "-": (1, 2), "*": (3, 4), "/": (3, 4), "neg": (-1, 5), "^": (6, 5)}
#: deepest expression `parse` accepts: the height of its tree, a pair of
#: parentheses counting as a level, so that parsing and evaluation, which
#: recurse once a level, stay far inside Python's recursion limit
MAX_DEPTH = 200

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
class Call:
    func: str
    args: tuple
    pos: int = field(default=0, compare=False)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S))"
)


def _tokenize(text):
    """(kind, text, byte offset) of each token, then an "end" token; a
    character that starts no token is an ExprSyntaxError."""
    tokens = []
    offset = 0  # UTF-8 bytes before the current match
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        offset += len(text[m.start():m.start(kind)].encode("utf-8"))
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m[kind]!r}", offset)
        tokens.append((kind, m[kind], offset))
        offset += len(m[kind])  # the other tokens are ASCII
    tokens.append(("end", "", len(text.encode("utf-8"))))
    return tokens


def _expr(tokens, min_bp, depth):
    """(node, height) of the longest expression at the end of `tokens`, a
    reversed token list that it pops, whose binary operators have left
    binding powers of at least `min_bp`; `depth` counts the calls that
    enclose this one, and depth + height may not exceed MAX_DEPTH."""
    kind, value, pos = tokens.pop()
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    if value == "-":
        node, height = _expr(tokens, BINDING["neg"][1], depth + 1)
        node, height = Call("neg", (node,), pos=pos), height + 1
    elif kind == "num":
        if np.isinf(float(value)):
            raise ExprSyntaxError(f"number {value!r} is too large for a double", pos)
        node, height = Const(float(value), pos=pos), 0
    elif kind == "name" and tokens[-1][1] == "(":
        if value not in FUNCTIONS:
            raise ExprNameError(f"unknown function {value!r}", pos)
        args = []
        while not args or tokens[-1][1] == ",":
            tokens.pop()  # the "(" or a ","
            args.append(_expr(tokens, 0, depth + 1))
        closing = tokens.pop()
        if closing[1] != ")":
            raise ExprSyntaxError("expected ')'", closing[2])
        arity = FUNCTIONS[value][0].nin
        if len(args) != arity:
            raise ExprSyntaxError(
                f"function {value!r} expects {arity} argument(s), got {len(args)}", pos
            )
        nodes, heights = zip(*args)
        node, height = Call(value, nodes, pos=pos), max(heights) + 1
    elif kind == "name":
        if value not in VARIABLES:
            raise ExprNameError(f"unknown variable {value!r}", pos)
        node, height = Var(value, pos=pos), 0
    elif value == "(":
        node, height = _expr(tokens, 0, depth + 1)
        closing = tokens.pop()
        if closing[1] != ")":
            raise ExprSyntaxError("expected ')'", closing[2])
    else:
        raise ExprSyntaxError(
            f"expected a value, got {value!r}" if value else "unexpected end of expression", pos
        )
    while BINDING.get(tokens[-1][1], (-1,))[0] >= min_bp:
        _, symbol, pos = tokens.pop()
        right, right_height = _expr(tokens, BINDING[symbol][1], depth + 1)
        node, height = Call(symbol, (node, right), pos=pos), max(height, right_height) + 1
        if depth + height > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return node, height


def parse(text):
    """Parse expression text into an AST.  Raises ExprSyntaxError (with a
    byte offset) on malformed input, a literal too large for a double,
    nesting deeper than MAX_DEPTH, or unknown identifiers."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(text)[::-1]
    node, _ = _expr(tokens, 0, 0)
    if tokens[-1][0] != "end":
        raise ExprSyntaxError(f"unexpected token {tokens[-1][1]!r}", tokens[-1][2])
    return node


def evaluate(node, env, key=None):
    """Evaluate an AST at an EvalEnv, elementwise on array environments,
    under one numpy context that ignores floating-point faults.  Each
    `Call` node is checked instead: its row's guard
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
    if not isinstance(node, Call):
        raise TypeError(f"not an expression node: {node!r}")
    apply, guard, rule = ROWS[node.func]
    args, slopes = zip(*(_walk(child, env, key, ray) for child in node.args))
    if guard is not None and np.any(guard[1](*args)):
        raise ExprEvalError(guard[0], node.pos, key)
    out = apply(*args)
    slope = ray and rule(out, *args, *slopes)
    for what, checked in (("value", out), ("slope", slope)):
        if not np.isfinite(checked).all():
            raise ExprEvalError(f"non-finite {what}", node.pos, key)
    return out, slope

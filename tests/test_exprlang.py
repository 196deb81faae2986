"""Coefficient expression language: parsing, evaluation, every row of
the operation table with its slope rule, error reporting with byte
offsets, and the evaluation environment."""

import warnings

import numpy as np
import pytest

from weingarten.exprlang import (
    FUNCTIONS,
    MAX_DEPTH,
    OPERATORS,
    ROWS,
    Call,
    Const,
    EvalEnv,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    Var,
    evaluate,
    parse,
    ray_slope,
)


def env_at(rho, x3=None):
    """Environment on the polar axis unless x3 is given explicitly."""
    if x3 is None:
        x3 = rho
    x1 = np.sqrt(np.maximum(rho * rho - x3 * x3, 0.0))
    return EvalEnv(rho=rho, x1=x1, x2=0.0 * np.asarray(rho), x3=x3)


def test_numbers_and_arithmetic():
    env = env_at(2.0)
    assert evaluate(parse("1 + 2*3"), env) == 7.0
    assert evaluate(parse("(1 + 2)*3"), env) == 9.0
    assert evaluate(parse("2^10"), env) == 1024.0
    assert evaluate(parse("1e2 + .5"), env) == 100.5
    # a negative base to an integer power and zero to a non-negative one
    # pass the power's domain guard
    assert evaluate(parse("(0 - 8)^3 + 0^0 + 0^2"), env) == -511.0


def test_precedence_and_associativity():
    env = env_at(1.0)
    # power binds tighter than unary minus
    assert evaluate(parse("-2^2"), env) == -4.0
    # power is right associative, division left associative
    assert evaluate(parse("2^3^2"), env) == 512.0
    assert evaluate(parse("6/3/2"), env) == 1.0
    # unary minus allowed after * and /
    assert evaluate(parse("3*-2"), env) == -6.0


def test_variables():
    env = EvalEnv(rho=2.0, x1=0.0, x2=0.0, x3=2.0)
    assert evaluate(parse("rho"), env) == 2.0
    assert evaluate(parse("x3"), env) == 2.0
    assert evaluate(parse("u"), env) == 1.0
    env2 = EvalEnv(rho=2.0, x1=2.0, x2=0.0, x3=0.0)
    assert evaluate(parse("u"), env2) == 0.0


def test_functions():
    env = env_at(2.0)
    assert evaluate(parse("exp(0) + log(1)"), env) == 1.0
    assert evaluate(parse("sqrt(9)"), env) == 3.0
    assert abs(evaluate(parse("sin(0.5)^2 + cos(0.5)^2"), env) - 1.0) < 1e-15
    assert evaluate(parse("abs(0 - 2)"), env) == 2.0
    assert evaluate(parse("min(rho, 1)"), env) == 1.0
    assert evaluate(parse("max(rho, 1)"), env) == 2.0


def test_vectorized_evaluation():
    rho = np.array([1.0, 2.0, 4.0])
    env = env_at(rho)
    got = evaluate(parse("(0.6 - 0.05*rho)/rho^2"), env)
    want = (0.6 - 0.05 * rho) / rho**2
    assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_benchmark_coefficient_values():
    env = env_at(np.array([1.0, 2.0, 4.0]))
    a0 = evaluate(parse("(0.6 - 0.05*rho)/rho^2"), env)
    assert np.allclose(a0, [0.55, 0.125, 0.025], rtol=1e-15, atol=0)
    a1 = evaluate(parse("0.25/rho"), env)
    assert np.allclose(a1, [0.25, 0.125, 0.0625], rtol=1e-15, atol=0)


def test_syntax_errors_carry_byte_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("rho + ")
    assert exc.value.offset == 6
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2 +* 3")
    assert exc.value.offset == 3
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("rho @ 2")
    # the whole text is tokenized first, so a bad character wins over an
    # earlier syntax error
    for text, message in [
        ("rho + ) @", "unexpected character '@' (byte offset 8)"),
        ("(rho", "expected ')' (byte offset 4)"),
        ("rho)", "unexpected token ')' (byte offset 3)"),
        ("sin(rho", "expected ')' (byte offset 7)"),
        ("min(rho 2)", "expected ')' (byte offset 8)"),
        ("*2", "expected a value, got '*' (byte offset 0)"),
        ("rho +", "unexpected end of expression (byte offset 5)"),
        ("2 3", "unexpected token '3' (byte offset 2)"),
        ("rho,2", "unexpected token ',' (byte offset 3)"),
    ]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert type(exc.value) is ExprSyntaxError and str(exc.value) == message
    # digits are ASCII only, as in the README grammar and the CSV reader
    for text, offset, char in [("\uff12*rho", 0, "\uff12"), ("0.25/\u0663", 5, "\u0663")]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"unexpected character {char!r} (byte offset {offset})"
    # a literal that overflows a double is refused where it stands; one
    # that underflows is zero
    with pytest.raises(ExprSyntaxError) as exc:
        parse("rho*1e400")
    assert str(exc.value) == "number '1e400' is too large for a double (byte offset 4)"
    assert parse("1e-400") == Const(0.0)


def test_name_errors():
    with pytest.raises(ExprNameError) as exc:
        parse("rho + zz")
    assert exc.value.offset == 6
    with pytest.raises(ExprNameError):
        parse("sinh(rho)")
    # unary minus is a row but not a function name
    with pytest.raises(ExprNameError) as exc:
        parse("neg(rho)")
    assert str(exc.value) == "unknown function 'neg' (byte offset 0)"


def test_eval_errors():
    # overflow is reported at the node that overflowed, not returned as
    # inf, and numpy warns of nothing
    env = env_at(np.array([1.0, 2.0, 4.0]))
    for text, offset in [("exp(1000)", 0), ("rho*1e308*10", 3), ("1e300/(rho*1e-300)", 5),
                         ("2^(5000*rho)", 1)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExprEvalError) as exc:
                evaluate(parse(text), env, "alpha1")
        assert str(exc.value) == f"non-finite value in alpha1 (byte offset {offset})"


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_each_function_takes_its_ufunc_arity(name):
    arity = FUNCTIONS[name][0].nin
    args = ", ".join(["rho"] * arity)
    want = Call("+", (Const(1.0), Call(name, (Var("rho"),) * arity)))
    assert parse(f"1 + {name}({args})") == want
    wrong = [arity + 1] + ([arity - 1] if arity > 1 else [])
    for count in wrong:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(f"1 + {name}({', '.join(['rho'] * count)})")
        assert str(exc.value) == (
            f"function {name!r} expects {arity} argument(s), got {count} (byte offset 4)"
        )


@pytest.mark.parametrize("symbol", sorted(OPERATORS))
def test_each_operator_parses_and_applies_its_row(symbol):
    node = parse(f"rho {symbol} 3")
    assert node == Call(symbol, (Var("rho"), Const(3.0)))
    rho = np.array([1.0, 2.0, 4.0])
    assert np.array_equal(evaluate(node, env_at(rho)), OPERATORS[symbol][0](rho, 3.0))


# for each guarded row, texts whose node of that row fails the guard, and
# that node's byte offset
GUARD_FAULTS = {
    "/": [("1/(rho - rho)", 1)],
    # zero to a negative power, a negative base to a non-integer one
    "^": [("(rho - rho)^(0 - 1)", 11), ("1 + (0 - 8)^(1/3)", 11)],
    "log": [("1 + log(0 - 1)", 4)],
    "sqrt": [("1 + sqrt(0 - 4)", 4)],
}


@pytest.mark.parametrize("name", sorted(name for name, row in ROWS.items() if row[1]))
def test_each_guard_raises_its_message_at_the_node(name):
    for text, offset in GUARD_FAULTS[name]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExprEvalError) as exc:
                evaluate(parse(text), env_at(np.array([1.0, 2.0, 4.0])), "phi")
        assert str(exc.value) == f"{ROWS[name][1][0]} in phi (byte offset {offset})"


@pytest.mark.parametrize(
    "text",
    ["1 + log(rho - 3)", "log(rho - 3) + 1", "-log(rho - 3)", "max(1, log(rho - 3))",
     "sqrt(1.5 - rho)", "1/(rho - rho)", "exp(1000*rho)", "2^(5000*rho)"],
)
def test_eval_errors_name_the_key_at_any_depth(text):
    env = env_at(2.0)
    with pytest.raises(ExprEvalError) as exc:
        evaluate(parse(text), env, "alpha1")
    assert " in alpha1 (byte offset " in str(exc.value)
    with pytest.raises(ExprEvalError) as exc:
        ray_slope(parse(text), env, key="phi")
    assert " in phi (byte offset " in str(exc.value)
    with pytest.raises(ExprEvalError) as exc:
        evaluate(parse(text), env)
    assert " in " not in str(exc.value)


def test_ast_shape():
    node = parse("0.25/rho")
    assert node == Call("/", (Const(0.25), Var("rho")))
    node = parse("-rho^2")
    assert node == Call("neg", (Call("^", (Var("rho"), Const(2.0))),))
    node = parse("min(rho, 2)")
    assert node == Call("min", (Var("rho"), Const(2.0)))
    # unary minus binds tighter than * but looser than ^
    node = parse("-rho*x1")
    assert node == Call("*", (Call("neg", (Var("rho"),)), Var("x1")))


@pytest.mark.parametrize("text, want", [
    ("-rho*x1", Call("*", (Call("neg", (Var("rho", 1),), 0), Var("x1", 5)), 4)),
    ("2^-3^2", Call("^", (Const(2.0, 0), Call("neg", (Call("^", (Const(3.0, 3), Const(2.0, 5)), 4),), 2)), 1)),
    ("rho-x1-2", Call("-", (Call("-", (Var("rho", 0), Var("x1", 4)), 3), Const(2.0, 7)), 6)),
    ("6/3/2", Call("/", (Call("/", (Const(6.0, 0), Const(3.0, 2)), 1), Const(2.0, 4)), 3)),
    ("3*-2", Call("*", (Const(3.0, 0), Call("neg", (Const(2.0, 3),), 2)), 1)),
    ("-rho^2", Call("neg", (Call("^", (Var("rho", 1), Const(2.0, 5)), 4),), 0)),
    ("min(rho, 2)^2", Call("^", (Call("min", (Var("rho", 4), Const(2.0, 9)), 0), Const(2.0, 12)), 11)),
    ("(rho+1)*2", Call("*", (Call("+", (Var("rho", 1), Const(1.0, 5)), 4), Const(2.0, 8)), 7)),
])
def test_node_positions(text, want):
    # positions do not take part in ==, so compare the reprs, which show them
    assert repr(parse(text)) == repr(want)


# too deep for the bound, with the byte offset of the token that passes it
TOO_DEEP = {
    "1200-term sum": ("+".join(["rho"] * 1200), 4 * (MAX_DEPTH + 1) - 1),
    "400 parentheses": ("(" * 400 + "rho" + ")" * 400, MAX_DEPTH + 1),
    "1000 minus signs": ("-" * 1000 + "rho", MAX_DEPTH + 1),
    "one level past the bound": ("(" * 100 + "-" * 100 + "2^2" + ")" * 100, 202),
}


@pytest.mark.parametrize("case", sorted(TOO_DEEP))
def test_nesting_past_the_bound_is_a_syntax_error(case):
    text, offset = TOO_DEEP[case]
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"expression nested deeper than {MAX_DEPTH} levels (byte offset {offset})"


@pytest.mark.parametrize("text, want", [
    ("+".join(["rho"] * 150), 300.0),
    ("(" * 150 + "rho" + ")" * 150, 2.0),
    # at the bound: a tree MAX_DEPTH high, a pair of parentheses counting as a level
    ("+".join(["rho"] * (MAX_DEPTH + 1)), 2.0 * (MAX_DEPTH + 1)),
    ("-" * MAX_DEPTH + "rho", 2.0),
    ("^".join(["1"] * (MAX_DEPTH + 1)), 1.0),
    ("(" * 100 + "-" * 99 + "2^2" + ")" * 100, -4.0),
])
def test_nesting_within_the_bound_parses_and_evaluates(text, want):
    node = parse(text)
    assert evaluate(node, env_at(2.0)) == want
    assert ray_slope(node, env_at(2.0))[0] == want


def test_ray_slope():
    env = env_at(2.0)
    # d/drho of (0.6 - 0.05 rho)/rho^2 at rho=2 is -0.1375
    value, slope = ray_slope(parse("(0.6 - 0.05*rho)/rho^2"), env)
    assert value == evaluate(parse("(0.6 - 0.05*rho)/rho^2"), env)
    assert abs(slope - (-0.1375)) < 1e-15
    # along the ray x_i scales with rho and u stays fixed
    env = EvalEnv(rho=2.0, x1=1.2, x2=0.0, x3=1.6)
    assert ray_slope(parse("x1"), env) == (1.2, 0.6)
    assert ray_slope(parse("x3"), env) == (1.6, 0.8)
    assert ray_slope(parse("u"), env) == (0.8, 0.0)
    assert ray_slope(parse("rho*u - x3"), env)[1] == 0.0


def ray_env(rho, d1, d2, d3):
    return EvalEnv(rho=rho, x1=rho * d1, x2=rho * d2, x3=rho * d3)


# smooth arguments for each row, both moving along the ray: for rho in
# [1, 3] "A" lies in [1, 8] and "B" in [0.3, 0.6], so neither is zero or a tie
SLOPE_ARGS = {"A": "(1.5 + 0.3*x1 - 0.2*u) * rho", "B": "0.6 + 0.05*x2 - 0.05*rho"}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_row_has_a_slope_rule_matching_a_difference(name):
    if name == "neg":
        text = "-(A)"
    elif name in OPERATORS:
        text = f"(A) {name} (B)"
    else:
        text = f"{name}({', '.join('AB'[:FUNCTIONS[name][0].nin])})"
    node = parse(text.replace("A", SLOPE_ARGS["A"]).replace("B", SLOPE_ARGS["B"]))
    rng = np.random.default_rng(7)
    d = rng.normal(size=(3, 50))
    d1, d2, d3 = d / np.linalg.norm(d, axis=0)
    rho = rng.uniform(1.0, 3.0, 50)
    assert len(ROWS[name]) == 3 and callable(ROWS[name][2])
    value, slope = ray_slope(node, ray_env(rho, d1, d2, d3))
    assert np.array_equal(value, evaluate(node, ray_env(rho, d1, d2, d3)))
    h = 1e-5
    upper, lower = (evaluate(node, ray_env(rho + s, d1, d2, d3)) for s in (h, -h))
    fd = (upper - lower) / (2.0 * h)
    assert np.abs(slope - fd).max() <= 1e-7 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("text, want", [
    # at a tie the slope is one-sided, as rho grows
    ("abs(rho - 2)", 1.0), ("abs(2 - rho)", 1.0),
    ("min(rho, 4 - rho)", -1.0), ("max(rho, 4 - rho)", 1.0),
    ("min(4 - rho, rho)", -1.0), ("max(4 - rho, rho)", 1.0),
    # an argument that does not move along the ray moves nothing, even
    # where its outer slope factor is infinite
    ("sqrt(x1^2 + x2^2)", 0.0), ("sqrt(1 - u)", 0.0), ("(1 - u)^0.5", 0.0),
])
def test_ray_slope_at_ties_and_at_rest(text, want):
    env = EvalEnv(rho=2.0, x1=0.0, x2=0.0, x3=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, slope = ray_slope(parse(text), env)
    assert slope == want
    h = 1e-6
    one_sided = (evaluate(parse(text), ray_env(2.0 + h, 0.0, 0.0, 1.0)) - evaluate(parse(text), env)) / h
    assert abs(one_sided - want) <= 1e-6


def test_env_consistency_check():
    with pytest.raises(ValueError):
        EvalEnv(rho=2.0, x1=1.0, x2=1.0, x3=1.0)
    with pytest.raises(ValueError):
        EvalEnv(rho=-1.0, x1=0.0, x2=0.0, x3=-1.0)

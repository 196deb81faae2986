"""Coefficient expression language: parsing, evaluation, error
reporting with byte offsets, and the evaluation environment."""

import numpy as np
import pytest

from weingarten.exprlang import (
    Binary,
    Call,
    Const,
    EvalEnv,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    Unary,
    Var,
    evaluate,
    parse,
    radial_derivative,
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
    with pytest.raises(ExprSyntaxError) as exc:
        parse("min(rho)")
    assert exc.value.offset == 0
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("rho @ 2")


def test_name_errors():
    with pytest.raises(ExprNameError) as exc:
        parse("rho + zz")
    assert exc.value.offset == 6
    with pytest.raises(ExprNameError):
        parse("sinh(rho)")


def test_eval_errors():
    env = env_at(2.0)
    with pytest.raises(ExprEvalError) as exc:
        evaluate(parse("1/(rho - rho)"), env)
    assert exc.value.offset == 1
    with pytest.raises(ExprEvalError):
        evaluate(parse("log(0 - 1)"), env)
    with pytest.raises(ExprEvalError):
        evaluate(parse("sqrt(0 - 4)"), env)
    # overflow is reported, not returned as inf
    with pytest.raises(ExprEvalError):
        evaluate(parse("exp(1000)"), env)


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
        radial_derivative(parse(text), env, key="phi")
    assert " in phi (byte offset " in str(exc.value)
    with pytest.raises(ExprEvalError) as exc:
        evaluate(parse(text), env)
    assert " in " not in str(exc.value)


def test_ast_shape():
    node = parse("0.25/rho")
    assert node == Binary("/", Const(0.25), Var("rho"))
    node = parse("-rho^2")
    assert node == Unary("-", Binary("^", Var("rho"), Const(2.0)))
    node = parse("min(rho, 2)")
    assert node == Call("min", (Var("rho"), Const(2.0)))


def test_radial_derivative():
    env = env_at(2.0)
    # d/drho of (0.6 - 0.05 rho)/rho^2 at rho=2 is -0.1375
    node = parse("(0.6 - 0.05*rho)/rho^2")
    got = radial_derivative(node, env)
    assert abs(got - (-0.1375)) < 1e-9
    # the derivative scales points along the ray, so u stays fixed
    envp = EvalEnv(rho=2.0, x1=0.0, x2=0.0, x3=2.0)
    got = radial_derivative(parse("u"), envp)
    assert abs(got) < 1e-9


def test_env_consistency_check():
    with pytest.raises(ValueError):
        EvalEnv(rho=2.0, x1=1.0, x2=1.0, x3=1.0)
    with pytest.raises(ValueError):
        EvalEnv(rho=-1.0, x1=0.0, x2=0.0, x3=-1.0)


def test_env_along_ray():
    env = EvalEnv(rho=2.0, x1=0.0, x2=0.0, x3=2.0)
    out = env.along_ray(4.0)
    assert out.rho == 4.0
    assert out.x3 == 4.0
    assert out.u == env.u

"""Expression grammar: parsing, canonical printing, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfq import (
    AlgebraError,
    CNum,
    ExpressionSyntaxError,
    System,
    format_expression,
    parse_expression,
)
from halfq.grammar import parse_symbol, validate_constant_names

S11 = System(1, 1)


def test_single_product():
    expr = parse_expression("q1*P1", S11)
    ((key, coeff),) = expr.terms()
    hbar, consts, classical, word = key
    assert hbar == 0 and consts == ()
    assert [(s.name, e) for s, e in classical] == [("q1", 1)]
    assert [s.name for s in word] == ["P1"]
    assert coeff == CNum(1)


def test_canonical_commutation():
    expr = parse_expression("Q1*P1 - P1*Q1", S11)
    ((key, coeff),) = expr.terms()
    assert key == (1, (), (), ())
    assert coeff == CNum(0, 1)
    assert format_expression(expr) == "i*hbar"


def test_example_hamiltonian_structure():
    # two interacting particles, unit masses and coupling
    h = parse_expression("P1^2/2 + p1^2/2 + q1*P1", S11)
    manual = (
        S11.P(1) * S11.P(1) / 2 + S11.p(1) * S11.p(1) / 2 + S11.q(1) * S11.P(1)
    )
    assert h == manual
    assert len(h.terms()) == 3


def test_written_operator_order_is_preserved():
    qp = parse_expression("Q1*P1", S11)
    pq = parse_expression("P1*Q1", S11)
    assert qp != pq
    assert format_expression(pq) == "Q1*P1 - i*hbar"


def test_decimal_literals_are_exact():
    expr = parse_expression("0.1*q1", S11)
    ((_, coeff),) = expr.terms()
    assert coeff == CNum(Fraction(1, 10))


@pytest.mark.parametrize("text", ["0", "007", "12345678901234567890", "0.125", "1.50", "10.0"])
def test_number_literals_read_exactly(text):
    assert parse_expression(text, S11) == S11.scalar(Fraction(text))


def test_constants_and_negative_powers():
    expr = parse_expression("k*q1/(2*m) + m^-1*p1", S11, ("m", "k"))
    assert expr == parse_expression("1/2*k*m^-1*q1 + m^-1*p1", S11, ("m", "k"))


def test_unary_minus_and_parentheses():
    expr = parse_expression("-(q1 - p1)^2", S11)
    q, p = S11.q(1), S11.p(1)
    assert expr == -((q - p) * (q - p))


def test_imaginary_unit():
    expr = parse_expression("i*hbar", S11)
    ((key, coeff),) = expr.terms()
    assert key[0] == 1 and coeff == CNum(0, 1)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("q1 + * p1", S11)
    assert err.value.position == 5


@pytest.mark.parametrize(
    "text, message",
    [
        ("q1 $ p1", r"^unexpected character '\$' \(at position 3\)$"),
        ("(q1 + p1", r"^expected '\)'"),
        ("q1 p1", r"^unexpected 'p1'"),
        # a character the grammar does not allow is named before any
        # other fault, wherever it stands
        ("q1/0 + $", r"^unexpected character '\$' \(at position 7\)$"),
        ("q1 + * p1 é", r"^unexpected character 'é' \(at position 10\)$"),
    ],
)
def test_malformed_text_names_its_fault(text, message):
    with pytest.raises(ExpressionSyntaxError, match=message):
        parse_expression(text, S11)


def test_parse_symbol_rejects_other_names():
    with pytest.raises(AlgebraError, match="not a symbol name: 'x1'"):
        parse_symbol("x1")


def test_unknown_identifier_rejected():
    with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
        parse_expression("q1 + w", S11)


def test_index_out_of_range():
    with pytest.raises(ExpressionSyntaxError, match="out of range"):
        parse_expression("q2", S11)
    with pytest.raises(ExpressionSyntaxError, match="out of range"):
        parse_expression("P3", System(2, 2))
    with pytest.raises(ExpressionSyntaxError, match="out of range"):
        parse_expression("q0", S11)


def test_division_by_symbols_rejected():
    with pytest.raises(ExpressionSyntaxError, match="divide"):
        parse_expression("1/q1", S11)
    with pytest.raises(ExpressionSyntaxError, match="hbar"):
        parse_expression("q1/hbar", S11)
    with pytest.raises(ExpressionSyntaxError, match="single scalar"):
        parse_expression("q1/(1 + m)", S11, ("m",))


@pytest.mark.parametrize(
    "text, position", [("q1/0", 3), ("q1/(1-1)", 3), ("0^-1*q1", 0), ("q1/(m-m)", 3)]
)
def test_division_by_zero_rejected(text, position):
    with pytest.raises(ExpressionSyntaxError, match="division by zero") as err:
        parse_expression(text, S11, ("m",))
    assert err.value.position == position


def test_scalar_division_allowed():
    expr = parse_expression("q1/(2*m)", S11, ("m",))
    assert format_expression(expr) == "1/2*m^-1*q1"


def test_negative_power_of_symbol_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("q1^-1", S11)


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError, match="integer"):
        parse_expression("q1^1.5", S11)


def test_constant_name_validation():
    with pytest.raises(ValueError, match="collides"):
        validate_constant_names(["q1"])
    with pytest.raises(ValueError, match="collides"):
        validate_constant_names(["hbar"])
    with pytest.raises(ValueError, match="identifier"):
        validate_constant_names(["two words"])


def test_parse_print_parse_idempotent_on_handwritten_cases():
    cases = [
        "q1*P1",
        "Q1*P1 - P1*Q1",
        "P1^2/2 + p1^2/2 + q1*P1",
        "(1/2 - 3*i)*q1^3*Q1*P1^2 + hbar^2*m^-2",
        "-p1 + 2/3*i*hbar*q1",
    ]
    for text in cases:
        once = parse_expression(text, S11, ("m",))
        twice = parse_expression(format_expression(once), S11, ("m",))
        assert once == twice, text


@st.composite
def random_expressions(draw):
    system = System(2, 2)
    n_terms = draw(st.integers(1, 5))
    expr = system.zero()
    for _ in range(n_terms):
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 6))
        im = draw(st.integers(-3, 3))
        coeff = CNum(Fraction(num, den), Fraction(im, 2))
        term = system.scalar(coeff) * system.hbar(draw(st.integers(0, 2)))
        term = term * system.const("m", draw(st.integers(-2, 2)))
        for sym_expr, max_pow in (
            (system.q(1), 2),
            (system.p(2), 2),
            (system.Q(1), 2),
            (system.P(2), 1),
        ):
            term = term * sym_expr ** draw(st.integers(0, max_pow))
        expr = expr + term
    return expr


@settings(max_examples=60, deadline=None)
@given(random_expressions())
def test_print_parse_round_trip(expr):
    text = format_expression(expr)
    assert parse_expression(text, expr.system, ("m",)) == expr

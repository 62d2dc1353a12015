"""Expression grammar: parsing, canonical printing, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfq import (
    AlgebraError,
    CNum,
    ExpressionSyntaxError,
    HybridExpression,
    System,
    format_expression,
    parse_expression,
)
from halfq.grammar import _expansion_bound, parse_symbol, validate_constant_names

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


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("Q1^4097", "exponent above 4096", 3),
        ("m^-5000*q1", "exponent above 4096", 3),
        ("Q1^" + "9" * 5000, "exponent above 4096", 3),
        ("Q1^4000*P1^97", "quantum word longer than 4096 letters", 11),
        ("Q1^4000*P1*P1^95*Q1", "quantum word longer than 4096 letters", 17),
        ("(Q1^2000)^3", "quantum word longer than 4096 letters", 10),
        ("(P1^4000 + 1)*(Q1^4000 + 1)", "quantum word longer than 4096 letters", 14),
        ("(Q1 + P1)^127", "power of a sum could expand to more than 4096 terms", 10),
        ("(q1 + p1 + m)^90", "power of a sum could expand to more than 4096 terms", 14),
        ("(Q1+P1)^40*(Q1+P1)^40", "product could expand to more than 4096 terms", 11),
    ],
)
def test_runaway_powers_are_refused_at_their_exponent(text, message, position):
    # the exponent, and the quantum word of a term, are bounded by
    # MAX_POWER before the word or the coefficient is built; a product of
    # sums is refused at its second factor, before it is multiplied out
    with pytest.raises(ExpressionSyntaxError, match=message) as err:
        parse_expression(text, S11, ("m",))
    assert err.value.position == position


def test_powers_up_to_the_bound_parse():
    # _expansion_bound is exact for a power of a one-DOF sum: (Q1+P1)^89 has
    # 2,070 terms and ^126, the largest power admitted, 4,096
    assert len(parse_expression("(Q1 + P1)^40", S11).terms()) == 441
    q1p1 = parse_expression("Q1 + P1", S11)._terms
    assert [_expansion_bound([q1p1] * n) for n in (89, 126)] == [2070, 4096]
    assert _expansion_bound([q1p1] * 127) > 4096
    # over two DOFs the bound reads 1,512 for the 784 terms of the 11th power
    assert len(parse_expression("(Q1 + P1 + Q2 + P2)^10", System(0, 2)).terms()) == 581
    assert len(parse_expression("(Q1+P1+Q2+P2)^11", System(0, 2)).terms()) == 784
    # a product of a 441-term power and its base is admitted
    assert len(parse_expression("(Q1+P1)^40*(Q1+P1)", S11).terms()) == 462
    assert format_expression(parse_expression("Q1^4096", S11)) == "Q1^4096"
    assert format_expression(parse_expression("Q1^4000*P1^96", S11)) == "Q1^4000*P1^96"
    assert format_expression(parse_expression("hbar^4096*q1^4096", S11)) == "hbar^4096*q1^4096"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["Q1", "P1", "Q2", "P2", "Q1*P1", "P1*Q1", "m", "q1", "hbar"]),
             min_size=2, max_size=4, unique=True),
    st.lists(st.sampled_from(["Q1", "P1", "P2*Q2", "P1^2", "m*Q2", "1"]),
             min_size=2, max_size=3, unique=True),
    st.integers(1, 4),
)
def test_the_term_bound_holds_every_expansion(left, right, n):
    # a power and a product of normal-ordered sums never expand to more
    # terms than _expansion_bound reads
    system = System(1, 2)
    a = parse_expression(" + ".join(left), system, ("m",))._terms
    b = parse_expression(" + ".join(right), system, ("m",))._terms
    power = HybridExpression(system, a) ** n
    assert len(power.terms()) <= _expansion_bound([a] * n)
    product = power * HybridExpression(system, b)
    assert len(product.terms()) <= _expansion_bound([dict(power._terms), b])


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


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("q1^", "exponent must be an integer", 3),
        ("q1^x", "exponent must be an integer", 3),
        ("q1^2.5", "exponent must be an integer", 3),
        ("(q1", "expected ')'", 3),
        ("q1)", "unexpected ')'", 2),
        ("q1^-1", "cannot divide by dynamical symbols", 0),
        ("2*(q1+p1)^-1", "divisor/negative power must be a single scalar factor", 2),
        # a divisor word of two or more letters is normal-ordered first
        ("1/Q1^2", "cannot divide by dynamical symbols", 2),
        ("1/(Q1*P1)", "cannot divide by dynamical symbols", 2),
        ("q1/(Q1*P1)^2", "divisor/negative power must be a single scalar factor", 3),
    ],
)
def test_malformed_factor_keeps_its_message_and_position(text, message, position):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text, S11)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_monomial_terms_are_read_without_expression_products(monkeypatch):
    # a term is multiplied out as one monomial; only a parenthesized sum
    # needs HybridExpression products
    from halfq.algebra import HybridExpression

    calls = []
    for name in ("__mul__", "__pow__"):
        original = getattr(HybridExpression, name)

        def counted(self, other, name=name, original=original):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(HybridExpression, name, counted)
    texts = [
        "(4/1)*p2*p2 + (0/4)*p1*p1 + (-9/5)*q2*p1*q2 - (8/1)",
        "8 + 1/4*q1*Q1^2*P1 - 3/5*q1*Q1*P1 + 3/10*i*hbar*q1 - 1/4*i*hbar*q1*Q1",
        "P2*Q2*P1^2/(2*m) - -k^-2*q2^3*(p1) + (1/2 - 3*i)*hbar^2 + 0.25*Q1^0",
    ]
    for text in texts:
        parse_expression(text, System(2, 2), ("m", "k"))
    assert calls == []
    parse_expression("(q1 + p1)^2*Q1", S11)
    assert calls


# an expression tree over System(2, 2) is drawn as (text, expression, level):
# the text, the same tree built with HybridExpression arithmetic, and the
# binding level of the text's outermost operator (0 sum, 1 product or
# negation, 2 power, 3 atom); a child binding looser than its place needs is
# parenthesized
S22 = System(2, 2)
TREE_CONSTANTS = ("m", "k")


def _atom(text, expr):
    return text, expr, 3


def _wrap(node, level):
    text, expr, own = node
    return text if own >= level else f"({text})"


@st.composite
def _decimal_literal(draw):
    text = f"{draw(st.integers(0, 20))}.{draw(st.integers(0, 999)):0{draw(st.integers(1, 3))}d}"
    return _atom(text, S22.scalar(Fraction(text)))


# nonzero scalar monomials, with their inverse, for divisors and negative powers
@st.composite
def _scalar_divisor(draw):
    parts = draw(st.lists(st.sampled_from(["n", "i", "m", "k"]), min_size=1, max_size=2))
    texts, value, inverse = [], S22.one(), S22.one()
    for part in parts:
        if part == "n":
            n = draw(st.integers(1, 9))
            texts.append(str(n))
            value, inverse = value * n, inverse / n
        elif part == "i":
            texts.append("i")
            value, inverse = value * 1j, inverse * -1j
        else:
            texts.append(part)
            value, inverse = value * S22.const(part), inverse * S22.const(part, -1)
    text = "*".join(texts)
    return (text if len(texts) == 1 else f"({text})"), value, inverse


_LEAVES = st.one_of(
    st.integers(0, 12).map(lambda n: _atom(str(n), S22.scalar(n))),
    _decimal_literal(),
    st.just(_atom("hbar", S22.hbar())),
    st.just(_atom("i", S22.scalar(1j))),
    st.sampled_from(TREE_CONSTANTS).map(lambda name: _atom(name, S22.const(name))),
    st.sampled_from([(f"{k}{j}", k, j) for k in "qpQP" for j in (1, 2)]).map(
        lambda s: _atom(s[0], getattr(S22, s[1])(s[2]))
    ),
)


@st.composite
def _sum(draw, children):
    left, right = draw(children), draw(children)
    op = draw(st.sampled_from("+-"))
    value = left[1] + right[1] if op == "+" else left[1] - right[1]
    return f"{_wrap(left, 0)} {op} {_wrap(right, 1)}", value, 0


@st.composite
def _product(draw, children):
    left, right = draw(children), draw(children)
    return f"{_wrap(left, 1)}*{_wrap(right, 1)}", left[1] * right[1], 1


@st.composite
def _quotient(draw, children):
    left, (text, _, inverse) = draw(children), draw(_scalar_divisor())
    return f"{_wrap(left, 1)}/{text}", left[1] * inverse, 1


@st.composite
def _negation(draw, children):
    child = draw(children)
    return f"-{_wrap(child, 1)}", -child[1], 1


@st.composite
def _power(draw, children):
    if draw(st.booleans()):
        base, exponent = draw(children), draw(st.integers(0, 3))
        return f"{_wrap(base, 3)}^{exponent}", base[1] ** exponent, 2
    (text, _, inverse), exponent = draw(_scalar_divisor()), draw(st.integers(1, 2))
    return f"{text}^-{exponent}", inverse**exponent, 2


def _branches(children):
    return st.one_of(
        _sum(children), _product(children), _quotient(children),
        _negation(children), _power(children),
    )


EXPRESSION_TREES = st.recursive(_LEAVES, _branches, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(EXPRESSION_TREES)
def test_parsed_tree_equals_the_tree_built_by_arithmetic(tree):
    text, expr, _ = tree
    parsed = parse_expression(text, S22, TREE_CONSTANTS)
    assert parsed == expr, text
    assert parse_expression(format_expression(parsed), S22, TREE_CONSTANTS) == parsed

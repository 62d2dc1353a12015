"""Symbolic engine: brackets, quantization maps, series, exact identities."""

import ast
import copy
import functools
import inspect
import math
import pickle
import random
import textwrap
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfq import (
    AlgebraError,
    CNum,
    NonTerminatingSeriesError,
    Symbol,
    System,
    SystemMismatchError,
    UnquantizationWarning,
    commutator,
    div_ihbar,
    format_expression,
    half_quantize,
    heisenberg_series,
    hybrid_bracket,
    jacobiator,
    mul_ihbar,
    parse_expression,
    partial_derivative,
    poisson_bracket,
    unquantize,
    weyl_quantize,
)
from halfq.algebra import (
    HybridExpression,
    Kind,
    _TO_WEYL,
    _bracket_sum,
    _derivative,
    _mapped,
    _merge_pows,
    _monomial_bracket,
    _poisson_unit,
    _unit_product,
    _weyl_terms,
    double_bracket,
    embed,
    find_jacobiator_witness,
    hybrid_monomials,
)

S11 = System(1, 1)
S21 = System(2, 1)
CONSTS = ("m", "M", "k")


def example_hamiltonian(system=S11):
    return parse_expression("P1^2/(2*M) + p1^2/(2*m) + k*q1*P1", system, CONSTS)


def random_classical_poly(rng, system, degree, dofs=1):
    """Random classical polynomial with small rational coefficients."""
    expr = system.zero()
    for _ in range(rng.randint(2, 5)):
        term = system.scalar(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        budget = rng.randint(0, degree)
        for _ in range(budget):
            i = rng.randint(1, dofs)
            term = term * (system.q(i) if rng.random() < 0.5 else system.p(i))
        expr = expr + term
    return expr


# --------------------------------------------------------------------------
# commutators and Poisson brackets


def test_ccr():
    assert commutator(S11.Q(1), S11.P(1)) == mul_ihbar(S11.one())


def test_classical_scalars_commute():
    assert commutator(S11.q(1), S11.P(1) ** 2).is_zero
    assert commutator(S11.q(1) * S11.p(1), S11.Q(1) * S11.P(1)).is_zero


def test_commutator_with_example_hamiltonian():
    # [Q1, H] = i hbar (P1/M + k q1); cross-checked against the t-linear
    # coefficient of the series solution below
    h = example_hamiltonian()
    got = commutator(S11.Q(1), h)
    want = mul_ihbar(
        parse_expression("M^-1*P1 + k*q1", S11, CONSTS)
    )
    assert got == want
    series = heisenberg_series(S11.Q(1), h)
    t_linear = {
        (hb, tuple(kv for kv in consts if kv[0] != "t"), cl, word): c
        for (hb, consts, cl, word), c in series.terms()
        if dict(consts).get("t") == 1
    }
    from halfq.algebra import HybridExpression

    assert HybridExpression(S11, t_linear) == div_ihbar(got)


def test_poisson_examples():
    q, p = S11.q(1), S11.p(1)
    assert poisson_bracket(q, p) == S11.one()
    assert poisson_bracket(q * q, p) == 2 * q
    m = S11.const("m")
    assert poisson_bracket(q, p * p * S11.const("m", -1) / 2) == p * S11.const("m", -1)


def test_bracket_antisymmetry_and_bilinearity():
    rng = random.Random(11)
    sys2 = System(2, 2)
    for _ in range(25):
        a = random_hybrid(rng, sys2, 3)
        b = random_hybrid(rng, sys2, 3)
        c = random_hybrid(rng, sys2, 2)
        assert (commutator(a, b) + commutator(b, a)).is_zero
        assert (hybrid_bracket(a, b) + hybrid_bracket(b, a)).is_zero
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert commutator(a * lam + c, b) == commutator(a, b) * lam + commutator(c, b)
        assert hybrid_bracket(a * lam + c, b) == hybrid_bracket(a, b) * lam + hybrid_bracket(c, b)


def random_hybrid(rng, system, degree):
    expr = system.zero()
    for _ in range(rng.randint(1, 4)):
        term = system.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, degree)):
            pick = rng.random()
            i = rng.randint(1, system.classical)
            a = rng.randint(1, system.quantum)
            if pick < 0.25:
                term = term * system.q(i)
            elif pick < 0.5:
                term = term * system.p(i)
            elif pick < 0.75:
                term = term * system.Q(a)
            else:
                term = term * system.P(a)
        expr = expr + term
    return expr


SMALL_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def hybrid_sums(draw, system=S21):
    """Sums of ``system`` monomials with complex rational coefficients,
    hbar grades 0..2 and constants carrying negative powers."""
    letters = [f(i) for i in range(1, system.classical + 1) for f in (system.q, system.p)]
    letters += [f(a) for a in range(1, system.quantum + 1) for f in (system.Q, system.P)]
    expr = system.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = system.scalar(CNum(draw(SMALL_FRACTIONS), draw(SMALL_FRACTIONS)))
        term = term * system.hbar(draw(st.integers(0, 2)))
        for name in ("m", "k"):
            term = term * system.const(name, draw(st.integers(-2, 2)))
        for factor in draw(st.lists(st.sampled_from(letters), max_size=4)):
            term = term * factor
        expr = expr + term
    return expr


@settings(max_examples=60, deadline=None)
@given(hybrid_sums(), hybrid_sums())
def test_hybrid_bracket_matches_its_definition(a, b):
    assert hybrid_bracket(a, b) == commutator(a, b) + mul_ihbar(double_bracket(a, b))


def test_closed_form_unit_bracket_matches_its_definition():
    # every ordered pair of unit monomials of degree <= 3 in q1, p1, q2, p2,
    # Q1, P1, each bracket built afresh by the closed form
    _monomial_bracket.cache_clear()
    letters = (S21.q(1), S21.p(1), S21.q(2), S21.p(2), S21.Q(1), S21.P(1))
    monos = [
        math.prod((x**e for x, e in zip(letters, exps)), start=S21.one())
        for exps in product(range(4), repeat=6)
        if 1 <= sum(exps) <= 3
    ]
    assert len(monos) == 83
    for a in monos:
        for b in monos:
            assert hybrid_bracket(a, b) == commutator(a, b) + mul_ihbar(double_bracket(a, b))


@settings(max_examples=60, deadline=None)
@given(hybrid_sums(), hybrid_sums())
def test_double_bracket_matches_its_definition(a, b):
    # 1/2 sum_i (d_qi a d_pi b - d_pi a d_qi b + d_pi b d_qi a - d_qi b d_pi a),
    # quantum products kept in the order written
    want = S21.zero()
    for i in (1, 2):
        aq, ap = partial_derivative(a, Symbol.q(i)), partial_derivative(a, Symbol.p(i))
        bq, bp = partial_derivative(b, Symbol.q(i)), partial_derivative(b, Symbol.p(i))
        want = want + (aq * bp - ap * bq + bp * aq - bq * ap)
    assert double_bracket(a, b) == want / 2


def cnum_bracket_sum(pairs, unit) -> HybridExpression:
    """The sum of ``_bracket_sum``, one CNum product and sum at a time."""
    out = {}
    for a, b in pairs:
        for (h1, pr1, cl1, w1), c1 in a._terms.items():
            for (h2, pr2, cl2, w2), c2 in b._terms.items():
                for h, cl, word, c in unit(cl1, w1, cl2, w2):
                    key = (h1 + h2 + h, _merge_pows(pr1, pr2), cl, word)
                    out[key] = out.get(key, CNum(0)) + c1 * c2 * c
    return HybridExpression(S21, {key: c for key, c in out.items() if c})


def cnum_mapped(expr, image) -> HybridExpression:
    """The image of ``_mapped``, one CNum product and sum at a time."""
    out = {}
    for (h, pr, cl, word), c in expr._terms.items():
        for dh, cl2, word2, cu in image(cl, word):
            key = (h + dh, pr, cl2, word2)
            out[key] = out.get(key, CNum(0)) + c * cu
    return HybridExpression(expr.system, {key: c for key, c in out.items() if c})


@st.composite
def drawn_coefficients(draw):
    """A :func:`hybrid_sums` sum with every coefficient drawn anew, so no
    input coefficient comes out of the ``_bracket_sum`` under test; a key
    drawn a zero coefficient is left out, as canonical terms require."""
    keys = draw(hybrid_sums())._terms
    drawn = {key: CNum(draw(SMALL_FRACTIONS), draw(SMALL_FRACTIONS)) for key in keys}
    return HybridExpression(S21, {key: c for key, c in drawn.items() if c})


# Gaussian unit images over unequal denominators: one whose two grades meet
# at one key across terms, and one whose three terms cancel exactly
GAUSSIAN_IMAGES = (
    lambda cl, word: (
        (0, cl, word, CNum(Fraction(1, 3), Fraction(-1, 2))),
        (1, cl, word, CNum(Fraction(3, 4), 1)),
    ),
    lambda cl, word: (
        (0, cl, word, CNum(Fraction(1, 3))),
        (0, cl, word, CNum(Fraction(1, 6), Fraction(1, 4))),
        (0, cl, word, CNum(Fraction(-1, 2), Fraction(-1, 4))),
    ),
    lambda cl, word: _derivative(cl, word, Symbol.q(1)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(drawn_coefficients(), drawn_coefficients()), min_size=1, max_size=3),
       st.booleans())
def test_bracket_sum_matches_cnum_arithmetic(pairs, cancel):
    # the int-triple accumulator against CNum products summed one at a time,
    # on the unit images of the library and on two Gaussian ones whose terms
    # meet at one key over unequal denominators; a negated copy of the
    # first pair cancels it exactly
    if cancel:
        pairs.append((-pairs[0][0], pairs[0][1]))
    gaussian_units = [
        lambda cl1, w1, cl2, w2, image=image: image(_merge_pows(cl1, cl2), w1 + w2)
        for image in GAUSSIAN_IMAGES[:2]
    ]
    for unit in (_monomial_bracket, _unit_product, _poisson_unit, *gaussian_units):
        got = _bracket_sum(pairs, unit)
        assert all(got.values())
        assert HybridExpression(S21, got) == cnum_bracket_sum(pairs, unit)
        if cancel and len(pairs) == 2:
            assert got == {}


@settings(max_examples=60, deadline=None)
@given(drawn_coefficients())
def test_mapped_matches_cnum_arithmetic(expr):
    for image in GAUSSIAN_IMAGES:
        assert _mapped(expr, S21, image) == cnum_mapped(expr, image)
    assert _mapped(expr, S21, GAUSSIAN_IMAGES[1]).is_zero


def test_bracket_sum_reduces_each_output_key_once(monkeypatch):
    # with the unit brackets memoized, a hybrid bracket builds one CNum per
    # term of its result and none per multiply-add
    import halfq.algebra as algebra

    a = parse_expression("1/3*q1^2*P1^2 - 2/5*i*p1*Q1^3 + 3/2*q1*p1*Q1*P1 + 7*p1^4", S11)
    b = parse_expression("5/4*p1^2*Q1^2 + i*q1^3*P1 - 1/6*q1*Q1*P1^2 + 2*i*Q1^4", S11)
    want = hybrid_bracket(a, b)
    calls = []
    gaussian = algebra._gaussian
    monkeypatch.setattr(
        algebra, "_gaussian", lambda *args, **kw: calls.append(1) or gaussian(*args, **kw)
    )
    assert hybrid_bracket(a, b) == want
    assert 0 < len(calls) <= len(want.terms())


def test_double_bracket_differentiates_each_argument_once(monkeypatch):
    import halfq.algebra as algebra

    calls = []
    original = algebra.partial_derivative

    def counted(expr, sym):
        calls.append(sym)
        return original(expr, sym)

    monkeypatch.setattr(algebra, "partial_derivative", counted)
    a = parse_expression("q1*p2*P1 + q2^2", S21)
    b = parse_expression("p1*Q1 + q1*q2", S21)
    double_bracket(a, b)
    # two classical DOFs: d/dq_i and d/dp_i of a and of b, once each
    assert len(calls) == 8


def poisson_by_derivatives(a, b):
    """sum_i (da/dq_i * db/dp_i - da/dp_i * db/dq_i), quantum products in the
    order written: the definition :func:`poisson_bracket` sums in closed form."""
    want = a.system.zero()
    for i in range(1, a.system.classical + 1):
        aq, ap = partial_derivative(a, Symbol.q(i)), partial_derivative(a, Symbol.p(i))
        bq, bp = partial_derivative(b, Symbol.q(i)), partial_derivative(b, Symbol.p(i))
        want = want + (aq * bp - ap * bq)
    return want


S22 = System(2, 2)


def test_poisson_bracket_multiplies_words_in_the_order_written():
    a = parse_expression("m*q1*Q1 + q2^2*P2*Q1", S22, ("m",))
    b = parse_expression("p1*P1 + k^-1*p2*Q2", S22, ("k",))
    for x, y in ((a, b), (b, a)):
        assert poisson_bracket(x, y) == poisson_by_derivatives(x, y)
    # {q1*Q1, p1*P1} = Q1*P1 but {p1*P1, q1*Q1} = -P1*Q1 = -Q1*P1 + i*hbar
    q1Q1, p1P1 = S22.q(1) * S22.Q(1), S22.p(1) * S22.P(1)
    assert poisson_bracket(q1Q1, p1P1) == S22.Q(1) * S22.P(1)
    assert poisson_bracket(p1P1, q1Q1) == -S22.Q(1) * S22.P(1) + mul_ihbar(S22.one())


@settings(max_examples=60, deadline=None)
@given(hybrid_sums(S22), hybrid_sums(S22))
def test_poisson_bracket_matches_its_definition(a, b):
    assert poisson_bracket(a, b) == poisson_by_derivatives(a, b)


def test_cnum_defers_to_the_other_operand():
    e = parse_expression("q1*P1 + p1", S11)
    i = CNum(0, 1)
    assert i * e == e * i
    assert i + e == e + i
    assert i - e == -(e - i)
    with pytest.raises(TypeError):
        CNum(1) * 2


@settings(max_examples=60, deadline=None)
@given(hybrid_sums(System(0, 2)), hybrid_sums(System(0, 2)))
def test_hybrid_bracket_is_the_commutator_without_classical_dofs(a, b):
    # M = 0 leaves the double bracket nothing to differentiate, so
    # heisenberg_series is the full-quantum Heisenberg series
    assert hybrid_bracket(a, b) == commutator(a, b)


def test_system_mismatch_rejected():
    with pytest.raises(SystemMismatchError):
        commutator(S11.q(1), System(2, 1).q(1))


@settings(max_examples=60, deadline=None)
@given(hybrid_sums(System(1, 2)), hybrid_sums(System(1, 2)), st.integers(0, 3))
def test_embed_shifts_quantum_dofs_in_canonical_order(a, b, offset):
    # quantum DOF a of a 1+2 system becomes a + offset of a larger system;
    # classical symbols keep their index, and every word stays canonical
    target = System(1, 2 + offset)
    moved = embed(a, target, offset)
    assert moved.system == target
    assert moved.classical_symbols() == a.classical_symbols()
    assert len(moved.terms()) == len(a.terms())
    for ((h, pr, cl, word), c), ((h0, pr0, cl0, word0), c0) in zip(moved.terms(), a.terms()):
        assert (h, pr, cl, c) == (h0, pr0, cl0, c0)
        assert [(s.kind, s.index) for s in word] == [(s.kind, s.index + offset) for s in word0]
        assert list(word) == sorted(word, key=lambda s: (s.index, s.is_momentum))
    # the shift commutes with the ring operations
    assert embed(a + b, target, offset) == moved + embed(b, target, offset)
    assert embed(a * b, target, offset) == moved * embed(b, target, offset)
    # a target without room for a shifted symbol is refused
    if any(s.index == 2 for (_, _, _, word), _ in a.terms() for s in word):
        with pytest.raises(AlgebraError, match="outside system"):
            embed(a, System(1, 1 + offset), offset)
    if a.classical_symbols():
        with pytest.raises(AlgebraError, match="outside system"):
            embed(a, System(0, 2 + offset), offset)


# --------------------------------------------------------------------------
# canonicalization


def test_canonicalization_confluence_under_reassociation():
    # multiplying the same factors in any association/evaluation order must
    # land on the same canonical form
    rng = random.Random(23)
    sys2 = System(2, 2)
    for _ in range(30):
        factors = [random_hybrid(rng, sys2, 2) for _ in range(4)]
        left = factors[0]
        for f in factors[1:]:
            left = left * f
        right = factors[0] * (factors[1] * (factors[2] * factors[3]))
        middle = (factors[0] * factors[1]) * (factors[2] * factors[3])
        assert left == right == middle


def test_normal_order_within_dof():
    word = S11.P(1) * S11.Q(1) * S11.P(1)  # P Q P
    # P Q P = (QP - i hbar) P = Q P^2 - i hbar P
    want = S11.Q(1) * S11.P(1) ** 2 - mul_ihbar(S11.P(1))
    assert word == want


def test_distinct_dofs_commute():
    sys2 = System(0, 2)
    assert sys2.P(2) * sys2.Q(1) == sys2.Q(1) * sys2.P(2)


def _schroedinger(letters, poly: dict) -> dict:
    """The operator word ``letters`` in the Schrödinger representation,
    Q_a = x_a* and P_a = -i*hbar d/dx_a, applied to ``poly``: a dict
    (hbar power, exponents of x_1, x_2, ...) -> [real, imaginary] parts."""
    for sym in reversed(letters):
        out: dict = {}
        for (h, *ns), (re, im) in poly.items():
            a = sym.index - 1
            if sym.is_momentum:
                if not ns[a]:
                    continue
                # -i*hbar * n * x^(n-1): (re + i*im) * (-i*n) = n*im - i*n*re
                re, im, h = ns[a] * im, -ns[a] * re, h + 1
                ns[a] -= 1
            else:
                ns[a] += 1
            key = (h, *ns)
            old = out.get(key, (0, 0))
            out[key] = (old[0] + re, old[1] + im)
        poly = {k: v for k, v in out.items() if v != (0, 0)}
    return poly


@pytest.mark.parametrize("dofs, max_length, applications", [(1, 6, 768), (2, 4, 7_584)])
def test_normal_order_matches_the_schroedinger_representation(dofs, max_length, applications):
    # an independent reference for normal ordering: each word applied
    # letter by letter to every monomial x^n with |n| per DOF up to the word's
    # length equals its normal-ordered expansion applied term by term
    system = System(0, dofs)
    symbols = [s for a in range(1, dofs + 1) for s in (Symbol.Q(a), Symbol.P(a))]
    checked = 0
    for length in range(1, max_length + 1):
        for letters in product(symbols, repeat=length):
            expansion = math.prod((system.symbol(s) for s in letters), start=system.one())
            for ns in product(range(length + 1), repeat=dofs):
                start = {(0, *ns): (Fraction(1), Fraction(0))}
                want = _schroedinger(letters, start)
                got: dict = {}
                for (h, _, _, word), c in expansion.terms():
                    for (h2, *ns2), (re, im) in _schroedinger(word, start).items():
                        key = (h + h2, *ns2)
                        old = got.get(key, (0, 0))
                        got[key] = (old[0] + c.re * re - c.im * im, old[1] + c.re * im + c.im * re)
                assert {k: v for k, v in got.items() if v != (0, 0)} == want, (letters, ns)
                checked += 1
    assert checked == applications


@settings(max_examples=60, deadline=None)
@given(
    hybrid_sums(),
    hybrid_sums(),
    st.sampled_from([0, 1, -1, Fraction(1, 2), 1j]),
    st.sampled_from([1, -1, 2]),
)
def test_builders_leave_no_zero_coefficient(a, b, scale, value):
    # the constructor stores the terms it is given, so each builder must
    # drop the zeros its cancellations leave (the constant substitution
    # merges terms when m and k take equal values): every result has no zero
    # coefficient and equals a reference summed one CNum at a time and
    # filtered by hand
    s = CNum.of(scale)
    summed, differenced, adjoint, substituted = dict(a._terms), dict(a._terms), {}, {}
    for key, c in b._terms.items():
        summed[key] = summed.get(key, CNum(0)) + c
        differenced[key] = differenced.get(key, CNum(0)) - c
    for (h, pr, cl, word), c in a._terms.items():
        for dh, cl2, word2, cu in _unit_product(cl, word[::-1], (), ()):
            key = (h + dh, pr, cl2, word2)
            adjoint[key] = adjoint.get(key, CNum(0)) + c.conjugate() * cu
        key, v = (h, (), cl, word), CNum(Fraction(value) ** sum(e for _, e in pr))
        substituted[key] = substituted.get(key, CNum(0)) + c * v
    text, other = format_expression(a), format_expression(b)
    parse = lambda t: parse_expression(t, S21, ("m", "k"))
    built = [
        (a + b, summed),
        (a - b, differenced),
        (a - a, {}),
        (a * 0, {}),
        (0 * a, {}),
        (a * scale, {key: c * s for key, c in a._terms.items()}),
        (scale * a, {key: c * s for key, c in a._terms.items()}),
        (-a, {key: -c for key, c in a._terms.items()}),
        (a * b, cnum_bracket_sum(((a, b),), _unit_product)._terms),
        (hybrid_bracket(a, b), cnum_bracket_sum(((a, b),), _monomial_bracket)._terms),
        (hybrid_bracket(a, a), {}),
        (poisson_bracket(a, b), cnum_bracket_sum(((a, b),), _poisson_unit)._terms),
        *((partial_derivative(a, x), cnum_mapped(a, lambda cl, w: _derivative(cl, w, x))._terms)
          for x in (Symbol.q(1), Symbol.p(2))),
        (a.adjoint(), adjoint),
        (a.substitute_constants({"m": value, "k": value}), substituted),
        (S21.scalar(0), {}),
        (S21.scalar(scale), {(0, (), (), ()): s}),
        (parse(f"({text}) - ({text})"), {}),
        (parse(f"0*({text}) + 0*Q1 + Q1*P1 - P1*Q1 - i*hbar"), {}),
        (parse(f"{text} + q1 - ({other}) - q1 + ({other})"), a._terms),
    ]
    if scale:
        built.append((a / scale, {key: c * s.inverse() for key, c in a._terms.items()}))
    for got, want in built:
        assert all(got._terms.values()), got
        assert got._terms == {key: c for key, c in want.items() if c}, got
    for expr in (commutator(a, b), double_bracket(a, b), mul_ihbar(a)):
        assert all(expr._terms.values()), expr


def test_expression_constructor_stores_its_terms_as_given():
    # canonical form is each builder's postcondition: the constructor makes
    # no pass over its terms, and no zero filter is left for a builder
    import halfq.algebra as algebra
    import halfq.grammar as grammar

    tree = ast.parse(textwrap.dedent(inspect.getsource(HybridExpression.__init__)))
    loops = (ast.For, ast.While, ast.comprehension)
    assert not [node for node in ast.walk(tree) if isinstance(node, loops)]
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert calls == ["object.__setattr__"] * 2
    assert not hasattr(algebra, "_nonzero") and not hasattr(grammar, "_nonzero")


def test_unit_brackets_merge_their_classical_product_once(monkeypatch):
    # _monomial_bracket hands the product it merged to _classical_bracket
    import halfq.algebra as algebra

    merges = []
    merge = algebra._merge_pows
    monkeypatch.setattr(algebra, "_merge_pows", lambda x, y: merges.append((x, y)) or merge(x, y))
    q1, p1 = Symbol.q(1), Symbol.p(1)
    cl1, cl2, w1, w2 = ((q1, 2), (p1, 1)), ((q1, 1), (p1, 3)), (Symbol.Q(1),), (Symbol.P(1),)
    for unit in (_monomial_bracket, _poisson_unit):
        merges.clear()
        got = unit.__wrapped__(cl1, w1, cl2, w2)
        assert merges == [(cl1, cl2)]
        assert got == unit(cl1, w1, cl2, w2) and got


# --------------------------------------------------------------------------
# quantization maps


def test_weyl_examples():
    sc = System(1, 0)
    sq = System(0, 1)
    assert weyl_quantize(sc.q(1)) == sq.Q(1)
    # symmetrized q p -> Q P - i hbar / 2
    assert weyl_quantize(sc.q(1) * sc.p(1)) == sq.Q(1) * sq.P(1) - mul_ihbar(
        sq.one()
    ) / 2
    # symmetrized q^2 p, canonical form Q^2 P - i hbar Q
    got = weyl_quantize(sc.q(1) ** 2 * sc.p(1))
    assert got == sq.Q(1) ** 2 * sq.P(1) - mul_ihbar(sq.Q(1))


def symmetrized_product(a, b):
    """Reference Weyl(q^a p^b): the average of Q^a P^b over all distinct
    orderings of its factors, each normal-ordered by the CCR."""
    sq = System(0, 1)
    factor = {"Q": sq.Q(1), "P": sq.P(1)}
    orderings = set(permutations("Q" * a + "P" * b))
    total = sq.zero()
    for word in orderings:
        term = sq.one()
        for letter in word:
            term = term * factor[letter]
        total = total + term
    return total / len(orderings)


def test_weyl_table_matches_ordering_enumeration():
    sq = System(0, 1)
    for a in range(9):
        for b in range(9 - a):
            table = sq.zero()
            for a2, b2, k, c in _weyl_terms(a, b, _TO_WEYL):
                table = table + sq.hbar(k) * sq.Q(1) ** a2 * sq.P(1) ** b2 * c
            assert table == symmetrized_product(a, b), (a, b)


def test_weyl_correspondence_round_trips_both_ways():
    sc, sq = System(1, 0), System(0, 1)
    for a in range(9):
        for b in range(9 - a):
            mono = sc.q(1) ** a * sc.p(1) ** b
            assert unquantize(weyl_quantize(mono), 1) == mono, (a, b)
            op = sq.Q(1) ** a * sq.P(1) ** b
            assert weyl_quantize(unquantize(op, 1, magnitude_guard=None)) == op, (a, b)


def test_weyl_correspondence_is_polynomial_in_the_degree():
    # enumerating the (a+b)! orderings took seconds at degree 10 and grew
    # factorially; the closed form builds each table in O(min(a, b)) terms
    sc, sq, s2 = System(1, 0), System(0, 1), System(2, 0)
    mono = s2.q(1) ** 5 * s2.p(1) ** 5
    op = sq.Q(1) ** 6 * sq.P(1) ** 6
    _weyl_terms.cache_clear()

    def timed(call, *args, **kwargs):
        start = time.perf_counter()
        result = call(*args, **kwargs)
        assert time.perf_counter() - start < 1.0, call.__name__
        return result

    weyl = timed(weyl_quantize, sc.q(1) ** 12)
    assert weyl.adjoint() == weyl
    assert unquantize(weyl, 1) == sc.q(1) ** 12
    assert timed(half_quantize, mono, (1, 1)) == S11.q(1) ** 5 * S11.p(1) ** 5
    assert weyl_quantize(timed(unquantize, op, 1, magnitude_guard=None)) == op


def test_weyl_matches_matrix_ordering_average():
    # independent oracle: average the three operator orderings of q^2 p
    # numerically; grid commutators only realize the CCR on smooth packets,
    # so the comparison acts on a bulk state rather than matrix entries
    from halfq.hilbert import (
        Grid,
        compile_expression,
        gaussian_state,
    )
    from grid_operators import momentum_operator, position_operator

    g = Grid(64, -12.0, 12.0)
    qm = position_operator(g).dense()
    pm = momentum_operator(g, 1.0).dense()
    oracle = (qm @ qm @ pm + qm @ pm @ qm + pm @ qm @ qm) / 3.0
    sc = System(1, 0)
    sym = weyl_quantize(sc.q(1) ** 2 * sc.p(1))
    mat = compile_expression(sym, {}, (g,), 1.0).dense()
    psi = gaussian_state(g, 0.5, 0.8, 1.0, 1.0).amplitudes
    np.testing.assert_allclose(mat @ psi, oracle @ psi, atol=1e-8)


def test_weyl_rejects_quantum_input():
    with pytest.raises(AlgebraError):
        weyl_quantize(S11.Q(1))


def test_unquantize_examples():
    sq = System(0, 1)
    sc = System(1, 0)
    assert unquantize(sq.Q(1) * sq.P(1), 1) == sc.q(1) * sc.p(1) + mul_ihbar(sc.one()) / 2
    symmetrized = (sq.Q(1) * sq.P(1) + sq.P(1) * sq.Q(1)) / 2
    assert unquantize(symmetrized, 1) == sc.q(1) * sc.p(1)


def test_unquantize_requires_operator_input():
    with pytest.raises(AlgebraError):
        unquantize(S11.q(1), 1)
    with pytest.raises(AlgebraError):
        unquantize(System(0, 1).Q(1), 0)
    with pytest.raises(AlgebraError, match="exceeds 2 DOFs"):
        unquantize(System(0, 2).Q(1), 3)


def test_round_trip_degree_six_exhaustive():
    # identity on every classical monomial up to degree 6, one DOF
    sc = System(1, 0)
    rng = random.Random(5)
    for a in range(7):
        for b in range(7 - a):
            if a + b == 0:
                continue
            coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            mono = sc.q(1) ** a * sc.p(1) ** b * coeff
            assert unquantize(weyl_quantize(mono), 1) == mono, (a, b)


def test_round_trip_two_dofs():
    sc = System(2, 0)
    rng = random.Random(6)
    for _ in range(20):
        poly = random_classical_poly(rng, sc, 5, dofs=2)
        assert unquantize(weyl_quantize(poly), 2) == poly


def test_round_trip_specific_cubic():
    sc = System(1, 0)
    mono = sc.q(1) ** 3 * sc.p(1) ** 2
    assert unquantize(weyl_quantize(mono), 1) == mono


def test_unquantize_self_adjointness():
    # V(A^dagger) = V(A)^dagger; quantized real polynomials stay self-adjoint
    rng = random.Random(7)
    sc = System(1, 0)
    for _ in range(15):
        poly = random_classical_poly(rng, sc, 4)
        a_hat = weyl_quantize(poly)
        assert a_hat.adjoint() == a_hat
        assert unquantize(a_hat.adjoint(), 1) == unquantize(a_hat, 1).adjoint()


def test_unquantized_commutator_matches_poisson_to_first_order():
    # V([A^, B^]) - i hbar {A, B} vanishes below the hbar^2 grading
    rng = random.Random(9)
    sc = System(1, 0)
    for _ in range(20):
        a = random_classical_poly(rng, sc, 4)
        b = random_classical_poly(rng, sc, 4)
        lhs = unquantize(commutator(weyl_quantize(a), weyl_quantize(b)), 1,
                         magnitude_guard=None)
        rhs = mul_ihbar(poisson_bracket(a, b))
        diff = lhs - rhs
        assert all(h >= 2 for h in diff.hbar_grades()), (a, b)


def test_half_quantize_scalar_function_passthrough():
    sc = System(2, 0)
    f = sc.q(1) ** 2 * sc.p(1) + 3 * sc.p(1)
    got = half_quantize(f, (1, 1))
    want = parse_expression("q1^2*p1 + 3*p1", S11)
    assert got == want


def test_half_quantize_example_hamiltonian():
    sc = System(2, 0)
    h_classical = parse_expression("p2^2/(2*M) + p1^2/(2*m) + k*q1*p2", sc, CONSTS)
    got = half_quantize(h_classical, (1, 1))
    assert got == example_hamiltonian()


def test_half_quantize_single_symbol():
    sc = System(2, 0)
    assert half_quantize(sc.q(2), (1, 1)) == S11.Q(1)
    assert half_quantize(sc.q(1), (1, 1)) == S11.q(1)


def test_half_quantize_bad_split():
    sc = System(2, 0)
    with pytest.raises(AlgebraError):
        half_quantize(sc.q(1), (1, 2))
    with pytest.raises(AlgebraError):
        half_quantize(sc.q(1), (2, 0))
    with pytest.raises(AlgebraError, match="needs at least one classical DOF"):
        half_quantize(sc.q(1), (0, 2))


@settings(max_examples=90, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.data())
def test_half_quantize_is_the_composition(split, data):
    # the paper's prescription, quantize everything and unquantize the
    # classical sector, is the reference for the direct map
    x = data.draw(hybrid_sums(System(sum(split), 0)))
    want = unquantize(weyl_quantize(x), split[0], magnitude_guard=None)
    assert half_quantize(x, split) == want


def test_exact_maps_form_no_intermediate(monkeypatch):
    # half quantization needs no round trip and the Poisson bracket no
    # derivative: both read memoized unit-monomial images
    import halfq.algebra as algebra

    calls = []
    for name in ("weyl_quantize", "unquantize", "partial_derivative"):
        monkeypatch.setattr(algebra, name, lambda *args, name=name: calls.append(name))
    x = parse_expression("q1*p2^2*p3 + k*q2*q3^2", System(3, 0), ("k",))
    y = parse_expression("p1^2*q3 + q2*p2", System(3, 0))
    algebra.half_quantize(x, (2, 1))
    algebra.poisson_bracket(x, y)
    assert calls == []


@st.composite
def classical_polys(draw, degree):
    """Sums of System(2, 0) monomials of total degree <= ``degree`` with
    small rational coefficients."""
    sc = System(2, 0)
    letters = (sc.q(1), sc.p(1), sc.q(2), sc.p(2))
    expr = sc.zero()
    for _ in range(draw(st.integers(1, 4))):
        term = sc.scalar(draw(SMALL_FRACTIONS))
        for factor in draw(st.lists(st.sampled_from(letters), max_size=degree)):
            term = term * factor
        expr = expr + term
    return expr


def functoriality_residue(a, b):
    """half({a, b}) - (1/i hbar)(half a, half b) over the 1+1 split."""
    bracket = hybrid_bracket(half_quantize(a, (1, 1)), half_quantize(b, (1, 1)))
    return half_quantize(poisson_bracket(a, b), (1, 1)) - div_ihbar(bracket)


@settings(max_examples=60, deadline=None)
@given(classical_polys(4), classical_polys(2), classical_polys(4))
def test_half_quantize_intertwines_poisson_and_hybrid_bracket(a, low, b):
    # exact when one side has total degree <= 2 (either order) ...
    assert functoriality_residue(a, low).is_zero
    assert functoriality_residue(low, a).is_zero
    # ... and below hbar^2 for any two polynomials of degree <= 4
    assert all(h >= 2 for h in functoriality_residue(a, b).hbar_grades())


def test_half_quantize_functoriality_fails_at_hbar_squared():
    # half quantization maps the Poisson bracket to the hybrid bracket only
    # below hbar^2; this degree-3/degree-4 pair leaves an exact hbar^2 residue
    sc = System(2, 0)
    x, y = parse_expression("q2*p2^2", sc), parse_expression("q2^2*p2^2", sc)
    bracket = hybrid_bracket(half_quantize(x, (1, 1)), half_quantize(y, (1, 1)))
    residue = half_quantize(poisson_bracket(x, y), (1, 1)) - div_ihbar(bracket)
    assert residue == S11.hbar(2) * S11.P(1)


def test_unquantization_magnitude_guard_warns():
    # an operator whose unquantization is pure hbar correction: the hbar^0
    # grade cannot dominate the hbar^2 residual
    sq = System(0, 1)
    sc = System(1, 0)
    x = sq.Q(1) ** 2 * sq.P(1) ** 2 - weyl_quantize(sc.q(1) ** 2 * sc.p(1) ** 2)
    with pytest.warns(UnquantizationWarning):
        result = unquantize(x, 1)
    assert result.coefficient_scale(0) == 0.0
    assert any(h >= 2 for h in result.hbar_grades())


# --------------------------------------------------------------------------
# hybrid bracket and dynamics


def test_hybrid_bracket_generates_example_flow():
    h = example_hamiltonian()
    m_inv = S11.const("m", -1)
    assert div_ihbar(hybrid_bracket(S11.q(1), h)) == S11.p(1) * m_inv
    assert div_ihbar(hybrid_bracket(S11.p(1), h)) == -S11.const("k") * S11.P(1)
    want = S11.const("M", -1) * S11.P(1) + S11.const("k") * S11.q(1)
    assert div_ihbar(hybrid_bracket(S11.Q(1), h)) == want


def test_heisenberg_series_closed_forms():
    h = example_hamiltonian()
    tconsts = CONSTS + ("t",)
    cases = {
        "q1": "q1 + t/m*p1 - k*t^2/(2*m)*P1",
        "p1": "p1 - k*t*P1",
        "Q1": "Q1 + t/M*P1 + k*t*q1 + k*t^2/(2*m)*p1 - k^2*t^3/(6*m)*P1",
        "P1": "P1",
    }
    for name, closed in cases.items():
        obs = parse_expression(name, S11)
        got = heisenberg_series(obs, h)
        assert got == parse_expression(closed, S11, tconsts), name


def test_series_constant_observable():
    h = example_hamiltonian()
    assert heisenberg_series(S11.P(1), h) == S11.P(1)


def test_series_free_particle():
    h_free = parse_expression("P1^2/(2*M) + p1^2/(2*m)", S11, CONSTS)
    got = heisenberg_series(S11.q(1), h_free)
    assert got == parse_expression("q1 + t/m*p1", S11, CONSTS + ("t",))


def test_series_numeric_time():
    h = example_hamiltonian()
    got = heisenberg_series(S11.q(1), h).substitute_constants({"t": Fraction(1, 2)})
    want = parse_expression("q1 + p1/(2*m) - k/(8*m)*P1", S11, CONSTS)
    assert got == want


def test_series_commutator_bracket_full_quantum():
    sq = System(0, 2)
    sc = System(2, 0)
    h_full = weyl_quantize(
        parse_expression("p2^2/(2*M) + p1^2/(2*m) + k*q1*p2", sc, CONSTS)
    )
    got = heisenberg_series(sq.Q(1), h_full)
    want = parse_expression("Q1 + t/m*P1 - k*t^2/(2*m)*P2", sq, CONSTS + ("t",))
    assert got == want


def test_non_terminating_series_raises():
    # the oscillator's iterates cycle through the cos/sin Taylor
    # coefficients, so no order vanishes
    h_osc = parse_expression("p1^2/2 + q1^2/2", S11)
    with pytest.raises(
        NonTerminatingSeriesError, match="^bracket chain did not terminate within 60 orders$"
    ):
        heisenberg_series(S11.q(1), h_osc)


def test_symbol_identity_is_kind_and_index():
    q1 = Symbol.q(1)
    assert Symbol(Kind.CLASSICAL_POS, 1) == q1 and Symbol(0, 1) is q1
    assert hash(Symbol(Kind.CLASSICAL_POS, 1)) == hash(q1)
    assert q1 != Symbol.p(1) and q1 != Symbol.q(2) and q1 != Symbol.Q(1)
    assert q1 != (Kind.CLASSICAL_POS, 1) and (0, 1) != q1
    assert {q1: 1}.get((Kind.CLASSICAL_POS, 1)) is None
    syms = [Symbol.P(2), Symbol.q(2), Symbol.Q(1), Symbol.p(1), Symbol.q(1)]
    assert sorted(syms) == [Symbol.q(1), Symbol.q(2), Symbol.p(1), Symbol.Q(1), Symbol.P(2)]
    assert Symbol.q(2) > q1 and q1 <= q1 and Symbol.p(1) >= Symbol.q(9)
    for bad in (0, -1):
        with pytest.raises(AlgebraError):
            Symbol(Kind.QUANTUM_MOM, bad)
        with pytest.raises(AlgebraError):
            Symbol.Q(bad)
    with pytest.raises(AttributeError):
        q1.index = 2
    for s in syms:
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        assert pickle.loads(pickle.dumps(s)) is s


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                        lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_exact_values_copy_and_pickle(round_trip):
    number = CNum(Fraction(3, 4), Fraction(-5, 6))
    expr = parse_expression("(1/2 - 3*i)*k*hbar^2*q1*Q1*P1 + k", S11, ("k",))
    assert expr.constants() == {"k"} and 2 in expr.hbar_grades() and expr.has_quantum
    for value in (number, expr):
        again = round_trip(value)
        assert type(again) is type(value) and again == value
        assert hash(again) == hash(value)


# --------------------------------------------------------------------------
# derivatives


def test_partial_derivative_examples():
    q, p = S11.q(1), S11.p(1)
    assert partial_derivative(q**2 * p, Symbol.q(1)) == 2 * q * p
    assert partial_derivative(S11.Q(1), Symbol.q(1)).is_zero
    h = example_hamiltonian()
    sol = heisenberg_series(S11.q(1), h)
    got = partial_derivative(sol, Symbol.p(1))
    assert got == parse_expression("t/m", S11, CONSTS + ("t",))


def test_partial_derivative_rejects_quantum_symbol():
    with pytest.raises(AlgebraError):
        partial_derivative(S11.Q(1), Symbol.Q(1))


def test_partial_derivative_leibniz():
    rng = random.Random(3)
    sys2 = System(2, 1)
    for _ in range(10):
        a = random_hybrid(rng, sys2, 3)
        b = random_hybrid(rng, sys2, 3)
        s = Symbol.q(1)
        lhs = partial_derivative(a * b, s)
        rhs = partial_derivative(a, s) * b + a * partial_derivative(b, s)
        assert lhs == rhs


# --------------------------------------------------------------------------
# jacobiator


def test_jacobiator_vanishes_on_pure_sectors():
    assert jacobiator(S11.Q(1), S11.P(1), S11.Q(1) * S11.P(1)).is_zero
    assert jacobiator(S11.q(1), S11.p(1), S11.q(1) * S11.p(1)).is_zero


def test_recorded_jacobiator_witness():
    a = parse_expression("p1*P1", S11)
    b = parse_expression("p1*Q1*P1", S11)
    c = parse_expression("q1^2*Q1", S11)
    j = jacobiator(a, b, c)
    assert j == S11.hbar(4) / 2
    # analytically derived companion witness
    j2 = jacobiator(
        S11.q(1) * S11.Q(1) ** 2,
        S11.p(1) * S11.P(1),
        S11.q(1) * S11.p(1) * S11.P(1),
    )
    assert j2 == -S11.hbar(4) / 2


def test_no_witness_below_degree_three():
    assert find_jacobiator_witness(max_degree=2) is None


def test_witness_search_brackets_each_monomial_pair_once(monkeypatch):
    import halfq.algebra

    calls, sums = [], []
    bracket, bracket_sum = halfq.algebra.hybrid_bracket, halfq.algebra._bracket_sum

    def counted(a, b):
        calls.append(1)
        return bracket(a, b)

    def counted_sum(pairs, unit):
        # products sum their unit products through _bracket_sum too
        if unit is halfq.algebra._monomial_bracket:
            sums.append(1)
        return bracket_sum(pairs, unit)

    monkeypatch.setattr(halfq.algebra, "hybrid_bracket", counted)
    monkeypatch.setattr(halfq.algebra, "_bracket_sum", counted_sum)
    a, b, c, j = find_jacobiator_witness(max_degree=3)
    assert [format_expression(e) for e in (a, b, c, j)] == [
        "p1*P1", "p1*Q1*P1", "q1^2*Q1", "1/2*hbar^4",
    ]
    # 134 distinct pair brackets of the hybrid monomials and the classical
    # ones of degree 3, each one bracket sum, plus one sum per candidate
    # triple whose pair brackets are not all zero: 259 sums (645 brackets
    # and 2,191 sums with only the degree-1 and one-sector skips)
    assert len(calls) <= 134
    assert len(sums) <= 259



def test_witness_candidates_reuse_the_pair_brackets(monkeypatch):
    # a candidate jacobiator is one sum of cached unit brackets, so the
    # search calls hybrid_bracket once per distinct monomial pair only
    import halfq.algebra

    calls = []
    bracket = halfq.algebra.hybrid_bracket
    monkeypatch.setattr(
        halfq.algebra, "hybrid_bracket", lambda a, b: calls.append(1) or bracket(a, b)
    )
    assert find_jacobiator_witness(max_degree=3) is not None
    assert len(calls) == 134


def test_witness_search_fills_the_bracket_table_in_closed_form(monkeypatch):
    import halfq.algebra as algebra

    calls = []
    for name in ("commutator", "partial_derivative"):
        original = getattr(algebra, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(algebra, name, counted)
    _monomial_bracket.cache_clear()
    assert find_jacobiator_witness(max_degree=3) is not None
    assert _monomial_bracket.cache_info().currsize
    assert calls == []


def test_witness_search_skips_only_triples_with_zero_jacobiator():
    # the search skips the sorted triples with a purely quantum member, a
    # classical member of degree <= 2, or all members classical; these hold
    # the triples with a degree-1 member or all in one sector, and every
    # such triple up to degree 4 has a zero jacobiator
    monos = hybrid_monomials(S11, 4)
    pair = functools.cache(lambda i, j: hybrid_bracket(monos[i], monos[j]))
    skipped = dict.fromkeys(
        ("linear", "classical", "quantum", "quantum member", "classical member <= 2"), 0
    )
    total = 0
    for i, j, k in combinations(range(len(monos)), 3):
        keys = [monos[n].terms()[0][0] for n in (i, j, k)]
        degrees = [sum(e for _, e in cl) + len(word) for _, _, cl, word in keys]
        kinds = {
            "linear": 1 in degrees,
            "classical": not any(word for _, _, _, word in keys),
            "quantum": not any(cl for _, _, cl, _ in keys),
            "quantum member": not all(cl for _, _, cl, _ in keys),
            "classical member <= 2": any(
                not word and n <= 2 for (_, _, _, word), n in zip(keys, degrees)
            ),
        }
        if any(kinds.values()):
            a, b, c = monos[i], monos[j], monos[k]
            # (a, (b, c)) + (b, (c, a)) + (c, (a, b)), pair brackets cached
            jac = hybrid_bracket(a, pair(j, k)) - hybrid_bracket(b, pair(i, k))
            assert (jac + hybrid_bracket(c, pair(i, j))).is_zero, (a, b, c)
            total += 1
        for kind, holds in kinds.items():
            skipped[kind] += holds
    assert skipped == {
        "linear": 8_714,
        "classical": 364,
        "quantum": 364,
        "quantum member": 26_159,
        "classical member <= 2": 10_730,
    }
    # 32,794 triples with a member of the two new kinds, plus the 84 triples
    # of classical monomials of degree 3 and 4
    assert total == 32_878


def test_exhaustive_witness_search_reproduces_recorded_triple():
    witness = find_jacobiator_witness(max_degree=3)
    assert witness is not None
    a, b, c, j = witness
    assert a == parse_expression("p1*P1", S11)
    assert b == parse_expression("p1*Q1*P1", S11)
    assert c == parse_expression("q1^2*Q1", S11)
    assert j == S11.hbar(4) / 2


MONOMIALS = hybrid_monomials(S11, 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(MONOMIALS), min_size=3, max_size=3))
def test_jacobiator_is_totally_antisymmetric(triple):
    # the witness search visits sorted triples only, which relies on this
    a, b, c = triple
    j = jacobiator(a, b, c)
    assert jacobiator(b, a, c) == -j
    assert jacobiator(a, c, b) == -j
    assert jacobiator(c, b, a) == -j
    assert jacobiator(b, c, a) == j
    assert jacobiator(a, a, c).is_zero


def test_monomial_enumeration_count():
    # 4 + 10 + 20 monomials of degree 1..3 over q, p, Q, P
    assert len(hybrid_monomials(S11, 3)) == 34


# --------------------------------------------------------------------------
# misc exact structure


def test_adjoint_reverses_products():
    expr = S11.Q(1) * S11.P(1)
    assert expr.adjoint() == S11.P(1) * S11.Q(1)
    assert expr.adjoint().adjoint() == expr


def test_cnum_arithmetic():
    a = CNum(Fraction(1, 2), Fraction(3))
    b = CNum(0, 1)
    assert a * b == CNum(-3, Fraction(1, 2))
    assert (a * a.inverse()) == CNum(1)
    assert a.conjugate().im == -3


def test_cnum_of_reads_floats_exactly_and_refuses_text():
    assert CNum.of(0.1) == CNum(Fraction(0.1))
    with pytest.raises(TypeError):
        CNum.of("x")


@settings(max_examples=100, deadline=None)
@given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
def test_cnum_arithmetic_is_componentwise_fraction_arithmetic(a, b, c, d):
    x, y = CNum(a, b), CNum(c, d)
    cases = [
        (x + y, a + c, b + d),
        (x - y, a - c, b - d),
        (-x, -a, -b),
        (x * y, a * c - b * d, a * d + b * c),
        (CNum(a) * CNum(c), a * c, 0),
    ]
    for got, re, im in cases:
        assert (got.re, got.im) == (re, im)
        assert type(got.re) is Fraction and type(got.im) is Fraction


def test_cnum_equal_values_are_equal_and_hash_equal():
    half = [
        CNum(Fraction(2, 4)),
        CNum(1) * CNum(Fraction(1, 2)),
        CNum(Fraction(1, 3)) + CNum(Fraction(1, 6)),
    ]
    for z in half:
        assert z == CNum(Fraction(1, 2)) and hash(z) == hash(CNum(Fraction(1, 2)))
    zeros = [
        CNum(),
        CNum(Fraction(1, 3)) - CNum(Fraction(1, 3)),
        CNum(0, Fraction(5, 7)) * CNum(0),
    ]
    for z in zeros:
        assert z == CNum(0) and hash(z) == hash(CNum(0)) and not z


@settings(max_examples=100, deadline=None)
@given(st.fractions(), st.fractions(), st.fractions())
def test_cnum_inverse_conjugate_and_floats_match_fraction_arithmetic(a, b, c):
    x = CNum(a, b)
    norm = a * a + b * b
    if norm:
        assert (x.inverse().re, x.inverse().im) == (a / norm, -b / norm)
        assert x * x.inverse() == CNum(1)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    assert (x.conjugate().re, x.conjugate().im) == (a, -b)
    assert bool(x) == bool(a or b)
    # bit for bit, sign of zero included
    z, ref = x.to_complex(), complex(float(a), float(b))
    assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())
    assert abs(x) == math.hypot(float(a), float(b))
    # one value reached along different paths is one canonical form
    paths = [
        CNum(a) + CNum(0, 1) * CNum(b),
        CNum(a.numerator * b.denominator, b.numerator * a.denominator)
        * CNum(Fraction(1, a.denominator * b.denominator)),
        x - CNum(c, c) + CNum(c, c),
    ]
    if c:
        paths.append(x * CNum(c) * CNum(c).inverse())
    for y in paths:
        assert y == x and hash(y) == hash(x)


def test_substitute_constants():
    expr = parse_expression("k*q1/(2*m)", S11, ("m", "k"))
    got = expr.substitute_constants({"k": Fraction(1, 10), "m": 2})
    assert got == S11.q(1) * Fraction(1, 40)


def test_mul_div_ihbar_inverse():
    expr = parse_expression("q1*P1 + hbar*Q1", S11)
    assert div_ihbar(mul_ihbar(expr)) == expr
    with pytest.raises(AlgebraError):
        div_ihbar(S11.q(1))

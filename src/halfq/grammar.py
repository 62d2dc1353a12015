"""Text grammar for hybrid expressions.

Grammar (used by config files, the CLI, and the canonical printer):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' ['-'] INTEGER)?
    atom     := NUMBER | IDENT | '(' expr ')'

Identifiers: ``q<i>``/``p<i>`` are classical symbols, ``Q<a>``/``P<a>``
quantum operators (indices within the declared system), ``hbar`` the
grading unit, ``i`` the imaginary unit, and any declared constant name
(``m``, ``M``, ``k``, ``t``, ...).  Numbers are integer or decimal
literals, read exactly.  ``*`` between quantum identifiers preserves the
written operator order.  Division is restricted to scalar divisors, and
negative exponents to scalar bases.

The parser reads the text in one scan.  Each term multiplies its factors
into one monomial (coefficient, hbar grade, constant powers, classical
powers, quantum word as written) and normal-orders the word once; only a
parenthesized sum, or a power of one, is multiplied term by term.

``parse_expression`` and ``format_expression`` round-trip: parsing,
printing, then parsing again is the identity on canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, NoReturn

from .algebra import (
    _I,
    _ONE,
    _ZERO,
    AlgebraError,
    CNum,
    HybridExpression,
    Symbol,
    System,
    _nonzero,
    _normal_words,
)


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# a number, an identifier, or any other single non-space character: an
# operator, or a character the grammar does not allow (:meth:`_Parser.fail`)
_TOKEN_RE = re.compile(r"\d+\.\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|\S")
_OPERATORS = frozenset("+-*/^()")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SYMBOL_RE = re.compile(r"^([qpQP])([0-9]+)$")
_RESERVED = {"hbar", "i"}


# A factor is read either as one monomial, the tuple (coefficient, hbar
# grade, constant powers, classical powers, quantum word) with the powers as
# sorted (name or symbol, exponent) pairs, or as a sum: a canonical term dict
# of two or more terms, which only a parenthesized expression or its power
# yields.
_UNIT = (_ONE, 0, (), (), ())
_ZERO_FACTOR = (_ZERO, 0, (), (), ())


def _factor(terms: dict):
    """The factor a canonical term dict denotes: a monomial unless it has
    two or more terms."""
    terms = _nonzero(terms)
    if len(terms) > 1:
        return terms
    if not terms:
        return _ZERO_FACTOR
    ((hbar, consts, classical, word), coeff), = terms.items()
    return coeff, hbar, consts, classical, word


def _monomial_terms(coeff, hbar: int, consts: dict, classical: dict, word) -> dict:
    """The canonical terms of one monomial read factor by factor: its powers
    sorted and its word normal-ordered once."""
    key_consts = tuple(sorted((name, exp) for name, exp in consts.items() if exp))
    key_classical = tuple(sorted(classical.items()))
    word = tuple(word)
    if len(word) < 2:
        return {(hbar, key_consts, key_classical, word): coeff}
    return {
        (hbar + (len(word) - len(normal)) // 2, key_consts, key_classical, normal): coeff * c
        for normal, c in _normal_words(word).items()
    }


class _Parser:
    """Recursive descent over the tokens of one scan; the end token is "".
    Each term multiplies its factors into one monomial, and a sum factor
    term by term.  Positions are found only for an error (:meth:`fail`)."""

    def __init__(self, text: str, system: System, constants: frozenset):
        self.text = text
        self.system = system
        self.constants = constants
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.pos = 0

    def fail(self, message: str, index: int) -> NoReturn:
        """Raise ``message`` at token ``index``, or at the first character
        the grammar does not allow, wherever it is."""
        starts = []
        for match in _TOKEN_RE.finditer(self.text):
            token = match.group()
            # \d is Unicode category Nd, which is what str.isdecimal tests
            if not (token in _OPERATORS or token[0] in _IDENT_START or token[0].isdecimal()):
                raise ExpressionSyntaxError(f"unexpected character {token!r}", match.start())
            starts.append(match.start())
        starts.append(len(self.text))
        raise ExpressionSyntaxError(message, starts[index])

    def parse(self) -> HybridExpression:
        terms = self.expr()
        if self.tokens[self.pos]:
            self.fail(f"unexpected {self.tokens[self.pos]!r}", self.pos)
        return HybridExpression(self.system, terms)

    def expr(self) -> dict:
        """A fresh term dict of ``term (('+' | '-') term)*``."""
        out = self.term()
        while True:
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return out
            self.pos += 1
            for key, c in self.term().items():
                if op == "-":
                    c = -c
                out[key] = out[key] + c if key in out else c

    def term(self) -> dict:
        """A fresh term dict of ``unary (('*' | '/') unary)*``."""
        coeff, hbar, consts, classical, word = _ONE, 0, {}, {}, []
        product = None  # the factors before the last sum factor, multiplied out
        divide = False
        while True:
            start = self.pos
            factor = self.unary()
            if divide:
                factor = self.inverse(factor, start)
            if type(factor) is dict:
                monomial = _monomial_terms(coeff, hbar, consts, classical, word)
                left = HybridExpression(self.system, monomial)
                if product is not None:
                    left = product * left
                product = left * HybridExpression(self.system, factor)
                coeff, hbar, consts, classical, word = _ONE, 0, {}, {}, []
            else:
                c, h, pr, cl, w = factor
                if c is not _ONE:
                    coeff = coeff * c
                hbar += h
                for name, exp in pr:
                    consts[name] = consts.get(name, 0) + exp
                for sym, exp in cl:
                    classical[sym] = classical.get(sym, 0) + exp
                word += w
            op = self.tokens[self.pos]
            if op != "*" and op != "/":
                break
            self.pos += 1
            divide = op == "/"
        terms = _monomial_terms(coeff, hbar, consts, classical, word)
        if product is None:
            return terms
        return dict((product * HybridExpression(self.system, terms))._terms)

    def unary(self):
        negate = False
        while self.tokens[self.pos] == "-":
            self.pos += 1
            negate = not negate
        factor = self.power()
        if not negate:
            return factor
        if type(factor) is dict:
            return {key: -c for key, c in factor.items()}
        c, h, pr, cl, w = factor
        return -c, h, pr, cl, w

    def power(self):
        start = self.pos
        base = self.atom()
        if self.tokens[self.pos] != "^":
            return base
        self.pos += 1
        sign = 1
        if self.tokens[self.pos] == "-":
            self.pos += 1
            sign = -1
        value = self.tokens[self.pos]
        if not value[:1].isdecimal() or "." in value:
            self.fail("exponent must be an integer", self.pos)
        self.pos += 1
        exponent = sign * int(value)
        if exponent < 0:
            base, exponent = self.inverse(base, start), -exponent
        if exponent == 0:
            return _UNIT
        if type(base) is dict:
            return _factor((HybridExpression(self.system, base) ** exponent)._terms)
        c, h, pr, cl, w = base
        coeff = c
        for _ in range(exponent - 1):
            coeff = coeff * c
        return (
            coeff,
            h * exponent,
            tuple((name, exp * exponent) for name, exp in pr),
            tuple((sym, exp * exponent) for sym, exp in cl),
            w * exponent,
        )

    def atom(self):
        value = self.tokens[self.pos]
        self.pos += 1
        if value[:1].isdecimal():
            return CNum(Fraction(value) if "." in value else int(value)), 0, (), (), ()
        if value[:1] in _IDENT_START:
            return self.identifier(value)
        if value == "(":
            inner = self.expr()
            if self.tokens[self.pos] != ")":
                self.fail("expected ')'", self.pos)
            self.pos += 1
            return _factor(inner)
        self.fail(
            f"expected a number, identifier or '(', got {value!r}" if value else "unexpected end of input",
            self.pos - 1,
        )

    def identifier(self, name: str):
        if name == "hbar":
            return _ONE, 1, (), (), ()
        if name == "i":
            return _I, 0, (), (), ()
        if name in self.constants:
            return _ONE, 0, ((name, 1),), (), ()
        try:
            sym = parse_symbol(name)
        except AlgebraError:
            if not _SYMBOL_RE.match(name):
                self.fail(f"unknown identifier {name!r}", self.pos - 1)
            sym = None  # a zero index
        if sym is None or not self.system.contains(sym):
            self.fail(
                f"symbol {name} out of range for system "
                f"(classical 1..{self.system.classical}, "
                f"quantum 1..{self.system.quantum})",
                self.pos - 1,
            )
        if sym.is_classical:
            return _ONE, 0, (), ((sym, 1),), ()
        return _ONE, 0, (), (), (sym,)

    def inverse(self, factor, start: int):
        """The monomial 1/``factor``, read from token ``start``; ``factor``
        must be a nonzero scalar with no hbar."""
        if type(factor) is not dict and len(factor[4]) > 1:
            # a word read as written may normal-order to several terms
            coeff, hbar, consts, classical, word = factor
            factor = _factor(_monomial_terms(coeff, hbar, dict(consts), dict(classical), word))
        if type(factor) is dict:
            self.fail("divisor/negative power must be a single scalar factor", start)
        coeff, hbar, consts, classical, word = factor
        if not coeff:
            self.fail("division by zero", start)
        if classical or word:
            self.fail("cannot divide by dynamical symbols", start)
        if hbar:
            self.fail("cannot divide by hbar (grading must stay nonnegative)", start)
        return coeff.inverse(), 0, tuple((name, -exp) for name, exp in consts), (), ()


def validate_constant_names(constants: Iterable[str]) -> frozenset:
    names = frozenset(constants)
    for name in names:
        if not name.isidentifier():
            raise AlgebraError(f"constant {name!r} is not an identifier")
        if name in _RESERVED or _SYMBOL_RE.match(name):
            raise AlgebraError(
                f"constant {name!r} collides with a reserved word or symbol pattern"
            )
    return names


def parse_symbol(name: str) -> Symbol:
    """The symbol a name like ``q1`` or ``P2`` denotes; raises AlgebraError
    for any other name or a zero index."""
    match = _SYMBOL_RE.match(name)
    if match is None:
        raise AlgebraError(f"not a symbol name: {name!r}")
    constructor = {"q": Symbol.q, "p": Symbol.p, "Q": Symbol.Q, "P": Symbol.P}[match.group(1)]
    return constructor(int(match.group(2)))


def parse_expression(
    text: str, system: System, constants: Iterable[str] = ()
) -> HybridExpression:
    """Parse ``text`` into a canonical expression over ``system``.

    ``constants`` declares the allowed named constants (e.g. masses and
    couplings); their names may not look like symbols or reserved words.
    """
    return _Parser(text, system, validate_constant_names(constants)).parse()


# --------------------------------------------------------------------------
# printing


def _format_coefficient(c: CNum) -> tuple:
    """Return (sign, factor_string or None); None means magnitude one."""
    real, imag = c.re, c.im
    if not imag:
        return _sign(real), _magnitude(real)
    mag = _magnitude(imag)
    im_str = "i" if mag is None else f"{mag}*i"
    if not real:
        return _sign(imag), im_str
    return "+", f"({real} {_sign(imag)} {im_str})"


def _sign(x: Fraction) -> str:
    return "-" if x.numerator < 0 else "+"


def _magnitude(x: Fraction) -> str | None:
    """``str(abs(x))`` from the numerator and denominator; None when it is 1."""
    n, d = abs(x.numerator), x.denominator
    if n == d:
        return None
    return str(n) if d == 1 else f"{n}/{d}"


def _format_power(base: str, exp: int) -> str:
    if exp == 1:
        return base
    return f"{base}^{exp}" if exp >= 0 else f"{base}^-{-exp}"


def format_expression(expr: HybridExpression) -> str:
    """Deterministic canonical text; re-parsing yields the same expression."""
    terms = expr.terms()
    if not terms:
        return "0"
    pieces = []
    for (hbar, consts, classical, word), coeff in terms:
        sign, coeff_str = _format_coefficient(coeff)
        factors = []
        if coeff_str is not None:
            factors.append(coeff_str)
        if hbar:
            factors.append(_format_power("hbar", hbar))
        for name, exp in consts:
            factors.append(_format_power(name, exp))
        for sym, exp in classical:
            factors.append(_format_power(sym.name, exp))
        run: list = []
        for sym in word:
            if run and run[-1][0] == sym:
                run[-1][1] += 1
            else:
                run.append([sym, 1])
        factors.extend(_format_power(sym.name, exp) for sym, exp in run)
        body = "*".join(factors) if factors else "1"
        pieces.append((sign, body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out

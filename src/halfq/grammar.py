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

``parse_expression`` and ``format_expression`` round-trip: parsing,
printing, then parsing again is the identity on canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .algebra import (
    AlgebraError,
    CNum,
    HybridExpression,
    Symbol,
    System,
)


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)
_SYMBOL_RE = re.compile(r"^([qpQP])([0-9]+)$")
_RESERVED = {"hbar", "i"}


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {text[where]!r}", where)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, system: System, constants: frozenset):
        self.text = text
        self.system = system
        self.constants = constants
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, where = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", where)
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse(self) -> HybridExpression:
        expr = self.expr()
        kind, value, where = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {value!r}", where)
        return expr

    def expr(self) -> HybridExpression:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> HybridExpression:
        result = self.unary()
        while True:
            kind, value, where = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                if value == "*":
                    result = result * rhs
                else:
                    result = result * self._scalar_inverse(rhs, where)
            else:
                return result

    def unary(self) -> HybridExpression:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> HybridExpression:
        base_where = self.peek()[2]
        base = self.atom()
        kind, value, _ = self.peek()
        if not (kind == "op" and value == "^"):
            return base
        self.advance()
        sign = 1
        kind, value, where = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, where = self.peek()
        if kind != "number" or "." in value:
            raise ExpressionSyntaxError("exponent must be an integer", where)
        self.advance()
        exponent = sign * int(value)
        if exponent >= 0:
            return base**exponent
        return self._scalar_inverse(base, base_where) ** (-exponent)

    def atom(self) -> HybridExpression:
        kind, value, where = self.advance()
        if kind == "number":
            return self.system.scalar(Fraction(value))
        if kind == "ident":
            return self._identifier(value, where)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError(
            f"expected a number, identifier or '(', got {value!r}" if value else "unexpected end of input",
            where,
        )

    # -- helpers ------------------------------------------------------------

    def _identifier(self, name: str, where: int) -> HybridExpression:
        if name == "hbar":
            return self.system.hbar()
        if name == "i":
            return self.system.scalar(CNum(0, 1))
        if _SYMBOL_RE.match(name):
            try:
                sym = parse_symbol(name)
            except AlgebraError:
                sym = None
            if sym is None or not self.system.contains(sym):
                raise ExpressionSyntaxError(
                    f"symbol {name} out of range for system "
                    f"(classical 1..{self.system.classical}, "
                    f"quantum 1..{self.system.quantum})",
                    where,
                )
            return self.system.symbol(sym)
        if name in self.constants:
            return self.system.const(name)
        raise ExpressionSyntaxError(f"unknown identifier {name!r}", where)

    def _scalar_inverse(self, expr: HybridExpression, where: int) -> HybridExpression:
        terms = expr.terms()
        if len(terms) != 1:
            raise ExpressionSyntaxError(
                "divisor/negative power must be a single scalar factor", where
            )
        (hbar, consts, classical, word), coeff = terms[0]
        if classical or word:
            raise ExpressionSyntaxError(
                "cannot divide by dynamical symbols", where
            )
        if hbar:
            raise ExpressionSyntaxError(
                "cannot divide by hbar (grading must stay nonnegative)", where
            )
        inverted = ((name, -exp) for name, exp in consts)
        return HybridExpression(
            expr.system, {(0, tuple(inverted), (), ()): coeff.inverse()}
        )


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


def _format_fraction(value: Fraction) -> str:
    return str(value)


def _format_coefficient(c: CNum) -> tuple:
    """Return (sign, factor_string or None); None means magnitude one."""
    if c.im == 0:
        sign = "-" if c.re < 0 else "+"
        mag = abs(c.re)
        return sign, None if mag == 1 else _format_fraction(mag)
    if c.re == 0:
        sign = "-" if c.im < 0 else "+"
        mag = abs(c.im)
        return sign, "i" if mag == 1 else f"{_format_fraction(mag)}*i"
    re_str = _format_fraction(c.re)
    im_mag = abs(c.im)
    im_str = "i" if im_mag == 1 else f"{_format_fraction(im_mag)}*i"
    joiner = "-" if c.im < 0 else "+"
    return "+", f"({re_str} {joiner} {im_str})"


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

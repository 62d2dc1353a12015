"""Text grammar for hybrid expressions.

Grammar (used by config files, the CLI, and the canonical printer):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-'* atom ('^' ['-'] INTEGER)?
    atom     := NUMBER | IDENT | '(' expr ')'

Identifiers: ``q<i>``/``p<i>`` are classical symbols, ``Q<a>``/``P<a>``
quantum operators (indices within the declared system), ``hbar`` the
grading unit, ``i`` the imaginary unit, and any declared constant name
(``m``, ``M``, ``k``, ``t``, ...).  Numbers are integer or decimal
literals, read exactly.  ``*`` between quantum identifiers preserves the
written operator order.  Division is restricted to scalar divisors, and
negative exponents to scalar bases.  No exponent, quantum word of a term
or term count of a power or product of sums (:func:`_expansion_bound`) may
exceed :data:`MAX_POWER`: each is refused before it is built.

The parser reads the text in one scan.  Each term reads its factors in one
loop and multiplies them into one monomial (coefficient, hbar grade,
constant powers, classical powers, quantum word as written), taking the
factor of a symbol, ``hbar`` or ``i`` from one table keyed by name, and
normal-orders the word once; only a parenthesized sum, or a power of one,
is multiplied term by term.

``parse_expression`` and ``format_expression`` round-trip: parsing,
printing, then parsing again is the identity on canonical forms.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import groupby
from operator import add
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
    _add_terms,
    _dof_powers,
    _gaussian,
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
# the largest exponent, the longest quantum word of a term and the most
# terms of a power or product of sums that a text may ask for, each checked first
MAX_POWER = 4096


# A factor is read either as one monomial, the tuple (coefficient, hbar
# grade, constant powers, classical powers, quantum word) with the powers as
# sorted (name or symbol, exponent) pairs, or as a sum: a canonical term dict
# of two or more terms, which only a parenthesized expression or its power
# yields.
_UNIT = (_ONE, 0, (), (), ())
_ZERO_FACTOR = (_ZERO, 0, (), (), ())

# name -> (factor, Symbol or None) for hbar, i and each symbol name, which
# enters on first use and holds the one (interned) Symbol of its name.
# Constants never enter; validate_constant_names keeps their names apart.
_NAMED: dict = {"hbar": ((_ONE, 1, (), (), ()), None), "i": ((_I, 0, (), (), ()), None)}


def _factor(terms: dict):
    """The factor a canonical term dict denotes: a monomial unless it has
    two or more terms."""
    if len(terms) != 1:
        return terms or _ZERO_FACTOR
    ((hbar, consts, classical, word), coeff), = terms.items()
    return coeff, hbar, consts, classical, word


def _letters(factor) -> int:
    """The length of a factor's longest quantum word."""
    if type(factor) is dict:
        return max(len(key[3]) for key in factor)
    return len(factor[4])


def _expansion_bound(factors: list) -> int:
    """An upper bound on the terms of the product of the term dicts
    ``factors``, in order, or a partial one as soon as that passes MAX_POWER.

    One term of each factor multiply to words whose exponents (hbar grade,
    constant, classical, and Q and P powers of each quantum DOF d) sum to s,
    and normal-order to the words with j_d fewer Q_d and P_d letters each,
    one word per j; a normal-ordered u times a term v adds at most
    min(P_d(u), Q_d(v)) to j_d.  So the bound sums prod_d (m_d + 1) over the
    distinct s, m_d the most j_d that a choice of terms of sum s reaches.  It
    is exact for a power of a sum over one DOF, and it grows with each factor
    (every s moves to s + v), so it stops once past MAX_POWER."""
    distinct = {id(f): f for f in factors}
    keys = [key for f in distinct.values() for key in f]
    names = list(dict.fromkeys(name for key in keys for name, _ in key[1] + key[2]))
    dofs = sorted({sym.index for key in keys for sym in key[3]})
    q = 1 + len(names)  # where the Q and P powers of each DOF start, interleaved

    def vector(key) -> tuple:
        exps, powers = dict(key[1] + key[2]), _dof_powers((sym, 1) for sym in key[3])
        qp = (x for d in dofs for x in powers.get(d, (0, 0)))
        return (key[0], *(exps.get(name, 0) for name in names), *qp)

    vectors = {i: [(v, v[q::2]) for v in map(vector, f)] for i, f in distinct.items()}
    # each distinct sum of one term per factor so far -> its m, per DOF
    reach, total = {(0,) * (q + 2 * len(dofs)): (0,) * len(dofs)}, 1
    for f in factors:
        grown, total = {}, 0
        for s, m in reach.items():
            ps = s[q + 1 :: 2]
            for v, qv in vectors[id(f)]:
                t = tuple(map(add, s, v))
                new = tuple(map(min, ps, map(add, m, qv)))
                old = grown.get(t)
                if old is not None:
                    if old == new:
                        continue
                    new = tuple(map(max, old, new))
                    total -= math.prod(j + 1 for j in old)
                grown[t] = new
                total += math.prod(j + 1 for j in new)
                if total > MAX_POWER:
                    return total
        reach = grown
    return total


def _monomial_terms(coeff, hbar: int, consts: dict, classical: dict, word) -> dict:
    """The canonical terms of one monomial read factor by factor: its powers
    sorted and its word normal-ordered once; none when ``coeff`` is zero."""
    if not coeff:
        return {}
    key_consts = tuple(sorted((n, e) for n, e in consts.items() if e)) if consts else ()
    key_classical = tuple(sorted(classical.items()))
    word = tuple(word)
    if len(word) < 2:
        return {(hbar, key_consts, key_classical, word): coeff}
    return {
        (hbar + dh, key_consts, key_classical, normal): coeff * c
        for dh, normal, c in _normal_words(word)
    }


class _Parser:
    """Recursive descent over the tokens of one scan; the end token is "".
    Each term reads its factors in one loop and multiplies them into one
    monomial, and a sum factor term by term.  Positions are found only for
    an error (:meth:`fail`)."""

    def __init__(self, text: str, system: System, constants: frozenset):
        self.text = text
        self.system = system
        # the largest index of a quantum and of a classical symbol
        self.limits = (system.quantum, system.classical)
        self.constants = constants
        self.tokens = _TOKEN_RE.findall(text) + [""]
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
        out = self.term(1)
        while True:
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return out
            self.pos += 1
            _add_terms(out, self.term(-1 if op == "-" else 1))

    def term(self, sign: int) -> dict:
        """A fresh term dict of ``sign * factor (('*' | '/') factor)*``; each
        factor, ``'-'* atom ('^' ['-'] INTEGER)?``, is read in one pass of the
        loop, and its coefficient and sign multiplied into the Gaussian
        rational (a + b*i)/d as ints, brought to lowest terms once."""
        tokens, limits = self.tokens, self.limits
        a, b, d, hbar, consts, classical, word = sign, 0, 1, 0, {}, {}, []
        product = None  # the factors before the last sum factor, multiplied out
        letters = 0  # a bound on the length of product's quantum words
        divide = False
        pos = self.pos
        while True:
            start = pos
            while tokens[pos] == "-":
                pos += 1
                a, b = -a, -b
            atom, token = pos, tokens[pos]
            pos += 1
            if token.isdecimal() and tokens[pos] != "^":
                # an integer literal is multiplied in, or divided out, as an int
                n = int(token)
                if not divide:
                    a, b = a * n, b * n
                elif n:
                    d *= n
                else:
                    self.fail("division by zero", start)
                factor = _UNIT
            elif (named := _NAMED.get(token)) is not None:
                factor, sym = named
                if sym is not None and sym.index > limits[sym.is_classical]:
                    self.out_of_range(token, atom)
            elif token[:1].isdecimal():
                n, m = Fraction(token).as_integer_ratio() if "." in token else (int(token), 1)
                factor = _gaussian(n, 0, m, reduced=True), 0, (), (), ()
            elif token == "(":
                self.pos = pos
                inner = self.expr()
                pos = self.pos
                if tokens[pos] != ")":
                    self.fail("expected ')'", pos)
                pos += 1
                factor = _factor(inner)
            else:
                factor = self.identifier(token, atom)
            if tokens[pos] == "^":
                negative = tokens[pos + 1] == "-"
                pos += 2 if negative else 1
                value = tokens[pos]
                if not value[:1].isdecimal() or "." in value:
                    self.fail("exponent must be an integer", pos)
                self.bound(value, factor, letters + len(word), pos)
                pos += 1
                factor = self.power(factor, -int(value) if negative else int(value), atom)
            if divide and factor is not _UNIT:
                factor = self.inverse(factor, start)
            if type(factor) is dict:
                letters += len(word) + _letters(factor)
                if letters > MAX_POWER:
                    self.fail(f"quantum word longer than {MAX_POWER} letters", atom)
                monomial = _monomial_terms(_gaussian(a, b, d), hbar, consts, classical, word)
                left = monomial if product is None else self.times(product, monomial, start)
                product = self.times(left, factor, start)
                a, b, d, hbar, consts, classical, word = 1, 0, 1, 0, {}, {}, []
            elif factor is not _UNIT:
                c, h, pr, cl, w = factor
                if c is not _ONE:
                    a2, b2, d2 = c._abd
                    a, b, d = a * a2 - b * b2, a * b2 + b * a2, d * d2
                if letters + len(word) + len(w) > MAX_POWER:
                    self.fail(f"quantum word longer than {MAX_POWER} letters", atom)
                hbar += h
                for name, exp in pr:
                    consts[name] = consts.get(name, 0) + exp
                for sym, exp in cl:
                    classical[sym] = classical.get(sym, 0) + exp
                word += w
            op = tokens[pos]
            if op != "*" and op != "/":
                break
            pos += 1
            divide = op == "/"
        self.pos = pos
        terms = _monomial_terms(_gaussian(a, b, d), hbar, consts, classical, word)
        return terms if product is None else self.times(product, terms, start)

    def times(self, left: dict, right: dict, index: int) -> dict:
        """The terms of ``left`` times ``right``, a product that ends with the
        factor at token ``index``; refused there if it could expand to more
        than MAX_POWER terms (:func:`_expansion_bound`)."""
        if _expansion_bound([left, right]) > MAX_POWER:
            self.fail(f"product could expand to more than {MAX_POWER} terms", index)
        product = HybridExpression(self.system, left) * HybridExpression(self.system, right)
        return dict(product._terms)

    def bound(self, value: str, base, before: int, index: int) -> None:
        """Refuse, at the exponent ``value`` (token ``index``), an exponent above
        MAX_POWER or a power of ``base`` whose quantum word (after the ``before``
        letters of its term) or, for a sum, term count could be larger."""
        if len(value) > len(str(MAX_POWER)) or int(value) > MAX_POWER:
            self.fail(f"exponent above {MAX_POWER}", index)
        if before + int(value) * _letters(base) > MAX_POWER:
            self.fail(f"quantum word longer than {MAX_POWER} letters", index)
        if type(base) is dict and _expansion_bound([base] * int(value)) > MAX_POWER:
            self.fail(f"power of a sum could expand to more than {MAX_POWER} terms", index)

    def power(self, base, exponent: int, start: int):
        """``base`` (read from token ``start``) to the power ``exponent``."""
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
        pr = tuple((name, exp * exponent) for name, exp in pr)
        cl = tuple((sym, exp * exponent) for sym, exp in cl)
        return coeff, h * exponent, pr, cl, w * exponent

    def identifier(self, name: str, index: int):
        """The factor of a constant, or of a symbol name the table does not
        hold yet (which this enters), read at token ``index``; fails on any
        other token."""
        if name in self.constants:
            return _ONE, 0, ((name, 1),), (), ()
        if name[:1] not in _IDENT_START:
            got = f"expected a number, identifier or '(', got {name!r}"
            self.fail(got if name else "unexpected end of input", index)
        try:
            sym = parse_symbol(name)
        except AlgebraError:
            if not _SYMBOL_RE.match(name):
                self.fail(f"unknown identifier {name!r}", index)
            self.out_of_range(name, index)  # a zero index
        factor = (_ONE, 0, (), ((sym, 1),), ()) if sym.is_classical else (_ONE, 0, (), (), (sym,))
        _NAMED[name] = factor, sym
        if sym.index > self.limits[sym.is_classical]:
            self.out_of_range(name, index)
        return factor

    def out_of_range(self, name: str, index: int) -> NoReturn:
        system = self.system
        limits = f"classical 1..{system.classical}, quantum 1..{system.quantum}"
        self.fail(f"symbol {name} out of range for system ({limits})", index)

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
    """Return (sign, factor_string or None); None means magnitude one.  The
    parts are read from the reduced triple (a + b*i)/d, one gcd each."""
    a, b, d = c._abd
    if not b:
        return "-" if a < 0 else "+", _magnitude(a, d)
    mag = _magnitude(b, d)
    im_str = "i" if mag is None else f"{mag}*i"
    if not a:
        return "-" if b < 0 else "+", im_str
    real = f"{'-' if a < 0 else ''}{_magnitude(a, d) or 1}"
    return "+", f"({real} {'-' if b < 0 else '+'} {im_str})"


def _magnitude(n: int, d: int) -> str | None:
    """``str(abs(Fraction(n, d)))`` for d > 0; None when it is 1."""
    g = math.gcd(n, d)
    n, d = abs(n) // g, d // g
    if n == d:
        return None
    return str(n) if d == 1 else f"{n}/{d}"


def _format_power(base: str, exp: int) -> str:
    return base if exp == 1 else f"{base}^{exp}"


def format_expression(expr: HybridExpression) -> str:
    """Deterministic canonical text; re-parsing yields the same expression."""
    terms = expr.terms()
    if not terms:
        return "0"
    pieces = []
    for (hbar, consts, classical, word), coeff in terms:
        sign, coeff_str = _format_coefficient(coeff)
        factors = [] if coeff_str is None else [coeff_str]
        if hbar:
            factors.append(_format_power("hbar", hbar))
        for name, exp in consts:
            factors.append(_format_power(name, exp))
        for sym, exp in classical:
            factors.append(_format_power(sym.name, exp))
        # a run of one operator prints as its power
        factors.extend(_format_power(sym.name, len(list(run))) for sym, run in groupby(word))
        pieces.append(f" {sign} {'*'.join(factors) if factors else '1'}")
    out = "".join(pieces)
    return out[3:] if out[1] == "+" else f"-{out[3:]}"

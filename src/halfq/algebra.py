"""Exact symbolic algebra for hybrid classical-quantum observables.

An expression is a finite sum of monomials

    c * i^s * hbar^h * (declared constants)^e * (classical symbols) * (quantum word)

where the coefficient c is an exact complex rational, the hbar grading h
is a nonnegative integer, classical symbols q_i/p_i commute with
everything, and the quantum word is an ordered product of Q_a/P_a
operators kept in normal order (within each degree of freedom all Q
factors precede all P factors).  Reordering a quantum word uses the
canonical commutation relation [Q_a, P_a] = i*hbar, which raises the hbar
grading; symbols of distinct degrees of freedom commute.

Floating point never enters here: all identities (round trips, bracket
antisymmetry, series solutions) hold exactly.  A coefficient is a
:class:`CNum`, the Gaussian rational (a + b*i)/d held as three ints in
lowest terms with d > 0; its arithmetic is int arithmetic plus one gcd,
and no ``Fraction`` object is built unless a caller reads ``re`` or ``im``.

The canonical form has two rules: no two terms share a key, and no
coefficient is zero.  Every builder returns canonical terms and the
:class:`HybridExpression` constructor stores them as given: accumulators
reduce each key's int-triple sum once, dropping zeros (``_reduced``), a sum
drops the keys that cancel (``_add_terms``) and a scaling by zero is zero.

One closed-form single-DOF table, ``_weyl_terms``, does every reordering at
a cost polynomial in the degree.  With step -i it is normal ordering,
P^b Q^c = sum_k k! C(b,k) C(c,k) (-i*hbar)^k Q^(c-k) P^(b-k), folded over
each DOF's runs of Q and P by ``_normal_words``; with step -+i/2 it is the
Weyl correspondence of ``_weyl_image`` (half quantization of a classical
monomial) and ``_symbol_image`` (Weyl symbol of a word).  All three join
their DOFs through one product, ``_dof_products``.

Every exact map sums the images of unit monomials, keyed by interned
symbols alone and memoized where they take work: :func:`_mapped` for a
linear map, ``_bracket_sum`` for a bilinear one.  The product sums
``_unit_product``, c1*c2*N(W1*W2) with N normal ordering;
:func:`hybrid_bracket` sums ``_monomial_bracket``, the closed form (c1*W1,
c2*W2) = c1*c2*[W1, W2] + (i*hbar/2)*{c1, c2}*(W1*W2 + W2*W1), tested
against the definition (:func:`commutator`, :func:`double_bracket`,
:func:`mul_ihbar`); :func:`poisson_bracket` sums {c1, c2}*N(W1*W2) alike.
``adjoint`` and ``substitute_constants`` call ``_accumulate`` themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cache, total_ordering
from itertools import groupby, product
from typing import Mapping, Union
import warnings


class AlgebraError(ValueError):
    """Invalid algebraic operation (bad symbol, bad system, bad input)."""


class SystemMismatchError(AlgebraError):
    """Operands belong to different system declarations."""


class NonTerminatingSeriesError(RuntimeError):
    """Bracket iteration did not vanish within the allowed order."""


class UnquantizationWarning(UserWarning):
    """The hbar^0 grade of an unquantized operator does not dominate its
    hbar^2 residual; predictions built from it are unreliable."""


# --------------------------------------------------------------------------
# exact complex rationals


class CNum:
    """Complex number with exact rational real and imaginary parts.

    Stored as the Gaussian rational (a + b*i)/d: the int triple ``_abd`` with
    d > 0 and gcd(a, b, d) = 1.  That form is unique, so equality and
    hashing compare int tuples, and the arithmetic runs on ints with one
    ``gcd`` per result.  ``re`` and ``im`` read the parts as Fractions.
    """

    __slots__ = ("_abd",)

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        if type(re) is not int or type(im) is not int:
            re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr * di // math.gcd(dr, di)
        parts = (re.numerator * (d // dr), im.numerator * (d // di), d)
        object.__setattr__(self, "_abd", parts)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("CNum is immutable")

    def __reduce__(self):
        return _gaussian, (*self._abd, True)

    @staticmethod
    def of(value: "ScalarLike") -> "CNum":
        if isinstance(value, CNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CNum(value)
        if isinstance(value, float):
            return CNum(Fraction(value))
        if isinstance(value, complex):
            return CNum(Fraction(value.real), Fraction(value.imag))
        raise TypeError(f"cannot build an exact scalar from {value!r}")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    # a non-CNum operand returns NotImplemented, so Python tries the other
    # operand's reflected method (HybridExpression.__rmul__ and friends)
    def __add__(self, other: "CNum") -> "CNum":
        try:
            a1, b1, d1 = self._abd
            a2, b2, d2 = other._abd
        except AttributeError:
            return NotImplemented
        if d1 == d2:
            return _gaussian(a1 + a2, b1 + b2, d1)
        return _gaussian(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    def __sub__(self, other: "CNum") -> "CNum":
        return self + -other if isinstance(other, CNum) else NotImplemented

    def __neg__(self) -> "CNum":
        a, b, d = self._abd
        return _gaussian(-a, -b, d, reduced=True)

    def __mul__(self, other: "CNum") -> "CNum":
        try:
            a1, b1, d1 = self._abd
            a2, b2, d2 = other._abd
        except AttributeError:
            return NotImplemented
        if not b1 and not b2:
            return _gaussian(a1 * a2, 0, d1 * d2)
        return _gaussian(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    def inverse(self) -> "CNum":
        # d / (a + b*i) = d*(a - b*i) / (a^2 + b^2)
        a, b, d = self._abd
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _gaussian(d * a, -d * b, norm)

    def conjugate(self) -> "CNum":
        a, b, d = self._abd
        return _gaussian(a, -b, d, reduced=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, CNum) and self._abd == other._abd

    def __hash__(self) -> int:
        return hash(self._abd)

    def __bool__(self) -> bool:
        a, b, _ = self._abd
        return bool(a or b)

    # int true division is correctly rounded, as float(Fraction) is, so these
    # floats are the ones the Fraction parts give
    def __abs__(self) -> float:
        a, b, d = self._abd
        return math.hypot(a / d, b / d)

    def to_complex(self) -> complex:
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __repr__(self) -> str:
        return f"CNum({self.re!r}, {self.im!r})"


ScalarLike = Union[int, Fraction, float, complex, CNum]

_new_cnum = object.__new__
_set_abd = CNum._abd.__set__


def _gaussian(a: int, b: int, d: int, reduced: bool = False) -> CNum:
    """The CNum (a + b*i)/d for d > 0, brought to lowest terms unless the
    caller knows gcd(a, b, d) is already 1."""
    if not reduced:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new_cnum(CNum)
    _set_abd(z, (a, b, d))
    return z


_ZERO = CNum(0)
_ONE = CNum(1)
_I = CNum(0, 1)
_MINUS_I = CNum(0, -1)


# --------------------------------------------------------------------------
# symbols and systems


class Kind(IntEnum):
    CLASSICAL_POS = 0
    CLASSICAL_MOM = 1
    QUANTUM_POS = 2
    QUANTUM_MOM = 3


_KIND_LETTER = {
    Kind.CLASSICAL_POS: "q",
    Kind.CLASSICAL_MOM: "p",
    Kind.QUANTUM_POS: "Q",
    Kind.QUANTUM_MOM: "P",
}


# (kind, index) -> the one Symbol with that identity
_SYMBOLS: dict = {}


@total_ordering
class Symbol:
    """A canonical variable: classical q_i/p_i or quantum operator Q_a/P_a.

    Interned per (kind, index): equality and hashing are identity, done in C,
    and order is by (kind, index).
    """

    __slots__ = ("kind", "index", "is_classical", "is_momentum", "_order", "name")

    def __new__(cls, kind: Kind, index: int) -> "Symbol":
        sym = _SYMBOLS.get((kind, index))
        if sym is None:
            if index < 1:
                raise AlgebraError(f"symbol index must be positive, got {index}")
            sym, kind = object.__new__(cls), Kind(kind)
            momentum = kind in (Kind.CLASSICAL_MOM, Kind.QUANTUM_MOM)
            classical = kind in (Kind.CLASSICAL_POS, Kind.CLASSICAL_MOM)
            name = f"{_KIND_LETTER[kind]}{index}"
            values = (kind, index, classical, momentum, (kind, index), name)
            for slot, value in zip(cls.__slots__, values):
                object.__setattr__(sym, slot, value)
            sym = _SYMBOLS.setdefault((kind, index), sym)
        return sym

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    def __reduce__(self):
        return Symbol, (self.kind, self.index)

    def __lt__(self, other: "Symbol") -> bool:
        return self._order < other._order if isinstance(other, Symbol) else NotImplemented

    @staticmethod
    @cache
    def q(i: int) -> "Symbol":
        return Symbol(Kind.CLASSICAL_POS, i)

    @staticmethod
    @cache
    def p(i: int) -> "Symbol":
        return Symbol(Kind.CLASSICAL_MOM, i)

    @staticmethod
    @cache
    def Q(a: int) -> "Symbol":
        return Symbol(Kind.QUANTUM_POS, a)

    @staticmethod
    @cache
    def P(a: int) -> "Symbol":
        return Symbol(Kind.QUANTUM_MOM, a)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class System:
    """Degree-of-freedom declaration: M classical and N quantum DOFs.

    Classical indices run 1..M, quantum indices 1..N (per-sector numbering).
    """

    classical: int
    quantum: int

    def __post_init__(self):
        if self.classical < 0 or self.quantum < 0:
            raise AlgebraError("DOF counts must be nonnegative")

    def contains(self, sym: Symbol) -> bool:
        limit = self.classical if sym.is_classical else self.quantum
        return 1 <= sym.index <= limit

    def check(self, sym: Symbol) -> Symbol:
        if not self.contains(sym):
            raise AlgebraError(
                f"symbol {sym.name} outside system "
                f"(classical 1..{self.classical}, quantum 1..{self.quantum})"
            )
        return sym

    def fundamental_symbols(self) -> tuple:
        """q_i, p_i per classical DOF, then Q_a, P_a per quantum DOF."""
        classical = ((Symbol.q(i), Symbol.p(i)) for i in range(1, self.classical + 1))
        quantum = ((Symbol.Q(a), Symbol.P(a)) for a in range(1, self.quantum + 1))
        return tuple(sym for pair in (*classical, *quantum) for sym in pair)

    # -- expression constructors -------------------------------------------

    def symbol(self, sym: Symbol) -> "HybridExpression":
        self.check(sym)
        if sym.is_classical:
            key = (0, (), ((sym, 1),), ())
        else:
            key = (0, (), (), (sym,))
        return HybridExpression(self, {key: _ONE})

    def q(self, i: int) -> "HybridExpression":
        return self.symbol(Symbol.q(i))

    def p(self, i: int) -> "HybridExpression":
        return self.symbol(Symbol.p(i))

    def Q(self, a: int) -> "HybridExpression":
        return self.symbol(Symbol.Q(a))

    def P(self, a: int) -> "HybridExpression":
        return self.symbol(Symbol.P(a))

    def scalar(self, value: ScalarLike) -> "HybridExpression":
        return HybridExpression(self, {(0, (), (), ()): c} if (c := CNum.of(value)) else {})

    def zero(self) -> "HybridExpression":
        return HybridExpression(self, {})

    def one(self) -> "HybridExpression":
        return self.scalar(1)

    def hbar(self, power: int = 1) -> "HybridExpression":
        if power < 0:
            raise AlgebraError("hbar grading must stay nonnegative")
        return HybridExpression(self, {(power, (), (), ()): _ONE})

    def const(self, name: str, power: int = 1) -> "HybridExpression":
        if not name.isidentifier():
            raise AlgebraError(f"bad constant name {name!r}")
        pows = ((name, power),) if power else ()
        return HybridExpression(self, {(0, pows, (), ()): _ONE})


# --------------------------------------------------------------------------
# reordering: normal order and Weyl order from one table


@cache
def _weyl_terms(a: int, b: int, step: CNum) -> tuple:
    """The single-DOF reordering table exp(step*hbar d_q d_p) applied to
    q^a p^b (McCoy, PNAS 18, 674 (1932)): the terms (a - k, b - k, k, c_k),
    k = 0..min(a, b), with c_k = k! C(a, k) C(b, k) step^k exact.

    Step -i/2 (``_TO_WEYL``) expands Weyl(q^a p^b) as sum_k c_k hbar^k
    Q^(a-k) P^(b-k) in normal order; step +i/2 (``_FROM_WEYL``), the inverse,
    gives the Weyl symbol of Q^a P^b as sum_k c_k hbar^k q^(a-k) p^(b-k); step
    -i normal-orders P^b Q^a as sum_k c_k hbar^k Q^(a-k) P^(b-k).
    """
    terms, power = [], _ONE
    for k in range(min(a, b) + 1):
        count = math.factorial(k) * math.comb(a, k) * math.comb(b, k)
        terms.append((a - k, b - k, k, CNum(count) * power))
        power = power * step
    return tuple(terms)


_TO_WEYL = _gaussian(0, -1, 2)
_FROM_WEYL = _gaussian(0, 1, 2)


def _dof_products(per_dof, factors) -> list:
    """(hbar increment, coefficient, factors) of each product of one term
    per DOF of ``per_dof``, (dof, terms) pairs in DOF order whose terms are
    (a, b, k, c) as :func:`_weyl_terms` gives them; ``factors(dof, a, b)``
    gives a DOF's part, joined in DOF order."""
    terms = [(0, _ONE, ())]
    for d, dof_terms in per_dof:
        terms = [
            (h + k, c * ck, f + factors(d, a, b))
            for h, c, f in terms
            for a, b, k, ck in dof_terms
        ]
    return terms


def _word_part(d: int, a: int, b: int) -> tuple:
    """The canonical word Q_d^a P_d^b."""
    return (Symbol.Q(d),) * a + (Symbol.P(d),) * b


@cache
def _normal_words(word: tuple) -> tuple:
    """N(word): the quantum ``word`` in normal order, as (hbar increment,
    canonical word, coefficient) terms with distinct words.

    Distinct DOFs commute, so each DOF's letters are ordered alone.  Reading
    them left to right, a DOF holds sum_k c_k hbar^k Q^(q-k) P^(p-k) after q
    letters Q and p letters P; a run of P's raises p, and a run of n Q's
    moves through P^(p-k) by the closed form
    P^b Q^n = sum_j j! C(b, j) C(n, j) (-i*hbar)^j Q^(n-j) P^(b-j).
    Every contraction removes one Q and one P, so the hbar power k alone
    indexes a DOF's terms, and no coefficient cancels.
    """
    letters: dict = {}
    for sym in word:
        letters.setdefault(sym.index, []).append(sym.is_momentum)
    per_dof = []
    for d in sorted(letters):
        q = p = 0
        coeffs = [_ONE]  # coeffs[k]: the coefficient of hbar^k Q^(q-k) P^(p-k)
        for momentum, run in groupby(letters[d]):
            n = len(list(run))
            if momentum:
                p += n
                continue
            top = len(coeffs) - 1
            moved = [_ZERO] * (top + min(n, p - top) + 1)
            for k, c in enumerate(coeffs):
                for _, _, j, cj in _weyl_terms(n, p - k, _MINUS_I):
                    moved[k + j] += c * cj
            coeffs, q = moved, q + n
        per_dof.append((d, [(q - k, p - k, k, c) for k, c in enumerate(coeffs)]))
    return tuple((h, w, c) for h, c, w in _dof_products(per_dof, _word_part))


def _add_terms(out: dict, terms: dict) -> dict:
    """``out`` plus the canonical ``terms``, in place, without the keys that cancel."""
    for k, c in terms.items():
        if k not in out:
            out[k] = c
        elif s := out[k] + c:
            out[k] = s
        else:
            del out[k]
    return out


def _merge_pows(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for key, exp in b:
        new = acc.get(key, 0) + exp
        if new:
            acc[key] = new
        else:
            del acc[key]
    return tuple(sorted(acc.items()))


# --------------------------------------------------------------------------
# expressions


class HybridExpression:
    """Canonical sum of hybrid monomials over a fixed :class:`System`.

    Immutable; all arithmetic returns new expressions.  Term keys are
    ``(hbar_power, constants, classical, quantum_word)``.  The constructor
    stores canonical terms as given (no two share a key, none is zero), and
    every builder returns such terms, so structural equality is semantic.
    """

    __slots__ = ("system", "_terms")

    def __init__(self, system: System, terms: dict):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("HybridExpression is immutable")

    def __reduce__(self):
        return HybridExpression, (self.system, self._terms)

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list:
        """Sorted ``(key, coeff)`` pairs; key = (hbar, consts, classical, word)."""
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def constants(self) -> set:
        return {name for key in self._terms for name, _ in key[1]}

    def classical_symbols(self) -> set:
        return {sym for key in self._terms for sym, _ in key[2]}

    @property
    def has_quantum(self) -> bool:
        return any(key[3] for key in self._terms)

    def classical_degree(self) -> int:
        return max((sum(e for _, e in key[2]) for key in self._terms), default=0)

    def hbar_grades(self) -> set:
        return {key[0] for key in self._terms}

    def coefficient_scale(self, hbar_power: int | None = None) -> float:
        """Largest coefficient magnitude, optionally within one grade."""
        vals = [
            abs(c)
            for k, c in self._terms.items()
            if hbar_power is None or k[0] == hbar_power
        ]
        return max(vals, default=0.0)

    # -- arithmetic ----------------------------------------------------------

    def _require_same(self, other: "HybridExpression"):
        if self.system is not other.system and self.system != other.system:
            raise SystemMismatchError(
                f"systems differ: {self.system} vs {other.system}"
            )

    def _scaled(self, c: CNum) -> "HybridExpression":
        # Gaussian rationals have no zero divisors: only c = 0 leaves a zero
        terms = {k: v * c for k, v in self._terms.items()} if c else {}
        return HybridExpression(self.system, terms)

    def __add__(self, other) -> "HybridExpression":
        other = self._coerce(other)
        self._require_same(other)
        return HybridExpression(self.system, _add_terms(dict(self._terms), other._terms))

    def __radd__(self, other) -> "HybridExpression":
        return self.__add__(other)

    def __sub__(self, other) -> "HybridExpression":
        other = self._coerce(other)
        return self.__add__(other._scaled(CNum(-1)))

    def __rsub__(self, other) -> "HybridExpression":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "HybridExpression":
        return self._scaled(CNum(-1))

    def _coerce(self, other) -> "HybridExpression":
        if isinstance(other, HybridExpression):
            return other
        return self.system.scalar(other)

    def __mul__(self, other) -> "HybridExpression":
        if not isinstance(other, HybridExpression):
            return self._scaled(CNum.of(other))
        self._require_same(other)
        return HybridExpression(self.system, _bracket_sum(((self, other),), _unit_product))

    def __rmul__(self, other) -> "HybridExpression":
        # scalars commute with everything; expression*expression handled above
        return self._scaled(CNum.of(other))

    def __truediv__(self, other) -> "HybridExpression":
        return self._scaled(CNum.of(other).inverse())

    def __pow__(self, n: int) -> "HybridExpression":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("expression powers must be nonnegative integers")
        out = self.system.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HybridExpression)
            and self.system == other.system
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.system, frozenset(self._terms.items())))

    def __str__(self) -> str:
        from . import grammar

        return grammar.format_expression(self)

    def __repr__(self) -> str:
        return f"<HybridExpression {self}>"

    # -- structure transforms -------------------------------------------------

    def adjoint(self) -> "HybridExpression":
        """Hermitian conjugate: conjugate coefficients, reverse quantum words."""
        out: dict = {}
        for (h, pr, cl, word), c in self._terms.items():
            _accumulate(out, h, pr, *c.conjugate()._abd, _unit_product(cl, word[::-1], (), ()))
        return HybridExpression(self.system, _reduced(out))

    def substitute_constants(self, values: Mapping[str, ScalarLike]) -> "HybridExpression":
        """Replace declared constants by exact scalar values."""
        out: dict = {}
        for (h, pr, cl, word), c in self._terms.items():
            kept = []
            for name, exp in pr:
                if name in values:
                    v = CNum.of(values[name])
                    if exp < 0:
                        v = v.inverse()
                        exp = -exp
                    for _ in range(exp):
                        c = c * v
                else:
                    kept.append((name, exp))
            _accumulate(out, h, tuple(kept), *c._abd, ((0, cl, word, _ONE),))
        return HybridExpression(self.system, _reduced(out))


def embed(expr: HybridExpression, target: System, offset: int) -> HybridExpression:
    """``expr`` over the larger ``target``, quantum DOF a renamed a + offset;
    a common shift keeps words canonical.  AlgebraError if ``target`` lacks a symbol."""
    return _mapped(expr, target, lambda cl, word: _shifted(target, cl, word, offset))


@cache
def _shifted(target: System, cl: tuple, word: tuple, offset: int) -> tuple:
    """The image under :func:`embed` of the unit monomial ``cl``*``word``."""
    for sym, _ in cl:
        target.check(sym)
    moved = tuple(target.check(Symbol(s.kind, s.index + offset)) for s in word)
    return ((0, cl, moved, _ONE),)


# --------------------------------------------------------------------------
# derivatives and brackets


def partial_derivative(expr: HybridExpression, sym: Symbol) -> HybridExpression:
    """Formal partial derivative with respect to a classical symbol."""
    if not sym.is_classical:
        raise AlgebraError(f"can only differentiate along classical symbols, got {sym.name}")
    expr.system.check(sym)
    return _mapped(expr, expr.system, lambda cl, word: _derivative(cl, word, sym))


@cache
def _derivative(cl: tuple, word: tuple, sym: Symbol) -> tuple:
    """The image under :func:`partial_derivative` of ``cl``*``word``."""
    exp = dict(cl).get(sym)
    if not exp:
        return ()
    return ((0, _merge_pows(cl, ((sym, -1),)), word, CNum(exp)),)


def commutator(a: HybridExpression, b: HybridExpression) -> HybridExpression:
    """[a, b] = ab - ba in canonical form."""
    a._require_same(b)
    return a * b - b * a


def _classical_bracket(cl1: tuple, cl2: tuple, cl12: tuple) -> list:
    """{c1, c2} of the classical monomials c1, c2, whose product is ``cl12``,
    as (monomial, n) pairs: sum_i n_i * c1*c2/(q_i*p_i), n_i = a_i*b'_i -
    b_i*a'_i, with a_i, a'_i (b_i, b'_i) the powers of q_i, p_i in c1 (c2)."""
    e1, e2, out = dict(cl1), dict(cl2), []
    for i in {s.index for s in (*e1, *e2)}:
        q, p = Symbol.q(i), Symbol.p(i)
        if n := e1.get(q, 0) * e2.get(p, 0) - e2.get(q, 0) * e1.get(p, 0):
            # n != 0, so q_i and p_i both divide c1*c2
            drop = (q, p)
            out.append((tuple((s, e - (s in drop)) for s, e in cl12 if e > 1 or s not in drop), n))
    return out


@cache
def _poisson_unit(cl1: tuple, w1: tuple, cl2: tuple, w2: tuple) -> tuple:
    """{c1*W1, c2*W2} = {c1, c2}*N(W1*W2) for unit monomials, N normal
    ordering, in the terms of :func:`_monomial_bracket`."""
    return tuple(
        (h, cl, word, cm * _gaussian(n, 0, 1, reduced=True))
        for cl, n in _classical_bracket(cl1, cl2, _merge_pows(cl1, cl2))
        for h, word, cm in _normal_words(w1 + w2)
    )


def poisson_bracket(a: HybridExpression, b: HybridExpression) -> HybridExpression:
    """Classical bracket sum_i (da/dq_i * db/dp_i - da/dp_i * db/dq_i) over
    the classical symbols; quantum factors are multiplied in the order
    written.  Classical factors are central, so it is the bilinear sum over
    term pairs of :func:`_poisson_unit`, with no derivative formed."""
    a._require_same(b)
    return HybridExpression(a.system, _bracket_sum(((a, b),), _poisson_unit))


def double_bracket(a: HybridExpression, b: HybridExpression) -> HybridExpression:
    """Symmetrized classical bracket: quantum products taken both ways,
    ({a, b} - {b, a}) / 2, with each argument differentiated once."""
    a._require_same(b)
    ab = ba = a.system.zero()
    for i in sorted({s.index for s in a.classical_symbols() | b.classical_symbols()}):
        qi, pi = Symbol.q(i), Symbol.p(i)
        aq, ap, bq, bp = (partial_derivative(x, s) for x in (a, b) for s in (qi, pi))
        ab = ab + (aq * bp - ap * bq)
        ba = ba + (bq * ap - bp * aq)
    return (ab - ba) / 2


def mul_ihbar(expr: HybridExpression) -> HybridExpression:
    """Multiply by i*hbar (raises the grading)."""
    return _mapped(expr, expr.system, lambda cl, word: ((1, cl, word, _I),))


def div_ihbar(expr: HybridExpression) -> HybridExpression:
    """Divide by i*hbar; every term must carry at least one power of hbar."""
    if min(expr.hbar_grades(), default=1) < 1:
        raise AlgebraError("expression is not divisible by hbar")
    return _mapped(expr, expr.system, lambda cl, word: ((-1, cl, word, _MINUS_I),))


@cache
def _unit_product(cl1: tuple, w1: tuple, cl2: tuple, w2: tuple) -> tuple:
    """c1*W1 * c2*W2 = c1*c2*N(W1*W2) for unit monomials, N normal ordering,
    in the terms of :func:`_monomial_bracket`."""
    cl12 = _merge_pows(cl1, cl2)
    return tuple((h, cl12, word, c) for h, word, c in _normal_words(w1 + w2))


@cache
def _monomial_bracket(cl1: tuple, w1: tuple, cl2: tuple, w2: tuple) -> tuple:
    """The hybrid bracket of the unit monomials c1*W1 and c2*W2, in the
    closed form of :func:`hybrid_bracket`, as (hbar increment, classical,
    word, coefficient) terms.  The hbar grading, the declared constants and
    the coefficients are central, so the memo needs no system or constant
    part in its key."""
    cl12, w12, w21 = _merge_pows(cl1, cl2), w1 + w2, w2 + w1
    # (hbar, classical, coefficient as a, b, d, word) before normal ordering
    parts = [] if w12 == w21 else [(0, cl12, 1, 0, 1, w12), (0, cl12, -1, 0, 1, w21)]
    parts += [(1, cl, 0, n, 2, w) for cl, n in _classical_bracket(cl1, cl2, cl12)
              for w in (w12, w21)]
    out: dict = {}
    for h, cl, a, b, d, joined in parts:
        _accumulate(out, h, (), a, b, d, [(dh, cl, w, c) for dh, w, c in _normal_words(joined)])
    return tuple((h, cl, w, c) for (h, _, cl, w), c in _reduced(out).items())


def _accumulate(out: dict, h0: int, pr: tuple, a1: int, b1: int, d1: int, unit) -> None:
    """Add (a1 + b1*i)/d1 times each term (h, cl, word, c) of ``unit`` to
    ``out`` at key (h0 + h, pr, cl, word) as an unreduced int triple [a, b,
    d], scaling unequal denominators to their lcm; :func:`_reduced` reads it."""
    for h, cl, word, c in unit:
        a2, b2, d2 = c._abd
        a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
        key = (h0 + h, pr, cl, word)
        if (acc := out.get(key)) is None:
            out[key] = [a, b, d]
        elif acc[2] == d:
            acc[0] += a
            acc[1] += b
        else:
            m = math.lcm(acc[2], d)
            s, t = m // acc[2], m // d
            out[key] = [acc[0] * s + a * t, acc[1] * s + b * t, m]


def _reduced(out: dict) -> dict:
    """The nonzero sums of an :func:`_accumulate` dict, one CNum each."""
    return {key: _gaussian(a, b, d) for key, (a, b, d) in out.items() if a or b}


def _bracket_sum(pairs, bracket) -> dict:
    """The nonzero terms of the sum over the ``pairs`` of expressions of the
    bilinear map whose unit-monomial images ``bracket`` gives."""
    out: dict = {}
    for a, b in pairs:
        for (h1, pr1, cl1, w1), c1 in a._terms.items():
            a1, b1, d1 = c1._abd
            for (h2, pr2, cl2, w2), c2 in b._terms.items():
                if unit := bracket(cl1, w1, cl2, w2):
                    a2, b2, d2 = c2._abd
                    _accumulate(out, h1 + h2, _merge_pows(pr1, pr2), a1 * a2 - b1 * b2,
                                a1 * b2 + b1 * a2, d1 * d2, unit)
    return _reduced(out)


def hybrid_bracket(a: HybridExpression, b: HybridExpression) -> HybridExpression:
    """(a, b) = [a, b] + i*hbar*{{a, b}} - the generator of half-quantum dynamics.

    Computed as the bilinear sum over term pairs of memoized unit-monomial
    brackets in closed form (:func:`_bracket_sum`).  Classical factors are
    central, so for a = c1*W1, b = c2*W2 (classical monomials c, quantum
    words W) {a, b} = {c1, c2}*W1*W2 and {b, a} = -{c1, c2}*W2*W1, and with N
    normal ordering (hbar grade up by (len - len')/2):
        (a, b) = c1*c2*N(W1*W2 - W2*W1) + (i*hbar/2)*{c1, c2}*N(W1*W2 + W2*W1),
    with {c1, c2} from :func:`_classical_bracket`.
    """
    a._require_same(b)
    return HybridExpression(a.system, _bracket_sum(((a, b),), _monomial_bracket))


def jacobiator(
    a: HybridExpression, b: HybridExpression, c: HybridExpression
) -> HybridExpression:
    """(a,(b,c)) + (b,(c,a)) + (c,(a,b)); nonzero in general for the hybrid
    bracket.  The three outer brackets accumulate into one sum."""
    inner = (hybrid_bracket(b, c), hybrid_bracket(c, a), hybrid_bracket(a, b))
    return HybridExpression(a.system, _bracket_sum(zip((a, b, c), inner), _monomial_bracket))


# --------------------------------------------------------------------------
# quantization and unquantization


def _dof_powers(pairs) -> dict:
    """Position/momentum powers per DOF of (symbol, exponent) pairs."""
    powers: dict = {}
    for sym, exp in pairs:
        a, b = powers.get(sym.index, (0, 0))
        powers[sym.index] = (a, b + exp) if sym.is_momentum else (a + exp, b)
    return powers


@cache
def _weyl_image(cl: tuple, m: int) -> tuple:
    """Half quantization at split m of the unit classical monomial ``cl``,
    as (hbar increment, classical, word, coefficient) terms with distinct
    words: DOFs 1..m pass through and DOF d > m becomes the Weyl-quantized
    quantum DOF d - m.  m = 0 is :func:`weyl_quantize`."""
    kept = tuple((s, e) for s, e in cl if s.index <= m)
    powers = _dof_powers((s, e) for s, e in cl if s.index > m)
    per_dof = [(d - m, _weyl_terms(*powers[d], _TO_WEYL)) for d in sorted(powers)]
    return tuple((h, kept, w, c) for h, c, w in _dof_products(per_dof, _word_part))


@cache
def _symbol_image(word: tuple, m: int) -> tuple:
    """Unquantization of the normal-ordered quantum ``word`` with m classical
    DOFs, as (hbar increment, classical, word, coefficient) terms: DOFs 1..m
    become their Weyl symbols and DOF d > m passes through as DOF d - m."""
    powers = _dof_powers((s, 1) for s in word if s.index <= m)
    rest = tuple(Symbol(s.kind, s.index - m) for s in word if s.index > m)
    per_dof = [(d, _weyl_terms(*powers[d], _FROM_WEYL)) for d in sorted(powers)]
    pows = lambda d, a, b: ((Symbol.q(d), a), (Symbol.p(d), b))
    # every q before every p, each in DOF order: Symbol's sort order
    return tuple(
        (h, tuple(sorted(x for x in cl if x[1])), rest, c)
        for h, c, cl in _dof_products(per_dof, pows)
    )


def _mapped(expr: HybridExpression, target: System, image) -> HybridExpression:
    """The linear map that sends each unit monomial (classical, word) of
    ``expr`` to the terms ``image(classical, word)``."""
    out: dict = {}
    for (h, pr, cl, word), c in expr._terms.items():
        _accumulate(out, h, pr, *c._abd, image(cl, word))
    return HybridExpression(target, _reduced(out))


def weyl_quantize(expr: HybridExpression) -> HybridExpression:
    """Dirac/Weyl quantization of a fully classical expression.

    Classical DOF i becomes quantum DOF i; each monomial q^a p^b maps to the
    fully symmetrized operator product in normal order, which per DOF is
    the closed form sum_k k! C(a,k) C(b,k) (-i*hbar/2)^k Q^(a-k) P^(b-k)
    (:func:`_weyl_terms`), at a cost polynomial in the degree.  Each unit
    monomial's image is memoized (:func:`_weyl_image` at split 0).
    """
    if expr.has_quantum:
        raise AlgebraError("weyl_quantize input must contain no quantum symbols")
    if expr.system.quantum != 0:
        raise AlgebraError(
            "weyl_quantize expects a purely classical system declaration"
        )
    return _mapped(expr, System(0, expr.system.classical), lambda cl, _: _weyl_image(cl, 0))


def unquantize(
    expr: HybridExpression,
    classical_count: int,
    magnitude_guard: float | None = 1000.0,
) -> HybridExpression:
    """Unquantization: quantum DOFs 1..classical_count become classical
    variables through their Weyl symbols; the remaining DOFs pass through
    (renumbered to 1..N-classical_count).

    Per DOF the Weyl symbol of Q^a P^b is the closed form
    sum_k k! C(a,k) C(b,k) (i*hbar/2)^k q^(a-k) p^(b-k)
    (:func:`_weyl_terms`), the inverse of :func:`weyl_quantize`, at a cost
    polynomial in the degree.  Each word's image is memoized
    (:func:`_symbol_image`).

    With ``magnitude_guard`` set, warns when the hbar^0 grade of the result
    does not dominate the hbar^2-and-higher residual by that factor: such a
    result cannot reproduce full-quantum predictions reliably.
    """
    if expr.system.classical != 0:
        raise AlgebraError("unquantize input must be fully operator-valued")
    n = expr.system.quantum
    if classical_count < 1:
        raise AlgebraError("unquantize requires at least one classical-sector DOF")
    if classical_count > n:
        raise AlgebraError(f"classical_count {classical_count} exceeds {n} DOFs")
    result = _mapped(expr, System(classical_count, n - classical_count),
                     lambda _, word: _symbol_image(word, classical_count))
    if magnitude_guard is not None:
        leading = result.coefficient_scale(0)
        residual = max(
            (abs(c) for k, c in result._terms.items() if k[0] >= 2), default=0.0
        )
        if residual > 0 and leading < magnitude_guard * residual:
            warnings.warn(
                "unquantization unreliable: hbar^0 magnitude "
                f"{leading:.3g} does not dominate hbar^2 residual {residual:.3g}",
                UnquantizationWarning,
                stacklevel=2,
            )
    return result


def half_quantize(expr: HybridExpression, split: tuple) -> HybridExpression:
    """Half quantization: Weyl-quantize DOFs M+1..M+N of a classical
    polynomial over M+N DOFs, which become quantum operators 1..N, and leave
    DOFs 1..M classical.

    This is the paper's prescription unquantize(weyl_quantize(x), M) done in
    one pass: the Weyl correspondence factors per DOF and unquantization
    inverts it, so the round trip is the identity on DOFs 1..M.  Each unit
    monomial's image is memoized (:func:`_weyl_image`).

    The map sends the Poisson bracket to the hybrid bracket exactly when x
    or y has total degree <= 2: the residue
    half_quantize({x, y}) - (half_quantize(x), half_quantize(y))/(i*hbar)
    then vanishes, as in the Moyal expansion, whose hbar^2 term takes third
    derivatives of both arguments.  Otherwise it holds only below hbar^2:
    the residue has no hbar^0 or hbar^1 terms but can have hbar^2 ones (for
    x = q2*p2^2, y = q2^2*p2^2 over a 1+1 split it is hbar^2*P1).  Over all
    ordered pairs of monomials of degree <= 4 in q1, p1, q2, p2 (1+1 split),
    the 1,736 pairs with a side of degree <= 2 are exact, and 228 of the
    other 3,025 leave a residue, each of hbar grade >= 2.
    """
    m, n = split
    if m < 0 or n < 0 or m + n != expr.system.classical or expr.system.quantum != 0:
        raise AlgebraError(
            f"split {split} does not partition the {expr.system.classical} classical DOFs"
        )
    if n == 0:
        raise AlgebraError("half quantization needs at least one quantum DOF")
    if m == 0:
        raise AlgebraError("half quantization needs at least one classical DOF")
    return _mapped(expr, System(m, n), lambda cl, _: _weyl_image(cl, m))


# --------------------------------------------------------------------------
# Heisenberg-picture series


def heisenberg_series(
    observable: HybridExpression, hamiltonian: HybridExpression
) -> HybridExpression:
    """Series solution sum_n (1/n!) (t / i hbar)^n (..(O, H)..., H) of the
    hybrid bracket, with the time kept exact as the symbolic constant ``t``.

    On a system with no classical DOFs the hybrid bracket is the
    commutator, so the same series is the full-quantum Heisenberg
    observable.  The bracket chain must terminate (some iterate vanishes)
    within 60 orders; otherwise it raises NonTerminatingSeriesError.
    """
    observable._require_same(hamiltonian)
    result = current = observable
    factorial = Fraction(1)
    for n in range(1, 61):
        current = div_ihbar(hybrid_bracket(current, hamiltonian))
        if current.is_zero:
            return result
        factorial *= n
        result = result + current * current.system.const("t", n) / factorial
    raise NonTerminatingSeriesError("bracket chain did not terminate within 60 orders")


# --------------------------------------------------------------------------
# Jacobi-identity failure


def hybrid_monomials(system: System, max_degree: int) -> list:
    """Canonical monomials q^a p^b Q^c P^d with 1 <= a+b+c+d <= max_degree,
    ordered by total degree then exponent tuple (single-DOF systems)."""
    if system != System(1, 1):
        raise AlgebraError("monomial enumeration implemented for the 1+1 DOF system")
    q, p, Q, P = system.q(1), system.p(1), system.Q(1), system.P(1)
    exps = sorted((sum(e), e) for e in product(range(max_degree + 1), repeat=4))
    return [q**a * p**b * Q**c * P**d for n, (a, b, c, d) in exps if 1 <= n <= max_degree]


def find_jacobiator_witness(max_degree: int = 3):
    """First monomial triple (by total degree, then enumeration order) with
    nonzero jacobiator; exhaustive over q1/p1/Q1/P1 monomials.

    Returns (A, B, C, jacobiator) or None.

    Only sorted index triples are searched.  The hybrid bracket is bilinear
    and antisymmetric, so the jacobiator is totally antisymmetric: swapping
    two arguments flips its sign, and it vanishes when two arguments are
    equal.  Whether a triple is a witness therefore depends only on its set
    of three distinct monomials, and the sorted order of that set is the
    lexicographically first of its orderings, so the first witness over all
    ordered triples is the first sorted one.

    Skipped triples have a zero jacobiator, so the first witness stands.
    J(x, b, c) = D(b, c) - (D b, c) - (b, D c) with D = (x, .) vanishes when
    D is a derivation of the bracket, as it is for x
    - purely quantum: D = [x, .] is a derivation of the product that
      commutes with d_q and d_p, so of the commutator and of {{., .}};
    - purely classical of degree <= 2: D = i*hbar*{x, .} is a linear
      Hamiltonian vector field, a derivation of the product that commutes
      with ad_Q and ad_P and preserves {{., .}}.
    One predicate per monomial keeps the others, and a kept triple all
    classical is skipped too: its bracket is i*hbar times the Poisson one.
    These rules cover every triple with a degree-1 member or in one sector.
    """
    system = System(1, 1)
    monos, degrees, quantum = [], [], []  # kept monomials, degrees, has a word
    for mono in hybrid_monomials(system, max_degree):
        ((_, _, cl, word),) = mono._terms
        degree = sum(e for _, e in cl) + len(word)
        if cl and (word or degree > 2):
            monos.append(mono)
            degrees.append(degree)
            quantum.append(bool(word))
    count = len(monos)
    # many triples share a pair, so each pair is bracketed once
    bracket = cache(lambda i, j: hybrid_bracket(monos[i], monos[j]))

    for total in range(6, 3 * max_degree + 1):
        for ia in range(count):
            a = monos[ia]
            for ib in range(ia + 1, count):
                rest = total - degrees[ia] - degrees[ib]
                if rest < 2:
                    continue
                b = monos[ib]
                for ic in range(ib + 1, count):
                    if degrees[ic] != rest or not (quantum[ia] or quantum[ib] or quantum[ic]):
                        continue
                    c = monos[ic]
                    bc, ca, ab = bracket(ib, ic), bracket(ic, ia), bracket(ia, ib)
                    if bc.is_zero and ca.is_zero and ab.is_zero:
                        continue
                    if j := _bracket_sum(((a, bc), (b, ca), (c, ab)), _monomial_bracket):
                        return a, b, c, HybridExpression(system, j)
    return None

"""Exact arithmetic in the indeterminate q.

Polynomials are stored sparsely as {exponent: coefficient} with Python
integers, so every operation is exact.  A product of q-integers (the
building blocks of q-factorials and q-hyperfactorials) is written as an
exponent map {j: e} for prod_j [j]^e, and resolve takes that map, because
product formulas cancel most factors before expansion is worthwhile.
resolve cancels them in the cyclotomic basis, where no division is
left, and multiplies the survivors shortest first, each product as two
half-width integer products, the Kronecker-packed values at q = +-2^s.

All values are immutable after construction; operations return new
objects and are safe to call from worker processes.  QPoly arithmetic,
shift and resolve build their results unchecked (QPoly._trusted).
"""

from __future__ import annotations

import re
from bisect import insort
from functools import lru_cache
from math import isqrt
from typing import Mapping, Sequence


class NonExactDivision(ArithmeticError):
    """A quotient of polynomials is not a polynomial."""


class QPoly:
    """A polynomial in q with integer coefficients and exponents >= 0.

    >>> p = QPoly({0: 1, 1: 1})
    >>> str(p * p)
    '1 + 2*q + q^2'
    >>> QPoly(0) == QPoly({})
    True
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | int = 0):
        if isinstance(terms, int):
            terms = {0: terms}
        clean: dict[int, int] = {}
        for e, c in terms.items():
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError("exponents must be nonnegative integers, got %r" % (e,))
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError("coefficients must be integers, got %r" % (c,))
            if c:
                clean[e] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: Mapping[int, int]) -> "QPoly":
        """QPoly(terms) without the checks, for terms computed in this module."""
        poly = object.__new__(cls)
        poly._terms = {e: c for e, c in terms.items() if c}
        return poly

    @property
    def terms(self) -> dict[int, int]:
        """A copy of the sparse {exponent: coefficient} map."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))  # equal to that int, so hash like it
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return QPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly._trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-other if isinstance(other, QPoly) else QPoly(-other))

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly(other)
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPoly._trusted(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k.  k may be negative only when q^(-k) divides self."""
        if not self._terms:
            return self
        if k < 0 and min(self._terms) + k < 0:
            raise NonExactDivision("shift by q^%d leaves negative exponents" % k)
        return QPoly._trusted({e + k: c for e, c in self._terms.items()})

    def degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return max(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e in sorted(self._terms):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = "q" if e == 1 else "q^%d" % e
            else:
                body = "%d*q" % mag if e == 1 else "%d*q^%d" % (mag, e)
            if not parts:
                parts.append("-" + body if c < 0 else body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "QPoly(%r)" % (self._terms,)


_TERM_RE = re.compile(r"^(?:(\d+)\*)?q(?:\^(\d+))?$|^(\d+)$")


def parse_poly(text: str) -> QPoly:
    """Inverse of str(QPoly): parse the canonical text form.

    >>> parse_poly("1 + q + 2*q^3") == QPoly({0: 1, 1: 1, 3: 2})
    True
    >>> parse_poly("0")
    QPoly({})
    """
    text = text.strip()
    if text == "0":
        return QPoly(0)
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    out: dict[int, int] = {}
    for chunk in re.split(r"\s+([+-])\s+", text):
        if chunk == "+":
            sign = 1
            continue
        if chunk == "-":
            sign = -1
            continue
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError("cannot parse term %r" % chunk)
        if m.group(3) is not None:
            e, c = 0, int(m.group(3))
        else:
            c = int(m.group(1)) if m.group(1) else 1
            e = int(m.group(2)) if m.group(2) else 1
        if e in out:
            raise ValueError("duplicate exponent %d" % e)
        out[e] = sign * c
    return QPoly(out)


def q_int(n: int) -> QPoly:
    """The q-integer [n] = 1 + q + ... + q^(n-1); [0] is the zero polynomial."""
    if n < 0:
        raise ValueError("q_int of negative %d" % n)
    return QPoly({e: 1 for e in range(n)})


@lru_cache(maxsize=1024)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial Phi_d (d > 1), lowest first.

    [d] is the product of Phi_e over the divisors e > 1 of d, so Phi_d is
    [d] divided by the others.  Each has constant term 1 and Phi_d has
    degree below d, so power series division cut after q^(d-1) is exact.
    """
    c = [1] * d
    for e in range(2, d):
        if d % e == 0:
            phi = _cyclotomic(e)
            for i in range(d):
                c[i] -= sum(phi[k] * c[i - k] for k in range(1, min(i, len(phi) - 1) + 1))
    while c[-1] == 0:
        c.pop()
    return tuple(c)


def _offsets(size: int, slots: int) -> int:
    """2^(W-1) in each of `slots` slots of W = 8*size bits."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


def _packed(coeffs: Sequence[int], size: int) -> int:
    """The polynomial with these coefficients (lowest first, each of
    magnitude below 2^(W-1)) at q = 2^W, W = 8*size bits."""
    half = 1 << (8 * size - 1)
    raw = b"".join((c + half).to_bytes(size, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _offsets(size, len(coeffs))


def _digits(value: int, size: int, slots: int) -> list[int]:
    """Inverse of _packed, in linear time: adding 2^(W-1) to every slot
    makes each signed digit a plain byte slice."""
    half = 1 << (8 * size - 1)
    raw = (value + _offsets(size, slots)).to_bytes(slots * size, "little")
    return [int.from_bytes(raw[i * size : (i + 1) * size], "little") - half for i in range(slots)]


def _power(d: int, e: int) -> list[int]:
    """Coefficients, lowest first, of Phi_d^e.  No coefficient of a product
    exceeds the product of its factors' coefficient-magnitude sums, so the
    slot width is that bound's bit length plus a sign bit, in whole bytes."""
    phi = _cyclotomic(d)
    size = (sum(map(abs, phi)) ** e).bit_length() // 8 + 1
    return _digits(pow(_packed(phi, size), e), size, (len(phi) - 1) * e + 1)


def _product(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of a*b, neither all zeros.  By Cauchy-Schwarz no
    coefficient of a*b, a or b exceeds |a|_2 |b|_2; slots of W bits hold
    that bound's bit length plus a sign bit, in whole bytes.  With even and
    odd coefficients packed at 2^W, a*b at q = 2^s plus a*b at q = -2^s,
    s = W/2, is twice its even part at 2^W, the difference 2^(s+1) times its
    odd part: two half-width multiplies, decoded after exact shifts."""
    size = isqrt(sum(c * c for c in a) * sum(c * c for c in b)).bit_length() // 8 + 1
    s, n = 4 * size, len(a) + len(b) - 1
    ae, be = _packed(a[::2], size), _packed(b[::2], size)
    ao, bo = _packed(a[1::2], size) << s, _packed(b[1::2], size) << s
    plus, minus = (ae + ao) * (be + bo), (ae - ao) * (be - bo)
    out = [0] * n
    out[::2] = _digits((plus + minus) >> 1, size, (n + 1) // 2)
    out[1::2] = _digits((plus - minus) >> (s + 1), size, n // 2)
    return out


def resolve(exponents: Mapping[int, int], prefactor: int = 0) -> QPoly:
    """Expand q^prefactor * prod_j [j]^exponents[j] into a single polynomial.

    Exponents may be negative, as in a ratio of q-hyperfactorials; the
    prefactor may not, and every factor index j must be an int >= 1.
    Each [j] is the product of the cyclotomic polynomials Phi_d over the
    divisors d > 1 of j.  The Phi_d are irreducible, so the product is a
    polynomial exactly when every Phi_d exponent is nonnegative; otherwise
    NonExactDivision is raised before anything is multiplied.

    Polynomials are multiplied as integers (Kronecker substitution), each
    product in slots of W bits taken from the coefficients it is about to
    produce.  Each surviving power Phi_d^e is one integer power at q = 2^W
    under the coefficient-sum bound of _power.  Then the two shortest are
    multiplied until one is left, each product two multiplies at q = +-2^(W/2)
    under the Cauchy-Schwarz bound of _product: k factors take k - 1
    products, and no factor means no product, for the empty product 1.

    >>> str(resolve({6: 1, 3: -1, 2: -1}))
    '1 - q + q^2'
    >>> str(resolve({2: 2}, prefactor=1))
    'q + 2*q^2 + q^3'
    """
    if prefactor < 0:
        raise ValueError("prefactor exponent must be nonnegative, got %d" % prefactor)
    power: dict[int, int] = {}
    for j, e in exponents.items():
        if not isinstance(j, int) or j < 1:
            raise ValueError("factor index must be a positive integer, got %r" % (j,))
        for d in range(2, j + 1):
            if j % d == 0:
                power[d] = power.get(d, 0) + e
    factors = sorted((d, e) for d, e in power.items() if e)
    for d, e in factors:
        if e < 0:
            raise NonExactDivision(
                "cyclotomic factor Phi_%d has exponent %d: not a polynomial" % (d, e)
            )
    # (length, tie-breaker, coefficients), shortest first.  No second
    # reference is kept, so each factor is freed once multiplied.
    polys = sorted((len(p), i, p) for i, p in enumerate(_power(d, e) for d, e in factors))
    while len(polys) > 1:
        (_, _, a), (_, i, b) = polys[:2]
        del polys[:2]
        c = _product(a, b)
        insort(polys, (len(c), i, c))
    return QPoly._trusted(dict(enumerate(polys[0][2] if polys else [1], prefactor)))

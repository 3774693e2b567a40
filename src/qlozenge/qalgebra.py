"""Exact arithmetic in the indeterminate q.

A QPoly is its lowest exponent and the tuple of its Python integer
coefficients from there up, no zero at either end (the zero polynomial: 0
and ()), so shift moves only the exponent.  A product of q-integers (the
building blocks of q-factorials and q-hyperfactorials) is written as an
exponent map {j: e} for prod_j [j]^e, and resolve takes that map, because
product formulas cancel most factors before expansion is worthwhile.
resolve cancels them in the cyclotomic basis, where no division is left,
and multiplies the survivors in halves of near-equal length, each product
as two integer products, the Kronecker-packed values at q = +-2^s.  Each
Phi_d, d > 1, has constant term 1 and roots closed under z -> 1/z, so
q^phi(d) Phi_d(1/q) = Phi_d(q): every power and product is a palindrome,
and only its lower half is converted.  Above a size cut the multiplies are
half as wide again: 2s = N, 2N >= bl + 2 for coefficients below 2^bl, and
each coefficient plus 2^bl, in [0, 2^(2N-1)), is its N-bit digit mod 2^N
and, from its mirror slot, itself plus a carry 0 <= t <= 2^(N-1).

All values are immutable after construction; operations return new
objects and are safe to call from worker processes.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from functools import lru_cache
from math import isqrt
from operator import add, neg


class NonExactDivision(ArithmeticError):
    """A quotient of polynomials is not a polynomial."""


class QPoly:
    """A polynomial in q with integer coefficients and exponents >= 0, from
    an {exponent: coefficient} map, an int, or the coefficients of q^low up.

    >>> p = QPoly({0: 1, 1: 1})
    >>> str(p * p)
    '1 + 2*q + q^2'
    >>> QPoly(0) == QPoly({}) == QPoly((0, 0), 3)
    True
    >>> QPoly((0, 1, 0, 2), 3).terms
    {4: 1, 6: 2}
    """

    __slots__ = ("_low", "_coeffs")

    def __init__(self, terms: Mapping[int, int] | Sequence[int] | int = 0, low: int = 0):
        if type(low) is not int or low < 0:
            raise ValueError("the lowest exponent must be a nonnegative integer, got %r" % (low,))
        if isinstance(terms, int):
            terms = (terms,)
        elif isinstance(terms, Mapping):
            if not set(map(type, terms)) <= {int} or min(terms, default=0) < 0:
                bad = next(e for e in terms if type(e) is not int or e < 0)
                raise ValueError("exponents must be nonnegative integers, got %r" % (bad,))
            base = min(terms, default=0)
            low += base
            terms = [terms.get(e, 0) for e in range(base, max(terms, default=-1) + 1)]
        coeffs = tuple(terms)
        if not set(map(type, coeffs)) <= {int}:
            bad = next(c for c in coeffs if type(c) is not int)
            raise ValueError("coefficients must be integers, got %r" % (bad,))
        start, stop = 0, len(coeffs)
        while stop and not coeffs[stop - 1]:
            stop -= 1
        while start < stop and not coeffs[start]:
            start += 1
        self._coeffs = coeffs[start:stop]  # the tuple itself when nothing is cut
        self._low = low + start if stop else 0

    @property
    def terms(self) -> dict[int, int]:
        """The nonzero {exponent: coefficient} map, in exponent order."""
        return {e: c for e, c in enumerate(self._coeffs, self._low) if c}

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._coeffs == ((other,) if other else ()) and not self._low
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._low == other._low and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if not self._low and len(self._coeffs) < 2:
            return hash(sum(self._coeffs))  # the constant, or 0: hash like that int
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly(other)
        if not (self._coeffs and other._coeffs):
            return other if other._coeffs else self
        lo, hi = (self, other) if self._low <= other._low else (other, self)
        start = hi._low - lo._low
        stop = start + len(hi._coeffs)
        out = list(lo._coeffs) + [0] * (stop - len(lo._coeffs))
        out[start:stop] = map(add, out[start:stop], hi._coeffs)
        return QPoly(out, lo._low)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(map(neg, self._coeffs)), self._low)

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-other if isinstance(other, QPoly) else QPoly(-other))

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            other = QPoly(other)
        out = [0] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, c in enumerate(self._coeffs):
            for j, d in enumerate(other._coeffs, i):
                out[j] += c * d
        return QPoly(out, self._low + other._low)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k.  k may be negative only when q^(-k) divides self."""
        if not self._coeffs or not k:
            return self
        if self._low + k < 0:
            raise NonExactDivision("shift by q^%d leaves negative exponents" % k)
        poly = object.__new__(QPoly)  # the same coefficients, so nothing to check
        poly._low, poly._coeffs = self._low + k, self._coeffs
        return poly

    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return self._low + len(self._coeffs) - 1

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        low, split = self._low, max(2 - self._low, 0)  # q^0 and q^1 come first
        for e, c in enumerate(self._coeffs[:split], low):
            if c:
                body = "%d" % abs(c) if e == 0 else "q" if c in (1, -1) else "%d*q" % abs(c)
                parts.append((" - " if c < 0 else " + ") + body)
        for e, c in enumerate(self._coeffs[split:], low + split):
            if c > 1:
                parts.append(" + %d*q^%d" % (c, e))
            elif c == 1:
                parts.append(" + q^%d" % e)
            elif c == -1:
                parts.append(" - q^%d" % e)
            elif c:
                parts.append(" - %d*q^%d" % (-c, e))
        first = parts[0]
        parts[0] = first[3:] if first[1] == "+" else "-" + first[3:]
        return "".join(parts)

    def __repr__(self) -> str:
        return "QPoly(%r)" % (self.terms,)


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
    return QPoly((1,) * n)


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


def _chunks(coeffs: Sequence[int], size: int) -> list[bytes]:
    """A palindrome as biased size-byte chunks: its lower half, mirrored."""
    half, n = 1 << (8 * size - 1), len(coeffs)
    low = [(c + half).to_bytes(size, "little") for c in coeffs[: (n + 1) // 2]]
    return low + low[: n // 2][::-1]


def _packed(chunks: list[bytes], size: int) -> int:
    """The polynomial with these _chunks, lowest first, at q = 2^W."""
    return int.from_bytes(b"".join(chunks), "little") - _offsets(size, len(chunks))


def _low_digits(value: int, size: int, slots: int, count: int) -> list[int]:
    """The first `count` of the `slots` signed digits of a _packed value:
    adding 2^(W-1) to every slot makes each a plain byte slice."""
    raw = (value + _offsets(size, slots)).to_bytes(slots * size, "little")
    half, from_bytes = 1 << (8 * size - 1), int.from_bytes
    return [from_bytes(raw[i : i + size], "little") - half for i in range(0, count * size, size)]


def _norm2(a: list[int]) -> int:
    """|a|_2^2 of a palindrome: twice the squares below the middle, plus the middle's."""
    return 2 * sum(c * c for c in a[: len(a) // 2]) + len(a) % 2 * a[len(a) // 2] ** 2


def _power(d: int, e: int) -> list[int]:
    """Coefficients, lowest first, of the palindrome Phi_d^e, in slots of the
    bit length of (sum |Phi_d|)^e, which bounds each of them, plus a sign bit."""
    phi = _cyclotomic(d)
    size, n = (sum(map(abs, phi)) ** e).bit_length() // 8 + 1, (len(phi) - 1) * e + 1
    low = _low_digits(pow(_packed(_chunks(phi, size), size), e), size, n, (n + 1) // 2)
    return low + low[: n // 2][::-1]


def _two_ended(value: int, mirror: int, size: int, slots: int, count: int, bl: int) -> list[int]:
    """The first `count` of the `slots` coefficients c_k of value = sum c_k 2^(kN),
    N = 8*size, whose reverse is mirror's.  As |c_k| < 2^bl and bl + 2 <= 2N,
    the bias puts each f_k = c_k + 2^bl in [0, 2^(2N-1)).  Digit k of value,
    less the spill of f_0..f_(k-1), is f_k mod 2^N.  The two digits of mirror
    at slot slots-1-k, less f_(k-1) above, are w = f_k + t, where the carry of
    the slots below is t <= (2^(2N-1) - 1) / (2^N - 1), so t <= 2^(N-1) and
    f_k = w - ((w - f_k) mod 2^N)."""
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * slots, "little") << bl
    low = (value + ones).to_bytes((slots + 1) * size, "little")
    high = low if mirror is value else (mirror + ones).to_bytes((slots + 1) * size, "little")
    bits, bias, top, ends = 8 * size, 1 << bl, (slots - 1) * size, range(0, count * size, size)
    mask, wide, from_bytes = (1 << bits) - 1, (1 << 2 * bits) - 1, int.from_bytes
    digits = [from_bytes(low[i : i + size], "little") for i in ends]
    windows = [from_bytes(high[top - i : top - i + 2 * size], "little") for i in ends]
    out, spill, c = [], 0, 0
    for x, w in zip(digits, windows):
        w = (w - (c << bits)) & wide
        c = w - ((w - x + spill) & mask)
        spill = (spill + c) >> bits
        out.append(c - bias)
    return out


def _even_odd(a: list[int], size: int, s: int) -> tuple[int, int]:
    """Even and odd parts of palindrome a at q = 2^s, each a[r::4] packed at 2^(4s)."""
    c = _chunks(a, size)
    return (
        _packed(c[::4], size) + (_packed(c[2::4], size) << 2 * s),
        (_packed(c[1::4], size) << s) + (_packed(c[3::4], size) << 3 * s),
    )


# Above this len(a) * len(b), _product evaluates at +-2^(N/2) and reads both
# ends; up to it, at +-2^(W/2), whose one-ended decode costs less per slot.
# Set by timing resolve on the closed bench draws: 3e4 to 2e5 read alike,
# and at 0 (four points everywhere) the closed bench ran 14% slower.
_FOUR_POINT_CUT = 10**5


def _product(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of a*b, for palindromes a and b, neither all zeros.  By
    Cauchy-Schwarz no coefficient of a, b or the palindrome a*b exceeds
    |a|_2 |b|_2, each norm taken from a lower half by _norm2: each is below
    2^bl.  a*b at q = 2^s plus a*b at q = -2^s is twice its even part at
    2^(2s), their difference 2^(s+1) times its odd part.  Up to the cut,
    2s = W, bl plus a sign bit in whole bytes, and each factor's even and odd
    coefficients are packed at 2^W.  Above it, 2s = N, 2N >= bl + 2 in whole
    bytes, and the residue classes mod 4 at 2^(2N) (Harvey's KS4): multiplies
    half as wide, whose N-bit digits _two_ended reads from both ends.  As
    c_(2k) = c_(n-1-2k), n = len(a*b), for n odd each part is its own mirror
    and for n even the even part is the odd part reversed."""
    bl = isqrt(_norm2(a) * _norm2(b)).bit_length()
    four = len(a) * len(b) > _FOUR_POINT_CUT
    size = (bl + 17) // 16 if four else bl // 8 + 1
    s, n = 4 * size, len(a) + len(b) - 1
    if four:
        ae, ao = _even_odd(a, 2 * size, s)
        be, bo = _even_odd(b, 2 * size, s)
    else:
        ca, cb = _chunks(a, size), _chunks(b, size)
        ae, be = _packed(ca[::2], size), _packed(cb[::2], size)
        ao, bo = _packed(ca[1::2], size) << s, _packed(cb[1::2], size) << s
    plus, minus = (ae + ao) * (be + bo), (ae - ao) * (be - bo)
    even, odd = (plus + minus) >> 1, (plus - minus) >> (s + 1)
    low = [0] * ((n + 1) // 2)
    if four:
        mirrors = (even, odd) if n % 2 else (odd, even)
        low[::2] = _two_ended(even, mirrors[0], size, (n + 1) // 2, (n + 3) // 4, bl)
        low[1::2] = _two_ended(odd, mirrors[1], size, n // 2, (n + 1) // 4, bl)
    else:
        low[::2] = _low_digits(even, size, (n + 1) // 2, (n + 3) // 4)
        low[1::2] = _low_digits(odd, size, n // 2, (n + 1) // 4)
    return low + low[: n // 2][::-1]


def _balanced_product(polys: list[list[int]]) -> list[int]:
    """The product of one or more palindromes, longest first, taken out of
    polys: each joins the half shorter so far, and each half is multiplied
    out the same way, so no factor is held past the product it enters."""
    if len(polys) == 1:
        return polys.pop()
    halves: tuple[list[list[int]], list[list[int]]] = ([], [])
    lengths = [0, 0]
    for p in polys:
        side = lengths[1] < lengths[0]
        halves[side].append(p)
        lengths[side] += len(p)
    del p, polys[:]
    return _product(_balanced_product(halves[0]), _balanced_product(halves[1]))


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
    under the coefficient-sum bound of _power.  Split in two halves of
    near-equal total length, each multiplied out the same way, they meet in
    _product: k factors take k - 1 products, and no factor means no product,
    for the empty product 1.  Every power and product is a palindrome, as
    _power and _product assume.  Each coefficient c of a product is below
    2^bl by Cauchy-Schwarz.  Up to _FOUR_POINT_CUT, one W-bit digit holds c,
    W >= bl + 1.  Above it, N-bit digits, 2N >= bl + 2: c + 2^bl, in
    [0, 2^(2N-1)), is its digit mod 2^N, and its partner in the palindrome,
    read from the mirror slot, gives it plus a carry 0 <= t <= 2^(N-1).

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
    polys = sorted((_power(d, e) for d, e in factors), key=len, reverse=True)
    return QPoly(_balanced_product(polys) if polys else (1,), prefactor)

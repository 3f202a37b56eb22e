"""Exact Laurent polynomials in q with arbitrary-precision integer coefficients.

A Laurent polynomial sum c_e q^e is a plain dict {e: c} from exponent (int)
to coefficient (Python int, so arbitrary precision).  Zero coefficients are
never stored; the zero polynomial is the empty dict.  It is the one
coefficient format: qcanon's TensorVec and SVec store one per term, and
``LaurentQ``, the scalar, wraps one; its operations build fresh dicts
without mutating their arguments, and ``LaurentQ._raw(d)`` is a view of d,
no copy.  ``_addmul`` is the one multiply-accumulate loop on raw dicts:
LaurentQ's sums, differences and products, the long division of
``_ldivexact``, the closed forms at the end of the module and the raw sums
of qcanon and blockan go through it.  The one exception is the reduction
pass of ``qcanon._lusztig``, which sums flat (rank, exponent, coefficient)
triples by hand; its docstring says why.
"""

from __future__ import annotations

from functools import lru_cache


def _addmul(out: dict, a: dict, b: dict) -> dict:
    """out += a * b on coefficient dicts {exponent: int}, in place, dropping
    coefficients that cancel to zero; returns out.  a and b are only read,
    so they may be stored dicts, of a LaurentQ or of a vector's term, but
    neither may be out itself."""
    if len(b) < len(a):
        a, b = b, a
    b = b.items()
    for ea, ca in a.items():
        for eb, cb in b:
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _ldivexact(a: dict, b: dict) -> dict:
    """Exact division a / b by long division from the top exponent down.

    Raises ValueError if b is zero or the division is inexact (which signals
    an internal bug in callers).  If a = q * b exactly, the lowest exponent of
    q is min(a) - min(b), so a quotient term below that floor proves the
    division inexact.  Each step cancels the top term of the remainder, so the
    quotient exponents strictly decrease and the loop ends after at most
    max(a) - max(b) - floor + 1 steps, whether or not the leading coefficient
    of b divides every remainder coefficient (as it does for monic b).
    """
    if not b:
        raise ValueError("division by zero Laurent polynomial")
    if not a:
        return {}
    eb = max(b)
    cb = b[eb]
    floor = min(a) - min(b)
    rem = dict(a)
    quo = {}
    while rem:
        ea = max(rem)
        ca = rem[ea]
        k = ea - eb
        if k < floor or ca % cb:
            raise ValueError("inexact Laurent division")
        c = ca // cb
        quo[k] = c
        _addmul(rem, b, {k: -c})
    return quo


class LaurentQ:
    """A Laurent polynomial sum c_e q^e, stored sparsely as {e: c}.

    Values are immutable by convention: no method mutates self, and callers
    must not modify the coefficient dict.  Sums, differences and products
    are built by _addmul into a fresh dict of their own.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            self.coeffs = {}
        elif isinstance(coeffs, dict):
            self.coeffs = {int(e): int(c) for e, c in coeffs.items() if c}
        elif isinstance(coeffs, int):
            self.coeffs = {0: coeffs} if coeffs else {}
        else:
            raise TypeError(f"cannot build LaurentQ from {type(coeffs)!r}")

    @classmethod
    def _raw(cls, d: dict) -> "LaurentQ":
        out = object.__new__(cls)
        out.coeffs = d
        return out

    def __bool__(self):
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ({0: other} if other else {})
        if isinstance(other, LaurentQ):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentQ(other)
        return LaurentQ._raw(_addmul(dict(self.coeffs), other.coeffs, {0: 1}))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentQ(other)
        return LaurentQ._raw(_addmul(dict(self.coeffs), other.coeffs, {0: -1}))

    def __rsub__(self, other):
        return LaurentQ(other) - self

    def __neg__(self):
        return LaurentQ._raw({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentQ._raw({})
            return LaurentQ._raw({e: c * other for e, c in self.coeffs.items()})
        return LaurentQ._raw(_addmul({}, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentQ":
        """Multiply by q^k."""
        if k == 0:
            # a copy shares the key objects; e + 0 makes a new int for every
            # exponent outside CPython's small-int cache
            return LaurentQ._raw(dict(self.coeffs))
        return LaurentQ._raw({e + k: c for e, c in self.coeffs.items()})

    def bar(self) -> "LaurentQ":
        """The bar involution q -> q^{-1}."""
        return LaurentQ._raw({-e: c for e, c in self.coeffs.items()})

    def divexact(self, other: "LaurentQ") -> "LaurentQ":
        """Exact division; inexactness raises ValueError (an internal bug)."""
        return LaurentQ._raw(_ldivexact(self.coeffs, other.coeffs))

    def eval1(self) -> int:
        """Evaluate at q = 1 (sum of coefficients)."""
        return sum(self.coeffs.values())

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def is_poly_in_q(self) -> bool:
        """True iff all exponents are >= 0."""
        return all(e >= 0 for e in self.coeffs)

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def positive_part(self) -> "LaurentQ":
        """The part with strictly positive exponents."""
        return LaurentQ._raw({e: c for e, c in self.coeffs.items() if e > 0})

    def to_json(self) -> dict:
        return {"coeffs": {str(e): str(c) for e, c in sorted(self.coeffs.items())}}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*q" if c != 1 else "q")
            else:
                bits.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return " + ".join(bits).replace("+ -", "- ")


ZERO = LaurentQ._raw({})
ONE = LaurentQ._raw({0: 1})


def qint(n: int) -> LaurentQ:
    """The symmetric quantum integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n < 0:
        raise ValueError("qint requires n >= 0")
    return LaurentQ._raw({n - 1 - 2 * k: 1 for k in range(n)})


@lru_cache(maxsize=None)
def qfact(n: int) -> LaurentQ:
    """The quantum factorial [n]!."""
    if n < 0:
        raise ValueError("qfact requires n >= 0")
    if n == 0:
        return ONE
    return qfact(n - 1) * qint(n)


@lru_cache(maxsize=None)
def qbinom(n: int, r: int) -> LaurentQ:
    """The quantum binomial coefficient, computed by exact division."""
    if n < 0 or r < 0 or r > n:
        raise ValueError(f"qbinom({n},{r}) out of range")
    return qfact(n).divexact(qfact(r) * qfact(n - r))


@lru_cache(maxsize=None)
def _cyclotomic_q2(d: int) -> dict:
    """Phi_d(q^2) as a coefficient dict: q^{2d} - 1 divided by Phi_e(q^2)
    for every proper divisor e of d (built once per d)."""
    c = {2 * d: 1, 0: -1}
    for e in range(1, d):
        if d % e == 0:
            c = _ldivexact(c, _cyclotomic_q2(e))
    return c


@lru_cache(maxsize=None)
def _factorial_quotient(net: tuple) -> tuple:
    """(shift, P) for prod_k [k]!^net[k]; see qfact_quotient."""
    shift = 0
    poly = {0: 1}
    for d in range(2, len(net)):
        e = sum(net[k] * (k // d) for k in range(d, len(net)))
        if e < 0:
            raise ValueError("inexact Laurent division")
        shift -= net[d] * (d * (d - 1) // 2)
        for _ in range(e):
            poly = _addmul({}, poly, _cyclotomic_q2(d))
    return shift, LaurentQ._raw(poly)


def qfact_quotient(num, den) -> tuple:
    """The quotient prod_{k in num} [k]! / prod_{k in den} [k]! as a pair
    (shift, P) with quotient q^shift * P, without dividing polynomials: only
    each Phi_d(q^2) is built once, by exact division.

    With symmetric q-integers [k] = q^{1-k} (q^{2k} - 1) / (q^2 - 1), and
    q^{2k} - 1 = prod_{d | k} Phi_d(q^2), so

        [k]! = q^{-k(k-1)/2} * prod_{d=2..k} Phi_d(q^2)^{floor(k/d)}.

    The quotient is therefore q^shift * prod_d Phi_d(q^2)^{e_d}, where e_d is
    the sum of floor(k/d) over num minus that over den.  The cyclotomic
    polynomials are irreducible and pairwise coprime, so the quotient is a
    Laurent polynomial iff every e_d >= 0; a negative one raises
    ValueError("inexact Laurent division"), as divexact does.  Results are
    memoized on the reduced exponent vector (the net power of each [k]!,
    k >= 2); P is shared between calls and must not be modified.
    """
    if min(num, default=0) < 0 or min(den, default=0) < 0:
        raise ValueError("qfact requires n >= 0")
    net = [0] * (max(1, max(num, default=0), max(den, default=0)) + 1)
    for k in num:
        net[k] += 1
    for k in den:
        net[k] -= 1
    while len(net) > 2 and not net[-1]:
        net.pop()
    net[0] = net[1] = 0  # [0]! = [1]! = 1
    return _factorial_quotient(tuple(net))

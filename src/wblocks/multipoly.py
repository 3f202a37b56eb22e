"""Exact multivariate polynomials in x_1..x_m, y_1..y_n over Z.

Terms are stored canonically as {exponent tuple: int coefficient},
zero-free; a coefficient or scalar that is not an int raises TypeError.
Exponent tuples have length m + n: positions 0..m-1 are the x's, positions
m..m+n-1 are the y's.
"""

from __future__ import annotations

from operator import add


def _acc(out: dict, terms: dict, shift=None, scale=1):
    """out += scale * x^shift * terms, in place, zeros dropped.  The one
    MultiPoly kernel: MultiPoly.__init__, __add__ and __mul__, the block
    recurrences of center.hc_series_coeff and center.symmetrize call it, and
    characters.decompose_char, unshifted, on its CompChar residue."""
    for k, c in terms.items():
        if shift is not None:
            k = tuple(map(add, shift, k))
        s = out.get(k, 0) + scale * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def _require_int(c):
    if type(c) is not int:
        raise TypeError(f"MultiPoly coefficients are ints, not {c!r}")


class MultiPoly:
    __slots__ = ("m", "n", "terms")

    def __init__(self, m: int, n: int, terms=None):
        self.m = m
        self.n = n
        self.terms: dict = {}
        if terms:
            for exps, c in terms.items():
                _require_int(c)
                if len(exps) != m + n:
                    raise ValueError("exponent tuple has wrong length")
            _acc(self.terms, terms)

    @classmethod
    def _raw(cls, m, n, terms):
        out = object.__new__(cls)
        out.m, out.n, out.terms = m, n, terms
        return out

    @classmethod
    def constant(cls, m: int, n: int, c) -> "MultiPoly":
        _require_int(c)
        return cls._raw(m, n, {tuple([0] * (m + n)): c} if c else {})

    @classmethod
    def x(cls, m: int, n: int, i: int) -> "MultiPoly":
        """The variable x_i, 1 <= i <= m."""
        if not 1 <= i <= m:
            raise ValueError(f"x index {i} out of range")
        e = [0] * (m + n)
        e[i - 1] = 1
        return cls._raw(m, n, {tuple(e): 1})

    @classmethod
    def y(cls, m: int, n: int, j: int) -> "MultiPoly":
        """The variable y_j, 1 <= j <= n."""
        if not 1 <= j <= n:
            raise ValueError(f"y index {j} out of range")
        e = [0] * (m + n)
        e[m + j - 1] = 1
        return cls._raw(m, n, {tuple(e): 1})

    def _check(self, other):
        if self.m != other.m or self.n != other.n:
            raise ValueError("variable sets differ")

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (self.m, self.n, self.terms) == (other.m, other.n, other.terms)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.m, self.n, other)
        self._check(other)
        out = dict(self.terms)
        _acc(out, other.terms)
        return MultiPoly._raw(self.m, self.n, out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.m, self.n, other)
        self._check(other)
        out: dict = {}
        for ka, ca in self.terms.items():
            _acc(out, other.terms, ka, ca)
        return MultiPoly._raw(self.m, self.n, out)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "m": self.m,
            "n": self.n,
            # written as a fraction, the layout that pinned digests read
            "terms": [{"exponents": list(k), "coeff": f"{c}/1"} for k, c in items],
        }

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [f"x{i+1}" for i in range(self.m)] + [f"y{j+1}" for j in range(self.n)]
        bits = []
        for k, c in sorted(self.terms.items()):
            mono = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}")
                for i, e in enumerate(k)
                if e
            )
            bits.append(f"{c}" if not mono else (mono if c == 1 else f"{c}*{mono}"))
        return " + ".join(bits)

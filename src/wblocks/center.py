"""Harish-Chandra shadow of the center: elementary supersymmetric
polynomials, the invariant subalgebras cut out by the derivative congruence,
and the generating-series route to the same generators.
"""

from __future__ import annotations

import itertools
from math import factorial

from .multipoly import MultiPoly, _acc


def _monomial_sum(m: int, n: int, combos) -> MultiPoly:
    """The sum of the monomials prod_{k in combo} v_k, each with coefficient
    1, over combos of distinct multisets of exponent-tuple slots k.  Distinct
    multisets are distinct monomials, so the terms need no merging or
    validation."""
    terms = {}
    for combo in combos:
        e = [0] * (m + n)
        for k in combo:
            e[k] += 1
        terms[tuple(e)] = 1
    return MultiPoly._raw(m, n, terms)


def e_sym(m: int, n: int, r: int) -> MultiPoly:
    """Elementary symmetric polynomial e_r in the x variables."""
    return _monomial_sum(m, n, itertools.combinations(range(m), r))


def h_sym(m: int, n: int, r: int) -> MultiPoly:
    """Complete homogeneous symmetric polynomial h_r in the y variables."""
    return _monomial_sum(m, n, itertools.combinations_with_replacement(range(m, m + n), r))


def _check_shape(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be >= 0, got m={m}, n={n}")


def e_super(r: int, m: int, n: int) -> MultiPoly:
    """Elementary supersymmetric polynomial: the alternating convolution of
    elementary symmetric (x) with complete symmetric (y) pieces of total
    degree r.  The two pieces of a product have disjoint variables, so each
    pair of their monomials is one distinct monomial of the sum, with
    coefficient (-1)^{r-s}; no polynomial product is formed.  The pieces are
    built on their own blocks, e_sym(m, 0, s) on the x's and h_sym(0, n,
    r - s) on the y's, and each monomial of the sum is the concatenation of
    an x block and a y block, written once."""
    if r < 1:
        raise ValueError("e_super requires r >= 1")
    _check_shape(m, n)
    out: dict = {}
    for s in range(min(r, m) + 1):
        sign = -1 if (r - s) % 2 else 1
        ys = h_sym(0, n, r - s).terms
        for x in e_sym(m, 0, s).terms:
            for y in ys:
                out[x + y] = sign
    return MultiPoly._raw(m, n, out)


def _orderings(block: tuple) -> int:
    """The number of distinct orderings of a sorted exponent block."""
    out = factorial(len(block))
    for e in set(block):
        out //= factorial(block.count(e))
    return out


def is_symmetric(f: MultiPoly) -> bool:
    """S_m x S_n symmetry, in one pass over the terms: group them by their
    sorted x-block and sorted y-block.  f is symmetric iff each group has one
    coefficient and is its whole orbit, whose size is the product of the
    two blocks' numbers of orderings (the terms of a group are distinct
    monomials of that orbit)."""
    m = f.m
    groups: dict = {}
    for k, c in f.terms.items():
        orbit = (tuple(sorted(k[:m])), tuple(sorted(k[m:])))
        group = groups.get(orbit)
        if group is None:
            groups[orbit] = [c, 1]
        elif group[0] != c:
            return False
        else:
            group[1] += 1
    return all(
        size == _orderings(x) * _orderings(y) for (x, y), (_, size) in groups.items()
    )


def _congruence_holds(f: MultiPoly, i: int, j: int) -> bool:
    """Whether df/dx_i + df/dy_j vanishes mod (x_i - y_j).

    The quotient ring is a polynomial ring: substitute x_i <- y_j.  A term
    c x_i^a y_j^b rest then becomes (a + b) c y_j^{a+b-1} rest, so the
    congruence holds iff, for every s >= 1 and every rest, the coefficients
    of the monomials x_i^a y_j^{s-a} rest sum to 0.  Each sum is keyed by
    the exponent tuple with slot x_i set to s and slot y_j set to 0, which
    determines (rest, s) and is determined by it.

    On a symmetric f the pair (1, 1) decides every pair: the variable swap
    (x_1 x_i)(y_1 y_j) fixes f and carries d/dx_1 + d/dy_1 to d/dx_i +
    d/dy_j and the ideal (x_1 - y_1) to (x_i - y_j), so the congruence holds
    at (i, j) iff it holds at (1, 1)."""
    xi, yj = i - 1, f.m + j - 1
    sums: dict = {}
    for k, c in f.terms.items():
        s = k[xi] + k[yj]
        if s:
            key = list(k)
            key[xi] = s
            key[yj] = 0
            key = tuple(key)
            sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def in_I(f: MultiPoly, m: int, n: int) -> bool:
    """Membership in the image of the center: S_m x S_n symmetry plus the
    derivative congruence for every pair (i, j).  Once f is symmetric, the
    pair (1, 1) alone decides the congruence for every pair (Stembridge,
    "A characterization of supersymmetric polynomials", 1985; the swap
    argument is in _congruence_holds), and with m = 0 or n = 0 there is no
    pair to check."""
    _check_shape(m, n)
    if (f.m, f.n) != (m, n):
        raise ValueError("variable sets differ")
    if not is_symmetric(f):
        return False
    return m == 0 or n == 0 or _congruence_holds(f, 1, 1)


def in_J(f: MultiPoly, m: int, n: int, s_minus: int = 0) -> bool:
    """Membership in the larger subalgebra: the congruence only for the
    diagonal pairs (i, i + s_minus), with no symmetry demand."""
    _check_shape(m, n)
    if (f.m, f.n) != (m, n):
        raise ValueError("variable sets differ")
    for i in range(1, m + 1):
        j = i + s_minus
        if not 1 <= j <= n:
            raise ValueError("diagonal pair leaves the y range")
        if not _congruence_holds(f, i, j):
            return False
    return True


def hc_series_coeff(r: int, m: int, n: int) -> MultiPoly:
    """Coefficient of u^{-r} in prod_k (1 + u^{-1} x_k) / prod_k
    (1 + u^{-1} y_k), computed by truncated series expansion in u^{-1}.

    The numerator involves only the x's and the denominator only the y's,
    so each is expanded on its own block: xs[d] and ys[d] hold the u^{-d}
    coefficients, d <= r, as term dicts over the m x slots and the n y
    slots, updated in place.  Multiplying by (1 + u^{-1} x_k) runs
    top-down, xs[d] += x_k xs[d-1]; dividing by (1 + u^{-1} y_k) runs
    bottom-up, ys[d] -= y_k ys[d-1], since the quotient S' of S satisfies
    S'[d] = S[d] - y_k S'[d-1].  The u^{-r} coefficient of the product is
    sum_s xs[s] ys[r-s]; its monomials are concatenations of an x block and a
    y block, each met once.

    This is the generating-series route to e_super; the two are compared as
    an independent cross-check.  Splitting the series by block is a
    property of the generating function, not of e_super: the monomials and
    coefficients still come only from the variables' recurrences, and no
    piece of e_super (e_sym, h_sym, _monomial_sum) is entered, so a fault
    in one of those moves only one side of the comparison.
    """
    if r < 1:
        raise ValueError("hc_series_coeff requires r >= 1")
    _check_shape(m, n)
    xs = [{(0,) * m: 1}] + [{} for _ in range(r)]
    for k in range(1, m + 1):
        (xk,) = MultiPoly.x(m, 0, k).terms
        for d in range(r, 0, -1):
            _acc(xs[d], xs[d - 1], xk)
    ys = [{(0,) * n: 1}] + [{} for _ in range(r)]
    for k in range(1, n + 1):
        (yk,) = MultiPoly.y(0, n, k).terms
        for d in range(1, r + 1):
            _acc(ys[d], ys[d - 1], yk, -1)
    out: dict = {}
    for s in range(min(r, m) + 1):
        y_terms = ys[r - s].items()
        for x, a in xs[s].items():
            for y, b in y_terms:
                out[x + y] = a * b
    return MultiPoly._raw(m, n, out)


def symmetrize(f: MultiPoly) -> MultiPoly:
    """The sum of f over the S_m x S_n permutations of its variables: m! n!
    times its average, and still over Z (used to generate random symmetric
    test polynomials)."""
    m, n = f.m, f.n
    out: dict = {}
    for pm in itertools.permutations(range(m)):
        for pn in itertools.permutations(range(m, m + n)):
            perm = pm + pn
            _acc(out, {tuple(k[p] for p in perm): c for k, c in f.terms.items()})
    return MultiPoly._raw(m, n, out)

"""Harish-Chandra shadow of the center: elementary supersymmetric
polynomials, the invariant subalgebras cut out by the derivative congruence,
and the generating-series route to the same generators.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .multipoly import MultiPoly


def _monomial_sum(m: int, n: int, combos) -> MultiPoly:
    """The sum of the monomials prod_{k in combo} v_k, each with coefficient
    1, over combos of distinct multisets of exponent-tuple slots k."""
    terms = {}
    for combo in combos:
        e = [0] * (m + n)
        for k in combo:
            e[k] += 1
        terms[tuple(e)] = 1
    return MultiPoly(m, n, terms)


def e_sym(m: int, n: int, r: int) -> MultiPoly:
    """Elementary symmetric polynomial e_r in the x variables."""
    return _monomial_sum(m, n, itertools.combinations(range(m), r))


def h_sym(m: int, n: int, r: int) -> MultiPoly:
    """Complete homogeneous symmetric polynomial h_r in the y variables."""
    return _monomial_sum(m, n, itertools.combinations_with_replacement(range(m, m + n), r))


def e_super(r: int, m: int, n: int) -> MultiPoly:
    """Elementary supersymmetric polynomial: the alternating convolution of
    elementary symmetric (x) with complete symmetric (y) pieces of total
    degree r."""
    if r < 1:
        raise ValueError("e_super requires r >= 1")
    out = MultiPoly(m, n)
    for s in range(r + 1):
        t = r - s
        if s > m:
            continue
        term = e_sym(m, n, s) * h_sym(m, n, t)
        if t % 2:
            term = -term
        out = out + term
    return out


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
    of the monomials x_i^a y_j^{s-a} rest sum to 0."""
    xi, yj = i - 1, f.m + j - 1
    sums: dict = {}
    for k, c in f.terms.items():
        s = k[xi] + k[yj]
        if s:
            key = k[:xi] + (s,) + k[xi + 1:yj] + k[yj + 1:]
            sums[key] = sums.get(key, 0) + c
    return not any(sums.values())


def in_I(f: MultiPoly, m: int, n: int) -> bool:
    """Membership in the image of the center: S_m x S_n symmetry plus the
    derivative congruence for every pair (i, j)."""
    if (f.m, f.n) != (m, n):
        raise ValueError("variable sets differ")
    if not is_symmetric(f):
        return False
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if not _congruence_holds(f, i, j):
                return False
    return True


def in_J(f: MultiPoly, m: int, n: int, s_minus: int = 0) -> bool:
    """Membership in the larger subalgebra: the congruence only for the
    diagonal pairs (i, i + s_minus), with no symmetry demand."""
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

    This is the generating-series route to e_super; the two are compared as
    an independent cross-check.
    """
    if r < 1:
        raise ValueError("hc_series_coeff requires r >= 1")
    # series[d] = coefficient of u^{-d}, truncated at degree r
    series = [MultiPoly.constant(m, n, 1)] + [MultiPoly(m, n) for _ in range(r)]
    for k in range(1, m + 1):
        xk = MultiPoly.x(m, n, k)
        for d in range(r, 0, -1):
            series[d] = series[d] + series[d - 1] * xk
    for k in range(1, n + 1):
        # 1 / (1 + u^{-1} y_k) = sum_t (-1)^t y_k^t u^{-t}
        yk = MultiPoly.y(m, n, k)
        geo = [MultiPoly.constant(m, n, 1)]
        for t in range(1, r + 1):
            geo.append(-(geo[-1] * yk))
        new = [MultiPoly(m, n) for _ in range(r + 1)]
        for d1 in range(r + 1):
            if series[d1].is_zero():
                continue
            for d2 in range(r + 1 - d1):
                new[d1 + d2] = new[d1 + d2] + series[d1] * geo[d2]
        series = new
    return series[r]


def symmetrize(f: MultiPoly) -> MultiPoly:
    """Average of f over S_m x S_n (used to generate random symmetric
    test polynomials)."""
    m, n = f.m, f.n
    out = MultiPoly(m, n)
    count = 0
    for pm in itertools.permutations(range(m)):
        for pn in itertools.permutations(range(n)):
            perm = list(pm) + [m + a for a in pn]
            out = out + f.permute_vars(perm)
            count += 1
    return out * Fraction(1, count)

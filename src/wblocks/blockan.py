"""Numerical block invariants: Verma multiplicities, (graded) Cartan entries,
the h lattice count, endomorphism dimensions, and recovery of block
invariants from abstract Cartan data.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

from .combinat import BlockKey, Composition
from .laurent import ZERO, LaurentQ, qfact_quotient

# ---------------------------------------------------------------------------
# Verma multiplicities


def theta_between(lam: Composition, kap: Composition):
    """The unique theta with kap - lam = sum theta_i alpha_i, as a dict, or
    None when the difference is not a root-lattice element with finite
    support (never happens for equal totals)."""
    if lam.total != kap.total:
        return None
    lo = min(lam.support_bounds()[0], kap.support_bounds()[0])
    hi = max(lam.support_bounds()[1], kap.support_bounds()[1])
    theta = {}
    run = 0
    for i in range(lo, hi + 1):
        run += kap[i] - lam[i]
        if run:
            theta[i] = run
    return theta


def verma_mult(xi: BlockKey, lam: Composition, kap: Composition) -> int:
    """Multiplicity of the simple kap in the Verma lam: the product of
    binomial(lam_{i+1}, theta_i) when kap = lam + sum theta_i alpha_i with
    0 <= theta_i <= lam_{i+1}, else 0."""
    if lam.total != xi.t or kap.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    theta = theta_between(lam, kap)
    if theta is None:
        return 0
    out = 1
    for i, th in theta.items():
        if not 0 <= th <= lam[i + 1]:
            return 0
        out *= comb(lam[i + 1], th)
    return out


# ---------------------------------------------------------------------------
# Cartan entries: closed formula, BGG oracle, graded refinement


def rho_between(lam: Composition, kap: Composition):
    """The rho with kap = lam + sum (lam_{i+1} - rho_{i+1}) alpha_i, as a
    dict over the padded support, or None if some part is negative or the
    recursive inequalities fail."""
    theta = theta_between(lam, kap)
    if theta is None:
        return None
    lo = min(lam.support_bounds()[0], kap.support_bounds()[0]) - 1
    hi = max(lam.support_bounds()[1], kap.support_bounds()[1]) + 1
    rho = {}
    for i in range(lo, hi + 1):
        r = lam[i] - theta.get(i - 1, 0)
        if r < 0:
            return None
        if r:
            rho[i] = r
    # recursive inequalities 0 <= rho_{i+1} <= lam_{i+1} + min(lam_i, rho_i)
    for i in range(lo - 1, hi + 1):
        if rho.get(i + 1, 0) > lam[i + 1] + min(lam[i], rho.get(i, 0)):
            return None
    return rho


def _active_range(lam: Composition, rho: dict, gamma: Composition):
    los = []
    his = []
    for c in (lam, gamma):
        lo, hi = c.support_bounds()
        if hi >= lo:
            los.append(lo)
            his.append(hi)
    if rho:
        los.append(min(rho))
        his.append(max(rho))
    if not los:
        return -1, 1
    return min(los) - 1, max(his) + 1


def _tau_choices(lam: Composition, rho: dict, lo: int, hi: int):
    """Ranges max(lam_{i+1}, rho_{i+1}) <= tau_{i+1} <= lam_{i+1} +
    min(lam_i, rho_i) per position; empty product when any range is empty."""
    spans = []
    for i in range(lo, hi + 1):
        a = max(lam[i], rho.get(i, 0))
        b = lam[i] + min(lam[i - 1], rho.get(i - 1, 0))
        if a > b:
            return None
        spans.append((i, range(a, b + 1)))
    return spans


def cartan_entry(xi: BlockKey, lam: Composition, kap: Composition) -> int:
    """Closed formula for the Cartan entry [P(lam) : L(kap)] of the block."""
    if lam.total != xi.t or kap.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    rho = rho_between(lam, kap)
    if rho is None:
        return 0
    gamma = xi.gamma
    lo, hi = _active_range(lam, rho, gamma)
    spans = _tau_choices(lam, rho, lo, hi)
    if spans is None:
        return 0
    total = Fraction(0)
    rows = [(i, lam[i], lam[i + 1], rho.get(i, 0), gamma[i]) for i in range(lo - 1, hi + 1)]
    positions = [i for i, _ in spans]
    for values in itertools.product(*(rng for _, rng in spans)):
        tau = dict(zip(positions, values))
        num = den = 1
        for i, lam_i, lam_next, rho_i, gamma_i in rows:
            tau_i = tau.get(i, 0)
            beta = lam_next + tau_i - tau.get(i + 1, 0)
            if beta < 0:
                num = 0
                break
            num *= comb(beta, tau_i - lam_i) * comb(beta, tau_i - rho_i)
            den *= factorial(beta) * factorial(beta + gamma_i)
        if num:
            total += Fraction(num, den)
    total *= factorial(xi.m) * factorial(xi.n)
    if total.denominator != 1:
        raise ArithmeticError("Cartan entry came out non-integral (internal bug)")
    return int(total)


def cartan_oracle(xi: BlockKey, lam: Composition, kap: Composition) -> int:
    """Independent route to the Cartan entry via BGG reciprocity: the sum
    over Verma supports beta of the product of the two Verma multiplicities
    weighted by the number of tableaux in the row class of beta."""
    if lam.total != xi.t or kap.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    gamma = xi.gamma
    total = Fraction(0)
    lo, hi = lam.support_bounds()
    spans = [range(0, lam[i] + 1) for i in range(lo, hi + 1)]
    for choice in itertools.product(*spans):
        # beta = lam - sum theta_i alpha_i for 0 <= theta_i <= lam_i
        theta = dict(zip(range(lo, hi + 1), choice))
        items = {}
        for i in range(lo - 1, hi + 2):
            items[i] = lam[i] - theta.get(i, 0) + theta.get(i - 1, 0)
        beta = Composition.from_items(items)
        m1 = verma_mult(xi, beta, lam)
        m2 = verma_mult(xi, beta, kap)
        if not (m1 and m2):
            continue
        weight = Fraction(1)
        blo = min(beta.support_bounds()[0], gamma.support_bounds()[0])
        bhi = max(beta.support_bounds()[1], gamma.support_bounds()[1])
        for i in range(blo, bhi + 1):
            weight /= factorial(beta[i]) * factorial(beta[i] + gamma[i])
        total += weight * m1 * m2
    total *= factorial(xi.m) * factorial(xi.n)
    if total.denominator != 1:
        raise ArithmeticError("BGG oracle sum came out non-integral (internal bug)")
    return int(total)


def graded_cartan(xi: BlockKey, lam: Composition, kap: Composition) -> LaurentQ:
    """Graded Cartan entry: the sum over tau of q^{s(tau)} [m]! [n]! times
    prod_i qbinom(beta_i, a_i) qbinom(beta_i, b_i) / ([beta_i]! [beta_i +
    gamma_i]!), with a_i = tau_i - lam_i and b_i = tau_i - rho_i.

    Each term cancels to a quotient of quantum factorials,
    [m]! [n]! prod [beta_i]! / prod [a_i]! [beta_i - a_i]! [b_i]! [beta_i -
    b_i]! [beta_i + gamma_i]!, and [k]! = q^{-k(k-1)/2} prod_{d=2..k}
    Phi_d(q^2)^{floor(k/d)}, so every term is a q-power times a product of
    cyclotomic polynomials in q^2 (laurent.qfact_quotient), with no
    polynomial division.  The result is asserted to be a polynomial in q with
    non-negative coefficients (positive grading)."""
    if lam.total != xi.t or kap.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    rho = rho_between(lam, kap)
    if rho is None:
        return ZERO
    gamma = xi.gamma
    lo, hi = _active_range(lam, rho, gamma)
    spans = _tau_choices(lam, rho, lo, hi)
    if spans is None:
        return ZERO
    total: dict = {}
    s0 = comb(xi.m, 2) + comb(xi.n, 2)
    rows = [(i, lam[i], lam[i + 1], rho.get(i, 0), gamma[i]) for i in range(lo - 1, hi + 1)]
    positions = [i for i, _ in spans]
    for values in itertools.product(*(rng for _, rng in spans)):
        tau = dict(zip(positions, values))
        num = [xi.m, xi.n]
        den = []
        s = s0
        for i, lam_i, lam_next, rho_i, gamma_i in rows:
            tau_i = tau.get(i, 0)
            beta = lam_next + tau_i - tau.get(i + 1, 0)
            a, b, g = tau_i - lam_i, tau_i - rho_i, beta + gamma_i
            num.append(beta)
            den += (a, beta - a, b, beta - b, g)
            s += (a + b) * g - comb(beta, 2) - comb(g, 2)
        shift, poly = qfact_quotient(num, den)
        s += shift
        for e, c in poly.coeffs.items():
            c += total.get(e + s, 0)
            if c:
                total[e + s] = c
            else:
                del total[e + s]
    out = LaurentQ._raw(total)
    if not (out.is_poly_in_q() and out.has_nonneg_coeffs()):
        raise ArithmeticError("graded Cartan entry not in N[q] (internal bug)")
    return out


# ---------------------------------------------------------------------------
# the lattice count h and endomorphism dimensions


def h_count(lam: Composition) -> int:
    """Number of compositions rho with 0 <= rho_{i+1} <= lam_{i+1} +
    min(lam_i, rho_i) for all i, by dynamic programming left to right."""
    lo, hi = lam.support_bounds()
    if hi < lo:
        return 1
    # state: value of rho_i; rho vanishes left of the support and at most one
    # position past the right end can be nonzero
    states = {0: 1}
    for i in range(lo, hi + 2):
        new: dict = {}
        for prev, cnt in states.items():
            top = lam[i] + min(lam[i - 1], prev)
            for r in range(top + 1):
                new[r] = new.get(r, 0) + cnt
        states = new
    # past position hi + 1 everything is forced to zero
    return sum(states.values())


def h_separation(lam: Composition, j: int):
    """The two halves of lam at a zero gap j (parts beyond j zeroed /
    parts before j zeroed)."""
    if lam[j] != 0:
        raise ValueError("separation requires lam_j = 0")
    lo, hi = lam.support_bounds()
    left = Composition.from_items({i: lam[i] for i in range(lo, min(j, hi + 1))})
    right = Composition.from_items({i: lam[i] for i in range(max(j + 1, lo), hi + 1)})
    return left, right


def _demon_value(t: int, gi: int, gi1: int) -> Fraction:
    """The sum over r of t! C(t, r) gi! gi1! / ((gi + t - r)! (gi1 + r)!),
    strictly decreasing in gi."""
    total = Fraction(0)
    for r in range(t + 1):
        total += Fraction(
            comb(t, r) * factorial(t) * factorial(gi) * factorial(gi1),
            factorial(gi + t - r) * factorial(gi1 + r),
        )
    return total


def _end_dim_value(xi: BlockKey, gi: int, gi1: int) -> int:
    """m! n! _demon_value(t, gi, gi1) / (t!^2 prod_j gamma_j!): the End
    dimension at t*eps_i of a block whose gamma reads (gi, gi1) at (i, i+1)."""
    t = xi.t
    if t < 1:
        raise ValueError("end_dim requires atypicality t >= 1")
    out = Fraction(factorial(xi.m) * factorial(xi.n), factorial(t) ** 2)
    out *= _demon_value(t, gi, gi1)
    for g in xi.gamma.parts:
        out /= factorial(g)
    if out.denominator != 1:
        raise ArithmeticError("end_dim came out non-integral (internal bug)")
    return int(out)


def end_dim(xi: BlockKey, i: int) -> int:
    """Endomorphism dimension of the projective at t*eps_i."""
    return _end_dim_value(xi, xi.gamma[i], xi.gamma[i + 1])


def stable_end_dim(xi: BlockKey) -> int:
    """The value of end_dim far from the gamma support, where gamma_i =
    gamma_{i+1} = 0 and _demon_value(t, 0, 0) = C(2t, t)."""
    return _end_dim_value(xi, 0, 0)


def d_invariant(xi: BlockKey, i: int) -> Fraction:
    """The rescaled endomorphism dimension binom(2t,t) * end_dim / N, which
    depends only on (gamma_i, gamma_{i+1}) and is monotone in each."""
    t = xi.t
    return Fraction(comb(2 * t, t) * end_dim(xi, i), stable_end_dim(xi))


def neighbor_test(xi: BlockKey, i: int, j: int) -> bool:
    """Whether the Cartan entry between t*eps_i and t*eps_j is nonzero;
    equals |i - j| <= 1."""
    t = xi.t
    if t < 1:
        raise ValueError("neighbor_test requires t >= 1")
    return cartan_entry(xi, Composition.eps(i, t), Composition.eps(j, t)) != 0


# ---------------------------------------------------------------------------
# recovery of (t, gamma) from abstract block data


class BlockDataError(ValueError):
    """Inconsistent or too-narrow abstract block data."""


class FormulaBlockData:
    """Abstract block oracle generated from a key: labels are opaque strings
    for the simples t*eps_i (plus distractor labels of larger h) over a
    window of positions."""

    def __init__(self, xi: BlockKey, lo: int, hi: int, reverse: bool = False):
        if xi.t < 1:
            raise ValueError("block data requires t >= 1")
        self._xi = xi
        positions = list(range(lo, hi + 1))
        if reverse:
            positions.reverse()
        self._lam = {}
        self._labels = []
        for k, i in enumerate(positions):
            label = f"s{k}"
            self._labels.append(label)
            self._lam[label] = Composition.eps(i, xi.t)
        # distractor simples (non-minimal h) from two-part compositions
        extra = 0
        for i in positions[:-1]:
            for a in range(1, xi.t):
                label = f"d{extra}"
                extra += 1
                self._labels.append(label)
                self._lam[label] = Composition.from_items({i: a, i + 1: xi.t - a})

    def labels(self):
        return list(self._labels)

    def h(self, x) -> int:
        return h_count(self._lam[x])

    def end_dim(self, x) -> int:
        return cartan_entry(self._xi, self._lam[x], self._lam[x])

    def cartan_nonzero(self, x, y) -> bool:
        return cartan_entry(self._xi, self._lam[x], self._lam[y]) != 0


class MatrixBlockData:
    """Abstract block oracle backed by a serialized Cartan window: h is the
    row support count, end dims are the diagonal entries."""

    def __init__(self, labels, matrix):
        if len(matrix) != len(labels) or any(len(r) != len(labels) for r in matrix):
            raise BlockDataError("matrix shape does not match labels")
        self._labels = list(labels)
        self._index = {x: k for k, x in enumerate(self._labels)}
        self._matrix = matrix

    def labels(self):
        return list(self._labels)

    def h(self, x) -> int:
        row = self._matrix[self._index[x]]
        return sum(1 for v in row if v)

    def end_dim(self, x) -> int:
        k = self._index[x]
        return self._matrix[k][k]

    def cartan_nonzero(self, x, y) -> bool:
        return self._matrix[self._index[x]][self._index[y]] != 0


def recover_invariants(data):
    """Recover (t, gamma up to translation and duality) from abstract block
    data, following the minimal-h / chain-ordering / monotone-inversion
    procedure.  Raises BlockDataError when the window is too narrow or the
    data is inconsistent."""
    labels = list(data.labels())
    if not labels:
        raise BlockDataError("no simples supplied")
    hs = {x: data.h(x) for x in labels}
    # windowed data truncates the support counts of rows near the window
    # boundary; the genuine minimum binom(t+2, 2) is attained by every
    # interior t*eps row, so demand multiplicity >= 3 to skip artifacts
    counts: dict = {}
    for v in hs.values():
        counts[v] = counts.get(v, 0) + 1
    candidates = []
    for v, c in counts.items():
        if c < 3:
            continue
        t = next((t for t in range(1, 200) if comb(t + 2, 2) == v), None)
        if t is not None:
            candidates.append((v, t))
    if not candidates:
        raise BlockDataError("no h value of the form binomial(t+2, 2) with multiplicity >= 3")
    hmin, t = min(candidates)

    xmin = [x for x in labels if hs[x] == hmin]
    if len(xmin) < 3:
        raise BlockDataError("window too narrow: need at least 3 minimal simples")
    # order the minimal simples along the adjacency chain
    adj = {x: [] for x in xmin}
    for a, b in itertools.combinations(xmin, 2):
        if data.cartan_nonzero(a, b):
            adj[a].append(b)
            adj[b].append(a)
    ends = [x for x in xmin if len(adj[x]) == 1]
    if len(ends) != 2 or any(len(v) > 2 for v in adj.values()):
        raise BlockDataError("minimal simples do not form a chain")
    chain = [ends[0]]
    while len(chain) < len(xmin):
        nxt = [y for y in adj[chain[-1]] if y not in chain]
        if len(nxt) != 1:
            raise BlockDataError("minimal simples do not form a chain")
        chain.append(nxt[0])

    dims = [data.end_dim(x) for x in chain]
    stable = max(dims)
    if dims[0] != stable or dims[-1] != stable:
        raise BlockDataError("window too narrow to reach the stable End-dim value")

    c2t = comb(2 * t, t)
    dvals = []
    for dim in dims:
        d = Fraction(c2t * dim, stable)
        dvals.append(d)
    # invert the monotone formula from the right: gamma at chain slot k+1
    # known, solve for slot k
    K = len(chain)
    gamma_slots = [0] * (K + 1)
    for k in range(K - 1, -1, -1):
        target = dvals[k]
        g = 0
        while True:
            val = _demon_value(t, g, gamma_slots[k + 1])
            if val == target:
                gamma_slots[k] = g
                break
            if val < target:
                raise BlockDataError("inconsistent End-dim data")
            g += 1
            if g > 10000:
                raise BlockDataError("inconsistent End-dim data")
    return t, Composition(gamma_slots).normalized()


# ---------------------------------------------------------------------------
# Cartan windows


def compositions_in_window(t: int, lo: int, hi: int):
    """All compositions of t supported in [lo, hi], in lexicographic order
    of (offset, parts)."""
    width = hi - lo + 1
    out = []
    for parts in itertools.product(range(t + 1), repeat=width):
        if sum(parts) == t:
            out.append(Composition(parts, lo))
    out.sort(key=lambda c: (c.offset, c.parts))
    return out


def cartan_matrix(xi: BlockKey, lams, graded: bool = False):
    """Matrix of (graded) Cartan entries over the given row/column labels.

    graded_cartan and cartan_entry are looked up as module attributes on
    every call, so a perturbed one (verify's fault injection) reaches every
    cell."""
    lams = list(lams)
    fn = graded_cartan if graded else cartan_entry
    return [[fn(xi, a, b) for b in lams] for a in lams]

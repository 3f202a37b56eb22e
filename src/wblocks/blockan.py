"""Numerical block invariants: Verma multiplicities, (graded) Cartan entries,
the h lattice count, endomorphism dimensions, and recovery of block
invariants from abstract Cartan data.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, isqrt, perm

from .combinat import BlockKey, Composition, compositions_in_window
from .laurent import ONE, ZERO, LaurentQ, _addmul, qbinom, qfact_quotient

# ---------------------------------------------------------------------------
# Verma multiplicities


def graded_verma_mult(xi: BlockKey, beta: Composition, lam: Composition) -> LaurentQ:
    """The graded multiplicity d_{beta lam}(q) of the simple lam in the Verma
    beta: the product of q^{theta_i (beta_{i+1} + gamma_{i+1})}
    qbinom(beta_{i+1}, theta_i) when lam = beta + sum theta_i alpha_i with
    0 <= theta_i <= beta_{i+1}, else 0.

    theta_i is the running sum of lam_j - beta_j over j <= i, which vanishes
    outside the supports because the totals agree.  This is the one reading
    of theta, and it belongs to the BGG oracle alone: the closed forms below
    share no helper with it, so a fault in one route cannot move the other.
    In the algebra S it is the coefficient of the dual canonical basis
    element d_lam in the monomial u_beta, checked by a triangular solve."""
    if beta.total != xi.t or lam.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    lo = min(beta.support_bounds()[0], lam.support_bounds()[0])
    hi = max(beta.support_bounds()[1], lam.support_bounds()[1])
    out = ONE
    theta = shift = 0
    for i in range(lo, hi + 1):
        theta += lam[i] - beta[i]
        if not 0 <= theta <= beta[i + 1]:
            return ZERO
        if theta:
            shift += theta * (beta[i + 1] + xi.gamma[i + 1])
            out = out * qbinom(beta[i + 1], theta)
    return out.shift(shift)


def verma_mult(xi: BlockKey, lam: Composition, kap: Composition) -> int:
    """Multiplicity of the simple kap in the Verma lam: graded_verma_mult at
    q = 1, a product of binomials."""
    return graded_verma_mult(xi, lam, kap).eval1()


# ---------------------------------------------------------------------------
# Cartan entries: closed formula, BGG oracle, graded refinement


def _tau_choices(lam: Composition, kap: Composition, gamma: Composition):
    """The rows of the tau-sum for [P(lam) : L(kap)]: a list of pairs
    ((lam_i, lam_{i+1}, rho_i, gamma_i), range of tau_i), one per position
    from the first of the supports of lam, kap and gamma to one past their
    last, or None when the sum is empty.

    rho_i = sum_{j <= i} lam_j - sum_{j < i} kap_j, so that kap = lam +
    sum_i (lam_{i+1} - rho_{i+1}) alpha_i, and tau_i runs over
    max(lam_i, rho_i) <= tau_i <= lam_i + min(lam_{i-1}, rho_{i-1}).  The sum
    is empty when rho has a negative part or a range is empty (a failed
    recursive inequality rho_i <= lam_i + min(lam_{i-1}, rho_{i-1})).  Past
    either end of the window tau_i = 0, and every row there contributes the
    factor 1: at the first position tau_i = rho_i = lam_i.

    With beta_i = lam_{i+1} + tau_i - tau_{i+1}, a_i = tau_i - lam_i and
    b_i = tau_i - rho_i, 0 <= a_i, b_i <= beta_i, so no term needs a sign
    check: tau_i >= max(lam_i, rho_i) gives a_i, b_i >= 0, and tau_{i+1} <=
    lam_{i+1} + min(lam_i, rho_i) gives beta_i - a_i = lam_i + lam_{i+1} -
    tau_{i+1} >= 0 and beta_i - b_i = rho_i + lam_{i+1} - tau_{i+1} >= 0."""
    lo = hi = None
    for c in (lam, kap, gamma):
        if c.parts:
            end = c.offset + len(c.parts)
            lo = c.offset if lo is None or c.offset < lo else lo
            hi = end if hi is None or end > hi else hi
    if lo is None:
        return []
    # part i of a composition c is c.parts[i - c.offset] inside its support
    lam_p, lam_o, kap_p, kap_o, gamma_p, gamma_o = (
        lam.parts, lam.offset, kap.parts, kap.offset, gamma.parts, gamma.offset)
    rows = []
    rho_i = lam_prev = rho_prev = 0
    lam_next = lam_p[0] if lam_p and lam_o == lo else 0
    for i in range(lo, hi + 1):
        lam_i = lam_next
        k = i + 1 - lam_o
        lam_next = lam_p[k] if 0 <= k < len(lam_p) else 0
        rho_i += lam_i
        low = rho_i if rho_i > lam_i else lam_i
        high = lam_i + (lam_prev if lam_prev < rho_prev else rho_prev)
        if rho_i < 0 or low > high:
            return None
        k = i - gamma_o
        gamma_i = gamma_p[k] if 0 <= k < len(gamma_p) else 0
        rows.append(((lam_i, lam_next, rho_i, gamma_i), range(low, high + 1)))
        lam_prev, rho_prev = lam_i, rho_i
        k = i - kap_o
        if 0 <= k < len(kap_p):
            rho_i -= kap_p[k]
    return rows


def cartan_entry(xi: BlockKey, lam: Composition, kap: Composition) -> int:
    """Closed formula for the Cartan entry [P(lam) : L(kap)] of the block:
    m! n! times the sum over tau of prod_i C(beta_i, a_i) C(beta_i, b_i) /
    (beta_i! (beta_i + gamma_i)!) over the rows of _tau_choices.

    Row i's factor depends only on (tau_i, tau_{i+1}), with tau = 0 past the
    last row, so the rows are walked from the last to the first with one
    state (tau_i, num, term_den) per suffix of tau.  The beta_i sum to t and
    the beta_i + gamma_i to t + |gamma|, so every term_den divides t! (t +
    |gamma|)!, and the sum is taken in integers over that one denominator."""
    if lam.total != xi.t or kap.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    choices = _tau_choices(lam, kap, xi.gamma)
    if choices is None:
        return 0
    states = [(0, 1, 1)]
    for (lam_i, lam_next, rho_i, gamma_i), taus in reversed(choices):
        states = [
            (tau_i, num * comb(beta, tau_i - lam_i) * comb(beta, tau_i - rho_i),
             term_den * factorial(beta) * factorial(beta + gamma_i))
            for tau_i in taus for tau_next, num, term_den in states
            for beta in (lam_next + tau_i - tau_next,)
        ]
    den = factorial(xi.t) * factorial(xi.t + xi.gamma.total)
    total = sum(num * (den // term_den) for _, num, term_den in states)
    out, rest = divmod(total * factorial(xi.m) * factorial(xi.n), den)
    if rest:
        raise ArithmeticError("Cartan entry came out non-integral (internal bug)")
    return out


def cartan_oracle(xi: BlockKey, lam: Composition, kap: Composition) -> int:
    """Independent route to the Cartan entry via BGG reciprocity: the sum
    over Verma supports beta of the product of the two Verma multiplicities
    weighted by the number of tableaux in the row class of beta.  The
    multiplicities read theta through graded_verma_mult, which is zero
    unless beta lies in [lo, hi + 1] for lam supported in [lo, hi]."""
    if lam.total != xi.t or kap.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    gamma = xi.gamma
    total = Fraction(0)
    lo, hi = lam.support_bounds()
    for beta in compositions_in_window(xi.t, lo, hi + 1):
        m1 = verma_mult(xi, beta, lam)
        m2 = m1 and verma_mult(xi, beta, kap)
        if not m2:
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
    gamma_i]!), by cartan_entry's suffix walk.

    Each term cancels to [m]! [n]! prod [beta_i]! / prod [a_i]! [beta_i -
    a_i]! [b_i]! [beta_i - b_i]! [beta_i + gamma_i]!, and [k]! =
    q^{-k(k-1)/2} prod_{d=2..k} Phi_d(q^2)^{floor(k/d)}, so every term is a
    q-power times a product of cyclotomic polynomials in q^2
    (laurent.qfact_quotient), with no polynomial division.  A suffix state
    is (tau_i, net, s): net lists the net power of each [k]!, k <= max(m, n,
    t + |gamma|), copied per branch, and s is the q-shift.  A cell has few
    distinct vectors, so the leaves are grouped by vector as {q-shift:
    count}, with one qfact_quotient and one _addmul per group.  The result
    is asserted to lie in N[q] (positive grading)."""
    if lam.total != xi.t or kap.total != xi.t:
        raise ValueError("lambda and kappa must be compositions of t")
    choices = _tau_choices(lam, kap, xi.gamma)
    if choices is None:
        return ZERO
    base = [0] * (max(xi.m, xi.n, xi.t + xi.gamma.total) + 1)
    base[xi.m] += 1
    base[xi.n] += 1
    states = [(0, base, comb(xi.m, 2) + comb(xi.n, 2))]
    for (lam_i, lam_next, rho_i, gamma_i), taus in reversed(choices):
        new = []
        for tau_i in taus:
            a, b = tau_i - lam_i, tau_i - rho_i
            for tau_next, net, s in states:
                beta = lam_next + tau_i - tau_next
                g = beta + gamma_i
                net = net.copy()
                net[beta] += 1
                net[a] -= 1
                net[beta - a] -= 1
                net[b] -= 1
                net[beta - b] -= 1
                net[g] -= 1
                new.append((tau_i, net, s + (a + b) * g - comb(beta, 2) - comb(g, 2)))
        states = new
    groups: dict = {}
    for _, net, s in states:
        shifts = groups.setdefault(tuple(net), {})
        shifts[s] = shifts.get(s, 0) + 1
    total: dict = {}
    for net, shifts in groups.items():
        shift, poly = qfact_quotient(net)
        _addmul(total, poly.coeffs, {s + shift: c for s, c in shifts.items()})
    if total and (min(total) < 0 or min(total.values()) < 0):
        raise ArithmeticError("graded Cartan entry not in N[q] (internal bug)")
    return LaurentQ._raw(total)


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
    strictly decreasing in gi.  gi! / (gi + t - r)! and gi1! / (gi1 + r)!
    are the reciprocals of falling products of t - r and r factors, so no
    factorial of gi or gi1 is taken."""
    ft = factorial(t)
    total = Fraction(0)
    for r in range(t + 1):
        total += Fraction(comb(t, r) * ft, perm(gi + t - r, t - r) * perm(gi1 + r, r))
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
    """_demon_value(t, gamma_i, gamma_{i+1}), which equals the rescaled End
    dimension binom(2t,t) * end_dim / stable_end_dim (verify's
    cartan-vs-oracle checks that): a function of (t, gamma_i, gamma_{i+1}),
    symmetric in the two gammas and strictly decreasing in each, as
    _invert_demon_value's bisection needs."""
    if xi.t < 1:
        raise ValueError("d_invariant requires atypicality t >= 1")
    return _demon_value(xi.t, xi.gamma[i], xi.gamma[i + 1])


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


def _atypicality_of_h(h: int):
    """The t >= 1 with binomial(t + 2, 2) = h, or None if there is none.
    (t + 1)(t + 2) / 2 = h means t = (sqrt(8h + 1) - 3) / 2; 8h + 1 is odd,
    so an exact square root is odd and t an integer."""
    s = isqrt(8 * h + 1)
    return (s - 3) // 2 if s * s == 8 * h + 1 and s >= 5 else None


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
        t = _atypicality_of_h(v)
        if c >= 3 and t is not None:
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
        g = _invert_demon_value(t, dvals[k], gamma_slots[k + 1])
        if g is None:
            raise BlockDataError("inconsistent End-dim data")
        gamma_slots[k] = g
    return t, Composition(gamma_slots).normalized()


def _invert_demon_value(t: int, target: Fraction, gi1: int):
    """The g >= 0 with _demon_value(t, g, gi1) == target, or None.

    _demon_value decreases strictly in g towards its r = t term
    1/C(gi1 + t, t), so a target at or below that limit has no solution.
    Any larger one is passed by g = 0, 1, 3, 7, ..., and bisection between
    the last two of those finds the first g whose value is at or below it,
    in O(log g) evaluations."""
    if target <= Fraction(1, comb(gi1 + t, t)):
        return None
    lo, hi = -1, 0  # _demon_value(lo) > target (lo = -1 stands for +inf)
    val = _demon_value(t, hi, gi1)
    while val > target:
        lo, hi = hi, 2 * hi + 1
        val = _demon_value(t, hi, gi1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_val = _demon_value(t, mid, gi1)
        if mid_val > target:
            lo = mid
        else:
            hi, val = mid, mid_val
    return hi if val == target else None


# ---------------------------------------------------------------------------
# Cartan windows


def cartan_matrix(xi: BlockKey, lams, graded: bool = False):
    """Matrix of (graded) Cartan entries over the given row/column labels.

    Only the cells with column >= row are evaluated; each is mirrored into
    its transpose.  This is exact: by BGG reciprocity C = D^T D, with D the
    matrix of Verma multiplicities, so [P(lam) : L(kap)] = [P(kap) : L(lam)],
    graded or not.  verify checks that symmetry cell by cell through the
    per-cell functions (cartan-vs-oracle and graded-vs-ungraded).

    graded_cartan and cartan_entry are looked up as module attributes on
    every call, so a perturbed one (verify's fault injection) reaches every
    cell."""
    lams = list(lams)
    fn = graded_cartan if graded else cartan_entry
    rows = [[None] * len(lams) for _ in lams]
    for a, lam in enumerate(lams):
        for b in range(a, len(lams)):
            rows[a][b] = rows[b][a] = fn(xi, lam, lams[b])
    return rows

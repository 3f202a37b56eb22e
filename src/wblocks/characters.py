"""Formal characters: truncated Verma characters on the g side and
composition-indexed characters on the W side, with decomposition into simples.
"""

from __future__ import annotations

from math import comb

from .combinat import BlockKey, Composition, Pyramid, Tableau

# ---------------------------------------------------------------------------
# weights and rho shifts


def natural_order(p: Pyramid):
    """Boxes in lexicographic (row, col) order: 1 < 2 < ... < m + n."""
    return tuple(range(1, p.m + p.n + 1))


def revlex_order(p: Pyramid):
    """Boxes sorted by (col, row): the order <' used on the W side."""
    return tuple(sorted(range(1, p.m + p.n + 1), key=lambda i: (p.col(i), p.row(i))))


def is_normal_order(p: Pyramid, order) -> bool:
    """A normal order keeps 1..m and m+1..m+n in their natural sequence."""
    pos = {b: k for k, b in enumerate(order)}
    top_ok = all(pos[i] < pos[i + 1] for i in range(1, p.m))
    bot_ok = all(pos[i] < pos[i + 1] for i in range(p.m + 1, p.m + p.n))
    return top_ok and bot_ok


def rho_order(p: Pyramid, order):
    """The rho shift of an order: coordinate j counts odd boxes weakly before
    j minus even boxes strictly before j."""
    k = p.m + p.n
    if sorted(order) != list(range(1, k + 1)):
        raise ValueError("order must list the boxes 1..m+n")
    pos = {b: idx for idx, b in enumerate(order)}
    rho = []
    for j in range(1, k + 1):
        odd = sum(1 for i in range(1, k + 1) if pos[i] <= pos[j] and i > p.m)
        even = sum(1 for i in range(1, k + 1) if pos[i] < pos[j] and i <= p.m)
        rho.append(odd - even)
    return tuple(rho)


def tableau_weight(p: Pyramid, order, A: Tableau):
    """The weight of A for the given order, as the vector of form values
    (lambda, delta_j) = entry_j - rho_j.

    The form is negative on the odd coordinates, so the delta-basis
    coordinate vector is the same tuple with the last n entries negated; see
    weight_coords."""
    rho = rho_order(p, order)
    return tuple(A.entry(j) - rho[j - 1] for j in range(1, p.m + p.n + 1))


def weight_coords(p: Pyramid, form_vals):
    """Convert a form-value vector to delta-basis coordinates (the form is
    +1 on the first m coordinates and -1 on the last n)."""
    return tuple(v if j < p.m else -v for j, v in enumerate(form_vals))


# ---------------------------------------------------------------------------
# truncated Verma characters on the g side


class WeightChar:
    """Finite chunk of a character: {weight coordinate tuple: multiplicity}
    for the weights at height at most D below the natural highest weight."""

    __slots__ = ("terms", "D")

    def __init__(self, terms: dict, D: int):
        self.terms = {k: v for k, v in terms.items() if v}
        self.D = D

    def __eq__(self, other):
        if isinstance(other, WeightChar):
            return self.terms == other.terms and self.D == other.D
        return NotImplemented

    def __repr__(self):
        return f"WeightChar({len(self.terms)} terms, D={self.D})"


def _height(vec) -> int:
    """Height of a root-lattice vector: sum of its simple-root coefficients,
    i.e. the sum of its partial sums."""
    total = 0
    run = 0
    for v in vec[:-1]:
        run += v
        total += run
    return total


def verma_char_trunc(p: Pyramid, order, A: Tableau, D: int) -> WeightChar:
    """Character of the Verma supermodule for a normal order: the highest
    weight times (1 + e^{d_l - d_k}) over mixed-parity pairs k before l and
    geometric series over equal-parity pairs, truncated to the weights
    within height D of the natural-order highest weight.

    Measuring height from the natural highest weight makes the truncation
    independent of the order, so characters for two normal orders can be
    compared degree by degree.
    """
    if not is_normal_order(p, order):
        raise ValueError("verma_char_trunc requires a normal order")
    k = p.m + p.n
    pos = {b: idx for idx, b in enumerate(order)}
    lam = weight_coords(p, tableau_weight(p, order, A))
    lam_nat = weight_coords(p, tableau_weight(p, natural_order(p), A))

    # each use of the (b1 before b2) factor adds e_{b2} - e_{b1} to the
    # weight, moving the height below lam_nat by cost = b2 - b1 (negative
    # for the order-reversed mixed pairs, which occur at most once each)
    factors = []
    for b1 in range(1, k + 1):
        for b2 in range(1, k + 1):
            if pos[b1] >= pos[b2]:
                continue
            same = (b1 <= p.m) == (b2 <= p.m)
            factors.append((b1, b2, same, b2 - b1))
    slack = [0] * (len(factors) + 1)
    for idx in range(len(factors) - 1, -1, -1):
        _, _, same, cost = factors[idx]
        slack[idx] = slack[idx + 1] + (-cost if (not same and cost < 0) else 0)

    base = tuple(a - b for a, b in zip(lam_nat, lam))
    terms = {base: 1}
    for idx, (b1, b2, same, cost) in enumerate(factors):
        new_terms: dict = {}
        for diff, c in terms.items():
            h = _height(diff)
            if same:
                top = (D + slack[idx] - h) // cost if cost > 0 else -1
                reps = range(0, max(top, -1) + 1)
            else:
                ok = h + cost <= D + slack[idx + 1]
                reps = range(0, 2 if ok else 1)
            for r in reps:
                d2 = list(diff)
                d2[b2 - 1] -= r
                d2[b1 - 1] += r
                key = tuple(d2)
                new_terms[key] = new_terms.get(key, 0) + c
        terms = new_terms
    out: dict = {}
    for diff, c in terms.items():
        if _height(diff) > D:
            continue
        w = tuple(l - d for l, d in zip(lam_nat, diff))
        out[w] = out.get(w, 0) + c
    return WeightChar(out, D)


# ---------------------------------------------------------------------------
# W-side characters over compositions


class CompChar:
    """Finitely supported map from compositions of m to integers."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for c, v in dict(terms).items():
                if v:
                    self.terms[c] = self.terms.get(c, 0) + v
            self.terms = {c: v for c, v in self.terms.items() if v}

    def is_zero(self) -> bool:
        return not self.terms

    def total(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other):
        if isinstance(other, CompChar):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        out = dict(self.terms)
        for c, v in other.terms.items():
            s = out.get(c, 0) + v
            if s:
                out[c] = s
            else:
                del out[c]
        ch = CompChar()
        ch.terms = out
        return ch

    def scaled(self, k: int) -> "CompChar":
        ch = CompChar()
        if k:
            ch.terms = {c: v * k for c, v in self.terms.items()}
        return ch

    def __sub__(self, other):
        return self + other.scaled(-1)

    def to_json(self) -> list:
        items = sorted(
            self.terms.items(), key=lambda cv: (cv[0].offset, cv[0].parts)
        )
        return [
            {"composition": c.to_json(), "coefficient": str(v)} for c, v in items
        ]

    def __repr__(self):
        return f"CompChar({len(self.terms)} terms)"


def _alpha_expand(base: Composition, exponents: dict) -> CompChar:
    """Expand chi^base * prod_i (1 + chi^{alpha_i})^{e_i} into monomials."""
    terms = {base: 1}
    for i, e in sorted(exponents.items()):
        if e <= 0:
            continue
        new = {}
        for c, v in terms.items():
            for r in range(e + 1):
                # alpha_i shifts r units from slot i+1 to slot i
                c2 = Composition.from_items({**c.items(), i: c[i] + r, i + 1: c[i + 1] - r})
                new[c2] = new.get(c2, 0) + v * comb(e, r)
        terms = new
    return CompChar(terms)


def ch_verma_w(xi: BlockKey, lam: Composition) -> CompChar:
    """Character of the W-side Verma: chi^{lam+mu} times the product of
    (1 + chi^{alpha_i}) to the power lam_{i+1} + mu_{i+1}."""
    if lam.total != xi.t:
        raise ValueError(f"|lambda| = {lam.total} != t = {xi.t}")
    base = lam + xi.mu
    lo, hi = base.support_bounds()
    exps = {i: base[i + 1] for i in range(lo - 1, hi)}
    return _alpha_expand(base, exps)


def ch_simple_w(xi: BlockKey, lam: Composition) -> CompChar:
    """Character of the W-side simple: chi^{lam+mu} times the product of
    (1 + chi^{alpha_i}) to the power mu_{i+1}."""
    if lam.total != xi.t:
        raise ValueError(f"|lambda| = {lam.total} != t = {xi.t}")
    base = lam + xi.mu
    lo, hi = xi.mu.support_bounds()
    exps = {i: xi.mu[i + 1] for i in range(lo - 1, hi)} if hi >= lo else {}
    return _alpha_expand(base, exps)


class NotInBlockSpan(ValueError):
    """Raised when a character does not lie in the simple-character span."""


def decompose_char(c: CompChar, xi: BlockKey) -> dict:
    """Unique expansion of c in the simple characters of the block, by
    triangular elimination of dominance-minimal leading terms.

    Returns {lambda: multiplicity}.  The simples' characters have head
    chi^{lambda+mu} with all other terms strictly dominance-greater, so the
    heads strictly increase in a linear extension of dominance and none
    comes twice.  Every term of c, and of each simple character subtracted,
    lies in the window [lo, hi] of c's terms and mu's support widened by one
    on the left, where its alpha_i factors move weight from i + 1 to i.  So
    the heads are lambda + mu for distinct lambda of size t in that window,
    at most C(t + hi - lo, t) of them; an elimination that goes on longer
    raises NotInBlockSpan.
    """
    residue = CompChar(dict(c.terms))
    out: dict = {}
    if residue.is_zero():
        return out
    spans = [comp.support_bounds() for comp in residue.terms]
    if not xi.mu.is_zero():
        lo, hi = xi.mu.support_bounds()
        spans.append((lo - 1, hi))
    lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)
    heads = comb(xi.t + max(hi - lo, 0), xi.t)  # hi < lo: only empty compositions
    for _ in range(heads):
        head = min(
            residue.terms, key=lambda comp: (comp.partial_sums_key(lo, hi), comp.parts)
        )
        mult = residue.terms[head]
        items = {i: head[i] - xi.mu[i] for i in {**head.items(), **xi.mu.items()}}
        if any(v < 0 for v in items.values()):
            raise NotInBlockSpan(f"leading term {head!r} is not of the form lambda + mu")
        lam = Composition.from_items(items)
        if lam.total != xi.t:
            raise NotInBlockSpan(f"leading term {head!r} has wrong size")
        residue = residue - ch_simple_w(xi, lam).scaled(mult)
        out[lam] = out.get(lam, 0) + mult
        if residue.is_zero():
            return out
    raise NotInBlockSpan(f"elimination did not end after {heads} heads, "
                         f"the number of lambda in the window {lo}..{hi}")

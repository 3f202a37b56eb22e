"""Formal characters on the W side: composition-indexed characters of Vermas
and simples, with decomposition into simples.
"""

from __future__ import annotations

from math import comb

from .combinat import BlockKey, Composition
from .multipoly import _acc

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
    residue = dict(c.terms)
    out: dict = {}
    if not residue:
        return out
    spans = [comp.support_bounds() for comp in residue]
    if not xi.mu.is_zero():
        lo, hi = xi.mu.support_bounds()
        spans.append((lo - 1, hi))
    lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)
    heads = comb(xi.t + max(hi - lo, 0), xi.t)  # hi < lo: only empty compositions
    for _ in range(heads):
        head = min(residue, key=lambda comp: (comp.partial_sums_key(lo, hi), comp.parts))
        mult = residue[head]
        items = {i: head[i] - xi.mu[i] for i in {**head.items(), **xi.mu.items()}}
        if any(v < 0 for v in items.values()):
            raise NotInBlockSpan(f"leading term {head!r} is not of the form lambda + mu")
        lam = Composition.from_items(items)
        if lam.total != xi.t:
            raise NotInBlockSpan(f"leading term {head!r} has wrong size")
        _acc(residue, ch_simple_w(xi, lam).terms, scale=-mult)
        out[lam] = out.get(lam, 0) + mult
        if not residue:
            return out
    raise NotInBlockSpan(f"elimination did not end after {heads} heads, "
                         f"the number of lambda in the window {lo}..{hi}")

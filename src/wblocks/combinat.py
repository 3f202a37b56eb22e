"""Pyramids, tableaux, compositions, linkage and block keys.

All values here are immutable after construction and every operation is a
pure function, so everything is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections import Counter, deque
from functools import cached_property


# ---------------------------------------------------------------------------
# compositions


class Composition:
    """A finitely supported map Z -> N, stored as (offset, parts).

    Part i of the composition is parts[i - offset] when in range, else 0.
    The stored form is canonical: no leading or trailing zero parts, and the
    zero composition is offset 0 with no parts.
    """

    __slots__ = ("offset", "parts", "total")

    def __init__(self, parts=(), offset: int = 0):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError("composition parts must be non-negative")
        lo = 0
        hi = len(parts)
        while lo < hi and parts[lo] == 0:
            lo += 1
        while hi > lo and parts[hi - 1] == 0:
            hi -= 1
        self.parts = parts[lo:hi]
        self.offset = offset + lo if self.parts else 0
        self.total = sum(self.parts)

    @classmethod
    def from_items(cls, items) -> "Composition":
        d = {int(i): int(v) for i, v in dict(items).items() if v}
        if not d:
            return cls()
        lo, hi = min(d), max(d)
        return cls([d.get(i, 0) for i in range(lo, hi + 1)], lo)

    @classmethod
    def eps(cls, i: int, mult: int = 1) -> "Composition":
        """mult * epsilon_i: the composition with a single part."""
        return cls([mult], i)

    def __getitem__(self, i: int) -> int:
        k = i - self.offset
        if 0 <= k < len(self.parts):
            return self.parts[k]
        return 0

    def support(self):
        return [self.offset + k for k, p in enumerate(self.parts) if p]

    def support_bounds(self):
        """(lo, hi) with all nonzero parts in [lo, hi]; (0, -1) when zero."""
        if not self.parts:
            return (0, -1)
        return (self.offset, self.offset + len(self.parts) - 1)

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        if isinstance(other, Composition):
            return (self.offset, self.parts) == (other.offset, other.parts)
        return NotImplemented

    def __hash__(self):
        return hash((self.offset, self.parts))

    def __add__(self, other: "Composition") -> "Composition":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.parts), other.offset + len(other.parts))
        return Composition([self[i] + other[i] for i in range(lo, hi)], lo)

    def shifted(self, s: int) -> "Composition":
        return Composition(self.parts, self.offset + s)

    def reflected(self) -> "Composition":
        """The composition i -> self[-i]."""
        if self.is_zero():
            return self
        return Composition(self.parts[::-1], -(self.offset + len(self.parts) - 1))

    def items(self) -> dict:
        """{position: part} over the nonzero parts, in position order."""
        return {self.offset + k: p for k, p in enumerate(self.parts) if p}

    def swap_adjacent(self, i: int) -> "Composition":
        """Interchange parts i and i+1."""
        return Composition.from_items({**self.items(), i: self[i + 1], i + 1: self[i]})

    def transpose(self):
        """Conjugate partition of the multiset of nonzero parts, as a tuple."""
        nz = sorted((p for p in self.parts if p), reverse=True)
        if not nz:
            return ()
        return tuple(sum(1 for p in nz if p >= i) for i in range(1, nz[0] + 1))

    def normalized(self) -> "Composition":
        """Canonical representative modulo translation and duality (i ->
        s - i): support starting at 0, lexicographically smaller reading."""
        return Composition(min(self.parts, self.parts[::-1]))

    def partial_sums_key(self, lo: int, hi: int):
        """Cumulative sums over [lo, hi]; lexicographic order on these keys
        linearly extends dominance for compositions supported there."""
        out = []
        a = 0
        for i in range(lo, hi + 1):
            a += self[i]
            out.append(a)
        return tuple(out)

    def to_json(self) -> dict:
        return {"offset": self.offset, "parts": list(self.parts)}

    def __repr__(self):
        if self.is_zero():
            return "Composition()"
        return f"Composition({list(self.parts)}, offset={self.offset})"


# ---------------------------------------------------------------------------
# pyramids and tableaux


@dataclass(frozen=True)
class Pyramid:
    """Two-row pyramid shape: m top boxes, n bottom boxes, s_minus height-1
    columns on the left and n - m - s_minus on the right."""

    m: int
    n: int
    s_minus: int = 0

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")
        if not 0 <= self.s_minus <= self.n - self.m:
            raise ValueError("need 0 <= s_minus <= n - m")


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window needs lo <= hi")

    def values(self):
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class Tableau:
    """Integer filling of a pyramid: top row a_1..a_m, bottom b_1..b_n."""

    pyramid: Pyramid
    top: tuple
    bottom: tuple

    def __post_init__(self):
        object.__setattr__(self, "top", tuple(int(a) for a in self.top))
        object.__setattr__(self, "bottom", tuple(int(b) for b in self.bottom))
        if len(self.top) != self.pyramid.m or len(self.bottom) != self.pyramid.n:
            raise ValueError("row lengths do not match the pyramid")


def match_rows(top, bottom):
    """The matched multiplicities of a top and a bottom row of entries, as
    dicts {value: count} without zero counts: (matched, rest_top,
    rest_bottom) with matched[v] = min(#v on top, #v on the bottom) and the
    rest what each row has left over.  rest_top and rest_bottom have
    disjoint supports."""
    top, bottom = Counter(top), Counter(bottom)
    matched = {v: min(c, bottom[v]) for v, c in top.items() if v in bottom}

    def rest(row):
        return {v: c - matched.get(v, 0) for v, c in row.items() if c > matched.get(v, 0)}

    return matched, rest(top), rest(bottom)


def weight_of(top, bottom) -> tuple:
    """The signed weight sum of eps_a over top minus sum of eps_b over
    bottom, as the sorted pairs ((i, c), ...) with c != 0."""
    w: dict = {}
    for a in top:
        w[a] = w.get(a, 0) + 1
    for b in bottom:
        w[b] = w.get(b, 0) - 1
    return tuple(sorted((i, c) for i, c in w.items() if c))


def is_anti_dominant(top, bottom) -> bool:
    """Top ascending and bottom descending: the normal form of a key, as
    tableau_of builds them."""
    return list(top) == sorted(top) and list(bottom) == sorted(bottom, reverse=True)


def matched_pairs(A: Tableau):
    """Matched pairs (equal entries sharing a column) as a list of
    (top index i, bottom index j), both 1-based."""
    p = A.pyramid
    out = []
    for i in range(1, p.m + 1):
        j = p.s_minus + i  # bottom box in the same column as top box i
        if A.top[i - 1] == A.bottom[j - 1]:
            out.append((i, j))
    return out


def defect(A: Tableau) -> int:
    return len(matched_pairs(A))


def atyp(A: Tableau) -> int:
    """Max defect over the row-equivalence class: the total matched
    multiplicity of its rows."""
    return sum(match_rows(A.top, A.bottom)[0].values())


def down_up(A: Tableau):
    """All 2^defect tableaux obtained by subtracting 1 from both members of
    a subset of the matched pairs of A."""
    pairs = matched_pairs(A)
    out = set()
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            top = list(A.top)
            bottom = list(A.bottom)
            for i, j in chosen:
                top[i - 1] -= 1
                bottom[j - 1] -= 1
            out.add(Tableau(A.pyramid, tuple(top), tuple(bottom)))
    return out


# ---------------------------------------------------------------------------
# block keys and linkage


@dataclass(frozen=True)
class BlockKey:
    """Linkage-class key (mu, nu; t): disjoint-support core compositions of
    m - t and n - t plus the atypicality t."""

    mu: Composition
    nu: Composition
    t: int
    m: int
    n: int

    def __post_init__(self):
        if not 0 <= self.t <= self.m:
            raise ValueError("need 0 <= t <= m")
        if self.mu.total != self.m - self.t or self.nu.total != self.n - self.t:
            raise ValueError("core sizes do not match (m - t, n - t)")
        lo = min(self.mu.support_bounds()[0], self.nu.support_bounds()[0])
        hi = max(self.mu.support_bounds()[1], self.nu.support_bounds()[1])
        for i in range(lo, hi + 1):
            if self.mu[i] and self.nu[i]:
                raise ValueError("mu and nu must have disjoint supports")

    @cached_property
    def gamma(self) -> Composition:
        """mu + nu, computed on first read and kept on the key; it is not a
        field, so equality, hashing and to_json do not see it."""
        return self.mu + self.nu

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "nu": self.nu.to_json(),
            "t": self.t,
            "m": self.m,
            "n": self.n,
        }


def block_key(A: Tableau) -> BlockKey:
    """Key of the linkage class of A: t = the total matched multiplicity,
    and the leftover top/bottom multiplicities as the core (mu, nu)."""
    matched, mu, nu = match_rows(A.top, A.bottom)
    return BlockKey(Composition.from_items(mu), Composition.from_items(nu),
                    sum(matched.values()), A.pyramid.m, A.pyramid.n)


def tableau_of(xi: BlockKey, lam: Composition) -> Tableau:
    """The anti-dominant tableau with lam_i + mu_i entries i on top and
    lam_i + nu_i entries i on the bottom."""
    if lam.total != xi.t:
        raise ValueError(f"|lambda| = {lam.total} != t = {xi.t}")
    lo = min(lam.support_bounds()[0], xi.mu.support_bounds()[0], xi.nu.support_bounds()[0])
    hi = max(lam.support_bounds()[1], xi.mu.support_bounds()[1], xi.nu.support_bounds()[1])
    top = []
    bottom = []
    for i in range(lo, hi + 1):
        top.extend([i] * (lam[i] + xi.mu[i]))
        bottom.extend([i] * (lam[i] + xi.nu[i]))
    bottom.reverse()
    return Tableau(Pyramid(xi.m, xi.n), tuple(top), tuple(bottom))


def aligned_tableau(xi: BlockKey, lam: Composition) -> Tableau:
    """A representative of the (xi, lam) row class whose defect equals its
    atypicality: the lam-paired values sit in matching columns."""
    if lam.total != xi.t:
        raise ValueError(f"|lambda| = {lam.total} != t = {xi.t}")
    paired = [i for i in lam.support() for _ in range(lam[i])]
    top = list(paired)
    for i in xi.mu.support():
        top.extend([i] * xi.mu[i])
    rest = []
    for i in xi.nu.support():
        rest.extend([i] * xi.nu[i])
    # paired values occupy bottom columns 1..t, matching the columns of the
    # top boxes 1..t
    return Tableau(Pyramid(xi.m, xi.n), tuple(top), tuple(paired + rest))


def lambda_of(A: Tableau) -> Composition:
    """The composition of t indexing A's row class inside its block: the
    matched multiplicities of its rows."""
    return Composition.from_items(match_rows(A.top, A.bottom)[0])


# ---------------------------------------------------------------------------
# block-equivalence moves


def derived_move(xi: BlockKey, i: int) -> BlockKey:
    """Key of the derived-equivalent block: swap parts i, i+1 of both cores."""
    return BlockKey(xi.mu.swap_adjacent(i), xi.nu.swap_adjacent(i), xi.t, xi.m, xi.n)


def invariant_signature(xi: BlockKey):
    """(t, m, n, transpose of mu + nu): the conjectured complete invariant of
    gradable derived equivalence."""
    return (xi.t, xi.m, xi.n, xi.gamma.transpose())


def normalize_key(xi: BlockKey) -> BlockKey:
    """Canonical representative modulo translation and duality: shift the
    minimal support point of gamma to 0 and pick the lexicographically
    smaller of the (mu, nu) readings of gamma forwards vs reflected."""
    if xi.gamma.is_zero():
        return BlockKey(Composition(), Composition(), xi.t, xi.m, xi.n)

    def shifted_to_zero(key: BlockKey) -> BlockKey:
        lo = key.gamma.support_bounds()[0]
        return BlockKey(key.mu.shifted(-lo), key.nu.shifted(-lo), key.t, key.m, key.n)

    cand = [shifted_to_zero(xi)]
    refl = BlockKey(xi.mu.reflected(), xi.nu.reflected(), xi.t, xi.m, xi.n)
    cand.append(shifted_to_zero(refl))

    def sort_key(key: BlockKey):
        return (key.gamma.parts, key.mu.parts, key.mu.offset, key.nu.parts, key.nu.offset)

    return min(cand, key=sort_key)


def morita_moves(xi: BlockKey):
    """One-step Morita-equivalence images of xi, in normalized form: the
    translation/duality/(m = n row swap) images, plus adjacent-part swaps of
    the cores when t = 0 and neither core has two adjacent nonzero parts
    (the Scopes-type equivalences of typical blocks)."""
    out = {normalize_key(xi)}
    out.add(normalize_key(BlockKey(xi.mu.reflected(), xi.nu.reflected(), xi.t, xi.m, xi.n)))
    if xi.m == xi.n:
        out.add(normalize_key(BlockKey(xi.nu, xi.mu, xi.t, xi.m, xi.n)))
    if xi.t == 0:
        lo, hi = xi.gamma.support_bounds()
        for i in range(lo - 1, hi + 1):
            if xi.mu[i] * xi.mu[i + 1] == 0 and xi.nu[i] * xi.nu[i + 1] == 0:
                out.add(normalize_key(derived_move(xi, i)))
    return out


def morita_closure(xi: BlockKey, max_width: int):
    """Closure of {xi} under morita_moves, restricted to normalized keys
    whose gamma support width stays within max_width."""
    start = normalize_key(xi)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in morita_moves(cur):
            lo, hi = nxt.gamma.support_bounds()
            if hi - lo + 1 > max_width:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# windowed enumeration (CLI / test support)


def enumerate_tableaux(p: Pyramid, w: Window):
    vals = list(w.values())
    for top in itertools.product(vals, repeat=p.m):
        for bottom in itertools.product(vals, repeat=p.n):
            yield Tableau(p, top, bottom)


def closure_classes(p: Pyramid, w: Window):
    """Partition of the windowed tableaux into classes under the closure of
    row equivalence and the down/up relation (restricted to the window)."""
    tabs = list(enumerate_tableaux(p, w))
    index = {t: k for k, t in enumerate(tabs)}
    parent = list(range(len(tabs)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for t in tabs:
        k = index[t]
        for top in itertools.permutations(t.top):
            other = Tableau(p, top, t.bottom)
            union(k, index[other])
        for bottom in itertools.permutations(t.bottom):
            other = Tableau(p, t.top, bottom)
            union(k, index[other])
        for other in down_up(t):
            if other in index:
                union(k, index[other])
    classes: dict = {}
    for t in tabs:
        classes.setdefault(find(index[t]), set()).add(t)
    return list(classes.values())


def blocks_in_window(m: int, n: int, w: Window):
    """All block keys realized by anti-dominant tableaux with entries in w."""
    p = Pyramid(m, n, 0)
    keys = set()
    vals = list(w.values())
    for top in itertools.combinations_with_replacement(vals, m):
        for bot in itertools.combinations_with_replacement(vals, n):
            A = Tableau(p, top, tuple(reversed(bot)))
            keys.add(block_key(A))
    return keys

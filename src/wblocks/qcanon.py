"""Quantum sl_N engine: tensor space of natural/dual-natural modules,
R-matrix actions, bar involutions, canonical and dual canonical bases via
Lusztig's lemma, the braided symmetric algebra on x/y generators, and both
evaluations of the canonical-basis pairing.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import comb

from .combinat import Composition, is_anti_dominant, match_rows, weight_of
from .laurent import ONE, ZERO, LaurentQ, _addmul, qbinom, qfact
from . import cache as _cache
from .jsonfmt import compact


def _acc(acc: dict, terms, b: dict):
    """acc[key] += a * b for each (key, a) in terms, on raw coefficient dicts
    {exponent: int}, dropping zero coefficients and keys whose coefficient
    cancels to zero.

    Every TensorVec builder, of tensor space and of S, accumulates through
    it, and each key's sum goes through laurent._addmul.  It mutates only
    acc and the dicts acc holds, which the caller must have created itself;
    a and b are only read, so terms may be the items of a built vector.
    """
    for key, a in terms:
        cur = acc.get(key)
        if cur is None:
            cur = acc[key] = {}
        if not _addmul(cur, a, b):
            del acc[key]


def _own(c) -> dict:
    """A fresh coefficient dict, zeros dropped, of a LaurentQ, an int or a
    dict {exponent: int}: what the vector constructors and scaled take."""
    return dict(c.coeffs) if isinstance(c, LaurentQ) else LaurentQ(c).coeffs


class TensorVec:
    """Element of V^{s_1} x ... x V^{s_k} over quantum sl_N: finitely
    supported map from index tuples in [1, N]^k to Laurent polynomials,
    each a raw coefficient dict {exponent: int} without zeros.  A vector
    owns its dicts and nothing writes to them once it is built, so builders
    read them straight into _acc.  Elements of the algebra S are TensorVecs
    on (+)^m (-)^n whose keys are anti-dominant."""

    __slots__ = ("N", "signs", "terms")

    def __init__(self, N: int, signs: str, terms=None):
        self.N = N
        self.signs = signs
        self.terms: dict = {}
        if terms:
            for key, c in terms.items():
                c = _own(c)
                if not c:
                    continue
                key = tuple(key)
                if len(key) != len(signs) or not all(1 <= i <= N for i in key):
                    raise ValueError(f"bad index tuple {key}")
                self.terms[key] = c

    @classmethod
    def unit(cls, N: int, signs: str, key) -> "TensorVec":
        """The pure tensor at key, with a coefficient dict of its own."""
        return cls(N, signs, {key: ONE})

    @classmethod
    def _from_raw(cls, N: int, signs: str, raw: dict) -> "TensorVec":
        """The vector of {key: coeff-dict} as _acc builds it; takes the dicts."""
        v = cls(N, signs)
        v.terms = raw
        return v

    def _check(self, other: "TensorVec"):
        if self.N != other.N or self.signs != other.signs:
            raise ValueError("tensor shapes differ")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, TensorVec):
            return (self.N, self.signs, self.terms) == (other.N, other.signs, other.terms)
        return NotImplemented

    def __add__(self, other: "TensorVec") -> "TensorVec":
        self._check(other)
        acc = {k: dict(c) for k, c in self.terms.items()}
        _acc(acc, other.terms.items(), {0: 1})
        return TensorVec._from_raw(self.N, self.signs, acc)

    def scaled(self, c) -> "TensorVec":
        """self times c, a LaurentQ or an int."""
        acc: dict = {}
        _acc(acc, self.terms.items(), _own(c))
        return TensorVec._from_raw(self.N, self.signs, acc)

    def to_json(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kc: kc[0], reverse=True)
        return {
            "N": self.N,
            "signs": self.signs,
            "terms": [
                {"key": list(k), "coeff": {str(e): str(c) for e, c in sorted(v.items())}}
                for k, v in items
            ],
        }

    def __repr__(self):
        return f"TensorVec({self.N}, {self.signs!r}, {len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# R-matrix


@lru_cache(maxsize=None)
def _r_pair(N: int, s1: str, s2: str, i: int, j: int, inverse: bool) -> tuple:
    """R (or R^{-1}) on v_i^{s1} x v_j^{s2}: tuple of ((jj, ii), coeff-dict)
    with the output living in V^{s2} x V^{s1} and both indices in [1, N].
    Memoized: a pure function of its arguments, whose values are only read."""
    out = []
    if s1 == s2:
        if i == j:
            out.append(((j, i), {-1 if inverse else 1: 1}))
        else:
            out.append(((j, i), {0: 1}))
            disorder = (i > j) if s1 == "+" else (i < j)
            if not inverse and disorder:
                out.append(((i, j), {1: 1, -1: -1}))
            elif inverse and not disorder:
                out.append(((i, j), {1: -1, -1: 1}))
    elif i != j:
        out.append(((j, i), {0: 1}))
    else:
        out.append(((j, i), {1 if inverse else -1: 1}))
        # the correction (-1)^(r+1) (q - q^-1) q^-r, or (-q)^r (q - q^-1) for
        # R^{-1}, runs down the indices for (R on +-) and (R^{-1} on -+), up
        # for the other two diagonal cases
        down = (s1 == "+") != inverse
        rng = range(1, i) if down else range(1, N - i + 1)
        step = -1 if down else 1
        for r in rng:
            sg, sh = ((-1) ** r, r) if inverse else (-((-1) ** r), -r)
            out.append(((j + step * r, i + step * r), {1 + sh: sg, sh - 1: -sg}))
    return tuple((pair, c) for pair, c in out if 1 <= pair[0] <= N and 1 <= pair[1] <= N)


def _r_step(N: int, signs: str, terms: dict, slot: int, inverse: bool):
    """The R-matrix (or its inverse) at adjacent slots (slot, slot+1),
    1-based, on raw terms {key: coeff-dict}.  Returns the new sign sequence
    and fresh raw terms; the input terms are only read."""
    k = len(signs)
    if not 1 <= slot < k:
        raise ValueError(f"slot {slot} out of range 1..{k - 1}")
    a = slot - 1
    s1, s2 = signs[a], signs[a + 1]
    out: dict = {}
    for key, c in terms.items():
        pairs = _r_pair(N, s1, s2, key[a], key[a + 1], inverse)
        _acc(out, [(key[:a] + pair + key[a + 2 :], rc) for pair, rc in pairs], c)
    return signs[:a] + s2 + s1 + signs[a + 2 :], out


def r_apply(slot: int, v: TensorVec, inverse: bool = False) -> TensorVec:
    """Apply the R-matrix (or its inverse) at adjacent slots (slot, slot+1),
    1-based; the sign sequence is swapped at those slots."""
    new_signs, out = _r_step(v.N, v.signs, v.terms, slot, inverse)
    return TensorVec._from_raw(v.N, new_signs, out)


def _bar(v: TensorVec, inverse: bool) -> TensorVec:
    """R_{w0} (or its inverse version) along the block word, applied once to
    the sum over the terms of v of q^e bar(c) times the reversed pure tensor
    of its key, e the exponent of the q-prefactor from the pairwise form
    values: the anti-linear bar, whose terms share every intermediate
    vector.  Raises ValueError unless v lives on (+)^m (-)^n."""
    word = _block_word(*_split_signs(v.signs, "psi_star" if inverse else "psi"))
    sign = [1 if s == "+" else -1 for s in v.signs]
    k = len(sign)
    start = {}
    for key, c in v.terms.items():
        e = sum(sign[r] * sign[s] for r in range(k) for s in range(r + 1, k) if key[r] == key[s])
        e = e if inverse else -e
        start[key[::-1]] = {e - x: y for x, y in c.items()}
    w = TensorVec._from_raw(v.N, v.signs[::-1], start)
    for idx in reversed(word):
        w = r_apply(idx, w, inverse)
    return TensorVec._from_raw(v.N, v.signs, w.terms)


def psi(v: TensorVec) -> TensorVec:
    """The bar involution compatible with bar on the quantum group
    (anti-linear; built from the R-matrix along the block word of w0).
    v must live on (+)^m (-)^n; ValueError otherwise."""
    return _bar(v, False)


def psi_star(v: TensorVec) -> TensorVec:
    """The adjoint bar involution with respect to the orthonormal-basis
    form (anti-linear; built from inverse R-matrices along the block word
    of w0).  v must live on (+)^m (-)^n; ValueError otherwise."""
    return _bar(v, True)


def pairing(v: TensorVec, w: TensorVec) -> LaurentQ:
    """Bilinear form making the monomial basis orthonormal."""
    v._check(w)
    out: dict = {}
    small, large = (v.terms, w.terms) if len(v.terms) < len(w.terms) else (w.terms, v.terms)
    for key, c in small.items():
        d = large.get(key)
        if d is not None:
            _addmul(out, c, d)
    return LaurentQ._raw(out)


# ---------------------------------------------------------------------------
# canonical and dual canonical bases (Lusztig's lemma)


def _split_signs(signs: str, what: str = "a canonical basis"):
    """(m, n) of a (+)^m (-)^n sign sequence; ValueError naming what needs
    it otherwise."""
    m = signs.count("+")
    if signs != "+" * m + "-" * (len(signs) - m):
        raise ValueError(f"{what} is defined on (+)^m (-)^n signs only, not {signs!r}")
    return m, len(signs) - m


def _inversions(top, bottom) -> int:
    """Top inversions plus bottom co-inversions: the number of adjacent
    swaps that sort a key anti-dominant (top ascending, bottom descending)."""
    return sum(1 for a, b in itertools.combinations(top, 2) if a > b) + sum(
        1 for a, b in itertools.combinations(bottom, 2) if a < b
    )


def key_stat(signs: str, key) -> tuple:
    """Statistic compatible with the Bruhat order: (entry sum, inversions,
    the key itself)."""
    m, _ = _split_signs(signs, "key_stat")
    return (sum(key), _inversions(key[:m], key[m:]), key)


def _arrangements(items):
    """Distinct orderings of a multiset, in lexicographic order."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def _weight_space_keys(N: int, signs: str, weight: tuple):
    """Index tuples in [1, N]^k of one weight of a (+)^m (-)^n space.

    A key of weight w has, for each index, top count = x + max(w, 0) and
    bottom count = x + max(-w, 0) for a unique multiset x of size m minus
    the positive part of w.  So each such x contributes every arrangement of
    its top multiset times every arrangement of its bottom multiset, and no
    candidate is generated only to be thrown away.
    """
    m, n = _split_signs(signs)
    pos = [i for i, c in weight if c > 0 for _ in range(c)]
    neg = [i for i, c in weight if c < 0 for _ in range(-c)]
    free = m - len(pos)
    if free < 0 or n - len(neg) != free or any(not 1 <= i <= N for i, _ in weight):
        return
    for x in itertools.combinations_with_replacement(range(1, N + 1), free):
        bottoms = list(_arrangements(neg + list(x)))
        for top in _arrangements(pos + list(x)):
            for bottom in bottoms:
                yield top + bottom


_space_memo: dict = {}


def _weight_space(N, signs, weight, limit=None):
    """The keys of one weight space in sorted order, memoized per (N, signs,
    weight), so that a `cb` call enumerates its space once for its size
    bound and its family file's key check.  None when the space has more
    than `limit` keys; the enumeration then stops at limit + 1 keys."""
    memo_key = (N, signs, weight)
    space = _space_memo.get(memo_key)
    if space is None:
        keys = _weight_space_keys(N, signs, weight)
        if limit is not None:
            keys = list(itertools.islice(keys, limit + 1))
            if len(keys) > limit:
                return None
        space = _space_memo[memo_key] = sorted(keys)
    return None if limit is not None and len(space) > limit else space


def _descent(signs: str, key: tuple, dual: bool):
    """The first slot a, 1-based, at which key has a same-sign descent: a
    top descent or a bottom ascent for the dual family, a top ascent or a
    bottom descent for the canonical one.  Swapping the entries at slots a
    and a + 1 gives a key of earlier rank.  None for a root key."""
    m = signs.count("+")
    for a in range(len(key) - 1):
        if a != m - 1 and key[a] != key[a + 1] and (key[a] > key[a + 1]) == (dual == (a < m)):
            return a + 1
    return None


def _block_word(m: int, n: int) -> list:
    """The reduced word for w0 that psi and psi_star run along on
    (+)^m (-)^n.  Applied right to left to the reversed signs (-)^n (+)^m, it
    is w0 on the n minus slots, then on the m plus slots, then the m n steps
    carrying the plus block past the minus block: Lusztig's psi_{M x N} =
    Theta (psi_M x psi_N) for the two blocks (Introduction to Quantum
    Groups, ch. 4), the block steps giving Theta up to the flip and a power
    of q.  The blocks of a reversed root key are weakly monotone, so only
    the block steps branch; _psi_root walks those alone."""
    cross = [s for b in reversed(range(m)) for s in range(b + 1, n + b + 1)]
    return cross + [n + i for r in range(1, m) for i in range(r, 0, -1)] + [
        i for r in range(1, n) for i in range(r, 0, -1)]


@lru_cache(maxsize=None)
def _cross(N: int, w: int, bottom: tuple) -> tuple:
    """R on the -+ slots, from the last to the first, carrying a plus entry
    w left across the minus entries bottom: tuple of ((w', bottom'),
    coeff-dict).  An unequal pair only swaps; an equal pair branches as
    _r_pair lists.  Memoized: a pure function of its arguments, whose values
    are only read."""
    paths = {(w, bottom): {0: 1}}
    for j in reversed(range(len(bottom))):
        nxt: dict = {}
        for (v, bot), x in paths.items():
            if bot[j] != v:
                # an equal pair's branches keep their entries at j equal, so
                # none lands on this key and x need not be copied
                nxt[v, bot] = x
            else:
                _acc(nxt, [((v2, bot[:j] + (b2,) + bot[j + 1 :]), rc)
                           for (v2, b2), rc in _r_pair(N, "-", "+", v, v, False)], x)
        paths = nxt
    return tuple(paths.items())


def _psi_root(N: int, signs: str, key: tuple) -> TensorVec:
    """psi of the unit vector at a root key of the canonical family (top
    weakly decreasing, bottom weakly increasing) by a crossing walk; raises
    ValueError at any other key.

    On such a key the pure-block steps of the block word only reorder it,
    and with _bar's e they leave q^C, C the number of equal top-bottom
    pairs.  In the m n block steps each top entry in turn walks left across
    the bottom block (_cross), and the states are merged after each."""
    m, _ = _split_signs(signs, "_psi_root")
    top, bottom = key[:m], key[m:]
    if any(a < b for a, b in zip(top, top[1:])) or any(a > b for a, b in zip(bottom, bottom[1:])):
        raise ValueError(f"{key} is not a root key of the canonical family on {signs}")
    states = {key: {sum(1 for a in top for b in bottom if a == b): 1}}
    for s in range(m):
        out: dict = {}
        for k, c in states.items():
            head, tail = k[:s], k[s + 1 : m]
            for (w, bot), x in _cross(N, k[s], k[m:]):
                _addmul(out.setdefault(head + (w,) + tail + bot, {}), c, x)
        states = {k: c for k, c in out.items() if c}
    return TensorVec._from_raw(N, signs, states)


def _rank_step(table: list, triples: list, p: int, dual: bool) -> dict:
    """x = (R_a - q) b (dual) or (R_a^{-1} + q) b on ranks, for b with unit
    term at rank p and correction triples, as {(rank, exponent): coeff},
    zeros kept.  table[j] = (s, h): on same-sign slots R_a^{+-1} moves the
    term at j to s, the rank of keys[j] with slots a and a + 1 swapped, and
    with the -q or +q leaves -q^h (dual) or q^h at j; or, for equal entries,
    0 or q + q^-1."""
    x: dict = {}
    sign = -1 if dual else 1
    for j, e, y in ((p, 0, 1), *triples):
        s, h = table[j]
        if s != j:
            k = (s, e)
            x[k] = x.get(k, 0) + y
            k = (j, e + h)
            x[k] = x.get(k, 0) + sign * y
        elif not dual:
            for k in ((j, e + 1), (j, e - 1)):
                x[k] = x.get(k, 0) + y
    return x


def _dual_root(N: int, signs: str, key: tuple) -> TensorVec:
    """The dual canonical vector at an anti-dominant key, in closed form:
    the tensor-space lift of the z_c products of d_basis.  Scanning the top
    slots from the last, each is paired with the first unpaired bottom slot
    of its value c, if any, so the pairs nest outward from the boundary.
    The vector is the sum over r_k in [0, c_k - 1] of (-q)^(sum r_k) times
    the key with the k-th pair set to c_k - r_k: every other key lies in
    the weight space, ranks below this one, and has a q Z[q] coefficient."""
    m = signs.count("+")
    free = list(range(m, len(key)))
    pairs = []
    for i in reversed(range(m)):
        j = next((j for j in free if key[j] == key[i]), None)
        if j is not None:
            free.remove(j)
            pairs.append((i, j))
    terms = {}
    for rs in itertools.product(*(range(key[i]) for i, _ in pairs)):
        k = list(key)
        for (i, j), r in zip(pairs, rs):
            k[i] = k[j] = key[i] - r
        e = sum(rs)
        terms[tuple(k)] = {e: (-1) ** e}
    return TensorVec._from_raw(N, signs, terms)


def _lusztig(N: int, signs: str, keys: list, dual: bool) -> list:
    """Lusztig's lemma on ranks: for each key in order, the vector
    b = key + (a q Z[q] combination of earlier keys) fixed by psi_star
    (dual) or psi, returned in the order of keys.  lower[j] holds the
    correction of keys[j] as (rank, exponent, coeff) triples until, after
    the last key, it is replaced by the vector.

    A key with a same-sign descent at slot a (_descent) is R_a^{+-1} of
    key', the key with slots a and a + 1 swapped, of earlier rank.  Both
    bars send R_a v to R_a^{-1} bar(v), and R_a - R_a^{-1} = q - q^-1 on
    same-sign slots, so x = (R_a - q) b_key' (dual) or (R_a^{-1} + q) b_key'
    is bar-invariant with unit term at key (Kazhdan-Lusztig 1979; Brundan,
    math/0203011).  _rank_step forms x from lower[key'].  x lies in Z[q],
    and b_j is 1 at j plus terms of degree >= 1, so by Lusztig's uniqueness
    b is x minus mu b_j for each constant term mu of x, at rank j.

    A root key, with no such descent, is anti-dominant in the dual family,
    and its vector is the closed form _dual_root: no bar, no reduction.  A
    root key of the canonical family starts from psi(unit), which the
    crossing walk _psi_root builds, not psi along the block word.  c is the
    correction being built, {(rank, exponent): coeff}, and d = psi(b) - b,
    {rank: {exponent: coeff}}, reduced to zero.
    The head of d has the largest rank, below i, and its coefficient r is
    antisymmetric under bar, so r = p - bar(p) with p its part of positive
    degree.  b gains p * b_head and d loses r * b_head.  b_head is 1 at
    head, so d's head term is popped, not cancelled; for each term of p,
    one pass over b_head's triples adds a p to c and a (bar(p) - p) to d,
    where a is the triple's coefficient.  A sum that cancels stays as a
    zero until its rank is popped from d or c becomes triples.  d starts as
    copies of the coefficient dicts of psi(unit), since nothing writes to
    the dicts of a built vector; so even a walk that returns a stored
    vector leaves that vector intact.

    These passes, the families' hottest loops, sum integers into (rank,
    exponent) keys by hand, not through laurent._addmul.  The reduction
    pass of a canonical root key forms each product once for both of its
    sums.  The R-step of every non-root key (_rank_step, then its
    constant-term subtractions) only moves, shifts and scales terms.  A
    dual root key sums nothing: its vector is a closed form (_dual_root).
    """
    m, n = _split_signs(signs)
    rank = {key: i for i, key in enumerate(keys)}
    tables = {a: [(rank[k[: a - 1] + (k[a], k[a - 1]) + k[a + 1 :]],
                   -1 if ((k[a - 1] > k[a]) == (a < m)) == dual else 1) for k in keys]
              for a in range(1, m + n) if a != m}
    lower: list = []
    for i, key in enumerate(keys):
        a = _descent(signs, key, dual)
        if a is not None:
            p = tables[a][i][0]
            c = _rank_step(tables[a], lower[p], p, dual)
            if c.pop((i, 0), 0) != 1 or any(y and j >= i for (j, _), y in c.items()):
                raise ArithmeticError("non-triangular R-step (internal bug)")
            for head, mu in [(j, y) for (j, e), y in c.items() if not e and y]:
                del c[(head, 0)]
                for j, e, y in lower[head]:
                    k = (j, e)
                    c[k] = c.get(k, 0) - mu * y
        elif dual:
            # a key outside the weight space gets a rank past the last
            c = {(rank.get(k, len(keys)), e): x
                 for k, y in _dual_root(N, signs, key).terms.items() for e, x in y.items()}
            if c.pop((i, 0), 0) != 1 or any(j >= i for j, _ in c):
                raise ArithmeticError("non-triangular closed form (internal bug)")
        else:
            c = {}
            # a key outside the weight space gets a rank past the last
            d = {rank.get(k, len(keys)): dict(x) for k, x in _psi_root(N, signs, key).terms.items()}
            _acc(d, ((i, {0: 1}),), {0: -1})
            while d:
                head = max(d)
                r = {e: x for e, x in d.pop(head).items() if x}
                if not r:
                    continue
                if head >= i or r != {-e: -x for e, x in r.items()}:
                    raise ArithmeticError("non-triangular bar involution (internal bug)")
                triples = lower[head]
                for ep, cp in LaurentQ._raw(r).positive_part().coeffs.items():
                    k = (head, ep)
                    c[k] = c.get(k, 0) + cp
                    for j, ea, ca in triples:
                        v = ca * cp
                        e = ea + ep
                        k = (j, e)
                        c[k] = c.get(k, 0) + v
                        dj = d.get(j)
                        if dj is None:
                            dj = d[j] = {}
                        dj[e] = dj.get(e, 0) - v
                        e = ea - ep
                        dj[e] = dj.get(e, 0) + v
        triples = [(j, e, x) for (j, e), x in c.items() if x]
        if triples and min(e for _, e, _ in triples) < 1:
            raise ArithmeticError("basis coefficient not in qZ[q] (internal bug)")
        lower.append(triples)
    for i, key in enumerate(keys):
        terms = {key: {0: 1}}
        for j, e, x in lower[i]:
            terms.setdefault(keys[j], {})[e] = x
        lower[i] = TensorVec._from_raw(N, signs, terms)
    return lower


_family_memo: dict = {}


def _encode_vec(rank: dict, vec: TensorVec) -> str:
    """One vector of a family file: a compact JSON list of items
    [rank, e1, c1, e2, c2, ...], one per term, in ascending rank order, with
    the term's exponents ascending; rank maps each key to its index in the
    file's keys.  The list holds no dict, so compact's sorted keys leave it
    as json.dumps(items, separators=(",", ":")) writes it."""
    items = sorted(
        [rank[k], *itertools.chain.from_iterable(sorted(c.items()))]
        for k, c in vec.terms.items()
    )
    return compact(items)


def _decode_vec(N: int, signs: str, keys: list, key: tuple, text: str) -> TensorVec:
    """The inverse of _encode_vec, given the file's keys, for the basis
    vector of key.  Raises ValueError unless text is a list of such items
    with ranks in range and ascending, exponents ascending, and every
    exponent and coefficient an int (not a bool) with no coefficient zero;
    and unless, as for every vector _lusztig builds, the term at key is
    {0: 1} and every other coefficient lies in qZ[q]."""
    try:
        items = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cached family vector is not JSON: {exc}") from None
    if type(items) is not list:
        raise ValueError("cached family vector is not a list of terms")
    terms = {}
    last = -1
    for item in items:
        if type(item) is not list or len(item) < 3 or len(item) % 2 == 0:
            raise ValueError("cached family term is not [rank, e1, c1, ...]")
        r = item[0]
        if type(r) is not int or not last < r < len(keys):
            raise ValueError(f"cached family term has rank {r!r} out of order or range")
        last = r
        coeffs = {}
        prev = None
        for e, c in zip(item[1::2], item[2::2]):
            if type(e) is not int or type(c) is not int or not c or not (prev is None or prev < e):
                raise ValueError(f"cached family term has a bad pair {e!r}, {c!r}")
            coeffs[e] = c
            prev = e
        if keys[r] != key and item[1] < 1:
            raise ValueError(f"cached family term at {keys[r]} is not in qZ[q]")
        terms[keys[r]] = coeffs
    if terms.get(key) != {0: 1}:
        raise ValueError(f"cached family vector of {key} is not 1 at its own key")
    return TensorVec._from_raw(N, signs, terms)


def _basis_family(N: int, signs: str, weight: tuple, dual: bool) -> dict:
    """All canonical (dual=False) or dual canonical (dual=True) basis vectors
    of one weight space, memoized in memory, and in the file cache when one
    is configured.

    The file's request is {"kind", "N", "signs", "weight", "format": 2}.  Its
    result is {"keys": the weight space in sorted tuple order, "vecs": one
    _encode_vec string per key}, so a read parses only the key list and
    keeps each vector as a string until _basis_vector decodes it.  A file is
    used only when its keys are exactly that sorted list and it holds one
    string per key; anything else is recomputed and rewritten.  A family
    read from the file keeps the file's key order, so list(family) is the
    rank table of its strings.

    A computed family comes from Lusztig's lemma on ranks (_lusztig), with
    the keys sorted by key_stat.  A key with a same-sign descent is one
    R-step on ranks from an earlier key's correction.  A root key of the
    dual family is written down in closed form (_dual_root); only a root key
    of the canonical family takes psi of its unit vector, by the crossing
    walk (_psi_root).  No family runs a bar along the block word."""
    memo_key = (N, signs, weight, dual)
    if memo_key in _family_memo:
        return _family_memo[memo_key]

    request = {
        "kind": "dual_family" if dual else "family",
        "N": N,
        "signs": signs,
        "weight": [list(p) for p in weight],
        "format": 2,
    }
    space = _weight_space(N, signs, weight)
    cached = _cache.get(request)
    if type(cached) is dict:
        vecs = cached.get("vecs")
        if (
            cached.get("keys") == [list(k) for k in space]
            and type(vecs) is list
            and len(vecs) == len(space)
            and all(type(v) is str for v in vecs)
        ):
            family = _family_memo[memo_key] = dict(zip(space, vecs))
            return family

    # processing order: each key's correction terms lie on earlier keys, so
    # the head of the remainder is always its entry of largest rank
    keys = sorted(space, key=lambda k: key_stat(signs, k))
    if not dual:
        keys.reverse()
    family = dict(zip(keys, _lusztig(N, signs, keys, dual)))
    if _cache.current_dir() is not None:
        rank = {k: i for i, k in enumerate(space)}
        vecs = [_encode_vec(rank, family[k]) for k in space]
        _cache.put(request, {"keys": [list(k) for k in space], "vecs": vecs})
    _family_memo[memo_key] = family
    return family


def _basis_vector(N: int, top, bottom, dual: bool) -> TensorVec:
    signs = "+" * len(top) + "-" * len(bottom)
    key = tuple(top) + tuple(bottom)
    family = _basis_family(N, signs, weight_of(top, bottom), dual)
    vec = family[key]
    if type(vec) is str:  # undecoded, from the file cache
        vec = family[key] = _decode_vec(N, signs, list(family), key, vec)
    return vec


def dual_canonical(N: int, top, bottom) -> TensorVec:
    """Dual canonical basis vector: the unique psi*-fixed vector equal to
    the monomial plus a q Z[q] combination of lower monomials."""
    return _basis_vector(N, top, bottom, dual=True)


def canonical(N: int, top, bottom) -> TensorVec:
    """Canonical basis vector: psi-fixed, unitriangular the other way."""
    return _basis_vector(N, top, bottom, dual=False)


# ---------------------------------------------------------------------------
# the braided symmetric algebra S
#
# An element of S of degree (m, n) is a TensorVec on (+)^m (-)^n in normal
# form: its keys are anti-dominant, top (the first m entries) ascending and
# bottom descending.


def straighten(top, bottom):
    """Straightening data of a monomial: (ell, anti-dominant key) with
    ell counting top inversions plus bottom co-inversions, so that the
    monomial equals q^ell times the sorted one."""
    return _inversions(top, bottom), (tuple(sorted(top)), tuple(sorted(bottom, reverse=True)))


def word_to_svec(N: int, word) -> TensorVec:
    """Normal form of a word in the generators: word is a sequence of
    ('x'|'y', index) pairs, m x's and n y's.  Rewrites y-past-x using the
    commutation rules (with branching on the equal-index case), then sorts
    each letter block; the result lives on (+)^m (-)^n.  Every index must
    lie in [1, N]; ValueError otherwise."""
    word = list(word)
    if not all(1 <= i <= N for _, i in word):
        raise ValueError("generator index out of range")
    m = sum(1 for kind, _ in word if kind == "x")
    out: dict = {}
    stack = [(ONE, word)]
    while stack:
        c, w = stack.pop()
        pos = None
        for p in range(len(w) - 1):
            if w[p][0] == "y" and w[p + 1][0] == "x":
                pos = p
                break
        if pos is None:
            top = [i for kind, i in w if kind == "x"]
            bottom = [i for kind, i in w if kind == "y"]
            ell, (top, bottom) = straighten(top, bottom)
            _acc(out, ((top + bottom, c.coeffs),), {ell: 1})
            continue
        yi = w[pos][1]
        xj = w[pos + 1][1]
        if yi != xj:
            w2 = w[:pos] + [w[pos + 1], w[pos]] + w[pos + 2 :]
            stack.append((c, w2))
        else:
            i = yi
            w2 = w[:pos] + [("x", i), ("y", i)] + w[pos + 2 :]
            stack.append((c.shift(1), w2))
            for r in range(1, i):
                wr = w[:pos] + [("x", i - r), ("y", i - r)] + w[pos + 2 :]
                cr = c * LaurentQ({r + 1: (-1) ** r, r - 1: -((-1) ** r)})  # (-q)^r (q - q^-1)
                stack.append((cr, wr))
    return TensorVec._from_raw(N, "+" * m + "-" * (len(word) - m), out)


def z_word_terms(N: int, c: int):
    """Expansion of z_c = sum_{r} (-q)^r x_{c-r} y_{c-r} as (coeff, pair)."""
    if not 1 <= c <= N:
        raise ValueError("z index out of range")
    return [
        (LaurentQ({r: (-1) ** r}), ("x", c - r), ("y", c - r)) for r in range(c)
    ]


def d_basis(N: int, top, bottom) -> TensorVec:
    """Dual canonical basis element of the algebra, from its closed form:
    a q-power times x's, central z's for the matched values, then y's."""
    if not is_anti_dominant(top, bottom):
        raise ValueError("d_basis requires an anti-dominant key")
    matched, rest_top, rest_bottom = match_rows(top, bottom)
    cs = [v for v in sorted(matched) for _ in range(matched[v])]
    rest_top = [a for a in sorted(rest_top) for _ in range(rest_top[a])]
    rest_bottom = [b for b in sorted(rest_bottom, reverse=True) for _ in range(rest_bottom[b])]
    t = len(cs)
    pre = -(t * (t - 1)) // 2
    pre -= sum(1 for a in rest_top for c in cs if a > c)
    pre -= sum(1 for b in rest_bottom for c in cs if b > c)
    out: dict = {}
    base_word = [("x", a) for a in rest_top]
    for z_expansion in itertools.product(*(z_word_terms(N, c) for c in cs)):
        coeff = LaurentQ({pre: 1})
        word = list(base_word)
        for zc, xg, yg in z_expansion:
            coeff = coeff * zc
            word.extend([xg, yg])
        word.extend(("y", b) for b in rest_bottom)
        _acc(out, word_to_svec(N, word).terms.items(), coeff.coeffs)
    return TensorVec._from_raw(N, "+" * len(top) + "-" * len(bottom), out)


def project_to_S(v: TensorVec) -> TensorVec:
    """The projection sending each monomial tensor to q^ell times the
    anti-dominant algebra monomial it straightens to."""
    m, _ = _split_signs(v.signs, "project_to_S")
    out: dict = {}
    for key, c in v.terms.items():
        ell, (top, bottom) = straighten(key[:m], key[m:])
        _acc(out, ((top + bottom, c),), {ell: 1})
    return TensorVec._from_raw(v.N, v.signs, out)


def psi_star_S(v: TensorVec) -> TensorVec:
    """The bar involution on the algebra, computed independently of the
    tensor space: generators are fixed and products reverse with the
    q^{(weight, weight') - mm' - nn'} twist.  The terms share one memo of
    the images of their suffix words."""
    m = v.signs.count("+")
    out: dict = {}
    memo = {((), ()): TensorVec(v.N, "", {(): {0: 1}})}
    for key, c in v.terms.items():
        image = _psi_star_word(v.N, key[:m], key[m:], memo)
        _acc(out, image.terms.items(), LaurentQ._raw(c).bar().coeffs)
    return TensorVec._from_raw(v.N, v.signs, out)


def _psi_star_word(N: int, top, bottom, memo: dict) -> TensorVec:
    """psi*_S of the word x_top y_bottom (tuples), from that of the word
    without its first letter; memo maps (top, bottom) to the images already
    built, the empty word's included, which are only read."""
    image = memo.get((top, bottom))
    if image is not None:
        return image
    if top:
        kind, idx = "x", top[0]
        rest_top, rest_bottom = top[1:], bottom
    else:
        kind, idx = "y", bottom[0]
        rest_top, rest_bottom = top, bottom[1:]
    rest = _psi_star_word(N, rest_top, rest_bottom, memo)
    w = dict(weight_of(rest_top, rest_bottom)).get(idx, 0)
    e = w - len(rest_top) if kind == "x" else -w - len(rest_bottom)
    m = len(rest_top)
    out: dict = {}
    for rk, rc in rest.terms.items():
        word = [("x", i) for i in rk[:m]] + [("y", j) for j in rk[m:]] + [(kind, idx)]
        _acc(out, word_to_svec(N, word).terms.items(), {x + e: y for x, y in rc.items()})
    image = memo[top, bottom] = TensorVec._from_raw(N, "+" * len(top) + "-" * len(bottom), out)
    return image


# ---------------------------------------------------------------------------
# closed-form expansions and the pairing formula


def _check_supports(N: int, *comps):
    """Raise ValueError unless every composition is supported in [1, N]."""
    for c in comps:
        lo, hi = c.support_bounds()
        if hi >= lo and not (1 <= lo and hi <= N):
            raise ValueError("supports must lie in [1, N]")


def pairing_formula(
    kappa: Composition,
    lam: Composition,
    gamma: Composition,
    N: int,
    m: int,
    n: int,
) -> LaurentQ:
    """Closed formula for the canonical-basis pairing (b_kappa, b_lambda) in
    rank N, with the stated boundary conventions tau_1 = rho_1 = lambda_1
    and tau_{N+1} = 0."""
    t = lam.total
    if kappa.total != t:
        raise ValueError("kappa and lambda must have equal size")
    _check_supports(N, kappa, lam, gamma)
    L = [0] + [lam[i] for i in range(1, N + 2)]  # L[i] = lambda_i, L[N+1] = 0
    K = [0] + [kappa[i] for i in range(1, N + 1)]
    G = [0] + [gamma[i] for i in range(1, N + 1)]
    # rho from the difference kappa - lambda
    rho = [0] * (N + 1)
    rho[1] = L[1]
    run = 0
    for i in range(1, N):
        run += K[i] - L[i]
        rho[i + 1] = L[i + 1] - run
        if rho[i + 1] < 0:
            return ZERO
    if run + K[N] - L[N] != 0:
        return ZERO
    for i in range(1, N):
        if not 0 <= rho[i + 1] <= L[i + 1] + min(L[i], rho[i]):
            return ZERO
    spans = []
    for i in range(1, N):
        a = max(L[i + 1], rho[i + 1])
        b = L[i + 1] + min(L[i], rho[i])
        if a > b:
            return ZERO
        spans.append(range(a, b + 1))
    total = ZERO
    mn_fact = qfact(m) * qfact(n)
    for mid in itertools.product(*spans):
        tau = [0] * (N + 2)
        tau[1] = L[1]
        for idx, v in enumerate(mid):
            tau[idx + 2] = v
        beta = [0] * (N + 1)
        for i in range(1, N + 1):
            beta[i] = L[i + 1] + tau[i] - tau[i + 1]
        s = comb(m, 2) + comb(n, 2)
        for i in range(2, N + 1):
            s += (2 * tau[i] - L[i] - rho[i]) * (beta[i] + G[i])
        for i in range(1, N + 1):
            s -= comb(beta[i], 2) + comb(beta[i] + G[i], 2)
        num = mn_fact
        den = ONE
        for i in range(2, N + 1):
            num = num * qbinom(beta[i], tau[i] - L[i]) * qbinom(beta[i], tau[i] - rho[i])
        for i in range(1, N + 1):
            den = den * qfact(beta[i]) * qfact(beta[i] + G[i])
        total = total + num.divexact(den).shift(s)
    return total


def stable_pairing(kappa, lam, mu, nu):
    """pairing_formula at the least N0 with all supports in [2, N0 - 1],
    checked against its value at N0 + 1; returns (value, N0).  Raises
    ArithmeticError, naming both values, if the two differ."""
    gamma = mu + nu
    m = lam.total + mu.total
    n = lam.total + nu.total
    his = [c.support_bounds()[1] for c in (kappa, lam, gamma) if not c.is_zero()]
    los = [c.support_bounds()[0] for c in (kappa, lam, gamma) if not c.is_zero()]
    if los and min(los) < 2:
        raise ValueError("supports must start at 2 or later for stability")
    N0 = max(his, default=2) + 1
    a = pairing_formula(kappa, lam, gamma, N0, m, n)
    b = pairing_formula(kappa, lam, gamma, N0 + 1, m, n)
    if a != b:
        raise ArithmeticError(f"pairing is {a} at N = {N0} but {b} at N = {N0 + 1}")
    return a, N0

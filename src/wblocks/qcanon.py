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


def _acc(acc: dict, terms, b: dict):
    """acc[key] += a * b for each (key, a) in terms, on raw coefficient dicts
    {exponent: int}, dropping zero coefficients and keys whose coefficient
    cancels to zero.

    Every TensorVec and SVec builder accumulates through it, and each key's
    sum goes through laurent._addmul.  It mutates only acc and the dicts acc
    holds, which the caller must have created itself; a and b are only read,
    so terms may be the items of a built vector.
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
    read them straight into _acc."""

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
        return self._plus(other, {0: 1})

    def __sub__(self, other: "TensorVec") -> "TensorVec":
        return self._plus(other, {0: -1})

    def _plus(self, other: "TensorVec", sign: dict) -> "TensorVec":
        self._check(other)
        acc = {k: dict(c) for k, c in self.terms.items()}
        _acc(acc, other.terms.items(), sign)
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


def _alpha_eps(i: int, j: int) -> int:
    """(alpha_i, eps_j) for the standard symmetric form."""
    return (1 if j == i else 0) - (1 if j == i + 1 else 0)


def _slot_K_exp(sign: str, i: int, j: int) -> int:
    """Exponent of q from K_i acting on v_j^{sign}."""
    e = _alpha_eps(i, j)
    return e if sign == "+" else -e


def act_gen(gen: str, i: int, v: TensorVec) -> TensorVec:
    """Action of F_i, E_i, K_i or K_i^{-1} through the iterated
    comultiplication (F carries K's to its right, E carries K^{-1}'s to its
    left)."""
    N, signs = v.N, v.signs
    if not 1 <= i < N:
        raise ValueError(f"generator index {i} out of range 1..{N - 1}")
    k = len(signs)
    acc: dict = {}
    if gen in ("K", "Kinv"):
        sgn = 1 if gen == "K" else -1
        for key, c in v.terms.items():
            e = sum(_slot_K_exp(signs[a], i, key[a]) for a in range(k))
            _acc(acc, ((key, c),), {sgn * e: 1})
        return TensorVec._from_raw(N, signs, acc)
    if gen not in ("F", "E"):
        raise ValueError(f"unknown generator {gen!r}")
    for key, c in v.terms.items():
        for a in range(k):
            s, j = signs[a], key[a]
            if gen == "F":
                if s == "+" and j == i:
                    new_j = i + 1
                elif s == "-" and j == i + 1:
                    new_j = i
                else:
                    continue
                shift = sum(_slot_K_exp(signs[b], i, key[b]) for b in range(a + 1, k))
            else:
                if s == "+" and j == i + 1:
                    new_j = i
                elif s == "-" and j == i:
                    new_j = i + 1
                else:
                    continue
                shift = -sum(_slot_K_exp(signs[b], i, key[b]) for b in range(a))
            _acc(acc, ((key[:a] + (new_j,) + key[a + 1 :], {shift: 1}),), c)
    return TensorVec._from_raw(N, signs, acc)


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


# While a family is built (see _basis_family): (N, inverse) -> the memo of
# _w0_unit that its keys share.  None at all other times.
_w0_memo = None


def _w0_parts(N: int, signs: str, key: tuple, inverse: bool, memo) -> list:
    """R_{w0} of the unit vector at key as parts (a, tail, image): the sum of
    a * (image x tail), with a a coefficient dict and image raw terms on the
    first k-1 slots, to be read only.

    The reduced word for w0 is s_1, s_2 s_1, ..., s_{k-1} ... s_1, applied
    right to left: first s_1, s_2, ..., s_{k-1}, then the same word for k-1
    on slots 1..k-1.  So the first factor moves to the end by k-1 R-steps,
    and the first k-1 factors of each resulting term have their image looked
    up in memo.
    """
    moved = {key: {0: 1}}
    for idx in range(1, len(signs)):
        signs, moved = _r_step(N, signs, moved, idx, inverse)
    return [(a, k2[-1:], _w0_unit(N, signs[:-1], k2[:-1], inverse, memo))
            for k2, a in moved.items()]


def _w0_unit(N: int, signs: str, key: tuple, inverse: bool, memo) -> dict:
    """R_{w0} of the unit vector at key as raw terms, to be read only.
    memo = (images, coeffs) maps (signs, key) to its image, and each
    coefficient's items to the one dict that all images share for it: the
    images of a family hold only a few dozen distinct coefficients."""
    images, coeffs = memo
    out = images.get((signs, key))
    if out is None:
        if len(key) <= 1:
            return {key: {0: 1}}
        out = {}
        for a, tail, image in _w0_parts(N, signs, key, inverse, memo):
            _acc(out, ((k2 + tail, x) for k2, x in image.items()), a)
        for k2, x in out.items():
            out[k2] = coeffs.setdefault(tuple(x.items()), x)
        images[(signs, key)] = out
    return out


def _psi_key(v_key, signs, N, inverse: bool, word, memo):
    """R_{w0} (or its inverse version) applied to the reversed pure tensor,
    as (parts, e): the image is q^e times the sum over parts (a, tail, terms)
    of a * (terms x tail), and e is the exponent of the q-prefactor from the
    pairwise form values.

    With word None the image is built factor by factor (_w0_parts), with
    the images of sub-keys memoized in memo, an (images, coeffs) pair that
    keys sharing sub-keys can share.  An explicit word is applied R-step by
    R-step instead, as one part with an empty tail.
    """
    k = len(signs)
    e = 0
    for r in range(k):
        for s in range(r + 1, k):
            if v_key[r] == v_key[s]:
                sr = 1 if signs[r] == "+" else -1
                ss = 1 if signs[s] == "+" else -1
                e += sr * ss
    e = e if inverse else -e
    cur_signs, cur = signs[::-1], tuple(reversed(v_key))
    if word is None:
        return _w0_parts(N, cur_signs, cur, inverse, memo), e
    cur = {cur: {0: 1}}
    for idx in reversed(word):
        cur_signs, cur = _r_step(N, cur_signs, cur, idx, inverse)
    if cur_signs != signs:
        raise AssertionError("reduced word did not restore the sign sequence")
    return [({0: 1}, (), cur)], e


def _bar(v: TensorVec, inverse: bool, word) -> TensorVec:
    """Anti-linear extension of _psi_key: the sum of bar(c) * psi(key), with
    bar(c) * q^e accumulated straight into one dict per output key.  The
    keys share one memo of sub-key images, that of the family being built
    if there is one."""
    memo = ({}, {}) if _w0_memo is None else _w0_memo.setdefault((v.N, inverse), ({}, {}))
    acc: dict = {}
    for key, c in v.terms.items():
        parts, e = _psi_key(key, v.signs, v.N, inverse, word, memo)
        b = {e - x: y for x, y in c.items()}
        for a, tail, terms in parts:
            _acc(acc, ((k2 + tail, x) for k2, x in terms.items()), _addmul({}, a, b))
    return TensorVec._from_raw(v.N, v.signs, acc)


def psi(v: TensorVec, word=None) -> TensorVec:
    """The bar involution compatible with bar on the quantum group
    (anti-linear; built from the R-matrix along a reduced word for w0)."""
    return _bar(v, False, word)


def psi_star(v: TensorVec, word=None) -> TensorVec:
    """The adjoint bar involution with respect to the orthonormal-basis
    form (anti-linear; built from inverse R-matrices)."""
    return _bar(v, True, word)


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


def _split_signs(signs: str):
    m = signs.count("+")
    if signs != "+" * m + "-" * (len(signs) - m):
        raise ValueError("canonical bases live in (+)^m (-)^n tensor spaces")
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
    m, _ = _split_signs(signs)
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


def _lusztig(N: int, signs: str, keys: list, bar):
    """Lusztig's lemma on ranks: for each key in order, its bar-invariant
    vector b = key + (a q Z[q] combination of earlier keys), as the
    correction without the unit term: a list of (rank, exponent, coeff)
    triples.

    c is the correction being built, {(rank, exponent): coeff}, and
    d = bar(b) - b, {rank: {exponent: coeff}}, reduced to zero.  The head of
    d has the largest rank, below i, and its coefficient r is antisymmetric
    under bar, so r = p - bar(p) with p its part of positive degree.  b gains
    p * b_head and d loses r * b_head.  b_head is 1 at head, so d's head term
    is popped, not cancelled; for each term of p, one pass over b_head's
    triples adds a p to c and a (bar(p) - p) to d, where a is the triple's
    coefficient.  A sum that cancels stays as a zero until its rank is
    popped from d or c becomes triples.  d starts as copies of the
    coefficient dicts of bar(unit), since nothing writes to the dicts of a
    built vector; so even a bar that returns its input or a stored vector
    leaves that vector intact.

    That pass is the one raw Laurent sum written out by hand rather than
    through _acc and laurent._addmul, because it is the hottest loop of a
    family and forms each product a * p once for both c and d.  Flat triples
    and one dict for c, in place of a pass per rank into {rank: {exponent:
    coeff}} dicts for both, made the loop 19-25 % faster on the same bar
    images and cb-families norm_wall_s 12.6 % faster (median 0.231 ->
    0.202 s, lower in ten of ten alternating pairs of 30 s benchmark runs on
    a 2-vCPU host).
    """
    rank = {key: i for i, key in enumerate(keys)}
    lower: list = []  # lower[j]: the triples of keys[j]
    for i, key in enumerate(keys):
        c: dict = {}
        d = {rank[k2]: dict(x) for k2, x in bar(TensorVec.unit(N, signs, key)).terms.items()}
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
    return lower


_family_memo: dict = {}


def _encode_vec(rank: dict, vec: TensorVec) -> str:
    """One vector of a family file: a compact JSON list of items
    [rank, e1, c1, e2, c2, ...], one per term, in ascending rank order, with
    the term's exponents ascending; rank maps each key to its index in the
    file's keys."""
    items = sorted(
        [rank[k], *itertools.chain.from_iterable(sorted(c.items()))]
        for k, c in vec.terms.items()
    )
    return json.dumps(items, separators=(",", ":"))


def _decode_vec(N: int, signs: str, keys: list, text: str) -> TensorVec:
    """The inverse of _encode_vec, given the file's keys.  Raises ValueError
    unless text is a list of such items with ranks in range and ascending,
    exponents ascending, and every exponent and coefficient an int (not a
    bool) with no coefficient zero."""
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
        terms[keys[r]] = coeffs
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
    the keys sorted by key_stat.  psi or psi_star of each key's unit vector
    is built factor by factor, and the images of sub-keys are memoized in
    _w0_memo, which the keys of this family share and which is dropped as
    soon as the family is done.  Tuple keys come back only when a vector is
    stored."""
    global _w0_memo
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
    bar = psi_star if dual else psi
    _w0_memo = {}
    try:
        family = {}
        for key, triples in zip(keys, _lusztig(N, signs, keys, bar)):
            terms = {key: {0: 1}}
            for j, e, x in triples:
                terms.setdefault(keys[j], {})[e] = x
            family[key] = TensorVec._from_raw(N, signs, terms)
    finally:
        _w0_memo = None
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
        vec = family[key] = _decode_vec(N, signs, list(family), vec)
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


class SVec:
    """Element of the x/y algebra in normal form: map from anti-dominant
    index tableaux (top ascending, bottom descending) to Laurent
    polynomials, stored as TensorVec stores them."""

    __slots__ = ("N", "terms")

    def __init__(self, N: int, terms=None):
        self.N = N
        self.terms: dict = {}
        if terms:
            for (top, bottom), c in terms.items():
                c = _own(c)
                if not c:
                    continue
                top, bottom = tuple(top), tuple(bottom)
                if not is_anti_dominant(top, bottom):
                    raise ValueError("SVec keys must be anti-dominant")
                self.terms[(top, bottom)] = c

    @classmethod
    def _from_raw(cls, N: int, raw: dict) -> "SVec":
        """The element of {key: coeff-dict} as _acc builds it; takes the dicts."""
        v = cls(N)
        v.terms = raw
        return v

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, SVec):
            return (self.N, self.terms) == (other.N, other.terms)
        return NotImplemented

    def __add__(self, other: "SVec") -> "SVec":
        if self.N != other.N:
            raise ValueError("rank mismatch")
        acc = {k: dict(c) for k, c in self.terms.items()}
        _acc(acc, other.terms.items(), {0: 1})
        return SVec._from_raw(self.N, acc)

    def scaled(self, c) -> "SVec":
        """self times c, a LaurentQ or an int."""
        acc: dict = {}
        _acc(acc, self.terms.items(), _own(c))
        return SVec._from_raw(self.N, acc)

    def __repr__(self):
        return f"SVec({self.N}, {len(self.terms)} terms)"


def straighten(top, bottom):
    """Straightening data of a monomial: (ell, anti-dominant key) with
    ell counting top inversions plus bottom co-inversions, so that the
    monomial equals q^ell times the sorted one."""
    return _inversions(top, bottom), (tuple(sorted(top)), tuple(sorted(bottom, reverse=True)))


def word_to_svec(N: int, word) -> SVec:
    """Normal form of a word in the generators: word is a sequence of
    ('x'|'y', index) pairs.  Rewrites y-past-x using the commutation rules
    (with branching on the equal-index case), then sorts each letter block."""
    out: dict = {}
    stack = [(ONE, list(word))]
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
            ell, key = straighten(top, bottom)
            _acc(out, ((key, c.coeffs),), {ell: 1})
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
    return SVec._from_raw(N, out)


def s_mul(a: SVec, b: SVec) -> SVec:
    """Product in the algebra, renormalized."""
    if a.N != b.N:
        raise ValueError("rank mismatch")
    out: dict = {}
    for (ta, ba), ca in a.terms.items():
        for (tb, bb), cb in b.terms.items():
            word = (
                [("x", i) for i in ta]
                + [("y", j) for j in ba]
                + [("x", i) for i in tb]
                + [("y", j) for j in bb]
            )
            _acc(out, word_to_svec(a.N, word).terms.items(), _addmul({}, ca, cb))
    return SVec._from_raw(a.N, out)


def z_word_terms(N: int, c: int):
    """Expansion of z_c = sum_{r} (-q)^r x_{c-r} y_{c-r} as (coeff, pair)."""
    if not 1 <= c <= N:
        raise ValueError("z index out of range")
    return [
        (LaurentQ({r: (-1) ** r}), ("x", c - r), ("y", c - r)) for r in range(c)
    ]


def d_basis(N: int, top, bottom) -> SVec:
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
    return SVec._from_raw(N, out)


def project_to_S(v: TensorVec) -> SVec:
    """The projection sending each monomial tensor to q^ell times the
    anti-dominant algebra monomial it straightens to."""
    m, n = _split_signs(v.signs)
    out: dict = {}
    for key, c in v.terms.items():
        ell, skey = straighten(key[:m], key[m:])
        _acc(out, ((skey, c),), {ell: 1})
    return SVec._from_raw(v.N, out)


def psi_star_S(v: SVec) -> SVec:
    """The bar involution on the algebra, computed independently of the
    tensor space: generators are fixed and products reverse with the
    q^{(weight, weight') - mm' - nn'} twist."""
    out: dict = {}
    for (top, bottom), c in v.terms.items():
        image = _psi_star_word(v.N, list(top), list(bottom))
        _acc(out, image.terms.items(), LaurentQ._raw(c).bar().coeffs)
    return SVec._from_raw(v.N, out)


def _psi_star_word(N: int, top, bottom) -> SVec:
    if not top and not bottom:
        return SVec._from_raw(N, {((), ()): {0: 1}})
    if top:
        kind, idx = "x", top[0]
        rest_top, rest_bottom = top[1:], bottom
    else:
        kind, idx = "y", bottom[0]
        rest_top, rest_bottom = top, bottom[1:]
    rest = _psi_star_word(N, rest_top, rest_bottom)
    w = dict(weight_of(rest_top, rest_bottom)).get(idx, 0)
    e = w - len(rest_top) if kind == "x" else -w - len(rest_bottom)
    out: dict = {}
    for (rt, rb), rc in rest.terms.items():
        word = [("x", a) for a in rt] + [("y", b) for b in rb] + [(kind, idx)]
        _acc(out, word_to_svec(N, word).terms.items(), {x + e: y for x, y in rc.items()})
    return SVec._from_raw(N, out)


# ---------------------------------------------------------------------------
# closed-form expansions and the pairing formula


def _check_supports(N: int, *comps):
    """Raise ValueError unless every composition is supported in [1, N]."""
    for c in comps:
        lo, hi = c.support_bounds()
        if hi >= lo and not (1 <= lo and hi <= N):
            raise ValueError("supports must lie in [1, N]")


def expand_u_in_d(lam: Composition, mu: Composition, nu: Composition, N: int) -> dict:
    """Coefficients of the monomial basis element on the dual canonical
    basis of the algebra: {kappa: q^{theta_i (lam_{i+1} + gamma_{i+1})}
    qbinom(lam_{i+1}, theta_i) products}."""
    gamma = mu + nu
    _check_supports(N, lam, gamma)
    out: dict = {}
    spans = [range(lam[i + 1] + 1) for i in range(1, N)]
    for theta in itertools.product(*spans):
        coeff = ONE
        items = {i: lam[i] for i in range(1, N + 1)}
        for idx, th in enumerate(theta):
            i = idx + 1
            if th:
                coeff = coeff * qbinom(lam[i + 1], th).shift(th * (lam[i + 1] + gamma[i + 1]))
                items[i] += th
                items[i + 1] -= th
        kappa = Composition.from_items(items)
        out[kappa] = out.get(kappa, ZERO) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


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

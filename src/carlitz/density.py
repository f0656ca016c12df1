"""Image orders and densities of the t-adic representations.

The unit a of F_q[[t]] acts on the order-k jet side through the matrix with
rows (a, D^(1)a, ..., D^(k)a); reducing mod t^N gives a finite image whose
order D(N) is counted two independent ways: a literal enumeration of all
units mod t^(N+k) (entries of the jet mod t^N read nothing beyond that),
and a closed form counting which coefficients of a beyond t^(N-1) the jet
still pins down; the d-th tensor power a -> a^d is counted the same two
ways.  Both enumerations are one keyed count: each unit to a^d (d = 1 for
jets), then its distinct order-k jets (k = 0 for tensor powers).  The power
a^d is (a^d')^(p^f) for d = p^f d' with d' prime to p: products give a^d',
and the p^f-th power, being additive, only moves coefficient i to place
i p^f through x -> x^(p^f), the collapse behind the tensor closed form.
D(N) is always of the structural form unit * q^E and is kept that way;
only display ever touches a floating-point logarithm.
"""

from __future__ import annotations

import itertools
import math
import random
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .binomials import binom_row
from .errors import (
    BudgetExceeded,
    CrossCheckMismatch,
    InsufficientPrecision,
    MalformedOrder,
    NonUnit,
    SegmentViolation,
)
from .field import FqSpec
from .jets import JetMatrix, jet
from .series import (
    ENUM_BUDGET_DEFAULT,
    TruncSeries,
    add_ranks,
    scale_ranks,
    unit_count,
)

DEFAULT_SEED = 1729
LINALG_BUDGET_DEFAULT = 10 ** 7
EXHAUSTIVE_LIMIT_DEFAULT = 10 ** 5

_MERGE_ROW_LIMIT = 1 << 21
# units per block of the batched tensor count; larger blocks are no faster
# past this size and raise the peak memory of the products
_TENSOR_CHUNK = 1 << 13


def galois_rep(a, k: int, n: int) -> JetMatrix:
    """The jet matrix of a unit a, reduced mod t^n.

    Needs a known to precision n+k; the result has unit diagonal, i.e. it
    lies in the Toeplitz group of the corresponding order.
    """
    if not a.is_unit:
        raise NonUnit("representation is defined on units only")
    if a.prec < n + k:
        raise InsufficientPrecision(
            f"unit precision {a.prec} below required {n + k}"
        )
    return jet(k, a.truncate(n + k), prec=n)


# ---------------------------------------------------------------------------
# brute-force image counting (vectorized enumeration core)
# ---------------------------------------------------------------------------

def _digit_block(q, m, start, stop):
    """Coefficient ranks of units start..stop-1, one row per coefficient.

    Row j is the base-q digit of place value q^(m-1-j) of the unit number
    (plus one in row 0).  Over consecutive numbers that digit steps through
    0..q-1 in runs of equal values, so each row is a cycle of digits, each
    repeated for its run, entered at the offset of `start` into its run.
    """
    size = stop - start
    out = np.empty((m, size), dtype=np.uint8)
    cycle = np.arange(q, dtype=np.uint8)
    run = 1
    for j in range(m - 1, -1, -1):
        first, offset = divmod(start, run)
        runs = -(-(offset + size) // run)
        digits = np.tile(np.roll(cycle, -(first % q)), -(-runs // q))[:runs]
        counts = np.full(runs, run)
        counts[0] -= offset
        counts[-1] -= runs * run - offset - size
        out[j] = np.repeat(digits, counts)
        run *= q
    out[0] += 1
    return out


def _unique_keys(keys):
    """Sorted distinct columns of a (words, rows) uint64 key array.

    Sort plus an adjacent-difference mask.  np.unique is avoided: numpy 2.4
    runs it through a hash table that is several times slower here.
    """
    keys = np.sort(keys) if keys.shape[0] == 1 else keys[:, np.lexsort(keys)]
    keep = np.ones(keys.shape[1], dtype=bool)
    keep[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    return keys[:, keep]


def _count_distinct_keys(keys_of, total, words, chunk_size, threads=1):
    """The number of distinct keys of units 0..total-1.

    keys_of(start, stop) returns the (words, stop-start) uint64 keys of
    units start..stop-1.  Each chunk is deduplicated on its own, and the
    parts are merged by set union.  `threads` > 1 spreads the chunks over a
    thread pool, which pays off because sorting and table gathers release
    the GIL; the count is independent of chunking and thread count.
    """
    def run(start):
        return _unique_keys(keys_of(start, min(start + chunk_size, total)))

    merged = np.empty((words, 0), dtype=np.uint64)
    pending, pending_rows = [], 0
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for part in (pool.map if pool else map)(run, range(0, total, chunk_size)):
            pending.append(part)
            pending_rows += part.shape[1]
            # merge only once the pending rows outnumber the merged set, so
            # total sort work stays O(U log U) in the U keys produced
            if pending_rows > max(_MERGE_ROW_LIMIT, merged.shape[1]):
                merged = _unique_keys(np.concatenate([merged, *pending], axis=1))
                pending, pending_rows = [], 0
    if pending:
        merged = _unique_keys(np.concatenate([merged, *pending], axis=1))
    return int(merged.shape[1])


def _mul_block(tables, x, y):
    """Batched truncated product: column c is the product of columns c of x, y.

    x and y are (n, units) rank arrays; row i of the result is the t^i
    coefficient, gathered from the field's add and mul tables.
    """
    add, mul = tables.add_np, tables.mul_np
    out = mul[x[0], y]
    for i in range(1, len(x)):
        out[i:] = add[out[i:], mul[x[i], y[:-i]]]
    return out


def _power_block(spec, block, d):
    """Column c of block to the d-th power; at d = 1, block itself.

    Write d = P * d' with P = p^f the p-part of d (tensor_decompose).  Then
    a^d = (a^d')^P, and the P-th power is additive: it sends sum b_i t^i to
    sum b_i^P t^(iP).  So only the first ceil(n/P) rows of the block are
    raised to the d'-th power, by binary powering with _mul_block, and row i
    of the result, mapped through x -> x^P, becomes row iP of a zero block.
    The Frobenius x -> x^p has order e on F_q, so x^P = x^(p^(f mod e)).
    """
    f, d = tensor_decompose(d, spec.p)
    tables = spec.tables
    n, big_p = len(block), spec.p ** f
    if f:
        block = block[:-(-n // big_p)]
    power = None
    while True:
        if d & 1:
            power = block if power is None else _mul_block(tables, power, block)
        d >>= 1
        if not d:
            break
        block = _mul_block(tables, block, block)
    if not f:
        return power
    # the rank table of x -> x^P: x -> x^p applied f mod e times
    frob = np.arange(spec.q, dtype=np.uint8)
    for _ in range(f % spec.e):
        x = frob
        for _ in range(spec.p - 1):
            frob = tables.mul_np[frob, x]
    out = np.zeros((n, power.shape[1]), dtype=np.uint8)
    out[::big_p] = frob[power]
    return out


def _image_count(spec, k, d, n, m, budget, threads, chunk_size):
    """The number of distinct jet_k(a^d) mod t^n over every unit a mod t^m.

    Each chunk of units is decoded by _digit_block, raised to the d-th
    power by _power_block (products for the part of d prime to p, a
    Frobenius row spread for its p-part), and its order-k jets are packed
    into integer keys that _count_distinct_keys counts: every jet, all
    (k+1)*n entries, takes (q-1).bit_length() bits per entry (several
    uint64 words past 64 bits).
    """
    q = spec.q
    total = unit_count(q, m)
    if total > budget:
        raise BudgetExceeded(f"{total} units exceed budget {budget}")
    tables = spec.tables
    bits = (q - 1).bit_length()
    per_word = 64 // bits
    words = -(-(k + 1) * n // per_word)
    # entry (j, i) of the jet is C(i+j, j) * a_(i+j); it occupies bits
    # [pos*bits, (pos+1)*bits) of its word.  Entries never share bits, so
    # the tables of entries in one word that read the same coefficient a_l
    # are OR-ed into one, which packs all of them with a single gather.
    lut = {}
    for j in range(k + 1):
        row = binom_row(spec.p, j, n)
        for i in range(n):
            word, pos = divmod(j * n + i, per_word)
            # row i of mul_np is multiplication by the prime-field constant i
            table = tables.mul_np[row[i]].astype(np.uint64) << np.uint64(pos * bits)
            lut[word, i + j] = lut.get((word, i + j), 0) | table

    def keys_of(start, stop):
        block = _power_block(spec, _digit_block(q, m, start, stop), d)
        key = np.zeros((words, stop - start), dtype=np.uint64)
        for (word, digit), table in lut.items():
            key[word] |= table[block[digit]]
        return key

    return _count_distinct_keys(keys_of, total, words, chunk_size, threads)


def image_order_brute(spec: FqSpec, k: int, n: int, *,
                      budget: int = ENUM_BUDGET_DEFAULT, threads: int = 1,
                      chunk_size: int = 1 << 16,
                      enum_precision: int | None = None) -> int:
    """Count distinct jet images mod t^n over every unit mod t^(n+k).

    The count is a literal deduplication of packed jet keys (_image_count at
    d = 1), in chunks of `chunk_size` units over `threads` threads; the
    answer is independent of both.  `enum_precision` may raise the
    enumeration precision above n+k to double-check sufficiency.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    m = n + k if enum_precision is None else enum_precision
    if m < n + k:
        raise InsufficientPrecision(f"enumeration precision {m} below n+k={n + k}")
    return _image_count(spec, k, 1, n, m, budget, threads, chunk_size)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def extra_indices(p: int, k: int, n: int) -> list[int]:
    """Coefficient indices in [n, n+k-1] still pinned by the jet mod t^n.

    The jet entry in row j at t^(l-j) is C(l, j) a_l, so a_l with l >= n is
    visible exactly when C(l, j) != 0 mod p for some j with l-n+1 <= j <= k.
    """
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    out = []
    for l in range(n, n + k):
        # C(l, j) vanishes for j > l
        js = range(l - n + 1, min(k, l) + 1)
        if any(binom_row(p, j, l - j + 1)[l - j] for j in js):
            out.append(l)
    return out


def image_order_formula(spec: FqSpec, k: int, n: int) -> int:
    """D(N) = (q-1) q^(N-1+m) with m the number of extra pinned indices."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return (spec.q - 1) * spec.q ** (n - 1 + len(extra_indices(spec.p, k, n)))


def factor_structured_order(value: int, q: int, unit: int) -> int:
    """Write value = unit * q^E and return E; anything else is malformed."""
    if value <= 0 or unit <= 0 or value % unit:
        raise MalformedOrder(f"{value} is not {unit} * q^E")
    rest = value // unit
    e = 0
    while rest % q == 0:
        rest //= q
        e += 1
    if rest != 1:
        raise MalformedOrder(f"{value} is not {unit} * q^E")
    return e


# ---------------------------------------------------------------------------
# density bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityEstimate:
    """log_q(unit * q^E) / (N * dim), kept as the exact pair (E, unit)."""

    q: int
    unit: int
    exponent: int
    denominator: int

    @property
    def rational(self) -> Fraction:
        """The exact q-exponent component E / (N * dim)."""
        return Fraction(self.exponent, self.denominator)

    @property
    def real(self) -> float:
        log_unit = 0.0 if self.unit == 1 else math.log(self.unit, self.q)
        return (self.exponent + log_unit) / self.denominator


def density_estimate(q: int, dim: int, n: int, unit: int, exponent: int) -> DensityEstimate:
    return DensityEstimate(q=q, unit=unit, exponent=exponent, denominator=n * dim)


def density_bounds(k: int, n: int, q: int) -> tuple[Fraction, Fraction]:
    """Bounds for the exponent component of the order-k density estimate.

    (q-1) q^(N-1) <= D(N) <= (q-1) q^(N+k-1) sandwiches the exponent E in
    [N-1, N+k-1]; the full estimate adds log_q(q-1)/(N(k+1)) in [0, 1/(N(k+1))).
    """
    den = n * (k + 1)
    return Fraction(n - 1, den), Fraction(n + k - 1, den)


def torsion_level_m(p: int, n: int, k: int) -> int:
    """The largest Carlitz torsion level reached by order-k level-n torsion.

    Level l is reached when C(l, j) != 0 mod p for some j with
    max(0, l-n) <= j <= min(k, l): every l <= n through j = 0, and past n
    exactly the indices extra_indices(p, k, n+1) pins.  The achieved levels
    must form an initial segment 0..m with n <= m <= n+k; any violation would
    falsify the combinatorics this rests on and raises SegmentViolation.
    """
    levels = [*range(n + 1), *extra_indices(p, k, n + 1)]
    m = max(levels)
    if levels != list(range(m + 1)):
        raise SegmentViolation(
            f"achieved levels {levels} are not an initial segment (p={p}, n={n}, k={k})"
        )
    if not n <= m <= n + k:
        raise SegmentViolation(f"level m={m} outside [{n}, {n + k}]")
    return m


# ---------------------------------------------------------------------------
# Carlitz tensor powers
# ---------------------------------------------------------------------------

def tensor_decompose(d: int, p: int) -> tuple[int, int]:
    """d = p^e * d' with d' prime to p; returns (e, d')."""
    if d < 1:
        raise ValueError("tensor degree must be >= 1")
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e, d


def tensor_unit_part(q: int, d_prime: int) -> int:
    """The number of d'-th powers in F_q^x."""
    return (q - 1) // gcd(d_prime, q - 1)


def tensor_image_order_formula(spec: FqSpec, d: int, n: int) -> int:
    """D(N) = w * q^floor((N-1)/p^e) for the d-th tensor power action."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    e, dp = tensor_decompose(d, spec.p)
    w = tensor_unit_part(spec.q, dp)
    return w * spec.q ** ((n - 1) // spec.p ** e)


def tensor_image_order_brute(spec: FqSpec, d: int, n: int, *,
                             budget: int = ENUM_BUDGET_DEFAULT) -> int:
    """Count distinct d-th powers a^d mod t^n over all units mod t^n.

    The brute route for the closed form: _image_count at k = 0, which
    raises each block of units to the d-th power by _power_block (batched
    truncated products for a^d', then the additive p-part of d spreads the
    result over every p^f-th coefficient) and counts the distinct powers.
    Its oracles in the tests are the object-level set of (a ** d).ranks
    and product-only powering of the same blocks.
    """
    if d < 1:
        raise ValueError("tensor degree must be >= 1")
    if n < 1:
        raise ValueError("precision must be >= 1")
    return _image_count(spec, 0, d, n, n, budget, 1, _TENSOR_CHUNK)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

@dataclass
class ImageRow:
    n: int
    d_brute: int | None
    d_formula: int | None
    extra_m: int
    delta_num: int
    delta_den: int
    delta_real: float


@dataclass
class ImageTable:
    """Per-N image orders and density estimates for one problem instance."""

    kind: str               # "prolongation" | "tensor"
    q: int
    p: int
    e: int
    param: int              # k for prolongations, d for tensor powers
    mode: str
    seed: int
    dim: int
    unit: int
    rows: list[ImageRow]

    def estimate(self, row: "ImageRow") -> "DensityEstimate":
        return DensityEstimate(q=self.q, unit=self.unit,
                               exponent=row.delta_num, denominator=row.delta_den)


def _build_table(spec, kind, param, n_max, mode, budget, seed, *,
                 units, brute, formula, dim, unit):
    """Rows N = 1..n_max of the image orders: brute(N), formula(N) or both.

    units(N) is the number of units brute(N) enumerates; in the brute modes
    the largest row is checked against `budget` before any row is computed.
    In mode "both" every row is cross-checked and the first disagreement
    raises CrossCheckMismatch.  Each order is written unit * q^E.
    """
    if mode not in ("brute", "formula", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "formula" and units(n_max) > budget:
        # fail fast on the largest row instead of grinding up to it
        raise BudgetExceeded(
            f"row N={n_max} needs {units(n_max)} units, over budget {budget}"
        )
    q = spec.q
    rows = []
    for n in range(1, n_max + 1):
        d_formula = None if mode == "brute" else formula(n)
        d_brute = None if mode == "formula" else brute(n)
        if mode == "both" and d_brute != d_formula:
            raise CrossCheckMismatch(n, d_brute, d_formula)
        exponent = factor_structured_order(
            d_brute if d_formula is None else d_formula, q, unit
        )
        est = density_estimate(q, dim, n, unit, exponent)
        rows.append(ImageRow(n, d_brute, d_formula, exponent - (n - 1),
                             exponent, est.denominator, est.real))
    return ImageTable(kind=kind, q=q, p=spec.p, e=spec.e, param=param, mode=mode,
                      seed=seed, dim=dim, unit=unit, rows=rows)


def build_density_table(spec: FqSpec, k: int, n_max: int, mode: str = "both", *,
                        threads: int = 1, budget: int = ENUM_BUDGET_DEFAULT,
                        seed: int = DEFAULT_SEED) -> ImageTable:
    """Image orders for the order-k jet action, N = 1..n_max."""
    return _build_table(
        spec, "prolongation", k, n_max, mode, budget, seed,
        units=lambda n: unit_count(spec.q, n + k),
        brute=lambda n: image_order_brute(spec, k, n, budget=budget, threads=threads),
        formula=lambda n: image_order_formula(spec, k, n),
        dim=k + 1, unit=spec.q - 1,
    )


def build_tensor_table(spec: FqSpec, d: int, n_max: int, mode: str = "both", *,
                       budget: int = ENUM_BUDGET_DEFAULT,
                       seed: int = DEFAULT_SEED) -> ImageTable:
    """Image orders for the d-th tensor power action, N = 1..n_max."""
    return _build_table(
        spec, "tensor", d, n_max, mode, budget, seed,
        units=lambda n: unit_count(spec.q, n),
        brute=lambda n: tensor_image_order_brute(spec, d, n, budget=budget),
        formula=lambda n: tensor_image_order_formula(spec, d, n),
        dim=1, unit=tensor_unit_part(spec.q, tensor_decompose(d, spec.p)[1]),
    )


# ---------------------------------------------------------------------------
# group law sanity and the relation-freeness certificate
# ---------------------------------------------------------------------------

def motivic_group_check(spec: FqSpec, k: int, *, prec: int = 6, samples: int = 25,
                        seed: int = DEFAULT_SEED) -> bool:
    """Exercise the Toeplitz group law on random unit-diagonal jets.

    Checks closure of products and inverses (unit diagonal throughout, k+1
    free rows), associativity on triples, the identity element, and that
    jet images of random units land inside the group.
    """
    rng = random.Random(seed)
    q = spec.q

    def random_jet():
        rows = [TruncSeries.from_ranks(
            spec, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(prec - 1)]
        )]
        for _ in range(k):
            rows.append(TruncSeries.from_ranks(
                spec, [rng.randrange(q) for _ in range(prec)]
            ))
        return JetMatrix(rows)

    ident = JetMatrix.identity(spec, k, prec)
    mats = [random_jet() for _ in range(samples)]
    for a in mats:
        if len(a.rows) != k + 1:
            return False
        inv = a.inverse()
        if not inv.is_invertible or a * inv != ident:
            return False
        if a * ident != a or ident * a != a:
            return False
    for i in range(0, samples - 2, 3):
        a, b, c = mats[i], mats[i + 1], mats[i + 2]
        ab = a * b
        if not ab.is_invertible:
            return False
        if (ab) * c != a * (b * c):
            return False
    for _ in range(samples):
        ranks = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(prec + k - 1)]
        img = galois_rep(TruncSeries.from_ranks(spec, ranks), k, prec)
        if not img.is_invertible or len(img.rows) != k + 1:
            return False
    return True


@dataclass
class ZariskiReport:
    full_rank: bool
    rank: int
    n_columns: int
    n_units: int
    k: int
    deg_bound: int
    tdeg_bound: int
    n: int
    seed: int
    sampled: bool


def _monomials(n_vars, deg_bound):
    """Exponent vectors with total degree <= deg_bound, lexicographic.

    A vector is a multiset of deg_bound picks from the variables and a slack
    index n_vars.  Sorted picks come in lexicographic order, which is the
    reverse order of their vectors.
    """
    out = []
    for picks in itertools.combinations_with_replacement(range(n_vars + 1), deg_bound):
        v = [0] * (n_vars + 1)
        for i in picks:
            v[i] += 1
        out.append(tuple(v[:n_vars]))
    return out[::-1]


def _shuffled_range(n, rng):
    """0..n-1 in a random order, drawn lazily by Fisher-Yates.

    Step i swaps a uniform pick from places i..n-1 into place i and yields
    it.  Only the places whose entry moved are stored, so drawing the first
    j numbers takes j draws and O(j) memory, whatever n is.
    """
    moved = {}
    for i in range(n):
        j = rng.randrange(i, n)
        yield moved.get(j, j)
        moved[j] = moved.pop(i, i)


def zariski_rank_certificate(spec: FqSpec, k: int, deg_bound: int, tdeg_bound: int,
                             n: int, *, seed: int = DEFAULT_SEED,
                             exhaustive_limit: int = EXHAUSTIVE_LIMIT_DEFAULT,
                             sample_count: int = 512,
                             budget: int = LINALG_BUDGET_DEFAULT,
                             units: Sequence | None = None) -> ZariskiReport:
    """Certify that no low-degree relation annihilates all jet tuples mod t^n.

    A candidate relation is P = sum c_{m,s} t^s X^m over monomials X^m in
    the k+1 variables (total degree <= deg_bound) and t-degrees s <=
    tdeg_bound, with unknown F_q coefficients.  Evaluating X_j at D^(j)a and
    reading off the n t-coefficients is linear in the c_{m,s}; a kernel
    vector of this map is exactly a relation vanishing on every sampled
    unit, so full column rank certifies that no relation within the bounds
    exists.  Unit sets are exhaustive below `exhaustive_limit`, else sampled
    reproducibly from `seed`.  The exhaustive set is evaluated in an order
    drawn from `seed`: units near each other in lexicographic order give
    nearly dependent rows, and the rank of a row set does not depend on its
    order, so the report is the same for every seed.  Each unit is decoded
    from its number by _digit_block, or drawn from the seeded generator,
    only when the loop reaches it, since the loop stops at full rank.
    """
    if min(k, deg_bound, tdeg_bound) < 0:
        raise ValueError("need k, deg_bound and tdeg_bound >= 0")
    n_cols = math.comb(k + 1 + deg_bound, deg_bound) * (tdeg_bound + 1)
    if n_cols * n > budget:
        raise BudgetExceeded(f"{n_cols} columns x {n} rows exceeds budget {budget}")
    monos = _monomials(k + 1, deg_bound)
    q = spec.q
    prec = n + k
    sampled = False
    if units is not None:
        unit_list = list(units)
        n_units = len(unit_list)
    elif unit_count(q, prec) <= exhaustive_limit:
        n_units = unit_count(q, prec)
        unit_list = (
            TruncSeries.from_ranks(spec, _digit_block(q, prec, i, i + 1)[:, 0].tolist())
            for i in _shuffled_range(n_units, random.Random(seed))
        )
    else:
        sampled = True
        rng = random.Random(seed)
        unit_list = (
            TruncSeries.from_ranks(
                spec, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(prec - 1)]
            )
            for _ in range(sample_count)
        )
        n_units = sample_count

    inv, neg = spec.tables.inv, spec.tables.neg
    pivots: dict[int, bytes] = {}
    rank = 0
    pad = bytes(tdeg_bound)
    one_col = TruncSeries.one(spec, n)
    for a in unit_list:
        rows_jet = galois_rep(a, k, n).rows
        powers = []
        for v in rows_jet:
            pw = [one_col, v]
            for _ in range(2, deg_bound + 1):
                pw.append(pw[-1] * v)
            powers.append(pw)
        evals = []
        for m in monos:
            acc = one_col
            for j, mj in enumerate(m):
                if mj:
                    acc = acc * powers[j][mj]
            evals.append(pad + acc.ranks)
        for i in range(n):
            # column (m, s) holds the t^(i-s) coefficient of monomial m
            row = b"".join(e[i:i + tdeg_bound + 1][::-1] for e in evals)
            # Gaussian reduction against the pivots, each scaled to lead with
            # 1.  A row is kept from its lead column on, so its length names
            # that column and the pivot that clears it.
            while row := row.lstrip(b"\0"):
                pivot = pivots.get(len(row))
                if pivot is None:
                    pivots[len(row)] = scale_ranks(spec, inv[row[0]], row)
                    rank += 1
                    break
                row = add_ranks(spec, row, scale_ranks(spec, neg[row[0]], pivot), 0, len(row))
            if rank == n_cols:
                break
        if rank == n_cols:
            break
    return ZariskiReport(
        full_rank=rank == n_cols, rank=rank, n_columns=n_cols,
        n_units=n_units, k=k, deg_bound=deg_bound,
        tdeg_bound=tdeg_bound, n=n, seed=seed, sampled=sampled,
    )

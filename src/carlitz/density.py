"""Image orders and densities of the t-adic representations.

The unit a of F_q[[t]] acts on the order-k jet side through the matrix with
rows (a, D^(1)a, ..., D^(k)a); reducing mod t^N gives a finite image whose
order D(N) is counted two independent ways: a literal enumeration of all
units mod t^(N+k) (entries of the jet mod t^N read nothing beyond that),
and a closed form counting which coefficients of a beyond t^(N-1) the jet
still pins down.  D(N) is always of the structural form unit * q^E and is
kept that way; only display ever touches a floating-point logarithm.
"""

from __future__ import annotations

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
)
from .field import FqSpec
from .jets import JetMatrix, jet
from .series import (
    ENUM_BUDGET_DEFAULT,
    TruncSeries,
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

def _unit_ranks(q, m, index):
    """The coefficient ranks of unit number `index` in unit_enumerate order."""
    ranks = [0] * m
    for j in range(m - 1, 0, -1):
        index, ranks[j] = divmod(index, q)
    ranks[0] = index + 1
    return ranks


def _digit_block(q, m, start, stop):
    """Coefficient ranks of units start..stop-1, one row per coefficient.

    Row j is the base-q digit of place value q^(m-1-j) of the unit number
    (plus one in row 0).  Over consecutive numbers that digit steps through
    0..q-1 in runs of equal values, so each row is a cycle of digits, each
    repeated for its run, entered at the offset of `start` into its run.
    """
    size = stop - start
    dtype = np.min_scalar_type(q - 1)
    out = np.empty((m, size), dtype=dtype)
    cycle = np.arange(q, dtype=dtype)
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


def image_order_brute(spec: FqSpec, k: int, n: int, *,
                      budget: int = ENUM_BUDGET_DEFAULT, threads: int = 1,
                      chunk_size: int = 1 << 16,
                      enum_precision: int | None = None) -> int:
    """Count distinct jet images mod t^n over every unit mod t^(n+k).

    The count is a literal deduplication: every unit's full jet, all
    (k+1)*n entries, is packed into one integer key of (q-1).bit_length()
    bits per entry (several uint64 words past 64 bits), and the keys are
    counted by _count_distinct_keys in chunks of `chunk_size` units over
    `threads` threads; the answer is independent of both.
    `enum_precision` may raise the enumeration precision above n+k to
    double-check sufficiency.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    m = n + k if enum_precision is None else enum_precision
    if m < n + k:
        raise InsufficientPrecision(f"enumeration precision {m} below n+k={n + k}")
    q = spec.q
    total = unit_count(q, m)
    if total > budget:
        raise BudgetExceeded(f"{total} units exceed budget {budget}")
    # row c is multiplication by the prime-field constant c
    scal = spec.tables.mul_np[:spec.p].astype(np.uint64)
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
            table = scal[row[i]] << np.uint64(pos * bits)
            lut[word, i + j] = lut.get((word, i + j), 0) | table

    def keys_of(start, stop):
        block = _digit_block(q, m, start, stop)
        key = np.zeros((words, stop - start), dtype=np.uint64)
        for (word, digit), table in lut.items():
            key[word] |= table[block[digit]]
        return key

    return _count_distinct_keys(keys_of, total, words, chunk_size, threads)


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
    max(0, l-n) <= j <= min(k, l).  The achieved levels must form an initial
    segment 0..m with n <= m <= n+k; any violation would falsify the
    combinatorics this rests on and raises SegmentViolation.
    """
    from .errors import SegmentViolation

    def achieved(l):
        return any(
            binom_row(p, j, l - j + 1)[l - j]
            for j in range(max(0, l - n), min(k, l) + 1)
        )

    levels = [l for l in range(n + k + 1) if achieved(l)]
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
    e, dp = tensor_decompose(d, spec.p)
    w = tensor_unit_part(spec.q, dp)
    return w * spec.q ** ((n - 1) // spec.p ** e)


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


def tensor_image_order_brute(spec: FqSpec, d: int, n: int, *,
                             budget: int = ENUM_BUDGET_DEFAULT) -> int:
    """Count distinct d-th powers a^d mod t^n over all units mod t^n.

    The brute route for the closed form: every unit is raised to the d-th
    power by binary powering, a block of units at a time with batched
    truncated products, and the n ranks of each power are packed into one
    key and counted by _count_distinct_keys.  Its oracle in the tests is
    the object-level set of (a ** d).ranks.
    """
    if d < 1:
        raise ValueError("tensor degree must be >= 1")
    if n < 1:
        raise ValueError("precision must be >= 1")
    q = spec.q
    total = unit_count(q, n)
    if total > budget:
        raise BudgetExceeded(f"{total} units exceed budget {budget}")
    tables = spec.tables
    bits = (q - 1).bit_length()
    per_word = 64 // bits
    words = -(-n // per_word)

    def keys_of(start, stop):
        base, power, e = _digit_block(q, n, start, stop), None, d
        while True:
            if e & 1:
                power = base if power is None else _mul_block(tables, power, base)
            e >>= 1
            if not e:
                break
            base = _mul_block(tables, base, base)
        key = np.zeros((words, stop - start), dtype=np.uint64)
        for i, row in enumerate(power):
            word, pos = divmod(i, per_word)
            key[word] |= row.astype(np.uint64) << np.uint64(pos * bits)
        return key

    return _count_distinct_keys(keys_of, total, words, _TENSOR_CHUNK)


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

    def header_dict(self):
        key = "k" if self.kind == "prolongation" else "d"
        return {
            "q": self.q,
            "p": self.p,
            "e": self.e,
            key: self.param,
            "mode": self.mode,
            "seed": self.seed,
        }

    def to_csv_text(self) -> str:
        lines = ["N,D_brute,D_formula,extra_m,delta_hat_num,delta_hat_den,delta_hat_real"]
        for r in self.rows:
            lines.append(
                f"{r.n},"
                f"{'' if r.d_brute is None else r.d_brute},"
                f"{'' if r.d_formula is None else r.d_formula},"
                f"{r.extra_m},{r.delta_num},{r.delta_den},{r.delta_real!r}"
            )
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        import json

        obj = {
            "header": self.header_dict(),
            "rows": [
                {
                    "N": r.n,
                    "D_brute": r.d_brute,
                    "D_formula": r.d_formula,
                    "extra_m": r.extra_m,
                    "delta_hat_num": r.delta_num,
                    "delta_hat_den": r.delta_den,
                    "delta_hat_real": r.delta_real,
                }
                for r in self.rows
            ],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _table_row(n, dim, q, unit, brute, formula):
    value = formula if formula is not None else brute
    exponent = factor_structured_order(value, q, unit)
    est = density_estimate(q, dim, n, unit, exponent)
    return ImageRow(
        n=n,
        d_brute=brute,
        d_formula=formula,
        extra_m=exponent - (n - 1),
        delta_num=exponent,
        delta_den=est.denominator,
        delta_real=est.real,
    )


def build_density_table(spec: FqSpec, k: int, n_max: int, mode: str = "both", *,
                        threads: int = 1, budget: int = ENUM_BUDGET_DEFAULT,
                        seed: int = DEFAULT_SEED) -> ImageTable:
    """Image orders for the order-k jet action, N = 1..n_max.

    In mode "both" every row is cross-checked; the first disagreement
    raises CrossCheckMismatch.
    """
    if mode not in ("brute", "formula", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "formula":
        # fail fast on the largest row instead of grinding up to it
        worst = unit_count(spec.q, n_max + k)
        if worst > budget:
            raise BudgetExceeded(
                f"row N={n_max} needs {worst} units, over budget {budget}"
            )
    rows = []
    for n in range(1, n_max + 1):
        brute = formula = None
        if mode in ("formula", "both"):
            formula = image_order_formula(spec, k, n)
        if mode in ("brute", "both"):
            brute = image_order_brute(spec, k, n, budget=budget, threads=threads)
        if mode == "both" and brute != formula:
            raise CrossCheckMismatch(n, brute, formula)
        rows.append(_table_row(n, k + 1, spec.q, spec.q - 1, brute, formula))
    return ImageTable(
        kind="prolongation", q=spec.q, p=spec.p, e=spec.e, param=k,
        mode=mode, seed=seed, dim=k + 1, unit=spec.q - 1, rows=rows,
    )


def build_tensor_table(spec: FqSpec, d: int, n_max: int, mode: str = "both", *,
                       budget: int = ENUM_BUDGET_DEFAULT,
                       seed: int = DEFAULT_SEED) -> ImageTable:
    """Image orders for the d-th tensor power action, N = 1..n_max."""
    if mode not in ("brute", "formula", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "formula" and unit_count(spec.q, n_max) > budget:
        raise BudgetExceeded(
            f"row N={n_max} needs {unit_count(spec.q, n_max)} units, over budget {budget}"
        )
    e, dp = tensor_decompose(d, spec.p)
    w = tensor_unit_part(spec.q, dp)
    rows = []
    for n in range(1, n_max + 1):
        brute = formula = None
        if mode in ("formula", "both"):
            formula = tensor_image_order_formula(spec, d, n)
        if mode in ("brute", "both"):
            brute = tensor_image_order_brute(spec, d, n, budget=budget)
        if mode == "both" and brute != formula:
            raise CrossCheckMismatch(n, brute, formula)
        rows.append(_table_row(n, 1, spec.q, w, brute, formula))
    return ImageTable(
        kind="tensor", q=spec.q, p=spec.p, e=spec.e, param=d,
        mode=mode, seed=seed, dim=1, unit=w, rows=rows,
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
    """Exponent vectors with total degree <= deg_bound, lexicographic."""
    import itertools

    out = [
        m for m in itertools.product(range(deg_bound + 1), repeat=n_vars)
        if sum(m) <= deg_bound
    ]
    return sorted(out)


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
    drawn from `seed`, each unit decoded from its number only when reached:
    units near each other in lexicographic order give nearly dependent rows,
    and the rank of a row set does not depend on its order, so the report
    is the same for every seed.
    """
    monos = _monomials(k + 1, deg_bound)
    columns = [(m, s) for m in monos for s in range(tdeg_bound + 1)]
    n_cols = len(columns)
    if n_cols * n > budget:
        raise BudgetExceeded(f"{n_cols} columns x {n} rows exceeds budget {budget}")
    q = spec.q
    prec = n + k
    sampled = False
    if units is not None:
        unit_list = list(units)
        n_units = len(unit_list)
    elif unit_count(q, prec) <= exhaustive_limit:
        n_units = unit_count(q, prec)
        order = list(range(n_units))
        random.Random(seed).shuffle(order)
        unit_list = (TruncSeries.from_ranks(spec, _unit_ranks(q, prec, i)) for i in order)
    else:
        sampled = True
        rng = random.Random(seed)
        unit_list = [
            TruncSeries.from_ranks(
                spec, [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(prec - 1)]
            )
            for _ in range(sample_count)
        ]
        n_units = sample_count

    t = spec.tables
    add, mul, neg = t.add, t.mul, t.neg
    pivots: dict[int, list[int]] = {}
    rank = 0
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
            evals.append(acc.ranks)
        for i in range(n):
            row = [0] * n_cols
            for c in range(n_cols):
                s = columns[c][1]
                if i >= s:
                    row[c] = evals[c // (tdeg_bound + 1)][i - s]
            # Gaussian reduction against current pivots
            lead = None
            for col in range(n_cols):
                if row[col]:
                    if col in pivots:
                        f = neg[row[col]]
                        prow = pivots[col]
                        for cc in range(col, n_cols):
                            if prow[cc]:
                                row[cc] = add[row[cc]][mul[f][prow[cc]]]
                    else:
                        lead = col
                        break
            if lead is not None:
                inv_lead = spec.inv_rank(row[lead])
                pivots[lead] = [mul[inv_lead][x] for x in row]
                rank += 1
                if rank == n_cols:
                    break
        if rank == n_cols:
            break
    return ZariskiReport(
        full_rank=rank == n_cols, rank=rank, n_columns=n_cols,
        n_units=n_units, k=k, deg_bound=deg_bound,
        tdeg_bound=tdeg_bound, n=n, seed=seed, sampled=sampled,
    )

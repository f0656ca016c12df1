"""Image orders and densities of the t-adic representations.

The unit a of F_q[[t]] acts on the order-k jet side through the matrix
with rows (a, D^(1)a, ..., D^(k)a); reducing mod t^N gives a finite image
whose order D(N) is counted two ways: a brute count over all units mod
t^(N+k) (entries of the jet mod t^N read nothing beyond that), and a
closed form counting which coefficients of a beyond t^(N-1) the jet still
pins down; the d-th tensor power a -> a^d is counted the same two ways.
Both brute counts are one count: each unit to a^d (d = 1 for jets), then
its distinct order-k jets (k = 0 for tensor powers).  The power a^d is
(a^d')^(p^f) for d = p^f d' with d' prime to p: products give a^d', and
the p^f-th power, being additive, only moves coefficient i to place i p^f
through x -> x^(p^f), the collapse behind the tensor closed form.  When
d' = 1 (every jet count) each coefficient of a thus lands in one place of
a^d, so a unit's key is the OR of one table per coefficient, and no two
tables share a bit: jet entry (j, i) reads only coefficient i+j and owns
its bits.  So the count is the product of the tables' distinct-column
counts, with no unit decoded: a coefficient the jet cannot see has a
constant table and adds no factor.  It reads the table supports, checked
disjoint, and the same binomial rows as the closed form, so its
independent checks are the object-level oracles in the tests.  When
d' > 1, which only tensor powers have, the units are decoded and powered
in blocks, and each a^d, a unit, marks its unit number in a table of all
units.  D(N) is always of the structural form unit * q^E and is kept that
way; only display ever touches a floating-point logarithm.
"""

from __future__ import annotations

import itertools
import math
import random
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
    SpecMismatch,
)
from .field import FqSpec
from .jets import JetMatrix, jet
from .series import ENUM_BUDGET_DEFAULT, TruncSeries, lane_format, unit_count

DEFAULT_SEED = 1729
LINALG_BUDGET_DEFAULT = 10 ** 7
EXHAUSTIVE_LIMIT_DEFAULT = 10 ** 5

# units per block of the tensor count at d' > 1: it bounds the memory of
# the power blocks, and larger blocks are no faster
_TENSOR_CHUNK = 1 << 13
_CERT_BLOCK = 256  # the rank certificate's largest block of units


def galois_rep(a, k: int, n: int) -> JetMatrix:
    """The jet matrix of a unit a, reduced mod t^n.

    Needs a known to precision n+k; the result has unit diagonal, i.e. it
    lies in the Toeplitz group of the corresponding order.
    """
    _unit_prefix(a.spec, a, n + k)
    return jet(k, a, prec=n)


def _unit_prefix(spec, a, m):
    """The first m ranks of a, which must be a unit over spec known mod t^m."""
    if a.spec.key != spec.key:
        raise SpecMismatch("unit from a different field")
    if not a.is_unit:
        raise NonUnit("representation is defined on units only")
    if a.prec < m:
        raise InsufficientPrecision(f"unit precision {a.prec} below required {m}")
    return a.ranks[:m]


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


def _distinct_count(keys):
    """Distinct columns of a fresh, nonempty (words, rows) uint64 key array:
    one sort, in place for one word and by lexsort for several (np.unique
    hashes in numpy 2.4, several times slower here), then adjacent diffs.
    """
    if keys.shape[0] == 1:
        row = keys[0]
        row.sort()
        return 1 + int(np.count_nonzero(row[1:] != row[:-1]))
    keys = keys[:, np.lexsort(keys)]
    return 1 + int(np.count_nonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0)))


def _mul_block(tables, x, y):
    """Batched truncated product: column c of each (n, units) layer of x
    times column c of y.

    x is (..., n, units) and y is (n, units) rank arrays; row i of a layer
    of the result is the t^i coefficient, gathered from the field's add and
    mul tables.  A leading axis of x makes one product of many layers.
    """
    add, mul = tables.add_np, tables.mul_np
    out = mul[x[..., :1, :], y]
    for i in range(1, x.shape[-2]):
        out[..., i:, :] = add[out[..., i:, :], mul[x[..., i:i + 1, :], y[:-i]]]
    return out


def _power_block(spec, block, d):
    """Column c of block to the d-th power; at d = 1, block itself.

    Write d = P * d' with P = p^f the p-part of d (tensor_decompose).  Then
    a^d = (a^d')^P, and the P-th power is additive: it sends sum b_i t^i to
    sum b_i^P t^(iP).  So only the first ceil(n/P) rows of the block are
    raised to the d'-th power, by binary powering with _mul_block, and row i
    of the result, mapped through x -> x^P, becomes row iP of a zero block.
    The Frobenius x -> x^p has order e on F_q, so x^P = x^(p^(f mod e))
    (_frobenius).
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
    out = np.zeros((n, power.shape[1]), dtype=np.uint8)
    out[::big_p] = _frobenius(spec, f)[power]
    return out


def _frobenius(spec, f):
    """The rank table of x -> x^(p^f): x -> x^p applied f mod e times."""
    frob = np.arange(spec.q, dtype=np.uint8)
    for _ in range(f % spec.e):
        x = frob
        for _ in range(spec.p - 1):
            frob = spec.tables.mul_np[frob, x]
    return frob


def _distinct_ors(tables):
    """The number of distinct ORs of one column of each table, table 0 at
    ranks 1..q-1.

    tables is (r, words, q): the key of unit a is the OR of tables[l][:, a_l]
    over l < r.  When no two tables share a bit, a key names the column of
    each table it took, so the count is the product of the tables'
    distinct-column counts.  A running OR of the supports checks that; a
    support that meets an earlier one raises MalformedOrder, since the
    product could then overcount.
    """
    seen = np.zeros(tables.shape[1], dtype=np.uint64)
    count = 1
    for table in (tables[0][:, 1:], *tables[1:]):
        support = np.bitwise_or.reduce(table, axis=1)
        if (seen & support).any():
            raise MalformedOrder("key tables share bits: the count is not a product")
        seen |= support
        # a copy: _distinct_count sorts a one-word array in place
        count *= _distinct_count(table.copy())
    return count


def _image_count(spec, k, d, n, budget):
    """The number of distinct jet_k(a^d) mod t^n over every unit a mod t^(n+k).

    The budget is checked on the units before any table is built.  Write
    d = P*d' with P = p^f (tensor_decompose).  When d' = 1 (every jet
    count, and every p-power tensor degree) each jet is packed into an
    integer key of (q-1).bit_length() bits per entry (several uint64 words
    past 64 bits).  Coefficient l of a moves, through x -> x^P, to place lP
    of a^d and nowhere else, so a key is the OR of one table per
    coefficient of a, and those tables share no bit: _distinct_ors
    multiplies their distinct-column counts.  Jet entry (j, i) reads
    coefficient i+j <= n-1+k, so the units mod t^(n+k) are all that a key
    can tell apart.  When d' > 1 (k = 0) each chunk of _TENSOR_CHUNK units
    is decoded by _digit_block and raised to the d-th power by
    _power_block, and each power marks its unit number in a table of
    (q-1)q^(n-1) flags; the count is the flags set.
    """
    q = spec.q
    m = n + k
    total = unit_count(q, m)
    if total > budget:
        raise BudgetExceeded(f"{total} units exceed budget {budget}")
    f, d_prime = tensor_decompose(d, spec.p)
    if d_prime > 1:
        # only tensor powers have d > 1, so this serves k = 0 only: a^d is a
        # unit mod t^n, and its unit number (Horner's rule on its digits,
        # constant term minus one) marks one cell of a table of every unit
        seen = np.zeros(total, dtype=bool)
        for start in range(0, total, _TENSOR_CHUNK):
            stop = min(start + _TENSOR_CHUNK, total)
            block = _power_block(spec, _digit_block(q, m, start, stop), d)
            # a zero constant term would give index -1: the last cell
            if not block[0].all():
                raise MalformedOrder("a power of a unit has a zero constant term")
            index = block[0].astype(np.int64) - 1
            for row in block[1:]:
                index *= q
                index += row
            seen[index] = True
        return int(np.count_nonzero(seen))
    mul = spec.tables.mul_np
    bits = (q - 1).bit_length()
    per_word = 64 // bits
    words = -(-(k + 1) * n // per_word)
    # lut[l] maps coefficient l of a^d to its bits in the key.  Entry (j, i)
    # of the jet is C(i+j, j) * a_(i+j); it occupies bits
    # [pos*bits, (pos+1)*bits) of its word.  Entries never share bits, so
    # the tables of all entries that read the same coefficient are OR-ed.
    lut = np.zeros((m, words, q), dtype=np.uint64)
    for j in range(k + 1):
        row = binom_row(spec.p, j, n)
        for i in range(n):
            word, pos = divmod(j * n + i, per_word)
            # row i of mul_np is multiplication by the prime-field constant i
            lut[i + j, word] |= mul[row[i]].astype(np.uint64) << np.uint64(pos * bits)
    # coefficient l reads lut[lP] through the Frobenius; past t^m it is
    # lost, so the later coefficients have no table
    return _distinct_ors(lut[::spec.p ** f][:, :, _frobenius(spec, f)])


def image_order_brute(spec: FqSpec, k: int, n: int, *,
                      budget: int = ENUM_BUDGET_DEFAULT, threads: int = 1) -> int:
    """Count distinct jet images mod t^n over every unit mod t^(n+k).

    _image_count at d = 1: the jet key of a unit is the OR of one table per
    coefficient, and _distinct_ors multiplies the tables' distinct-column
    counts.  It reads the same binom_row rows as extra_indices; its
    independent checks are the object-level oracles in the tests.  `budget`
    bounds the units mod t^(n+k), checked before any work.  `threads` must
    be >= 1 and changes neither the path nor the result.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if threads < 1:
        raise ValueError("need threads >= 1")
    return _image_count(spec, k, 1, n, budget)


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


def density_bounds(k: int, n: int, q: int) -> tuple[Fraction, Fraction]:
    """Bounds for the exponent component of the order-k density estimate.

    (q-1) q^(N-1) <= D(N) <= (q-1) q^(N+k-1) sandwiches the exponent E in
    [N-1, N+k-1]; the full estimate adds log_q(q-1)/(N(k+1)) in [0, 1/(N(k+1))).
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
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
    if n < 0 or k < 0:
        raise ValueError("torsion level and jet order must be nonnegative")
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

    The brute route for the closed form: _image_count at k = 0.  For
    d = p^f (d' = 1) the power of each unit is the OR of one Frobenius
    table per coefficient, tables that share no bit, and _distinct_ors
    multiplies their distinct-column counts; otherwise each block of units
    is raised to the d-th power by _power_block (batched truncated products
    for a^d', then the additive p-part of d spreads the result over every
    p^f-th coefficient), and the powers are counted in a table indexed by
    unit number.  Its oracles in the tests are the object-level set of
    (a ** d).ranks and product-only powering of the same blocks.
    """
    if d < 1:
        raise ValueError("tensor degree must be >= 1")
    return _image_count(spec, 0, d, n, budget)


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
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
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
        est = DensityEstimate(q=q, unit=unit, exponent=exponent, denominator=n * dim)
        rows.append(ImageRow(n, d_brute, d_formula, exponent - (n - 1),
                             exponent, est.denominator, est.real))
    return ImageTable(kind=kind, q=q, p=spec.p, e=spec.e, param=param, mode=mode,
                      seed=seed, dim=dim, unit=unit, rows=rows)


def build_density_table(spec: FqSpec, k: int, n_max: int, mode: str = "both", *,
                        threads: int = 1, budget: int = ENUM_BUDGET_DEFAULT,
                        seed: int = DEFAULT_SEED) -> ImageTable:
    """Image orders for the order-k jet action, N = 1..n_max.

    `threads` must be >= 1; the counts do not depend on it.
    """
    if threads < 1:
        raise ValueError("need threads >= 1")
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

def _random_unit(rng, q, m):
    """The ranks of a random unit mod t^m: a nonzero constant, then any."""
    return bytes([rng.randrange(1, q)] + [rng.randrange(q) for _ in range(m - 1)])


def motivic_group_check(spec: FqSpec, k: int, *, prec: int = 6, samples: int = 25,
                        seed: int = DEFAULT_SEED) -> bool:
    """Exercise the Toeplitz group law on random unit-diagonal jets.

    Checks closure of products and inverses (unit diagonal throughout, k+1
    free rows), associativity on triples, the identity element, and that
    jet images of random units land inside the group.  Needs k >= 0 and
    samples >= 3, so that at least one triple is checked.
    """
    if k < 0 or samples < 3:
        raise ValueError(f"need k >= 0 and samples >= 3, got k={k}, samples={samples}")
    rng = random.Random(seed)
    q = spec.q

    def random_jet():
        rows = [_random_unit(rng, q, prec)]
        rows += [bytes(rng.randrange(q) for _ in range(prec)) for _ in range(k)]
        return JetMatrix([TruncSeries.from_ranks(spec, r) for r in rows])

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
        if not ab.is_invertible or ab * c != a * (b * c):
            return False
    for _ in range(samples):
        unit = TruncSeries.from_ranks(spec, _random_unit(rng, q, prec + k))
        img = galois_rep(unit, k, prec)
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


def _certificate_rows(spec, k, n, monos, tdeg_bound, chunk):
    """The certificate's rows for units mod t^(n+k), n rows per unit.

    chunk joins the n+k rank bytes of each unit.  Row u*n + i is unit u at
    t^i, and column (m, s) holds the t^(i-s) coefficient of monomial m at
    its jet.  Jet row j is the gather C(i+j, j) * a_(i+j); monomial m is the
    one lower in its last nonzero variable j (earlier in `monos`) times row
    j.  The monomials of one total degree and one such j form a layer, made
    by one batched _mul_block of their parents with row j.
    """
    block = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, n + k).T
    tables, units = spec.tables, block.shape[1]
    jets = [tables.mul_np[np.array(binom_row(spec.p, j, n)[:n])[:, None], block[j:j + n]]
            for j in range(k + 1)]
    at = {m: c for c, m in enumerate(monos)}
    layers = {}
    for c, m in enumerate(monos[1:], 1):
        j = max(i for i, mj in enumerate(m) if mj)
        cols, parents = layers.setdefault((sum(m), j), ([], []))
        cols.append(c)
        parents.append(at[m[:j] + (m[j] - 1,) + m[j + 1:]])
    evals = np.zeros((len(monos), n, units), dtype=np.uint8)
    evals[0, 0] = 1  # monos[0] is the constant monomial
    for (_, j), (cols, parents) in sorted(layers.items()):
        evals[cols] = _mul_block(tables, evals[parents], jets[j])
    rows = np.zeros((units, n, len(monos), tdeg_bound + 1), dtype=np.uint8)
    for s in range(min(tdeg_bound + 1, n)):
        rows[:, s:, :, s] = evals[:, :n - s].transpose(2, 1, 0)
    return rows.reshape(units * n, -1)


def _row_rank(spec, blocks, n_cols):
    """The rank over F_q of the rows of the blocks, read until it is n_cols.

    blocks yields (rows, n_cols) uint8 arrays of ranks.  Each row is one
    int in the LaneFormat of carlitz.series, column 0 the most significant.
    A step adds the pivot's multiple that clears the lead, lane by lane,
    and takes p from every lane that reached p, as add_lanes does.  So a
    reduced row sheds its lead column, and the columns from its lead on,
    ceil(bits / col), name the pivot that clears it; a step that leaves the
    row as wide raises ArithmeticError.  A pivot is kept as its rank bytes
    scaled to lead with 1, and the lane int of minus c times it is made once
    per lead c.
    """
    p, q = spec.p, spec.q
    lanes = lane_format(spec)
    col, flag = lanes.col, lanes.flag
    # code[r] is the lane bytes of rank r, most significant lane first
    code = [lanes.column(r).to_bytes(col // 8, "big") for r in range(q)]
    table = np.frombuffer(b"".join(code), dtype=np.uint8).reshape(q, -1)
    lead_of = {lanes.column(r): r for r in range(q)}
    plain = col == 8  # e = 1 and p < 128: the lanes are the ranks

    def encode(ranks):
        return int.from_bytes(ranks if plain else b"".join(code[r] for r in ranks), "big")

    full = lanes.ones(n_cols)
    ones = [full >> col * (n_cols - w) for w in range(n_cols + 1)]
    bias = [lanes.bias * one for one in ones]
    mul, inv, neg = spec.tables.mul, spec.tables.inv, spec.tables.neg
    # pivots[columns from the lead on] = (scaled rank bytes, {top column: multiple})
    pivots: list[tuple[bytes, dict[int, int]] | None] = [None] * (n_cols + 1)
    rank, row_bytes = 0, n_cols * col // 8
    for block in blocks:
        data = (block if plain else table[block]).tobytes()
        for start in range(0, len(data), row_bytes):
            s = int.from_bytes(data[start:start + row_bytes], "big")
            last = n_cols + 1
            while s:
                width = -(-s.bit_length() // col)
                if width >= last:
                    raise ArithmeticError(f"an elimination step left {width} columns")
                last = width
                top = s >> col * (width - 1)
                pivot = pivots[width]
                if pivot is None:
                    ranks = lanes.ranks(s, width, "big")
                    pivots[width] = (ranks.translate(mul[inv[lead_of[top]]]), {})
                    rank += 1
                    if rank == n_cols:
                        return rank
                    break
                m = pivot[1].get(top)
                if m is None:
                    m = pivot[1][top] = encode(pivot[0].translate(mul[neg[lead_of[top]]]))
                s += m
                s -= p * (((s + bias[width]) >> flag) & ones[width])
    return rank


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
    reproducibly from `seed`.  The exhaustive set is decoded once by
    _digit_block and evaluated in an order drawn from `seed`: units near
    each other in lexicographic order give nearly dependent rows, and the
    rank of a row set does not depend on its order, so the report is the
    same for every seed.  Units are evaluated by _certificate_rows in
    blocks that start at the fewest units whose n rows each can reach full
    rank, ceil(n_columns / n), and double up to _CERT_BLOCK.  _row_rank
    reduces the rows as lane-packed ints, one int add and one lane
    reduction a step, and stops drawing blocks at full rank.
    """
    if n < 1 or min(k, deg_bound, tdeg_bound) < 0:
        raise ValueError("need n >= 1 and k, deg_bound, tdeg_bound >= 0")
    n_cols = math.comb(k + 1 + deg_bound, deg_bound) * (tdeg_bound + 1)
    if n_cols * n > budget:
        raise BudgetExceeded(f"{n_cols} columns x {n} rows exceeds budget {budget}")
    monos = _monomials(k + 1, deg_bound)
    q, prec, sampled = spec.q, n + k, False
    # each source yields the prec rank bytes of one unit
    if units is not None:
        source = [_unit_prefix(spec, a, prec) for a in units]
        n_units, source = len(source), iter(source)
    elif (n_units := unit_count(q, prec)) <= exhaustive_limit:
        digits = _digit_block(q, prec, 0, n_units).T.tobytes()
        source = (digits[i * prec:(i + 1) * prec]
                  for i in _shuffled_range(n_units, random.Random(seed)))
    else:
        sampled, n_units, rng = True, sample_count, random.Random(seed)
        source = (_random_unit(rng, q, prec) for _ in range(sample_count))

    def blocks():
        # a unit gives n rows, so fewer units than this never reach full rank
        size = min(-(-n_cols // n), _CERT_BLOCK)
        while chunk := b"".join(itertools.islice(source, size)):
            yield _certificate_rows(spec, k, n, monos, tdeg_bound, chunk)
            size = min(2 * size, _CERT_BLOCK)

    rank = _row_rank(spec, blocks(), n_cols)
    return ZariskiReport(
        full_rank=rank == n_cols, rank=rank, n_columns=n_cols,
        n_units=n_units, k=k, deg_bound=deg_bound,
        tdeg_bound=tdeg_bound, n=n, seed=seed, sampled=sampled,
    )

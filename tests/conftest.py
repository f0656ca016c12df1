import functools
import inspect
import random
import sys

import pytest

from carlitz import (
    FqSpec, TruncSeries, UInftyElem, UPowerSeries, compute_omega, spec_for_order,
)


@pytest.fixture(scope="session")
def f2():
    return spec_for_order(2)


@pytest.fixture(scope="session")
def f3():
    return spec_for_order(3)


@pytest.fixture(scope="session")
def f4():
    return spec_for_order(4)


# Fields for the packed-kernel oracles: prime fields whose sum of two
# residues fits a byte (p <= 127) and two that need wider lanes (131, 251),
# extension fields of characteristic 2 and odd characteristic, two explicit
# defining polynomials of large degree, and F_49 from an explicit quadratic,
# whose product digit blocks take two chunks of two base-7 digits.
KERNEL_FIELDS = [2, 3, 4, 5, 8, 9, 16, 25, 27, 127, 131, 251, "2^8", "3^5", "7^2"]


@functools.cache
def kernel_spec(name):
    if name == "2^8":
        return FqSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # x^8+x^4+x^3+x+1
    if name == "3^5":
        return FqSpec(3, 5, (1, 0, 0, 0, 2, 1))  # x^5+2x^4+1
    if name == "7^2":
        return FqSpec(7, 2, (3, 1, 1))  # x^2+x+3
    return spec_for_order(name)


def mutated(func, old, new):
    """func rebuilt from its own source with the one occurrence of old
    replaced by new, in a copy of its module's namespace: a must-fail
    mutant that the real module never sees."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, old
    namespace = dict(vars(sys.modules[func.__module__]))
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
    return namespace[func.__name__]


_OMEGA_CACHE = {}


def omega_for(q, tprec=8, uprec=128):
    key = (q, tprec, uprec)
    if key not in _OMEGA_CACHE:
        _OMEGA_CACHE[key] = compute_omega(spec_for_order(q), tprec, uprec)
    return _OMEGA_CACHE[key]


def random_series(rng: random.Random, spec, prec, *, unit=False) -> TruncSeries:
    first = rng.randrange(1, spec.q) if unit else rng.randrange(spec.q)
    ranks = [first] + [rng.randrange(spec.q) for _ in range(prec - 1)]
    return TruncSeries.from_ranks(spec, ranks)


def perturb_entry(omega, n, offset=1):
    """Flip one coefficient of omega's entry n, inside its declared window.

    An entry whose window is empty has no coefficient to flip: ValueError.
    """
    e = omega.entries[n]
    ranks = list(e.ranks)
    if not ranks:
        raise ValueError(f"entry {n} has an empty window: no coefficient to perturb")
    i = min(offset, len(ranks) - 1)
    ranks[i] = (ranks[i] + 1) % e.spec.p if e.spec.e == 1 else ranks[i] ^ 1
    bad = UInftyElem(e.spec, e.val, ranks, e.uprec)
    entries = list(omega.entries)
    entries[n] = bad
    return UPowerSeries(omega.spec, entries)


ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)

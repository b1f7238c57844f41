"""Symbol, classification, and primitive-root behavior."""

import math
import random
import time

import numpy as np
import pytest
import sympy

import cubres.cli as cli
from cubres import (
    ColorScheme,
    DeterminantTable,
    DiffPlusC,
    Prime,
    ResidueMatrix,
    as_prime,
    cube_root,
    cubic_residue_set,
    cubic_residue_symbol,
    determinant,
    is_prime,
    legendre_symbol,
    next_primitive_root,
    odd_primes_up_to,
    primitive_root,
)
from cubres.residues import _prime_factors
from cubres.wall import number_wall


def test_is_prime_examples():
    assert is_prime(11)
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13
    assert is_prime(2)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2**31 - 1)  # Mersenne


@pytest.mark.parametrize("m", [2.5, 3.0, "7", None])
def test_is_prime_rejects_non_integers(m):
    # truncating would pass 2.5 and 3.0 as primes
    with pytest.raises(TypeError, match=f"^m must be an integer, got {type(m).__name__}$"):
        is_prime(m)
    assert is_prime(True) is False


def test_is_prime_agrees_with_a_sieve_below_100000():
    sieve = bytearray([1]) * 100000
    sieve[0] = sieve[1] = 0
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, 100000, i)))
    assert [m for m in range(100000) if is_prime(m)] == [m for m in range(100000) if sieve[m]]


# psi_k, the least strong pseudoprime to the first k prime bases, for k
# from 4 to 12 (Sorenson and Webster, Math. Comp. 86, 2017), with its
# factors. None has a factor below 41, so only the strong tests refuse it
_STRONG_PSEUDOPRIMES = {
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}


@pytest.mark.parametrize("m", sorted(_STRONG_PSEUDOPRIMES))
def test_strong_pseudoprimes_to_fewer_bases_are_composite(m):
    assert math.prod(_STRONG_PSEUDOPRIMES[m]) == m
    assert not is_prime(m)
    with pytest.raises(ValueError, match="^modulus must be prime"):
        Prime(m)


def test_is_prime_agrees_with_sympy_on_large_inputs():
    # odd numbers of 20 to 25 digits below the cap, and a prime after each of the first 30
    rng = random.Random(29)
    ms = [rng.randrange(10**19, 3 * 10**24) | 1 for _ in range(300)]
    ms += [sympy.nextprime(m) for m in ms[:30]]
    assert [is_prime(m) for m in ms] == [sympy.isprime(m) for m in ms]


def test_primality_is_capped_at_psi_13():
    psi13 = 3317044064679887385961981
    cap = f"^primality is proven only below psi_13 = {psi13}, got "
    # psi_13 passes the strong test to every base 2..41, so no test below could refuse it
    for m in (psi13, psi13 + 2, 10**30):
        with pytest.raises(ValueError, match=cap + str(m)):
            is_prime(m)
        with pytest.raises(ValueError, match=cap + str(m)):
            Prime(m)
    assert not is_prime(psi13 - 1)
    assert is_prime(sympy.prevprime(psi13))


def test_a_large_prime_is_validated_quickly():
    start = time.perf_counter()
    assert Prime(2**61 - 1).mod3 == 1
    assert time.perf_counter() - start < 0.1


def test_prime_classification():
    p = Prime(11)
    assert (p.value, p.mod3, p.mod4, p.mod12) == (11, 2, 3, 11)
    q = Prime(7)
    assert (q.value, q.mod3, q.mod4, q.mod12) == (7, 1, 3, 7)
    assert Prime(17).mod12 == 5
    # mod12 refines the other two classes
    for m in odd_primes_up_to(300):
        pr = Prime(m)
        assert pr.mod12 % 3 == pr.mod3
        assert pr.mod12 % 4 == pr.mod4


def test_prime_rejects_bad_moduli():
    with pytest.raises(ValueError):
        Prime(9)
    with pytest.raises(ValueError):
        Prime(2)
    with pytest.raises(ValueError):
        Prime(1)
    with pytest.raises(ValueError):
        Prime(-5)
    with pytest.raises(TypeError):
        Prime(7.0)


def test_prime_3_is_accepted_with_class_zero():
    p = Prime(3)
    assert p.mod3 == 0
    assert cubic_residue_symbol(2, p) == 1  # cubing is the identity mod 3
    assert cubic_residue_symbol(3, p) == 0


def test_as_prime_coerces_and_validates():
    p = Prime(11)
    assert as_prime(p) is p
    assert as_prime(11) == p
    with pytest.raises(ValueError):
        as_prime(10)
    with pytest.raises(TypeError):
        as_prime("11")


def test_symbol_known_values():
    assert cubic_residue_symbol(12, 13) == 1
    assert cubic_residue_symbol(2, 7) == -1
    assert cubic_residue_symbol(0, 7) == 0
    assert cubic_residue_symbol(5, 11) == 1


def test_symbol_reduces_argument_first():
    assert cubic_residue_symbol(-2, 7) == cubic_residue_symbol(5, 7)
    assert cubic_residue_symbol(7 * 1000, 7) == 0
    assert cubic_residue_symbol(13 + 12, 13) == cubic_residue_symbol(12, 13)
    assert cubic_residue_symbol(-(10**30), 11) == cubic_residue_symbol(-(10**30) % 11, 11)


@pytest.mark.parametrize("func", [cubic_residue_symbol, cube_root, legendre_symbol],
                         ids=["symbol", "cube-root", "legendre"])
@pytest.mark.parametrize("p", [7, 11])
def test_non_integer_arguments_raise_type_error(func, p):
    # 2.5 once scored 1 at p = 11 and hit pow's "3rd argument" error at p = 7
    for a in (2.5, 3.0, "8", None):
        with pytest.raises(TypeError, match=f"^a must be an integer, got {type(a).__name__}$"):
            func(a, p)
    # anything with __index__ is an integer
    assert func(True, p) == func(1, p)


def test_cubic_residue_set_sizes():
    assert cubic_residue_set(7) == {1, 6}
    assert len(cubic_residue_set(13)) == 4
    assert cubic_residue_set(11) == set(range(1, 11))
    for m in odd_primes_up_to(100):
        s = cubic_residue_set(m)
        if m % 3 == 1:
            assert len(s) == (m - 1) // 3
        else:
            assert s == set(range(1, m))


def _smallest_cube_roots(m: int) -> dict[int, int]:
    """Linear scan: each cube mod m mapped to its smallest root. Kept
    here so the checks below do not run the code they test."""
    roots = {}
    for x in range(m - 1, -1, -1):
        roots[pow(x, 3, m)] = x
    return roots


def test_symbol_against_brute_force_small():
    for m in odd_primes_up_to(60):
        roots = _smallest_cube_roots(m)
        for a in range(m):
            want = 0 if a == 0 else (1 if a in roots else -1)
            assert cubic_residue_symbol(a, m) == want, (a, m)


# 3**4, 3**5 and 3**6 divide p - 1 for the last three 3k+1 primes.
@pytest.mark.parametrize("m", [7, 13, 163, 487, 1459, 3, 5, 11, 17, 101, 1451])
def test_cube_root_against_linear_scan_for_every_residue(m):
    roots = _smallest_cube_roots(m)
    for a in range(m):
        assert cube_root(a, m) == roots.get(a), (a, m)
        assert cube_root(a + 3 * m, m) == cube_root(a - m, m) == roots.get(a)


def _cube_roots_of_unity(m: int) -> list[int]:
    g = next(g for g in range(2, m) if pow(g, (m - 1) // 3, m) != 1)
    w = pow(g, (m - 1) // 3, m)
    assert pow(w, 3, m) == 1
    return [1, w, w * w % m]


def test_symbol_verbose_witness_near_the_prime_cap(capsys):
    m = 2147483647  # 3k+1, the largest prime the CLI accepts
    x = m - 2
    a = pow(x, 3, m)
    want = min(x * u % m for u in _cube_roots_of_unity(m))
    assert cli.main(["symbol", str(a), str(m), "--verbose"]) == 0
    assert capsys.readouterr().out == f"1\nwitness: {want}**3 = {a} (mod {m})\n"
    m = 2147483579  # 3k+2: the only root is m - 2
    assert cli.main(["symbol", str(m - 8), str(m), "--verbose"]) == 0
    assert capsys.readouterr().out == f"1\nwitness: {m - 2}**3 = {m - 8} (mod {m})\n"


def test_cube_root_is_smallest_witness():
    assert cube_root(0, 7) == 0
    assert cube_root(12, 13) == 4  # 1,2,3 cube to 1,8,1
    assert cube_root(2, 7) is None
    x = cube_root(6, 7)
    assert x == 3 and pow(x, 3, 7) == 6


def test_symbol_periodicity_and_negation():
    for m in odd_primes_up_to(100):
        for a in range(-2 * m, 2 * m + 1):
            s = cubic_residue_symbol(a, m)
            assert s == cubic_residue_symbol(a % m, m)
            assert s == cubic_residue_symbol(-a, m)
            assert s == cubic_residue_symbol(a + m, m)


def test_symbol_collapses_cubes():
    for m in odd_primes_up_to(100):
        for a in range(1, m):
            assert cubic_residue_symbol(a**3, m) == 1


def test_legendre_known_values():
    # squares mod 7 are {1, 2, 4}
    assert sorted({x * x % 7 for x in range(1, 7)}) == [1, 2, 4]
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(0, 11) == 0


def test_legendre_against_square_enumeration():
    for m in odd_primes_up_to(60):
        squares = {x * x % m for x in range(1, m)}
        for a in range(m):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, m) == want, (a, m)


def _multiplicative_order(g: int, m: int) -> int:
    x = g % m
    k = 1
    while x != 1:
        x = x * g % m
        k += 1
    return k


def test_primitive_root_known_values():
    assert primitive_root(11) == 2
    assert primitive_root(7) == 3
    assert primitive_root(17) == 3


def test_primitive_root_is_smallest_generator():
    for m in odd_primes_up_to(100):
        r = primitive_root(m)
        assert _multiplicative_order(r, m) == m - 1
        for g in range(2, r):
            assert _multiplicative_order(g, m) < m - 1, (g, m)


def test_next_primitive_root():
    for m in odd_primes_up_to(60):
        if m < 5:
            continue
        r = primitive_root(m)
        s = next_primitive_root(m, r)
        assert s > r
        assert _multiplicative_order(s, m) == m - 1
        for g in range(r + 1, s):
            assert _multiplicative_order(g, m) < m - 1
    with pytest.raises(ValueError):
        next_primitive_root(5, 3)  # 3 is the largest primitive root mod 5


def _trial_division_factors(n):
    """The distinct prime factors of n by plain trial division."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + [n] * (n > 1)


def test_prime_factors_agree_with_trial_division():
    # cofactors past 41 are split by rho: 43**2 = 1849 is the first one
    for n in range(1, 10**4):
        assert _prime_factors(n) == _trial_division_factors(n), n
    for p in odd_primes_up_to(10**5):
        assert _prime_factors(p - 1) == _trial_division_factors(p - 1), p


@pytest.mark.parametrize("p, factors", [
    (200000000001419, [2, 100000000000709]),  # a safe prime
    (2000002000276000078007723, [2, 1000000000039, 1000001000099]),
])
def test_primitive_roots_of_large_primes_are_quick(p, factors):
    # trial division took 0.5 s on the first and would take about 10**12 divisions on the second
    assert math.prod(factors) == p - 1 and all(sympy.isprime(q) for q in factors)
    start = time.perf_counter()
    g = primitive_root(p)
    assert time.perf_counter() - start < 2
    assert all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    for h in range(2, g):
        assert any(pow(h, (p - 1) // q, p) == 1 for q in factors), h


def test_next_primitive_root_below_one_is_the_smallest_root():
    for m in (5, 7, 23, 41):
        assert [next_primitive_root(m, after) for after in (-5, -1, 0, 1)] == [primitive_root(m)] * 4


@pytest.mark.parametrize("call, name", [
    (lambda: next_primitive_root(7, "3"), "after"),
    (lambda: next_primitive_root(7, 2.0), "after"),
    (lambda: odd_primes_up_to("10"), "limit"),
    (lambda: odd_primes_up_to(10.5), "limit"),
], ids=["after-str", "after-float", "limit-str", "limit-float"])
def test_root_and_prime_bounds_are_read_as_integers(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        call()


def test_odd_primes_up_to():
    assert odd_primes_up_to(20) == [3, 5, 7, 11, 13, 17, 19]
    assert odd_primes_up_to(2) == []
    # the sieve against is_prime at every limit to 2,000, and at the limits
    # below 3, which hold no odd prime
    expected = [m for m in range(3, 2001, 2) if is_prime(m)]
    for limit in range(-7, 2001):
        assert odd_primes_up_to(limit) == [m for m in expected if m <= limit], limit


class _Index:
    """An integer that is no int: it has only `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# entry point: (read, base, name). read(v) hands v to the entry point,
# base is an integer it reads, and name the argument its TypeError names
_INTEGER_READERS = {
    "Prime": (lambda v: Prime(v), 7, "modulus"),
    "as_prime": (lambda v: as_prime(v), 7, "modulus"),
    "odd-primes-limit": (lambda v: odd_primes_up_to(v), 7, "limit"),
    "symbol": (lambda v: cubic_residue_symbol(v, 7), 6, "a"),
    "ResidueMatrix-order": (lambda v: ResidueMatrix(DiffPlusC(1), 7, v).order, 1, "n"),
    "determinant-entry": (lambda v: determinant([[v, 1], [1, 3]]), 2, "entry"),
    "wall-term": (lambda v: number_wall([1, v, 3], 2).row(2, 1, 1), 2, "term"),
    "wall-first": (lambda v: number_wall([1, 2, 3], 2, first=v).first, 2, "first"),
    "color-component": (lambda v: ColorScheme(zero=(v, 0, 0)).zero, 1, "color component"),
    "table-t": (lambda v: DeterminantTable("even-power", 5, (1, 1), (0, 0), t=v).t, 2, "t"),
    "table-box": (lambda v: DeterminantTable("diff", 5, (v, 2), (0, 0)).n_range, 1, "n_range"),
}


def _outcome(read, value):
    """What read(value) gives: the repr of its result, so a numpy integer
    left unconverted shows, or its error's type and text."""
    try:
        return repr(read(value))
    except (TypeError, ValueError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("entry", _INTEGER_READERS)
def test_every_entry_point_reads_integers_by_one_rule(entry):
    # an int, a numpy integer, an __index__ class and a Python bool are
    # integers, each read as the plain int it stands for; a float, a str,
    # None, a numpy float and a numpy bool (its type is named bool too) are not
    read, base, name = _INTEGER_READERS[entry]
    expected = _outcome(read, base)
    assert not isinstance(expected, tuple), expected
    for value in (np.int64(base), _Index(base)):
        assert _outcome(read, value) == expected, type(value)
    assert _outcome(read, True) == _outcome(read, 1)
    # a box end given as None takes its default, as table_box documents
    for bad in (2.0, "2", np.float64(2.0), np.True_) + ((None,) if entry != "table-box" else ()):
        with pytest.raises(TypeError) as info:
            read(bad)
        assert str(info.value) == f"{name} must be an integer, got {type(bad).__name__}"

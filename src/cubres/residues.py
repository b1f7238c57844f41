"""Modular arithmetic over odd prime moduli.

Primality testing, residue-class bookkeeping, the cubic and quadratic
residue symbols, and primitive roots. Everything here is a pure function
of its arguments; Prime instances are immutable and safe to share.

`Record` is the base of the package's value classes: `Prime` here, the
formulas and `ResidueMatrix` in matrices, `DeterminantTable`,
`ColorScheme`, `Counterexample` and `TheoremReport`. It compares, hashes
and prints its slotted fields the way a frozen dataclass does. It lives
here, the one module every command loads, because a dataclass would cost
each command the import of `dataclasses` and `inspect` (which loads
`ast`, `dis` and `tokenize`) and an `exec` per class.
"""

import math
import operator

__all__ = [
    "Prime",
    "as_prime",
    "is_prime",
    "odd_primes_up_to",
    "cubic_residue_symbol",
    "cubic_residue_set",
    "cube_root",
    "legendre_symbol",
    "primitive_root",
    "next_primitive_root",
]


# The prime bases 2..41. Trial division by them decides every m below
# 41**2, and strong probable-prime tests to all 13 decide every m below
# psi_13 = _PRIMALITY_CAP, the least strong pseudoprime to all of them
# (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIMALITY_CAP = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Exact deterministic primality check for m below psi_13 =
    3317044064679887385961981: trial division by the primes to 41, then
    strong probable-prime tests to those 13 bases, which no composite below
    psi_13 passes. O(log(m)**3) bit operations; m >= psi_13 raises ValueError."""
    m = as_int(m, "m")
    if m >= _PRIMALITY_CAP:
        raise ValueError(f"primality is proven only below psi_13 = {_PRIMALITY_CAP}, got {m}")
    for q in _BASES:
        if m % q == 0:
            return m == q
    if m < 41 * 41:
        return m > 1
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def odd_primes_up_to(limit: int) -> list[int]:
    """All odd primes p with 3 <= p <= limit, ascending, by a sieve of
    Eratosthenes over the odd numbers: sieve[i] stands for 2i + 3, and each
    odd prime q up to sqrt(limit) strikes its odd multiples from q**2 on.
    A limit below 3 gives []."""
    size = max(0, (as_int(limit, "limit") - 1) // 2)
    sieve = bytearray([1]) * size
    for i in range((math.isqrt(2 * size + 1) - 1) // 2):
        if sieve[i]:
            q = 2 * i + 3
            start = (q * q - 3) // 2  # the index of q**2
            sieve[start::q] = bytes(len(range(start, size, q)))
    return [2 * i + 3 for i, prime in enumerate(sieve) if prime]


class Record:
    """A value class whose fields are its `__slots__`, in order. Equal to
    a record of the same class with equal fields, hashed by the tuple of
    fields, shown as ``Name(field=value, ...)`` and immutable. A subclass
    checks its arguments in `__init__` and then sets every field at once
    with `_store`. Copies and pickles rebuild the stored fields without
    calling `__init__`.
    """

    __slots__ = ()

    def _store(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), self._fields())


def _rebuild(cls: type, fields: tuple) -> Record:
    """The record of class cls holding these field values, as stored."""
    record = object.__new__(cls)
    record._store(*fields)
    return record


class Prime(Record):
    """A validated odd prime with its residue classes mod 3, 4 and 12.

    The mod-3 class drives everything else in this package: cubing is a
    bijection on the nonzero residues when ``mod3 == 2`` and a 3-to-1 map
    when ``mod3 == 1``. For ``value == 3`` the classes mod 3 and 12 are
    0 and 3; the shifted-difference determinant patterns need one of the
    other two forms, so the table and verification modules reject 3 even
    though the symbol itself is fine with it. Validation is `is_prime`,
    exact below its cap psi_13 = 3317044064679887385961981; a value from
    the cap up raises ValueError. The CLI caps p below 2**31.
    """

    __slots__ = ("value", "mod3", "mod4", "mod12")

    def __init__(self, value: int) -> None:
        value = as_int(value, "modulus")
        if not is_prime(value):
            raise ValueError(f"modulus must be prime, got {value}")
        if value == 2:
            raise ValueError("modulus must be an odd prime, got 2")
        self._store(value, value % 3, value % 4, value % 12)


def as_prime(p: "Prime | int") -> Prime:
    """p itself when a Prime, else the Prime of an integer read by `as_int`."""
    return p if isinstance(p, Prime) else Prime(p)


def as_int(value, name: str) -> int:
    """value as a plain int, by the package's one integer rule: what Python
    takes as a sequence index is an integer, so an int, a numpy integer or a
    Python bool (read as 0 or 1). Anything else, a numpy bool included,
    raises TypeError("<name> must be an integer, got <type>"). It reads
    moduli, symbol arguments, orders, indices, shifts, t, matrix entries,
    wall terms and positions, table boxes and cells, colors, counts and bounds."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}") from None


def cubic_residue_symbol(a: int, p: "Prime | int") -> int:
    """Cubic residue symbol of a modulo an odd prime: 0 when p divides a,
    1 when a is congruent to a nonzero cube, -1 otherwise.

    Only the class of a mod p matters, so a may be negative or arbitrarily
    large. When p % 3 != 1 cubing permutes the nonzero residues and every
    nonzero value scores 1. When p % 3 == 1 the nonzero cubes are exactly
    the roots of x**((p-1)/3) == 1, one modular exponentiation per query.
    """
    p = as_prime(p)
    r = as_int(a, "a") % p.value
    if r == 0:
        return 0
    if p.mod3 != 1:
        return 1
    return 1 if pow(r, (p.value - 1) // 3, p.value) == 1 else -1


def cube_root(a: int, p: "Prime | int") -> "int | None":
    """Smallest x in [0, p-1] with x**3 = a (mod p), or None.

    O(log^2 p) multiplications. When p % 3 != 1, cubing permutes the
    residues and x = a**e with 3e = 1 mod p - 1 (e = (2p - 1)/3 for
    p % 3 == 2). When p % 3 == 1, write p - 1 = 3**s * t with t prime to
    3 and take the Adleman-Manders-Miller route: x = a**(1/3 mod t) cubes
    to a times an element b of the 3-Sylow subgroup, which c = z**t
    generates for a cubic nonresidue z. The discrete log of b base c is
    read off one base-3 digit at a time, and x / c**(log/3) is a root.
    The other two roots are that times w and w*w, with w a primitive
    cube root of 1.
    """
    p = as_prime(p)
    pv = p.value
    r = as_int(a, "a") % pv
    if r == 0:
        return 0
    if p.mod3 != 1:
        return pow(r, pow(3, -1, pv - 1), pv)
    if pow(r, (pv - 1) // 3, pv) != 1:
        return None
    s, t = 0, pv - 1
    while t % 3 == 0:
        s, t = s + 1, t // 3
    z = next(z for z in range(2, pv) if pow(z, (pv - 1) // 3, pv) != 1)
    c = pow(z, t, pv)  # generates the 3-Sylow subgroup, of order 3**s
    w = pow(c, 3 ** (s - 1), pv)
    x = pow(r, pow(3, -1, t), pv)
    # b = x**3 / r lies in the 3-Sylow subgroup; find e with c**e == b.
    b = pow(x, 3, pv) * pow(r, -1, pv) % pv
    e = 0
    for i in range(s):
        digit = pow(b * pow(c, -e, pv) % pv, 3 ** (s - 1 - i), pv)
        e += 3**i * (0 if digit == 1 else 1 if digit == w else 2)
    # b is a cube, so 3 divides e, and x / c**(e/3) cubes to r.
    x = x * pow(c, -(e // 3), pv) % pv
    return min(x, x * w % pv, x * w * w % pv)


def cubic_residue_set(p: "Prime | int") -> set[int]:
    """The nonzero cubic residues mod p: {x**3 mod p for 1 <= x < p}.

    Has (p-1)/3 elements when p % 3 == 1 and all p-1 nonzero classes
    otherwise. Costs p - 1 modular cubes, O(p).
    """
    p = as_prime(p)
    return {pow(x, 3, p.value) for x in range(1, p.value)}


def legendre_symbol(a: int, p: "Prime | int") -> int:
    """Quadratic residue symbol: 0 when p divides a, else 1 for squares
    and -1 for nonsquares, by Euler's criterion."""
    p = as_prime(p)
    r = as_int(a, "a") % p.value
    if r == 0:
        return 0
    return 1 if pow(r, (p.value - 1) // 2, p.value) == 1 else -1


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of 1 <= n < psi_13, ascending. Trial
    division by the primes to 41 leaves a cofactor; `is_prime` proves each
    piece of it prime, and `_split` breaks each composite piece in two.
    A split costs about the square root of the piece's least prime factor,
    so at most about n**(1/4) steps. Only the primitive roots read it."""
    factors = set()
    for q in _BASES:
        if n % q == 0:
            factors.add(q)
            while n % q == 0:
                n //= q
    pieces = [n] if n > 1 else []
    while pieces:
        m = pieces.pop()
        if is_prime(m):
            factors.add(m)
        else:
            d = _split(m)
            pieces += [d, m // d]
    return sorted(factors)


def _split(m: int) -> int:
    """A divisor 1 < d < m of a composite m with no prime factor below 43,
    by Brent's variant of Pollard's rho: the walk y -> y*y + c mod m from
    y = 2, for c = 1, 2, ... in turn until one walk splits m. Products of
    128 differences share one gcd."""
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:  # the batch overshot: step back through it one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(x - ys, m)
        if g != m:
            return g
    raise ArithmeticError(f"no rho walk splits {m}")


def primitive_root(p: "Prime | int") -> int:
    """Smallest generator of the multiplicative group mod p.

    A candidate g generates iff g**((p-1)/q) != 1 for every prime q
    dividing p - 1; candidates are tried in increasing order, so the
    choice is reproducible run to run. p - 1 is factored as in
    `next_primitive_root`.
    """
    return next_primitive_root(p, 1)


def next_primitive_root(p: "Prime | int", after: int) -> int:
    """Smallest primitive root above max(after, 1); after must be an integer.
    p - 1 is factored by `_prime_factors`, in at most about p**(1/4) steps;
    candidates are then tried one by one from after + 1."""
    pv = as_prime(p).value
    order_factors = _prime_factors(pv - 1)
    for g in range(max(as_int(after, "after"), 1) + 1, pv):
        if all(pow(g, (pv - 1) // q, pv) != 1 for q in order_factors):
            return g
    raise ValueError(f"no primitive root modulo {pv} above {after}")

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

import operator
from collections.abc import Iterator

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


def is_prime(m: int) -> bool:
    """Exact deterministic primality check: m is prime when its smallest
    prime factor is m itself, read off the one trial-division loop, which
    primitive roots use too. A composite stops at that factor, and a prime
    costs O(sqrt(m)) divisions; the CLI caps p below 2**31."""
    m = as_int(m, "m")
    return next(_prime_factors(m), None) == m


def odd_primes_up_to(limit: int) -> list[int]:
    """All odd primes p with 3 <= p <= limit, ascending."""
    return [m for m in range(3, as_int(limit, "limit") + 1, 2) if is_prime(m)]


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
    though the symbol itself is fine with it. Validation is `is_prime`'s
    trial division, O(sqrt(p)) for a prime p, and the CLI caps p below 2**31.
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
    otherwise.
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


def _prime_factors(n: int) -> Iterator[int]:
    """The distinct prime factors of n, ascending, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            yield d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        yield n


def primitive_root(p: "Prime | int") -> int:
    """Smallest generator of the multiplicative group mod p.

    A candidate g generates iff g**((p-1)/q) != 1 for every prime q
    dividing p - 1; candidates are tried in increasing order, so the
    choice is reproducible run to run.
    """
    return next_primitive_root(p, 1)


def next_primitive_root(p: "Prime | int", after: int) -> int:
    """Smallest primitive root above max(after, 1); after must be an integer."""
    pv = as_prime(p).value
    order_factors = list(_prime_factors(pv - 1))
    for g in range(max(as_int(after, "after"), 1) + 1, pv):
        if all(pow(g, (pv - 1) // q, pv) != 1 for q in order_factors):
            return g
    raise ValueError(f"no primitive root modulo {pv} above {after}")

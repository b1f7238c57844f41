"""Answers for the `queries` workload, computed without importing cubres.

The symbol comes from Euler's criterion, the smallest cube root from
comparing one root with the other roots of the same cube, and a
determinant from elimination modulo enough word-sized primes that the
Chinese remainder theorem pins the exact value inside the Hadamard bound.
"""

from math import gcd, isqrt

import numpy as np


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    return all(m % f for f in range(3, isqrt(m) + 1, 2))


def symbol(a: int, p: int) -> int:
    """Cubic residue symbol by Euler's criterion: a nonzero r is a cube
    mod p exactly when r**((p-1)/gcd(3, p-1)) == 1."""
    r = a % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // gcd(3, p - 1), p) == 1 else -1


def cube_roots(x: int, p: int) -> list[int]:
    """All roots of y**3 = x**3 (mod p), given one root x != 0: x alone
    when cubing is a bijection (p = 3k+2), else x times each cube root of
    unity."""
    if p % 3 != 1:
        return [x % p]
    h = 2
    while pow(h, (p - 1) // 3, p) == 1:
        h += 1
    w = pow(h, (p - 1) // 3, p)
    return [x % p, x * w % p, x * w * w % p]


def residue_matrix(family: str, p: int, n: int, c: int) -> np.ndarray:
    """The order-n matrix of symbol((j - i + c) mod p) for "diff" or
    symbol((i + j + c) mod p) for "sum", with 1-based i and j."""
    i = np.arange(1, n + 1)
    if family == "diff":
        key = i[None, :] - i[:, None] + c
    elif family == "sum":
        key = i[None, :] + i[:, None] + c
    else:
        raise ValueError(f"no oracle for family {family!r}")
    values = {int(k): symbol(int(k), p) for k in np.unique(key)}
    return np.vectorize(values.__getitem__, otypes=[np.int64])(key)


def _det_mod(a: np.ndarray, q: int) -> int:
    """Determinant mod a prime q < 2**31 by Gaussian elimination; every
    product stays below 2**62, so int64 never overflows."""
    a = a % q
    n = a.shape[0]
    det = 1
    for k in range(n):
        nz = np.flatnonzero(a[k:, k])
        if nz.size == 0:
            return 0
        r = k + int(nz[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = -det
        piv = int(a[k, k])
        det = det * piv % q
        f = a[k + 1:, k] * pow(piv, -1, q) % q
        a[k + 1:, k:] = (a[k + 1:, k:] - f[:, None] * a[k, k:]) % q
    return det % q


def _word_primes():
    q = 2**31 - 1
    while True:
        if is_prime(q):
            yield q
        q -= 2


def det(a: np.ndarray) -> int:
    """Exact determinant by the Chinese remainder theorem. The Hadamard
    bound gives det**2 <= h2, the product of the squared row norms, so
    once the modulus Q has Q**2 > 4 * h2 the residue nearest zero is det."""
    h2 = 1
    for norm2 in (a.astype(object) ** 2).sum(axis=1):
        h2 *= int(norm2)
    value, modulus = 0, 1
    for q in _word_primes():
        r = _det_mod(a, q)
        value += modulus * ((r - value) * pow(modulus, -1, q) % q)
        modulus *= q
        if modulus * modulus > 4 * h2:
            return value - modulus if 2 * value > modulus else value

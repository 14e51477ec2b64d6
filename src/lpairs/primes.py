"""Exact integer arithmetic on primes and prime powers.

Everything here is deliberately integer-only: prime-power detection and
the distance function on rationals must never suffer float
misclassification.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

# Deterministic Miller-Rabin witness set: the first 13 primes decide every
# n below psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).  psi_12 = 318665857834031151167461 passes
# the bases 2..37, so 41 cannot be dropped.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Exact primality for n < psi_13 ~ 3.3e24; larger n without a small
    factor are a PreconditionError, as the test would not be proven."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_EXACT_BELOW:
        raise PreconditionError(
            f"is_prime is proven only below {_MR_EXACT_BELOW}, got {n}")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending (simple numpy sieve)."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) computed exactly: integer Newton steps from
    2^ceil(bits/k), which lies above the root, decrease to the floor."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0, k >= 1")
    if n in (0, 1) or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        below = ((k - 1) * r + n // r ** (k - 1)) // k
        if below >= r:
            return r
        r = below


def prime_power(n: int):
    """Return (p, k) with n = p**k, p prime, k >= 1; or None."""
    if n < 2:
        return None
    for k in range(n.bit_length(), 0, -1):
        r = _integer_root(n, k)
        if r ** k == n and is_prime(r):
            return r, k
    return None

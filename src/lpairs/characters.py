"""Dirichlet characters to prime moduli, represented exactly.

A character mod a prime q is stored as a discrete-log index: with g the
smallest primitive root mod q and n = g^k (mod q),

    chi_j(n) = exp(2*pi*i * j*k / (q-1)),        chi_j(n) = 0  iff  q | n.

Identities between character values are therefore integer statements
about exponents mod q-1; the complex embedding is taken only at the
end, through a single shared table of roots of unity, so repeated
values are bit-identical.  For a prime modulus every non-principal
character is primitive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange, NonPrimeModulus, PrincipalCharacter
from .primes import is_prime


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def smallest_primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group mod prime q."""
    factors = _factorize(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // r, q) != 1 for r in factors):
            return g
    raise NonPrimeModulus(f"{q} has no primitive root; not prime?")


@lru_cache(maxsize=None)
def _dlog_table(q: int) -> tuple[int, ...]:
    """table[n] = k with g^k = n (mod q) for n in 1..q-1; table[0] = -1."""
    g = smallest_primitive_root(q)
    table = [-1] * q
    v = 1
    for k in range(q - 1):
        table[v] = k
        v = v * g % q
    return tuple(table)


@lru_cache(maxsize=None)
def _unit_roots(order: int) -> tuple[complex, ...]:
    quarter = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}
    roots = []
    for k in range(order):
        if (4 * k) % order == 0:  # quarter-turn roots are exact
            roots.append(quarter[4 * k // order])
        else:
            roots.append(cmath.exp(2j * math.pi * k / order))
    return tuple(roots)


@dataclass(frozen=True)
class DirichletCharacter:
    """chi_j mod prime q, with derived data cached at construction."""

    modulus: int
    index: int
    parity: int = field(compare=False)  # (1 - chi(-1)) / 2, in {0, 1}

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def conjugate(self) -> "DirichletCharacter":
        q = self.modulus
        return character(q, (q - 1 - self.index) % (q - 1))

    def log(self, n: int) -> int | None:
        """Exponent e with chi(n) = exp(2*pi*i*e/(q-1)), or None if q | n.

        Additive in n: log(mn) = log(m) + log(n) mod q-1, which is how
        complete multiplicativity is tested exactly.
        """
        q = self.modulus
        r = n % q
        if r == 0:
            return None
        return self.index * _dlog_table(q)[r] % (q - 1)

    def __call__(self, n: int) -> complex:
        e = self.log(n)
        if e is None:
            return 0j
        return _unit_roots(self.modulus - 1)[e]

    def value_table(self) -> np.ndarray:
        """chi(n) for n = 0..q-1 as a complex array (for vectorised code)."""
        return np.array([self(n) for n in range(self.modulus)], dtype=complex)

    def __str__(self) -> str:
        return f"{self.modulus}:{self.index}"


@lru_cache(maxsize=None)
def character(q: int, j: int) -> DirichletCharacter:
    """Construct chi_j mod q.  Principal iff j = 0."""
    if q < 3 or not is_prime(q):
        raise NonPrimeModulus(f"modulus {q} is not an odd prime >= 3")
    if not 0 <= j <= q - 2:
        raise IndexOutOfRange(f"character index {j} outside [0, {q - 2}]")
    # chi(-1) = exp(2 pi i * j*log(-1)/(q-1)); the exponent is 0 or (q-1)/2
    e = j * _dlog_table(q)[q - 1] % (q - 1)
    parity = 0 if e == 0 else 1
    return DirichletCharacter(modulus=q, index=j, parity=parity)


def _check_non_principal(*chis: DirichletCharacter) -> None:
    """Raise PrincipalCharacter if any of the characters is principal."""
    for chi in chis:
        if chi.is_principal:
            raise PrincipalCharacter(f"need a non-principal character, got {chi}")


def gauss_sum(k: int, chi: DirichletCharacter) -> complex:
    """G(k, chi) = sum_{a=1}^{q} chi(a) e^{2 pi i a k / q}, by the literal sum.

    For non-principal chi, |G(1, chi)| = sqrt(q) up to summation noise.
    """
    q = chi.modulus
    return sum(chi(a) * cmath.exp(2j * math.pi * a * k / q) for a in range(1, q))


@lru_cache(maxsize=None)
def epsilon_factor(chi: DirichletCharacter) -> complex:
    """Root number eps(chi) = G(1, chi) / (i^a sqrt(q)), |eps| = 1; formed
    once per character, since x_factor takes it at every AFE height.

    This is the normalisation under which L(s, chi) = X(s, chi) L(1-s, conj chi)
    holds with X(s, chi) = eps(chi) (q/pi)^(1/2-s) Gamma((1-s+a)/2)/Gamma((s+a)/2);
    verified against the two-sided Hurwitz oracle in the test suite.
    """
    q = chi.modulus
    return gauss_sum(1, chi) / (1j ** chi.parity * math.sqrt(q))


def parse_character(text: str) -> DirichletCharacter:
    """Parse the canonical "q:j" form used on the command line."""
    try:
        q, j = map(int, text.split(":"))
    except ValueError:  # a part that is not an integer, or not two parts
        raise IndexOutOfRange(f"character spec {text!r} is not of the form q:j")
    return character(q, j)

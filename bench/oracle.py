"""Independent exact oracle for the benchmark's correctness gate.

Nothing here imports the library.  A measure is a dict from bit mask (atom i
is bit i of a power set) to Fraction; a function is a list of Fractions
indexed by atom.  The Choquet integral is evaluated by descending-rank
telescoping, a different route from the library's threshold layers, so an
agreement between the two is a real cross-check.
"""

from __future__ import annotations

from fractions import Fraction


def integral(f, nu, mask):
    """Choquet integral of f over the set ``mask`` with respect to nu.

    Ranks the atoms of the set by decreasing f and telescopes:
    sum_i f(x_i) * (nu(S_i) - nu(S_{i-1})), with S_i the i largest atoms.
    """
    ranked = sorted(
        (i for i in range(len(f)) if mask >> i & 1), key=lambda i: -f[i]
    )
    total = Fraction(0)
    prefix = 0
    previous = Fraction(0)
    for i in ranked:
        prefix |= 1 << i
        value = nu[prefix]
        total += f[i] * (value - previous)
        previous = value
    return total


def indefinite(f, nu, n):
    """The table A -> integral of f over A, for all 2^n sets."""
    return {mask: integral(f, nu, mask) for mask in range(1 << n)}


def density_failures(mu, nu, f, n):
    """Masks where mu differs from the integral of f; empty iff f is a density."""
    return [mask for mask in range(1 << n) if mu[mask] != integral(f, nu, mask)]


def random_monotone(rng, n, steps, zero_atoms=0):
    """A monotone table built by cardinality-ordered accretion.

    Each set gets the maximum over its one-atom-smaller subsets plus a random
    step drawn from ``steps``.  The value only depends on the atoms outside
    ``zero_atoms``, so every subset of ``zero_atoms`` is null and adjoining
    one never changes the value (the measure is null-additive there).
    """
    live = ((1 << n) - 1) & ~zero_atoms
    table = {0: Fraction(0)}
    for mask in sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m)):
        core = mask & live
        if core != mask:
            table[mask] = table[core]
            continue
        base = max(table[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
        table[mask] = base + rng.choice(steps)
    return table


def null_sets(m):
    return [mask for mask, value in m.items() if value == 0]


def weakly_null_additive(m):
    nulls = null_sets(m)
    return all(m[a | b] == 0 for a in nulls for b in nulls)


def null_additive(m):
    nulls = null_sets(m)
    return all(m[a | z] == m[a] for a in m for z in nulls)


def abs_continuous(mu, nu):
    return all(mu[mask] == 0 for mask in null_sets(nu))


def dyadic(f, n):
    """The n-th dyadic approximant of f: min(floor(f 2^n), n 2^n) / 2^n."""
    denom = 1 << n
    return [
        Fraction(min(v.numerator * denom // v.denominator, n * denom), denom)
        for v in f
    ]


def members(mask, names):
    return [name for i, name in enumerate(names) if mask >> i & 1]

"""The edge-count lower-bound function Gamma(a, t).

Gamma(a, t) is the minimum of sum-of-C(z_i, 2) over all nonnegative integer
compositions z_1 + ... + z_a = a + t.  The closed form distributes a + t as
evenly as possible over the a parts; ``gamma_oracle`` recomputes the minimum
by dynamic programming over compositions and is the independent check.
All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb


@dataclass(frozen=True)
class GammaValue:
    """Value of Gamma(a, t) with the division witnesses a + t = r*a + s."""

    a: int
    t: int
    r: int
    s: int
    value: int


def gamma_closed(a: int, t: int) -> GammaValue:
    """Closed form: (a - s) * C(r, 2) + s * C(r + 1, 2) with a + t = r*a + s."""
    _check_domain(a, t)
    r, s = divmod(a + t, a)
    value = (a - s) * comb(r, 2) + s * comb(r + 1, 2)
    return GammaValue(a=a, t=t, r=r, s=s, value=value)


ORACLE_MAX = 100  # the recursion is a levels deep, the work a * (a + t)^2


def gamma_oracle(a: int, t: int) -> int:
    """Exact minimum over compositions, by DP on (parts used, remaining sum).

    Independent of the closed form.  Domain: a >= 1, t >= 0, a + t <= 100.
    """
    _check_domain(a, t)
    if a + t > ORACLE_MAX:
        raise ValueError(f"the Gamma oracle needs a + t <= {ORACLE_MAX}")
    return _oracle_rec(a, a + t)


@lru_cache(maxsize=None)
def _oracle_rec(parts: int, total: int) -> int:
    if parts == 1:
        return comb(total, 2)
    return min(comb(z, 2) + _oracle_rec(parts - 1, total - z)
               for z in range(total + 1))


def _check_domain(a: int, t: int) -> None:
    if a < 1:
        raise ValueError("Gamma needs at least one part (a >= 1)")
    if t < 0:
        raise ValueError("Gamma needs t >= 0")


@dataclass(frozen=True)
class GammaPropertyReport:
    """Grid verification of the identity suite Gamma satisfies.

    Inequality/identity violations and stated-equality-condition violations
    are listed separately: the inequalities and the exact difference identity
    hold everywhere, while two of the stated equality characterizations are
    defective and the report keeps the evidence visible instead of hiding it.
    Each list holds the grid points (parameter tuples) where the clause
    failed; ``notes`` records the oracle-determined facts:

    * first-argument comparison: Gamma(a, t) <= Gamma(a - 1, t), i.e. Gamma
      is nonincreasing in the part count at fixed t (e.g. Gamma(2, 2) = 2 <
      3 = Gamma(1, 2)), with equality exactly on 0 <= t <= a - 1.  This
      direction and condition verify cleanly.
    * superadditivity equality: equal floors t1//a1 == t2//a2 imply equality
      but are not necessary (Gamma(1,1) + Gamma(1,2) = 4 = Gamma(2,3) with
      floors 1 != 2).  The exact condition is that the balanced part sizes
      of both summands already lie in {r, r+1} of the combined split.
    * degree-bound equality: the stated condition "t != a-1" is wrong in
      general (strict at (3,1) although t != a-1); the exact condition is
      2(a-1) <= r(a-s) with a+t = r*a+s.
    """

    a_max: int
    t_max: int
    # Gamma(a,t) <= Gamma(a-1,t) with equality iff 0 <= t <= a-1
    violations_monotone_parts: list
    # Gamma(a,t) - Gamma(a,t-1) = 1 + (t-1)//a, exact
    violations_difference: list
    # Gamma(a1,t1) + Gamma(a2,t2) >= Gamma(a1+a2, t1+t2)
    violations_superadditive: list
    # stated condition: equality iff t1//a1 == t2//a2
    violations_superadditive_equality: list
    # ceil(2(a-1+Gamma(a,t)) / (a+t)) >= 1 + t//a
    violations_degree: list
    # stated condition: equality iff t != a-1
    violations_degree_equality: list
    notes: tuple[str, ...]

    @property
    def inequalities_ok(self) -> bool:
        """True when every inequality/identity clause holds on the grid."""
        return not (self.violations_monotone_parts or self.violations_difference
                    or self.violations_superadditive or self.violations_degree)

    @property
    def ok(self) -> bool:
        """True only if the stated equality characterizations also hold."""
        return (self.inequalities_ok
                and not self.violations_superadditive_equality
                and not self.violations_degree_equality)


_NOTES = (
    "monotone-parts direction fixed by the enumeration oracle: "
    "Gamma(a,t) <= Gamma(a-1,t) for a >= 2, t >= 1, equality exactly on "
    "0 <= t <= a-1",
    "superadditivity equality: equal floors t1//a1 == t2//a2 are sufficient "
    "but not necessary; exact condition: both summands' balanced part sizes "
    "lie in {r, r+1} of the combined split",
    "degree-bound equality: stated condition 't != a-1' fails in general; "
    "exact condition: 2(a-1) <= r(a-s) where a+t = r*a+s",
)


def gamma_property_suite(a_max: int, t_max: int) -> GammaPropertyReport:
    """Verify the identity suite over the grid 1 <= a <= a_max,
    0 <= t <= t_max (each clause on its own domain).  Violations are report
    content, never exceptions."""
    if a_max < 2 or t_max < 2:
        raise ValueError("property grid needs a_max >= 2 and t_max >= 2")
    val = {(a, t): gamma_closed(a, t).value
           for a in range(1, a_max + 1) for t in range(0, t_max + 1)}

    mono = []
    for a in range(2, a_max + 1):
        for t in range(1, t_max + 1):
            diff = val[a, t] - val[a - 1, t]
            if diff > 0 or (diff == 0) != (t <= a - 1):
                mono.append((a, t))

    difference = []
    for a in range(1, a_max + 1):
        for t in range(1, t_max + 1):
            if val[a, t] - val[a, t - 1] != 1 + (t - 1) // a:
                difference.append((a, t))

    superadd, superadd_eq = [], []
    for a1 in range(1, a_max):
        for a2 in range(1, a_max + 1 - a1):
            for t1 in range(1, t_max):
                for t2 in range(1, t_max + 1 - t1):
                    lhs = val[a1, t1] + val[a2, t2]
                    rhs = val[a1 + a2, t1 + t2]
                    if lhs < rhs:
                        superadd.append((a1, t1, a2, t2))
                    elif (lhs == rhs) != (t1 // a1 == t2 // a2):
                        superadd_eq.append((a1, t1, a2, t2))

    degree, degree_eq = [], []
    for a in range(2, a_max + 1):
        for t in range(1, t_max + 1):
            lhs = -((-2 * (a - 1 + val[a, t])) // (a + t))  # exact ceiling
            rhs = 1 + t // a
            if lhs < rhs:
                degree.append((a, t))
            elif (lhs == rhs) != (t != a - 1):
                degree_eq.append((a, t))

    return GammaPropertyReport(
        a_max=a_max,
        t_max=t_max,
        violations_monotone_parts=mono,
        violations_difference=difference,
        violations_superadditive=superadd,
        violations_superadditive_equality=superadd_eq,
        violations_degree=degree,
        violations_degree_equality=degree_eq,
        notes=_NOTES,
    )


def degree_equality_exact(a: int, t: int) -> bool:
    """Oracle-derived exact equality condition for the degree-bound clause."""
    r, s = divmod(a + t, a)
    return 2 * (a - 1) <= r * (a - s)


def superadditive_equality_exact(a1: int, t1: int, a2: int, t2: int) -> bool:
    """Exact equality condition for superadditivity: the balanced part sizes
    of both summands nest inside those of the combined split."""
    def sizes(a, t):
        r, s = divmod(a + t, a)
        return {r, r + 1} if s else {r}
    return sizes(a1, t1) | sizes(a2, t2) <= sizes(a1 + a2, t1 + t2)

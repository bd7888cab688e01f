"""Radon-Nikodym derivatives for monotone measures, end to end.

Run with:  python3 demos/demo_radon_nikodym.py

Three stories on one stage:
  1. a four-point pair with two genuinely different densities,
  2. pairs with no density at all, each refuted at one set by the Moebius
     identity m_mu(A) = m_nu(A) * min_A f,
  3. the decomposition-family machinery that certifies both answers.
"""

from choquetrn import (
    abs_continuous,
    build_space,
    check_decomposition,
    derive_function,
    dyadic_approximant,
    equal_ae,
    fixture_f1,
    fixture_f3,
    measure_from_table,
    solve_rn,
    verify_rn,
)


def main():
    print("== non-uniqueness on four points ==")
    fx = fixture_f1()
    print("mu = nu = indicator of the full universe on {1,2,3,4}")
    for name, f in (("f1", fx.f1), ("f2", fx.f2)):
        result = verify_rn(fx.mu, fx.nu, f)
        print(f"  {name} = {f}: verifies on all {result.checked} sets: "
              f"{result.holds}")
    cmp_ = equal_ae(fx.f1, fx.f2, fx.nu)
    print(f"  f1 = f2 a.e.[nu]? {cmp_.equal} "
          f"(they differ on {cmp_.diff_set} with nu-mass {cmp_.diff_measure})")
    print("  two honest densities that disagree everywhere; uniqueness")
    print("  needs property (sigma), which this nu lacks.")

    print()
    print("== the decomposition family behind f1 ==")
    family = fx.family
    print(f"  family: {family}")
    dec = check_decomposition(fx.mu, fx.nu, family, detail=True)
    print(f"  two-sided inequalities on all sets: {dec.holds} "
          f"({dec.checked_pairs} band pairs x {dec.checked_sets} sets)")
    print(f"  tail {dec.tail_set} is null under both measures: {dec.tail_ok}")
    print(f"  derived function: {derive_function(family)}")
    for n in (1, 2, 3):
        print(f"  dyadic approximant n={n}: {dyadic_approximant(family, n)}")

    print()
    print("== a pair with no density ==")
    fx3 = fixture_f3()
    print("nu = indicator of the full universe on {1,2}, mu = |A|/2")
    cert = solve_rn(fx3.mu, fx3.nu)
    print(f"  solvable: {cert.solvable}, refuted at: {cert.note}")
    print("  any density f has m_mu(A) = m_nu(A) * min_A f on every set A,")
    print("  and here the right side vanishes on {1}.  So does nu:")
    print(f"  {', '.join(map(str, cert.ac_witness.sets))} is nu-null but not "
          "mu-null, and mu << nu fails.")

    print()
    print("== refuted where the least candidate is too large ==")
    space2 = build_space(["a", "b"])
    mu2 = measure_from_table(space2, {(): 0, ("a",): 2, ("b",): 2, ("a", "b"): 5})
    nu2 = measure_from_table(space2, {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3})
    print("nu = 1, 1, 3 and mu = 2, 2, 5 on {a}, {b}, {a,b}")
    cert2 = solve_rn(mu2, nu2)
    print(f"  solvable: {cert2.solvable}, refuted at: {cert2.note}")
    print(f"  mu << nu holds: {abs_continuous(mu2, nu2).holds}, yet every density is at")
    print("  least g(a), the largest m_mu(A) / m_nu(A) over the sets A holding a:")
    print("  2 on both atoms, so min f over {a,b} >= 2 where 1 is needed.")
    print("  Absolute continuity alone is not enough for monotone measures.")

    print()
    print("== and one that solves ==")
    cert1 = solve_rn(fx.mu, fx.nu)
    print(f"  solver density for the four-point pair: {cert1.function}")
    print("  (the constant 1, the least density, below both f1 and f2)")


if __name__ == "__main__":
    main()

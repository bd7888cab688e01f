"""Radon-Nikodym derivatives for monotone measures, end to end.

Run with:  python3 demos/demo_radon_nikodym.py

Three stories on one stage:
  1. a four-point pair with two genuinely different densities,
  2. pairs with no density at all, refuted by whole prefixes of removed
     atoms, each with its witness sets,
  3. the decomposition-family machinery that certifies both answers.
"""

from choquetrn import (
    build_space,
    cardinality_measure,
    check_decomposition,
    derive_function,
    dyadic_approximant,
    equal_ae,
    fixture_f1,
    fixture_f3,
    indicator_full_measure,
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
    print(f"  solvable: {cert.solvable}")
    for record in cert.chain_records:
        print(f"  prefix {record.removal_order}: {record.reason} on "
              f"{', '.join(map(str, record.sets))}")
    print("  every maximal chain is infeasible, so no nonnegative density")
    print("  exists; note that mu << nu still holds, absolute continuity")
    print("  alone is not enough for monotone measures.")

    print()
    print("== refuting whole prefixes ==")
    space3 = build_space(["1", "2", "3"])
    mu3 = cardinality_measure(space3, "1/3")
    nu3 = indicator_full_measure(space3)
    print("nu = indicator of the full universe on {1,2,3}, mu = |A|/3")
    cert3 = solve_rn(mu3, nu3)
    print(f"  solvable: {cert3.solvable}")
    for record in cert3.chain_records:
        print(f"  prefix {record.removal_order}: {record.reason} on "
              f"{', '.join(map(str, record.sets))} "
              f"({record.chains} maximal chains)")
    print(f"  {cert3.chains_refuted} maximal chains refuted by "
          f"{len(cert3.chain_records)} records: the first removed atom b")
    print("  would need Delta_b mu(A) = h_b * Delta_b nu(A) on A = {b}, where")
    print("  Delta_b m(A) = m(A) - m(A - b), that is 1/3 = h_b * 0, so no")
    print("  chain removing it first can work, whatever comes after.")

    print()
    print("== and one that solves ==")
    cert1 = solve_rn(fx.mu, fx.nu)
    print(f"  solver density for the four-point pair: {cert1.function}")
    print("  (the constant 1, a third density besides f1 and f2)")


if __name__ == "__main__":
    main()

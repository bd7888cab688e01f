"""Sigma-finite behavior through finite truncations.

Run with:  python3 demos/demo_sigma_finite.py

A countable space is modelled by its finite prefixes U_1 < U_2 < ... and the
identity density f(x) = x is checked on the deepest prefix.  A set inside a
shallower prefix gets the same decomposition equation there, so that one
check decides every prefix.  Everything here is truncated-limit evidence:
exact at every finite level, silent about the genuine limit.
"""

from choquetrn import (
    MeasurableSet,
    choquet_value,
    fixture_f4,
    glue_derivative,
    verify_sigma_finite,
)


def main():
    n_max = 8
    model = fixture_f4(n_max)
    print(f"universe prefix: {{0, 1, ..., {n_max}}}")
    print("nu: every nonempty set has mass 1 (not additive)")
    print("mu: the largest element of the set (not additive either)")
    print(f"truncations at depths {model.depths}")

    print()
    print("== one decomposition check on the deepest truncation ==")
    result = glue_derivative(model)
    for depth, holds in zip(model.depths, result.per_truncation):
        print(f"  U_{depth - 1} = {{{','.join(model.atoms[:depth])}}}: "
              f"decomposition {holds}")
    print(f"glued density: {result.function}")
    print(f"finite a.e.[nu] at every level: {result.finite_ae}")
    print(f"status: {result.note}")

    print()
    print("== verifying the glued density ==")
    check = verify_sigma_finite(model, result.function)
    print(f"mu(A & U_n) = integral of f over A & U_n for all A, n: {check.holds}")
    print(f"  sets checked: {check.checked}, failing: {len(check.records)}")
    A = model.deepest.make_set(["1", "4", "7"])
    prefixes = [(1 << depth) - 1 for depth in model.depths]
    cuts = [MeasurableSet(model.deepest, A.mask & prefix) for prefix in prefixes]
    mu_values = [model.mu(cut) for cut in cuts]
    integrals = [choquet_value(result.function, model.nu, cut) for cut in cuts]
    print(f"  e.g. A = {A}:")
    print(f"    mu values per level:       {[str(v) for v in mu_values]}")
    print(f"    integral values per level: {[str(v) for v in integrals]}")
    # A & U_n grows with n, and mu and the integral are monotone in the set
    print(f"    nondecreasing in n: "
          f"{mu_values == sorted(mu_values) and integrals == sorted(integrals)}")
    print("the identity f(x) = x emerges because mu picks the maximum and")
    print("nu charges every nonempty layer equally.")


if __name__ == "__main__":
    main()

"""Tour of the assignment lattice and the structural verifiers.

Builds a few assignments by hand, shows how join cancels conflicting
labels while meet keeps agreements, then runs both k-submodularity
verifiers on a healthy function and on a deliberately broken table.
"""

from ksubmax import (
    Assignment,
    ExplicitTableFunction,
    gen_modular,
    join,
    meet,
    precedes,
    verify_k_submodular,
    verify_monotone,
    verify_orthant_pairwise,
)


def main():
    a = Assignment((1, 1, 0, 2), k=2)
    b = Assignment((2, 1, 2, 0), k=2)
    print(f"a = {list(a.labels)}  support {sorted(a.support())}")
    print(f"b = {list(b.labels)}  support {sorted(b.support())}")
    print(f"join(a, b) = {list(join(a, b).labels)}   (conflict at element 0 cancels)")
    print(f"meet(a, b) = {list(meet(a, b).labels)}   (only the agreement survives)")
    print(f"meet precedes both: {precedes(meet(a, b), a)}, {precedes(meet(a, b), b)}")
    print()

    f = gen_modular(3, 2, monotone=False, seed=13)
    print("random modular function, table rows:", [list(r) for r in f.table])
    print("  lattice inequality:", verify_k_submodular(f))
    print("  orthant + pairwise:", verify_orthant_pairwise(f))
    print("  monotone:", verify_monotone(f).holds)
    print()

    # single element, two positions, gains 1 and -2: their sum is negative,
    # which no k-submodular function allows
    broken = ExplicitTableFunction(1, 2, [0.0, 1.0, -2.0])
    v = verify_k_submodular(broken)
    w = verify_orthant_pairwise(broken)
    print("broken table [0, 1, -2]:")
    print("  lattice inequality holds:", v.holds)
    print("  orthant + pairwise holds:", w.holds, "| counterexample:", w.counterexample)


if __name__ == "__main__":
    main()

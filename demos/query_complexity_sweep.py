"""Where the threshold solver earns its keep: value-oracle calls vs rank.

Greedy pays roughly rank * n * k evaluations because every addition
re-scans the whole ground set.  The threshold solver's bill is an
opening scan of every element plus one visit per candidate whose last
computed gain can still meet the bar, over a number of decay rounds that
depends on the rank only inside a logarithm, so raising the budget
barely moves it.  This sweep fixes n=200, k=2 and grows a uniform
matroid's budget from 2 to 32.
"""

from ksubmax import (
    UniformMatroid,
    gen_modular,
    greedy_solve,
    predicted_round_bound,
    threshold_decreasing_solve,
)


def main():
    n, k, eps = 200, 2, 0.2
    f = gen_modular(n, k, value_range=(2.0, 4.0), monotone=True, seed=5)
    print(f"n={n}, k={k}, eps={eps}, monotone modular objective")
    print(f"{'budget':>7} {'greedy eo':>10} {'threshold eo':>13} "
          f"{'rounds':>7} {'round bound':>12}")
    base_greedy = base_threshold = None
    for budget in (2, 4, 8, 16, 32):
        m = UniformMatroid(n, budget)
        g = greedy_solve(f, m)
        t = threshold_decreasing_solve(f, m, eps)
        if budget == 2:
            base_greedy = g.counters.eo_calls
            base_threshold = t.counters.eo_calls
        print(f"{budget:>7} {g.counters.eo_calls:>10} {t.counters.eo_calls:>13} "
              f"{len(t.rounds):>7} {predicted_round_bound(eps, budget):>12}")
    print()
    print(f"growth from budget 2 to 32: "
          f"greedy x{g.counters.eo_calls / base_greedy:.1f}, "
          f"threshold x{t.counters.eo_calls / base_threshold:.2f}")


if __name__ == "__main__":
    main()

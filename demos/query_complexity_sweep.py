"""Where the threshold solver earns its keep: value-oracle calls vs rank.

The paper's greedy baseline re-prices every feasible element at every
addition, so it pays roughly rank * n * k evaluations; on this uniform
matroid that is exactly k * (n + (n-1) + ... + (n-r+1)), the "eager eo"
column.  The threshold solver's bill is an opening scan of every element
plus one visit per candidate whose last computed gain can still meet the
bar, over a number of decay rounds that depends on the rank only inside
a logarithm, so raising the budget barely moves it.  The shipped greedy
is lazy: it re-prices only the candidates whose last computed gain could
still be the best.  On this modular objective the gains never change,
so it re-prices about one element per addition and its bill stays close
to the threshold solver's; the paper's rank * n * k is the worst case,
which the eager column shows.  This sweep fixes n=200, k=2 and grows a
uniform matroid's budget from 2 to 32.
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
    print(f"{'budget':>7} {'eager eo':>9} {'greedy eo':>10} {'threshold eo':>13} "
          f"{'rounds':>7} {'round bound':>12}")
    first = None
    for budget in (2, 4, 8, 16, 32):
        m = UniformMatroid(n, budget)
        eager = k * sum(n - j for j in range(budget))
        g = greedy_solve(f, m).counters.eo_calls
        t = threshold_decreasing_solve(f, m, eps)
        counts = (eager, g, t.counters.eo_calls)
        first = first or counts
        print(f"{budget:>7} {eager:>9} {g:>10} {t.counters.eo_calls:>13} "
              f"{len(t.rounds):>7} {predicted_round_bound(eps, budget):>12}")
    print()
    print(f"growth from budget 2 to 32: eager greedy x{counts[0] / first[0]:.1f}, "
          f"greedy x{counts[1] / first[1]:.2f}, threshold x{counts[2] / first[2]:.2f}")


if __name__ == "__main__":
    main()

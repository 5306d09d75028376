"""Threshold-decreasing search versus the greedy baseline on one instance.

The threshold solver sweeps a decaying acceptance bar over the candidate
pool and takes anything whose best-position gain clears it, skipping at
no cost any candidate whose last computed gain is already below the bar;
greedy takes the single best pair at every step, re-pricing only the
candidates whose last computed gain could still be the best and dropping
for good the ones the matroid has ruled out.  Both land close to the
optimum here, but their oracle bills differ, and on non-monotone
objectives greedy can talk itself into negative gains.
"""

from ksubmax import (
    ModularFunction,
    UniformMatroid,
    brute_force_solve,
    gen_modular,
    gen_partition_matroid,
    greedy_solve,
    threshold_decreasing_solve,
)


def show(name, value, counters, extra=""):
    print(f"  {name:<10} value {value:<10g} eo {counters.eo_calls:<5} "
          f"io {counters.io_calls:<5} {extra}")


def main():
    f = gen_modular(8, 3, monotone=True, seed=21)
    m = gen_partition_matroid(8, seed=22)
    opt = brute_force_solve(f, m).value
    print(f"monotone instance, n=8, k=3, optimum {opt:g}")
    for eps in (0.1, 0.3, 0.5):
        rep = threshold_decreasing_solve(f, m, epsilon=eps)
        show(f"eps={eps}", rep.value, rep.counters,
             f"rounds {len(rep.rounds)}  guarantee {(0.5 - eps) * opt:g}")
    g = greedy_solve(f, m)
    show("greedy", g.value, g.counters)
    print()

    print("threshold schedule for the eps=0.5 run:")
    rep = threshold_decreasing_solve(f, m, epsilon=0.5)
    for w, added in rep.rounds:
        print(f"  bar {w:10.4f}  accepted {added}")
    print()

    # all-negative instance: the decaying bar never admits a losing element,
    # greedy keeps adding until the matroid says stop
    f2 = ModularFunction([[-1.0], [-2.0], [-0.5]])
    m2 = UniformMatroid(3, 3)
    print("all-negative instance:")
    show("threshold", threshold_decreasing_solve(f2, m2, 0.5).value,
         threshold_decreasing_solve(f2, m2, 0.5).counters)
    show("greedy", greedy_solve(f2, m2).value, greedy_solve(f2, m2).counters)


if __name__ == "__main__":
    main()

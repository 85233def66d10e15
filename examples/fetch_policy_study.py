#!/usr/bin/env python3
"""Reproduce a slice of the paper's fetch-policy experiment (Figs. 3-4).

Runs three of the paper's benchmarks under True Round Robin, Masked
Round Robin, and Conditional Switch with four threads, next to the
single-threaded base case, and prints the cycle counts the way the
figures report them. The grid is the registry's ``fetch`` grid, the
same one ``repro report --experiment fetch`` and the benchmark suite
run.

Run with: ``python examples/fetch_policy_study.py``
(the four cycle-accurate runs per benchmark take ~tens of seconds).
"""

from repro.harness import GRIDS, run_grid, series_table


def main():
    names = ["LL1", "LL5", "Water"]
    jobs = GRIDS["fetch"].jobs(names, threads=(4,))
    print("running fetch-policy study (4 threads + base case)...")
    results = run_grid([(name, config) for name, config, _ in jobs],
                       strict=True)
    series = {}
    for (name, _, label), result in zip(jobs, results):
        series.setdefault(label, {})[name] = result.cycles
    print()
    print(series_table("Cycles by fetch policy (cf. paper Figs. 3-4)",
                       series, benchmarks=names))
    print()
    for name in names:
        true_rr = series["TrueRR"][name]
        base = series["BaseCase"][name]
        print(f"{name:8s} TrueRR speedup over base: {base / true_rr - 1:+.1%}")
    print("\nAs in the paper: the three policies perform comparably, and "
          "True Round Robin is the simplest to implement.")


if __name__ == "__main__":
    main()

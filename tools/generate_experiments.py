#!/usr/bin/env python3
"""Generate EXPERIMENTS.md from benchmarks/results.json.

Run the benchmark suite first::

    pytest benchmarks/
    python tools/generate_experiments.py
"""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results.json"
OUTPUT = ROOT / "EXPERIMENTS.md"

GROUP1 = ["LL1", "LL2", "LL3", "LL5", "LL7", "LL12"]
GROUP2 = ["Laplace", "MPD", "Matrix", "Sieve", "Water"]


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def fmt(value):
    if isinstance(value, float):
        return f"{value:,.0f}"
    return f"{value:,}"


def pct(value):
    return f"{value:+.1%}"


def fetch_policy_section(results, key, names, figure, group):
    data = results[key]
    rows = []
    for name in names:
        base = data["BaseCase"][name]
        rows.append([name] + [fmt(data[k][name])
                              for k in ("TrueRR", "MaskedRR", "CSwitch",
                                        "BaseCase")]
                    + [pct(base / data["TrueRR"][name] - 1)])
    return "\n".join([
        f"### Figure {figure} — fetch policies, {group}",
        "",
        "**Paper:** True RR and Masked RR are \"about equivalent\"; "
        "Conditional Switch \"has similar performance\"; True RR is the "
        "easiest to implement. Multithreading (4 threads) beats the "
        "single-threaded base case for most benchmarks.",
        "",
        "**Measured (cycles):**",
        "",
        table(["benchmark", "TrueRR", "MaskedRR", "CSwitch", "BaseCase",
               "TrueRR speedup"], rows),
        "",
    ])


def thread_sweep_section(results, key, names, figure, group):
    data = results[key]
    threads = sorted(data, key=int)
    rows = []
    for name in names:
        single = data["1"][name]
        best_n = min(threads[1:], key=lambda n: data[n][name])
        peak = single / data[best_n][name] - 1
        rows.append([name] + [fmt(data[n][name]) for n in threads]
                    + [f"{pct(peak)} @ {best_n}T"])
    return "\n".join([
        f"### Figure {figure} — cycles vs number of threads, {group}",
        "",
        "**Paper:** peak improvements between -8.5% and 77%; best results "
        "at small thread counts (3 threads best on average for the "
        "Livermore loops), deterioration by 6 threads; the benchmark with "
        "a cross-iteration dependence (our LL5) is consistently *slower* "
        "than single-threaded because of synchronization cost.",
        "",
        "**Measured (cycles):**",
        "",
        table(["benchmark"] + [f"{n}T" for n in threads] + ["peak"], rows),
        "",
    ])


def cache_section(results):
    fig7 = results["fig7"]
    fig8 = results["fig8"]
    rows = []
    for n in sorted(fig7["direct"], key=int):
        rows.append([f"{n} threads",
                     fmt(fig7["direct"][n]), fmt(fig7["assoc"][n]),
                     fmt(fig8["direct"][n]), fmt(fig8["assoc"][n])])
    t2 = results["table2"]
    rate_rows = []
    for n in sorted(t2["group1"]["direct"], key=int):
        rate_rows.append([n,
                          f"{t2['group1']['direct'][n]:.1%}",
                          f"{t2['group1']['assoc'][n]:.1%}",
                          f"{t2['group2']['direct'][n]:.1%}",
                          f"{t2['group2']['assoc'][n]:.1%}"])
    return "\n".join([
        "### Figures 7-8 and Table 2 — direct-mapped vs associative cache",
        "",
        "**Paper:** performance is better with the associative cache, and "
        "the difference \"keeps increasing steadily as the number of "
        "threads is increased\" (contention); hit rate improves then falls "
        "as threads are added, the fall more pronounced for the "
        "small-working-set Livermore loops; cache hit rate correlates "
        "directly with overall cycles.",
        "",
        "**Measured — average cycles:**",
        "",
        table(["config", "GrpI direct", "GrpI assoc", "GrpII direct",
               "GrpII assoc"], rows),
        "",
        "**Measured — average hit rates (Table 2):**",
        "",
        table(["threads", "GrpI direct", "GrpI assoc", "GrpII direct",
               "GrpII assoc"], rate_rows),
        "",
    ])


def su_depth_section(results, key, names, figure, group):
    data = results[key]
    depths = (32, 64, 128, 256)
    rows = []
    for name in names:
        row = [name]
        for n in (1, 4):
            for depth in depths:
                row.append(fmt(data[f"{n}T_su{depth}"][name]))
        rows.append(row)
    headers = (["benchmark"] + [f"1T su{d}" for d in depths]
               + [f"4T su{d}" for d in depths])
    return "\n".join([
        f"### Figure {figure} — scheduling-unit depth, {group}",
        "",
        "**Paper:** significant gain from the smallest SU to the next "
        "size, much less after that, negligible for the last doubling; "
        "the difference between multithreaded and single-threaded "
        "performance *shrinks* with deeper SUs (a deep window finds ILP "
        "by itself, making multithreading less useful).",
        "",
        "**Measured (cycles):**",
        "",
        table(headers, rows),
        "",
    ])


def fu_section(results, key, names, figure, group):
    data = results[key]
    rows = []
    for name in names:
        d1, d4 = data["1T_default"][name], data["4T_default"][name]
        e1, e4 = data["1T_enhanced"][name], data["4T_enhanced"][name]
        rows.append([name, fmt(d1), fmt(d4), fmt(e1), fmt(e4),
                     pct(d1 / d4 - 1), pct(e1 / e4 - 1)])
    return "\n".join([
        f"### Figure {figure} — default vs enhanced functional units, "
        f"{group}",
        "",
        "**Paper:** with default units, 4-thread execution is faster "
        "than 1-thread; with the enhanced configuration the *relative* "
        "multithreaded speedup is greater than with the default "
        "configuration for both groups (extra units need multithreading "
        "to keep them fed).",
        "",
        "**Measured (cycles; ++ = enhanced):**",
        "",
        table(["benchmark", "1T", "4T", "1T++", "4T++", "MT gain",
               "MT gain ++"], rows),
        "",
    ])


def table3_section(results):
    data = results["table3"]
    rows = []
    for cls in sorted(set(data["group1"]) | set(data["group2"])):
        for group_key, label in (("group1", "Group I"),
                                 ("group2", "Group II")):
            for index, fraction in enumerate(data[group_key].get(cls, [])):
                rows.append([label, f"{cls} #{index + 2}",
                             f"{fraction:.1%}"])
    return "\n".join([
        "### Table 3 — usage of the extra functional units",
        "",
        "**Paper:** the numbers \"argue strongly in favor of a second "
        "load unit, and a floating point multiplier\", the latter most "
        "useful to the compute-intensive Group I; extra dividers are "
        "barely used.",
        "",
        "**Measured (fraction of cycles each extra unit is busy, "
        "4 threads, enhanced configuration):**",
        "",
        table(["group", "extra unit", "usage"], rows),
        "",
    ])


def commit_section(results, key, names, figure, group):
    data = results[key]
    rows = [[name, fmt(data["Multiple"][name]), fmt(data["Lowest"][name]),
             pct(data["Lowest"][name] / data["Multiple"][name] - 1)]
            for name in names]
    return "\n".join([
        f"### Figure {figure} — Flexible Result Commit, {group}",
        "",
        "**Paper:** committing from multiple (four) bottom blocks beats "
        "lowest-only commit (Group I ~+x%, Group II ~+x%; the OCR lost "
        "the exact averages) because scheduling-unit stalls occur less "
        "often.",
        "",
        "**Measured (cycles; gain = Lowest/Multiple - 1):**",
        "",
        table(["benchmark", "Multiple", "Lowest", "flexible gain"], rows),
        "",
    ])


def speedup_section(results):
    data = results["speedup_summary"]
    rows = [[name, pct(entry["peak"]), entry["best_threads"]]
            for name, entry in data.items()]
    avg1 = sum(data[n]["peak"] for n in GROUP1) / len(GROUP1)
    avg2 = sum(data[n]["peak"] for n in GROUP2) / len(GROUP2)
    return "\n".join([
        "### Section 5.2 — peak improvement summary",
        "",
        "**Paper:** peak improvements from -8.5% to 77%; the headline "
        "conclusion is \"a speedup of 20 to 55% for most benchmarks\".",
        "",
        "**Measured:**",
        "",
        table(["benchmark", "peak improvement", "best thread count"], rows),
        "",
        f"Group I average peak: **{pct(avg1)}** · "
        f"Group II average peak: **{pct(avg2)}**",
        "",
    ])


def ablation_section(results):
    parts = ["### Beyond-paper ablations and extensions", ""]
    if "ablation_commit_depth" in results:
        data = results["ablation_commit_depth"]
        rows = [[f"window {k}", fmt(v)] for k, v in sorted(
            data.items(), key=lambda kv: int(kv[0]))]
        parts += ["**Commit-window depth** (the paper fixes 4):", "",
                  table(["config", "total cycles"], rows), ""]
    if "ablation_predictor" in results:
        data = results["ablation_predictor"]
        parts += ["**Shared vs per-thread predictor/BTB** (the paper "
                  "shares one table):", "",
                  table(["config", "total cycles"],
                        [["shared", fmt(data["shared"])],
                         ["per-thread", fmt(data["private"])]]), ""]
    if "ablation_store_buffer" in results:
        data = results["ablation_store_buffer"]
        rows = [[f"{k} entries", fmt(v)] for k, v in sorted(
            data.items(), key=lambda kv: int(kv[0]))]
        parts += ["**Store-buffer depth:**", "",
                  table(["config", "total cycles"], rows), ""]
    if "ablation_cache_ports" in results:
        data = results["ablation_cache_ports"]
        rows = [[f"{k} port(s)", fmt(v)] for k, v in sorted(
            data.items(), key=lambda kv: int(kv[0]))]
        parts += ["**Cache ports** (paper improvement #1):", "",
                  table(["config", "total cycles"], rows), ""]
    if "ablation_masked_criterion" in results:
        data = results["ablation_masked_criterion"]
        rows = [[k, fmt(v)] for k, v in sorted(data.items())]
        parts += ["**Masked-RR masking criterion** (commit-stall is the "
                  "paper's; long-latency is the variant it hints at):", "",
                  table(["criterion", "total cycles"], rows), ""]
    if "ablation_icache" in results:
        data = results["ablation_icache"]
        rows = [[k, fmt(v)] for k, v in data.items()]
        parts += ["**Instruction cache** (the paper assumes perfect; the "
                  "modest penalty of a real one justifies that):", "",
                  table(["config", "total cycles"], rows), ""]
    if "ext_icount" in results:
        data = results["ext_icount"]
        total_rr = sum(data["true_rr"].values())
        total_ic = sum(data["icount"].values())
        parts += ["**ICOUNT fetch policy** (the paper's \"judicious "
                  "fetch policy\" suggestion, per Tullsen et al. 1996): "
                  f"total cycles {fmt(total_ic)} vs True RR "
                  f"{fmt(total_rr)} ({pct(total_rr / total_ic - 1)} "
                  "overall).", ""]
    if "ext_alignment" in results:
        data = results["ext_alignment"]
        total_p = sum(data["plain"].values())
        total_a = sum(data["aligned"].values())
        parts += ["**Branch-target alignment** (paper improvement #2): "
                  f"total cycles {fmt(total_a)} vs plain {fmt(total_p)} "
                  f"({pct(total_p / total_a - 1)} overall — small either "
                  "way; code motion also perturbs predictor indexing).",
                  ""]
    return "\n".join(parts)


def build(results):
    """Assemble the markdown from a results dict (missing experiments
    are skipped with a note so partial runs still document themselves)."""
    sections = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Every table and figure of the paper's evaluation, regenerated by "
        "`pytest benchmarks/`. The paper's own absolute "
        "numbers are mostly lost to OCR, and our substrate is a scaled "
        "simulator, so the comparison is of *shapes*: orderings, rough "
        "factors, crossovers. Every run's computation is verified against "
        "an independent Python mirror before its cycle count is used.",
        "",
    ]
    builders = [
        lambda: fetch_policy_section(results, "fig3", GROUP1, 3, "Group I"),
        lambda: fetch_policy_section(results, "fig4", GROUP2, 4, "Group II"),
        lambda: thread_sweep_section(results, "fig5", GROUP1, 5, "Group I"),
        lambda: thread_sweep_section(results, "fig6", GROUP2, 6, "Group II"),
        lambda: cache_section(results),
        lambda: su_depth_section(results, "fig9", GROUP1, 9, "Group I"),
        lambda: su_depth_section(results, "fig10", GROUP2, 10, "Group II"),
        lambda: fu_section(results, "fig11", GROUP1, 11, "Group I"),
        lambda: fu_section(results, "fig12", GROUP2, 12, "Group II"),
        lambda: table3_section(results),
        lambda: commit_section(results, "fig13", GROUP1, 13, "Group I"),
        lambda: commit_section(results, "fig14", GROUP2, 14, "Group II"),
        lambda: speedup_section(results),
        lambda: ablation_section(results),
    ]
    for builder in builders:
        try:
            sections.append(builder())
        except KeyError as missing:
            sections.append(f"*(experiment {missing} not in results.json — "
                            f"run the benchmark suite)*\n")
    return "\n".join(sections)


def main():
    results = json.loads(RESULTS.read_text())
    OUTPUT.write_text(build(results))
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()

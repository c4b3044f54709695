"""Summarize benchmark records into a baseline file.

    python3 perfbench/baseline.py [--records .perfbench_out] [--out FILE]

Reads the run records and span files that run.py leaves in .perfbench_out/
and writes, per workload, the median and quartiles of each end-to-end
metric over the untraced runs, the per-module metrics and self-time shares
of the traced run, and cross-checks against the ROADMAP baseline figures.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import END_TO_END  # noqa: E402

# ROADMAP "Baseline" figures, stated there as +-20%
ROADMAP = {
    "grad_ms_per_call_N24": 45.0,
    "assembly_s_N24": 4.6,
    "kernel_values_n3_us_per_point": 3.5,
}
NODES_N24 = 25 * 25


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _mean_duration(spans, name, pred):
    ds = [s["end"] - s["start"] for s in spans if s["name"] == name and pred(s)]
    return (sum(ds) / len(ds), len(ds)) if ds else (None, 0)


def crosscheck(spans_by_wl):
    out = {}
    solve = spans_by_wl.get("solve")
    if solve:
        g, n = _mean_duration(solve, "energy.grad", lambda s: s["count"] == NODES_N24)
        out["grad_ms_per_call_N24"] = None if g is None else {"value": 1e3 * g, "calls": n}
        b, n = _mean_duration(solve, "energy.build", lambda s: s["count"] == NODES_N24)
        out["assembly_s_N24"] = None if b is None else {"value": b, "builds": n}
    tables = spans_by_wl.get("tables_n3")
    if tables:
        kv = [
            s for s in tables
            if s["name"] == "kernel.kernel_values"
            and s["parent"] >= 0
            and tables[s["parent"]]["name"] == "kernel.build_kernel_table"
        ]
        pts = sum(s["count"] for s in kv)
        t = sum(s["end"] - s["start"] for s in kv)
        if pts:
            out["kernel_values_n3_us_per_point"] = {
                "value": 1e6 * t / pts,
                "points": pts,
                "where": "kernel_values inside build_kernel_table, n=3",
            }
    for k, ref in ROADMAP.items():
        if out.get(k):
            v = out[k]["value"]
            out[k]["roadmap"] = ref
            out[k]["rel_diff"] = v / ref - 1.0
            out[k]["beyond_20pct"] = abs(v / ref - 1.0) > 0.2
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--records", default=".perfbench_out")
    ap.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    args = ap.parse_args(argv)

    records = []
    for p in sorted(glob.glob(os.path.join(args.records, "record-*.json"))):
        with open(p) as fh:
            records.append(json.load(fh))
    if not records:
        print(f"no records under {args.records}", file=sys.stderr)
        return 1
    env = records[-1]["environment"]
    result = {"environment": env, "workloads": {}}
    spans_by_wl = {}
    for wl in sorted({r["workload"] for r in records}):
        untraced = [r for r in records if r["workload"] == wl and not r["trace"]]
        traced = [r for r in records if r["workload"] == wl and r["trace"]]
        entry = {
            "why": next(r["why"] for r in records if r["workload"] == wl),
            "seeds": sorted(r["seed"] for r in untraced),
            "failed": sum(c["failed"] for r in untraced for c in r["children"]),
            "attempted": sum(c["attempted"] for r in untraced for c in r["children"]),
            "load_1min_range": [
                min(r["load_before"][0] for r in untraced),
                max(r["load_after"][0] for r in untraced),
            ],
            "end_to_end": {},
        }
        for m, unit in END_TO_END.items():
            xs = [r["end_to_end"][m] for r in untraced]
            if xs:
                q1, med, q3 = _quartiles(xs)
                entry["end_to_end"][m] = {
                    "median": med,
                    "q1": q1,
                    "q3": q3,
                    "iqr_over_median": (q3 - q1) / med,
                    "runs": len(xs),
                    "unit": unit,
                }
        if traced:
            t = traced[-1]
            tc = t["children"][-1]
            entry["traced_seed"] = t["seed"]
            entry["per_layer"] = {k: v["value"] for k, v in t["metrics"].items()}
            shares = {
                name: a["self_s"] / tc["wall_s"] for name, a in t["layers"].items()
            }
            entry["self_share_of_traced_wall"] = dict(
                sorted(shares.items(), key=lambda kv: -kv[1])
            )
            tag = f"{wl}-seed{t['seed']}-trace1"
            sp = os.path.join(args.records, f"spans-{tag}.json")
            if os.path.exists(sp):
                with open(sp) as fh:
                    spans_by_wl[wl] = json.load(fh)
        result["workloads"][wl] = entry
    result["roadmap_crosscheck"] = crosscheck(spans_by_wl)
    result["exact_counts"] = {}
    for p in sorted(glob.glob(os.path.join(args.records, "counts-*.json"))):
        with open(p) as fh:
            c = json.load(fh)
        result["exact_counts"][c["workload"]] = c
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

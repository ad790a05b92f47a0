"""Run each benchmark workload N times and print each end-to-end metric's spread against its bound.

Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workload gentle-gray --first-seed 11
    python3 perfbench/spread.py --runs 10 --against perfbench/results/spread-<stamp>.json

Each run is a separate process with the command and run length from
BENCHMARK.json, seeds first-seed .. first-seed + runs - 1, with the workloads
interleaved.  The spread of a metric is the distance between its first and
third quartile over the runs, as a share of its median; the benchmark is steady
when every spread is within the metric's bound (the target is a third of it).
``--against`` compares the medians with an earlier result file: no metric may
be worse by more than its bound, and the share of failed operations must be
identical.  Raw results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(bench: dict, runs: dict) -> dict:
    """Per workload and metric: median, quartiles, spread; plus the failed share."""
    out = {}
    for workload, results in runs.items():
        entry = {"failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
                 "correct": all(r["correct"] for r in results), "metrics": {}}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry["metrics"][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else float("inf"),
            }
        out[workload] = entry
    return out


def report(bench: dict, summary: dict, against: dict | None) -> bool:
    ok = True
    for workload, entry in summary.items():
        print(f"{workload}: failed share {entry['failed_share']}, correct {entry['correct']}")
        ok &= entry["correct"] and len(entry["failed_share"]) == 1
        old = against[workload] if against and workload in against else None
        if old is not None and old["failed_share"] != entry["failed_share"]:
            print(f"  failed share differs from {old['failed_share']}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            m = entry["metrics"][name]
            verdict = "ok" if m["spread"] <= bound / 3 else "within bound" if m["spread"] <= bound else "WIDE"
            ok &= m["spread"] <= bound
            line = (f"  {name:<18} median {m['median']:<12.6g} {metric['unit']:<6} "
                    f"spread {m['spread']:7.2%} of bound {bound:.0%}: {verdict}")
            if old is not None:
                base = old["metrics"][name]["median"]
                worse = (m["median"] - base) / base * (1 if metric["better"] == "lower" else -1)
                line += f" | worse by {worse:+.2%} vs {base:.6g}"
                ok &= worse <= bound
            print(line)
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names,
                   help="repeatable; default every workload")
    p.add_argument("--against", type=Path, help="earlier spread result file to compare medians with")
    args = p.parse_args(argv)
    workloads = args.workload or names

    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            r = run_once(bench, w, seed)
            runs[w].append(r)
            print(f"{w} seed {seed}: {r['wall_s']:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)

    summary = summarize(bench, runs)
    against = json.loads(args.against.read_text())["summary"] if args.against else None
    ok = report(bench, summary, against)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    print(f"{'steady' if ok else 'NOT steady'}; results in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

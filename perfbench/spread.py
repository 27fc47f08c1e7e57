#!/usr/bin/env python3
"""Repeats perfbench runs over several seeds and summarises their spread.

    python3 perfbench/spread.py run --workload online_direct --seeds 1-10 \
        --out direct.json [--trace 0] [--root .] [--append]
    python3 perfbench/spread.py show direct.json
    python3 perfbench/spread.py compare base.json change.json

`run` calls perfbench/run.py once per seed (sequentially, from --root) and
saves every result; --append adds to an existing file, so two trees can be
run in alternation seed by seed. `show` prints, per metric, the median, the quartiles and
the spread — (Q3 - Q1) / median, quartiles as statistics.quantiles(n=4)
gives them — against a third of the metric's bound in BENCHMARK.json.
`compare` prints the relative change of each median between two saved sets
and flags a change that is worse than the bound in the metric's direction,
or that is larger than both sets' spreads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spec():
    data = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in data["end_to_end"] + data["per_layer"]}


def run(args):
    root = Path(args.root).resolve()
    out = Path(args.out)
    runs = json.loads(out.read_text())["runs"] if args.append and out.exists() else []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed ({proc.returncode})", flush=True)
            print("\n".join(proc.stderr.splitlines()[-20:]), flush=True)
            continue
        result = json.loads(lines[-1])
        fingerprint = next((json.loads(l[len("fingerprint: "):])
                            for l in lines if l.startswith("fingerprint: ")),
                           {})
        runs.append({"seed": seed, "fingerprint": fingerprint,
                     "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    Path(args.out).write_text(json.dumps(
        {"workload": args.workload, "trace": args.trace, "runs": runs},
        indent=1))
    show_file(args.out)


def values(saved):
    table = {}
    for r in saved["runs"]:
        for name, m in r["result"]["metrics"].items():
            if m["value"] is not None:
                table.setdefault(name, []).append(m["value"])
    return table


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    rel = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, rel


def show_file(path):
    saved = json.loads(Path(path).read_text())
    metrics = spec()
    runs = saved["runs"]
    bad = sum(not r["result"]["correct"] for r in runs)
    print(f"{saved['workload']} trace={saved['trace']}: {len(runs)} runs, "
          f"{bad} incorrect")
    for name, vals in sorted(values(saved).items()):
        med, q1, q3, rel = summary(vals)
        bound = metrics.get(name, {}).get("bound")
        note = ""
        if bound is not None and name != "setup_s":
            note = "ok" if rel < bound / 3 else "SPREAD > bound/3"
        print(f"  {name:40s} median {med:14.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {rel:7.2%}  "
              f"{'bound ' + format(bound, '.2f') if bound else ''} {note}")


def compare(args):
    base = json.loads(Path(args.base).read_text())
    change = json.loads(Path(args.change).read_text())
    metrics = spec()
    vb, vc = values(base), values(change)
    print(f"{base['workload']}: {args.base} -> {args.change}")
    for name in sorted(set(vb) & set(vc)):
        mb, _, _, sb = summary(vb[name])
        mc, _, _, sc = summary(vc[name])
        delta = (mc - mb) / abs(mb) if mb else 0.0
        m = metrics.get(name, {})
        worse = -delta if m.get("better") == "higher" else delta
        verdict = ""
        if m.get("bound") is not None:
            verdict = "WORSE than bound" if worse > m["bound"] else "within bound"
        if abs(delta) > max(sb, sc):
            verdict += ", exceeds spread"
        print(f"  {name:40s} {mb:14.6g} -> {mc:14.6g}  {delta:+8.2%}  "
              f"(spreads {sb:.2%} / {sc:.2%})  {verdict}")


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float,
                   default=json.loads((HERE.parent / "BENCHMARK.json")
                                      .read_text())["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--root", default=str(HERE.parent))
    p.add_argument("--out", required=True)
    p.add_argument("--append", action="store_true",
                   help="add to the runs already saved in --out")
    p = sub.add_parser("show")
    p.add_argument("path")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args()
    if args.cmd == "run":
        run(args)
    elif args.cmd == "show":
        show_file(args.path)
    else:
        compare(args)


if __name__ == "__main__":
    main()

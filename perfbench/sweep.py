"""Run one workload of the benchmark on several seeds and print, per
metric, the median and the inter-quartile spread as a share of the
median (statistics.quantiles, n=4), the figures a run-to-run comparison
uses. With --out the values are also saved as JSON; --compare reads two
such files (two sweeps of the same code) and prints, per metric, how far
the second median lies from the first, as a share of the first.

    python3 perfbench/sweep.py --workload codec --seeds 1-10 [--seconds 20] [--trace 0] [--out A.json]
    python3 perfbench/sweep.py --compare A.json B.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
    return (q3 - q1) / abs(med) if med else 0.0


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    for name in a:
        if name not in b:
            continue
        ma, mb = statistics.median(a[name]), statistics.median(b[name])
        shift = (mb - ma) / abs(ma) if ma else 0.0
        print(f"{name:44s} median {ma:.6g} -> {mb:.6g}  shift {shift:+.4f}  "
              f"spread {spread(a[name]):.4f} / {spread(b[name]):.4f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not args.workload:
        ap.error("--workload is required")
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
    for name, xs in values.items():
        print(f"{name:44s} median {statistics.median(xs):.6g}  spread {spread(xs):.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f)


if __name__ == "__main__":
    main()

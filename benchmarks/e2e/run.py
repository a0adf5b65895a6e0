"""The repo's performance ledger: one command, five workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--runs R]      # the whole ledger
    python3 benchmarks/e2e/run.py --compare A.json B.json

With ``--workload`` it runs one workload, prints every metric by name
with its unit, and ends with the one-line JSON result that
``BENCHMARK.json`` promises: the end-to-end metrics with ``--trace 0``
(tracing shims never loaded), the per-layer metrics with ``--trace 1``.
Without it, every workload runs ``--runs`` times untraced and once
traced, each in a process of its own, into ``out/ledger-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Ledger metrics that are not in ``BENCHMARK.json`` — it wants every
#: gated metric on every workload, and steady enough on this box that its
#: bound does not refuse a change that did nothing — with their unit,
#: direction and bound (0 = must repeat exactly for a seed).
LEDGER_ONLY = {
    "op_ms_tail": ("ms", "lower", 0.25),
    "energy_wmin": ("W.min", "lower", 0.0),
    "energy_reduction_pct": ("%", "higher", 0.0),
    "scrape_ms_p50": ("ms", "lower", 0.15),
    "scrape_ms_p90": ("ms", "lower", 0.25),
    "restore_s": ("s", "lower", 0.15),
    "consolidate_ms_p50": ("ms", "lower", 0.25),
}
#: Per-layer counts from a single-writer deterministic stream: two runs
#: of one seed must agree on them exactly. Responses carry the measured
#: ``latency_ms`` with all its digits, so their size is not such a count.
EXACT_LAYER_UNITS = ("count", "B")
INEXACT_LAYER_COUNTS = ("service.protocol.bytes_out_per_op",)


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload ----------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{list(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = perf_counter()
    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    wall = perf_counter() - started

    spec = _benchmark()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    gated = {}
    for entry in declared:
        metric = outcome.metrics[entry["name"]]
        if metric.unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {metric.unit!r} "
                               f"is not the declared {entry['unit']!r}")
        gated[entry["name"]] = {"value": metric.value, "unit": metric.unit}

    print(f"workload {outcome.workload}  seed {outcome.seed}  "
          f"trace {int(outcome.trace)}  wall {wall:.1f} s")
    print(f"  why: {workloads.WORKLOADS[outcome.workload]}")
    for name, metric in outcome.metrics.items():
        spread = "" if metric.samples is None else (
            f"   n={metric.samples}"
            + ("" if metric.q1 is None
               else f" q1={metric.q1:.6g} q3={metric.q3:.6g}"))
        print(f"  {name:<46} {metric.value:>16.6f} {metric.unit}{spread}")
    for key, value in outcome.info.items():
        print(f"  [{key}] {value}")
    print(f"  ops_attempted {outcome.attempted}  "
          f"ops_failed {outcome.failed}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")

    record = {
        "workload": outcome.workload, "seed": outcome.seed,
        "trace": int(outcome.trace), "seconds": args.seconds,
        "wall_s": wall, "ops_attempted": outcome.attempted,
        "ops_failed": outcome.failed, "problems": outcome.problems,
        "metrics": {name: metric.to_record()
                    for name, metric in outcome.metrics.items()},
        "info": outcome.info,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{outcome.workload}-trace{int(outcome.trace)}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": gated}))
    return 0


# -- the whole ledger ------------------------------------------------------------

def _git_commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], check=True, stdout=subprocess.DEVNULL)
    return json.loads(
        (OUT / f"result-{workload}-trace{trace}.json").read_text())


def run_ledger(args: argparse.Namespace) -> int:
    import numpy
    import scipy

    spec = _benchmark()
    started = perf_counter()
    ledger = {
        "seed": args.seed, "runs": args.runs,
        "seconds": spec["run_seconds"], "started_unix": time(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": _git_commit(), "workloads": {},
    }
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        began = perf_counter()
        runs = [_child_run(workload, args.seed, spec["run_seconds"], 0)
                for _ in range(args.runs)]
        traced = _child_run(workload, args.seed, spec["run_seconds"], 1)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (values[0],) * 3
            metrics[name] = {
                "unit": first["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "values": values,
                "samples_per_run": first.get("samples")}
        attempted = sum(r["ops_attempted"] for r in runs + [traced])
        failures = sum(r["ops_failed"] for r in runs + [traced])
        failed += failures
        ledger["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": traced["metrics"],
            "info": {**runs[0]["info"], **traced["info"]},
            "ops_attempted": attempted, "ops_failed": failures,
            "problems": [p for r in runs + [traced] for p in r["problems"]],
            "wall_s": perf_counter() - began,
        }
        print(f"{workload}: {args.runs} runs + 1 traced in "
              f"{perf_counter() - began:.0f} s, {failures} of "
              f"{attempted} ops failed", flush=True)
    ledger["wall_s"] = perf_counter() - started
    path = Path(args.out) if args.out else \
        OUT / f"ledger-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1))
    print(f"wrote {path} ({ledger['wall_s']:.0f} s)")
    return 1 if failed else 0


# -- compare ---------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    """B against the base A: every workload x end-to-end metric with
    both medians, the relative difference, the bound, and a verdict."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in _benchmark()["end_to_end"]}
    bounds.update({name: (better, bound)
                   for name, (_, better, bound) in LEDGER_ONLY.items()})
    same_seed = a["seed"] == b["seed"]
    regressed = 0
    print(f"A = {path_a} (seed {a['seed']}, {a['git_commit']})")
    print(f"B = {path_b} (seed {b['seed']}, {b['git_commit']})")
    print(f"{'workload':<20}{'metric':<22}{'A':>15}{'B':>15}"
          f"{'B vs A':>10}{'bound':>7}  verdict")
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            print(f"{workload:<20}missing from B  regressed")
            regressed += 1
            continue
        for name, ma in in_a["end_to_end"].items():
            mb = in_b["end_to_end"].get(name)
            if mb is None:
                continue
            better, bound = bounds[name]
            va, vb = ma["median"], mb["median"]
            diff = (vb - va) / abs(va) if va else 0.0
            worse = -diff if better == "higher" else diff
            spread = max(((m["q3"] - m["q1"]) / abs(m["median"])
                          for m in (ma, mb) if m["median"]), default=0.0)
            if bound == 0.0:
                # exact metrics only mean anything for one seed
                verdict = "ok" if va == vb or not same_seed else "regressed"
            elif worse <= bound:
                verdict = "ok"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "regressed"
            regressed += verdict == "regressed"
            print(f"{workload:<20}{name:<22}{va:>15.6g}{vb:>15.6g}"
                  f"{diff:>+9.1%} {bound:>6.2f}  {verdict}  "
                  f"(of A {va:.6g} {ma['unit']}, spread {spread:.1%})")
        if same_seed:
            for name, la in in_a["per_layer"].items():
                lb = in_b["per_layer"].get(name)
                if lb and la["unit"] in EXACT_LAYER_UNITS \
                        and name not in INEXACT_LAYER_COUNTS \
                        and la["value"] != lb["value"]:
                    print(f"{workload:<20}{name}: count {la['value']} "
                          f"!= {lb['value']}  regressed")
                    regressed += 1
        share_a = in_a["ops_failed"] / in_a["ops_attempted"]
        share_b = in_b["ops_failed"] / in_b["ops_attempted"]
        if share_b > share_a:
            print(f"{workload:<20}failed share {share_a:.4%} -> "
                  f"{share_b:.4%}  regressed")
            regressed += 1
    print(f"{regressed} regressed")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload of the full ledger")
    parser.add_argument("--out", help="ledger file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_ledger(args)
    if args.seconds is None:
        args.seconds = _benchmark()["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Verdict benchmark for haarcay: is this Haar graph vertex-transitive, is it
Cayley, and how long does the answer take?

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --report      # every workload, every metric by name

Run it from the root of a source checkout; it imports haarcay from ``src/``.
One run starts ``SETUP_SAMPLES`` fresh interpreters that only import haarcay
and build the workload's inputs (``setup_s`` is the median of those and of
the measured interpreter's own set-up), then one interpreter that runs
closed-loop passes over the inputs for ``--seconds``: one caller, each
verdict starting when the previous one returns.  Times are CPU times
scaled to a fixed reference speed (see ``worker.py``).  Every answer is
then checked by ``check.py`` without haarcay.

With ``--trace 0`` the last line of output is the end-to-end metrics; with
``--trace 1`` half the time runs untraced and half traced, and the last line
is the per-layer metrics (self time, calls and counters per pass, each
layer's share of the traced time, and the tracing overhead).  The spans,
and every verdict's time, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
WORKLOADS = ("catalog", "enumerate", "status", "edgelist")
SETUP_SAMPLES = 4
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = [  # (name, unit)
    ("pass_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("decided_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class BenchError(RuntimeError):
    pass


def _worker(deadline: float, workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: the run did not end within {DEADLINE_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker failed\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: every order statistic,
    weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.  It moves smoothly
    when two inputs trade ranks, where a single order statistic of a few
    dozen inputs jumps from one input's time to the next one's."""
    from scipy.stats import beta

    ordered = sorted(values)
    n = len(ordered)
    cdf = beta.cdf([i / n for i in range(n + 1)], (n + 1) * q, (n + 1) * (1 - q))
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def per_input_medians(records: list[list]) -> dict[str, float]:
    """Each input's median verdict time over the run's passes, pooling its
    relabelled copies ("K8,8-M#2:aut" counts as "K8,8-M:aut")."""
    times: dict[str, list[float]] = {}
    for _, _, input_id, ms, _ in records:
        times.setdefault(re.sub(r"#\d+", "", input_id), []).append(ms)
    return {input_id: statistics.median(ms) for input_id, ms in times.items()}


def pass_time(glue_s: list[float], records: list[list]) -> float:
    """The median pass: its verdicts' times plus the time it spent outside
    verdicts (fresh tables, class enumeration)."""
    totals = list(glue_s)
    for _, index, _, ms, _ in records:
        totals[index] += ms / 1000
    return statistics.median(totals)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: set-up samples, the measured interpreter, and the checks."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [] if trace else [_worker(deadline, workload, seed, "--setup-only")["setup_s"]
                               for _ in range(SETUP_SAMPLES)]
    run = _worker(deadline, workload, seed, "--seconds", str(seconds), "--trace", str(trace))
    setups.append(run["setup_s"])
    OUT.mkdir(exist_ok=True)
    (OUT / f"records-{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps({"setups": setups, "glue_s": run["glue_s"], "records": run["records"]}))

    from check import CHECKS  # networkx and sympy load once the workers are done

    failures = CHECKS[workload](run["check"], run["outputs"])
    failures += [(input_id, "a later pass gave another answer") for input_id in run["mismatched"]]
    # a failure names one input, or a group ("Cyclic(4)/2") whose inputs are
    # "Cyclic(4)/2:<spokes>"; one that matches no record (a group that
    # enumerated no classes) counts once
    wrong_ids = {input_id for input_id, _ in failures}
    records = run["records"]
    matched = {r[2] for r in records} | {r[2].rsplit(":", 1)[0] for r in records}
    wrong = sum(1 for r in records
                if r[4] == "error" or r[2] in wrong_ids or r[2].rsplit(":", 1)[0] in wrong_ids)
    wrong += len(wrong_ids - matched)
    measured = [r for r in records if not r[0]]
    latency = per_input_medians(measured)
    metrics = {
        "pass_s": pass_time(run["glue_s"], measured),
        "verdict_ms_p50": harrell_davis(list(latency.values()), 0.5),
        "verdict_ms_p90": harrell_davis(list(latency.values()), 0.9),
        "decided_share": sum(1 for r in measured if r[4] == "decided") / len(measured),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {
        "workload": workload, "seed": seed, "passes": len(run["glue_s"]),
        "verdicts": len(measured), "inputs": len(latency), "setup_samples": len(setups),
        "attempted": len(records), "wrong": wrong, "failures": failures,
        "metrics": metrics, "layers": run.get("layers"), "limit_s": run["limit_s"],
        "slowest_decided_s": max((r[3] for r in measured if r[4] == "decided"), default=0.0) / 1000,
    }


def print_run(result: dict, trace: int) -> None:
    """Human-readable lines; the caller prints the JSON line last."""
    w = result["workload"]
    print(f"# {w}: seed {result['seed']}, {result['passes']} untraced pass(es), "
          f"{result['verdicts']} verdicts over {result['inputs']} inputs measured, "
          f"{result['attempted']} checked")
    print(f"# {w}: time limit {result['limit_s']} s of CPU per verdict; slowest decided input "
          f"{result['slowest_decided_s']:.3f} s")
    if result["slowest_decided_s"] * 2 > result["limit_s"]:
        print(f"# WARNING {w}: the time limit is under twice the slowest decided input")
    for input_id, reason in result["failures"][:20]:
        print(f"# WRONG {w} {input_id}: {reason}")
    print(f"{w} wrong_share = {result['wrong'] / result['attempted']:.6g} share "
          f"(n = {result['attempted']})")
    if trace:
        for name, value in result["layers"].items():
            print(f"{w} {name} = {value:.6g}")
        return
    counts = {"pass_s": result["passes"], "setup_s": result["setup_samples"], "peak_rss_mb": 1}
    for name, unit in END_TO_END:
        print(f"{w} {name} = {result['metrics'][name]:.6g} {unit} "
              f"(n = {counts.get(name, result['inputs'])})")


def result_line(result: dict, trace: int) -> str:
    if trace:
        from spans import METRICS
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in METRICS}
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return json.dumps({"correct": result["wrong"] == 0 and not result["failures"], "attempted": result["attempted"],
                       "failed": result["wrong"], "metrics": metrics})


def report(seed: int, seconds: float) -> int:
    """Every workload untraced and traced: all metrics, overhead and the
    layer that dominates each workload."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, seed, seconds, trace)
            print_run(result, trace)
            ok = ok and result["wrong"] == 0 and not result["failures"]
        shares = {k: v for k, v in result["layers"].items() if k.startswith("share.")}
        top = max((k for k in shares if k != "share.untraced"), key=shares.get)
        print(f"{workload} dominant layer: {top[len('share.'):]} ({shares[top]:.1%} of traced CPU time)")
        sys.stdout.flush()
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and print all metrics")
    args = parser.parse_args()
    if not (ROOT / "src" / "haarcay" / "__init__.py").is_file():
        print(f"no haarcay source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.report:
            return report(args.seed, args.seconds)
        if args.workload is None:
            parser.error("give --workload or --report")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    print_run(result, args.trace)
    print(result_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

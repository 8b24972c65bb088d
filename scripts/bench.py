#!/usr/bin/env python3
"""Commit ucpbench results and guard against them.

    scripts/bench.py record PR       run all three workloads at seed 1, untraced
                                     for 20 s and traced for 12 s, and write
                                     BENCH_<PR>.json at the repository root
    scripts/bench.py check OUT [BASELINE]
                                     compare a traced ucpbench run's stdout OUT
                                     with the run of the same workload, seed and
                                     tracing in BASELINE (default: the
                                     highest-numbered root BENCH_*.json)
    scripts/bench.py diff A B        compare every run of BENCH file B with A's
                                     run of the same workload, seed and tracing

`check` fails when the run is not correct, when `core.subgradient_iters` or
`core.restarts` differs from the baseline (both are exact per pass: a change
means the ascent trajectory changed), or when `core.subgradient_s` is more
than twice the baseline's.

`diff` prints each end-to-end metric of BENCHMARK.json with its B/A ratio
and each exact count. It flags an end-to-end metric worse than its bound,
any change in an exact count or a quality total, a run that is not correct
and a run A lacks, and exits 1 if it flagged anything. Run all three from
the repository root.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["cyclic-paper", "pla-minimize", "serve-journaled"]
# (trace, seconds) of the committed runs.
RUNS = [(0, 20), (1, 12)]
EXACT = ["core.subgradient_iters", "core.restarts"]
# Counts `diff` flags on any change, beyond their end-to-end bound.
DIFF_EXACT = EXACT + ["durability.fsyncs_per_job", "total_cost",
                      "total_lower_bound", "certified"]
TIMED = "core.subgradient_s"
TIME_FACTOR = 2.0


def parse(stdout):
    """ucpbench's `provenance`, `details` and result lines as one dict."""
    run = {}
    for line in stdout.splitlines():
        for key in ("provenance", "details"):
            if line.startswith(key + " "):
                run[key] = json.loads(line[len(key) + 1 :])
        if line.startswith("{"):
            run["result"] = json.loads(line)
    missing = {"provenance", "details", "result"} - run.keys()
    if missing:
        sys.exit(f"ucpbench output lacks {sorted(missing)}")
    return run


def record(pr):
    runs = []
    for trace, seconds in RUNS:
        for workload in WORKLOADS:
            cmd = ["cargo", "run", "--release", "--offline", "--quiet",
                   "--manifest-path", "ucpbench/Cargo.toml", "--",
                   "--workload", workload, "--seed", "1",
                   "--seconds", str(seconds), "--trace", str(trace)]
            print(" ".join(cmd), file=sys.stderr)
            out = subprocess.run(cmd, check=True, capture_output=True, text=True)
            runs.append(parse(out.stdout))
    path = Path(f"BENCH_{int(pr)}.json")
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def latest_baseline():
    found = [(int(m.group(1)), p) for p in Path(".").glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    if not found:
        sys.exit("no BENCH_<n>.json at the repository root")
    return max(found)[1]


def key(run):
    return tuple(run["provenance"][k] for k in ("workload", "seed", "trace"))


def check(out_path, baseline_path=None):
    run = parse(Path(out_path).read_text())
    baseline_path = Path(baseline_path) if baseline_path else latest_baseline()
    base = [r for r in json.loads(baseline_path.read_text())["runs"] if key(r) == key(run)]
    if not base:
        sys.exit(f"{baseline_path} has no run of {key(run)}")
    got, want = run["result"]["metrics"], base[0]["result"]["metrics"]
    errors = []
    if not run["result"]["correct"] or run["result"]["failed"] != 0:
        errors.append(f"run not correct: {run['result']['failed']} failed")
    for name in EXACT:
        print(f"{name}: {got[name]['value']} (baseline {want[name]['value']})")
        if got[name]["value"] != want[name]["value"]:
            errors.append(f"{name} drifted: the ascent trajectory changed")
    print(f"{TIMED}: {got[TIMED]['value']:.3f} (baseline {want[TIMED]['value']:.3f})")
    if got[TIMED]["value"] > TIME_FACTOR * want[TIMED]["value"]:
        errors.append(f"{TIMED} regressed more than {TIME_FACTOR}x")
    if errors:
        sys.exit(f"against {baseline_path}: " + "; ".join(errors))
    print(f"ok against {baseline_path}")


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def diff(a_path, b_path):
    bounds = {m["name"]: m for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    a_runs = {key(r): r for r in json.loads(Path(a_path).read_text())["runs"]}
    shown = list(bounds) + [m for m in DIFF_EXACT if m not in bounds]
    flags = []
    for run in json.loads(Path(b_path).read_text())["runs"]:
        workload, seed, trace = key(run)
        name = f"{workload} seed {seed} trace {int(trace)}"
        print(name)
        if not run["result"]["correct"] or run["result"]["failed"] != 0:
            flags.append(f"{name}: not correct, {run['result']['failed']} failed")
        if key(run) not in a_runs:
            flags.append(f"{name}: {a_path} has no such run")
            continue
        got = run["result"]["metrics"]
        want = a_runs[key(run)]["result"]["metrics"]
        for metric in [m for m in shown if m in got]:
            new = got[metric]["value"]
            old = want.get(metric, {}).get("value")
            ratio = f"{new / old:7.3f}" if old else "      -"
            flag = ""
            if metric in DIFF_EXACT and new != old:
                flag = "changed"
            elif metric in bounds and old:
                b = bounds[metric]
                worse = (old - new) / old if b["better"] == "higher" else (new - old) / old
                if worse > b["bound"]:
                    flag = f"worse than its {b['bound']:.0%} bound"
            print(f"  {metric:26} {fmt(old):>12} -> {fmt(new):<12} x{ratio}  {flag}")
            if flag:
                flags.append(f"{name}: {metric} {flag}")
    for f in flags:
        print(f"FLAG {f}")
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    match sys.argv[1:]:
        case ["record", pr]:
            record(pr)
        case ["check", out, *baseline] if len(baseline) <= 1:
            check(out, *baseline)
        case ["diff", a, b]:
            diff(a, b)
        case _:
            sys.exit(__doc__)

#!/usr/bin/env python3
"""Runner for the end-to-end context-delivery benchmark (bench/e2e/README.md).

Run from the repository root:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      Builds sci_e2e from this checkout when needed, runs one workload in its
      own process and prints, as the last line, one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics of
      BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

  python3 bench/e2e/run.py set [--runs 5] [--seed 42] [--seconds 15]
                               [--out BENCH_e2e.json]
      Runs every workload --runs times untraced (each in its own process,
      alternating the workload order between rounds) plus once traced, and
      writes every run with per-metric medians and quartiles to --out.

  python3 bench/e2e/run.py compare A.json B.json
      Compares two `set` outputs (A = parent, B = change): per workload, each
      metric's medians and quartiles with a verdict under the bound
      BENCHMARK.json fixes. Exits 1 when a metric regressed.

  python3 bench/e2e/run.py smoke --bin PATH
      A few virtual seconds of every workload, twice: checks the output
      schema, zero failed ops and bit-identical virtual-time and count
      metrics across the two runs, plus one traced run (the ctest).
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["pipeline", "firehose", "query_mix", "churn"]
RUN_TIMEOUT_S = 170
# Metrics the host measures (its clocks or its memory): everything else
# sci_e2e prints is virtual time or a count and repeats exactly per seed when
# the window is fixed in virtual time (--vseconds).
HOST_MEASURED = ("setup_s", "ops_per_s", "peak_rss_mb",
                 "compose.resolve_us_p50", "compose.resolve_us_p99")


def die(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def is_host_measured(name):
    return (name in HOST_MEASURED or "_ns_" in name or "ns_per_op" in name
            or name.startswith("trace."))


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path.name} not found at the repository root", 2)
    return json.loads(path.read_text())


def build():
    """Configures and builds sci_e2e under the checkout's build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("the library sources (src/) are not in this checkout; "
            "run from a full repository checkout", 2)
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    build_dir = base / "e2e"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "sci_e2e",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            die("building sci_e2e failed")
    return build_dir, build_dir / "sci_e2e"


def run_e2e(binary, args):
    """Runs sci_e2e and returns (its JSON result, its metric text lines)."""
    cmd = [str(binary)] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"sci_e2e did not finish in {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        die(f"sci_e2e exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("sci_e2e printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("sci_e2e's last line is not JSON")
    return result, lines[:-1]


def select(result, specs, key):
    """The metrics `specs` names, from result[key], with units checked."""
    out = {}
    got = result.get(key, {})
    for spec in specs:
        metric = got.get(spec["name"])
        if metric is None:
            die(f"sci_e2e did not report {spec['name']}")
        if metric["unit"] != spec["unit"]:
            die(f"{spec['name']}: unit {metric['unit']} != {spec['unit']}")
        if not math.isfinite(metric["value"]):
            die(f"{spec['name']} is not a finite number")
        out[spec["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return out


def contract_run(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": None,
            "--trace": "0"}
    if len(argv) % 2:
        die("arguments come in --name value pairs", 2)
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in opts:
            die(f"unknown argument {flag}", 2)
        opts[flag] = value
    if None in opts.values() or opts["--trace"] not in ("0", "1"):
        die("usage: run.py --workload W --seed N --seconds S --trace 0|1", 2)
    if opts["--workload"] not in WORKLOADS:
        die(f"unknown workload {opts['--workload']}", 2)
    spec = load_spec()
    build_dir, binary = build()
    traced = opts["--trace"] == "1"
    args = ["--workload", opts["--workload"], "--seed", opts["--seed"],
            "--seconds", opts["--seconds"]]
    if traced:
        args += ["--trace", build_dir / f"trace-{opts['--workload']}.bin"]
    result, text = run_e2e(binary, args)
    metrics = (select(result, spec["per_layer"], "per_layer") if traced else
               select(result, spec["end_to_end"], "end_to_end"))
    for line in text:
        print(line)
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(json.dumps({
        "correct": bool(result["correct"]) and failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs, spec):
    summary = {}
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            values = [r[group][metric["name"]]["value"] for r in runs
                      if metric["name"] in r[group]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            entry = {"unit": metric["unit"], "better": metric["better"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
            if "bound" in metric:
                entry["bound"] = metric["bound"]
            summary[metric["name"]] = entry
    return summary


def set_run(argv):
    parser = argparse.ArgumentParser(prog="run.py set")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default="BENCH_e2e.json")
    opts = parser.parse_args(argv)
    spec = load_spec()
    seconds = opts.seconds or spec["run_seconds"]
    build_dir, binary = build()
    runs = {w: [] for w in WORKLOADS}
    for r in range(opts.runs):
        for w in WORKLOADS if r % 2 == 0 else reversed(WORKLOADS):
            result, _ = run_e2e(binary, ["--workload", w, "--seed", opts.seed,
                                         "--seconds", seconds])
            result["round"] = r
            runs[w].append(result)
            print(f"round {r} {w}: ops_per_s "
                  f"{result['end_to_end']['ops_per_s']['value']:.1f} "
                  f"failed {result['failed']}", file=sys.stderr)
    doc = {"schema": "sci-e2e/1", "seed": opts.seed, "seconds": seconds,
           "runs": opts.runs, "cpus": os.cpu_count(), "workloads": {}}
    counted = [m for m in spec["per_layer"] if not is_host_measured(m["name"])]
    timed = [m for m in spec["per_layer"] if is_host_measured(m["name"])]
    for w in WORKLOADS:
        traced, _ = run_e2e(binary, ["--workload", w, "--seed", opts.seed,
                                     "--seconds", seconds, "--trace",
                                     build_dir / f"trace-{w}.bin"])
        # Host-timed per-layer metrics exist only in the traced run; the
        # rest come from the untraced ones.
        summary = summarize(runs[w], {"end_to_end": spec["end_to_end"],
                                      "per_layer": counted})
        summary.update(summarize([traced], {"end_to_end": [],
                                            "per_layer": timed}))
        doc["workloads"][w] = {
            "failed": [r["failed"] for r in runs[w]],
            "attempted": [r["attempted"] for r in runs[w]],
            "summary": summary,
            "runs": runs[w],
            "traced_run": traced,
        }
    Path(opts.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {opts.out}", file=sys.stderr)


def verdict(a, b, bound, better):
    """Verdict for one metric of one workload (choosing-metrics rules)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = (sign * (b["median"] - a["median"]) / a["median"]
                if a["median"] else 0.0)
    all_better = all(sign * (vb - va) < 0
                     for vb in b["values"] for va in a["values"])
    if all_better:
        return "better"
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    return "REGRESSED" if worse_by > bound else "ok"


def compare(argv):
    if len(argv) != 2:
        die("usage: run.py compare A.json B.json", 2)
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    spec = load_spec()
    regressed = False
    for w in WORKLOADS:
        if w not in a_doc["workloads"] or w not in b_doc["workloads"]:
            continue
        a_sum = a_doc["workloads"][w]["summary"]
        b_sum = b_doc["workloads"][w]["summary"]
        rows = []
        verdicts = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = a_sum[name], b_sum[name]
            v = verdict(a, b, metric["bound"], metric["better"])
            verdicts.append(v)
            regressed |= v == "REGRESSED"
            delta = ((b["median"] - a["median"]) / a["median"] * 100
                     if a["median"] else 0.0)
            rows.append(
                f"  {name:<16}"
                f" A {a['median']:>12.4f} [{a['q1']:.4f}–{a['q3']:.4f}]"
                f"  B {b['median']:>12.4f} [{b['q1']:.4f}–{b['q3']:.4f}]"
                f"  {delta:+7.2f}%  bound {metric['bound'] * 100:.0f}%  {v}")
        counts = {v: verdicts.count(v) for v in sorted(set(verdicts))}
        failed = (f"failed A {sum(a_doc['workloads'][w]['failed'])} "
                  f"B {sum(b_doc['workloads'][w]['failed'])}")
        print(f"{w:<10} " + ", ".join(f"{n} {v}" for v, n in counts.items())
              + f"; {failed}")
        print("\n".join(rows))
    sys.exit(1 if regressed else 0)


def smoke(argv):
    if len(argv) != 2 or argv[0] != "--bin":
        die("usage: run.py smoke --bin PATH", 2)
    binary = Path(argv[1])
    spec = load_spec()
    problems = []
    for w in WORKLOADS:
        args = ["--workload", w, "--seed", 42, "--vseconds", 2, "--setups", 1]
        first, _ = run_e2e(binary, args)
        second, _ = run_e2e(binary, args)
        for r in (first, second):
            if r["failed"] != 0 or not r["correct"] or r["attempted"] < 1:
                problems.append(f"{w}: failed={r['failed']} of {r['attempted']}")
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                name = metric["name"]
                if is_host_measured(name):
                    continue
                a = first[group].get(name)
                b = second[group].get(name)
                if a is None or b is None:
                    problems.append(f"{w}: {name} missing")
                elif a != b:
                    problems.append(f"{w}: {name} differs between identical "
                                    f"runs ({a['value']} vs {b['value']})")
    trace = binary.parent / "trace-smoke.bin"
    traced, _ = run_e2e(binary, ["--workload", "pipeline", "--seed", 42,
                                 "--vseconds", 2, "--setups", 1,
                                 "--trace", trace])
    for metric in spec["per_layer"]:
        if metric["name"] not in traced["per_layer"]:
            problems.append(f"traced: {metric['name']} missing")
    if not trace.is_file() or trace.read_bytes()[:14] != b"SCIE2E-TRACE-1":
        problems.append("traced: no trace file written")
    trace.unlink(missing_ok=True)
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        sys.exit(1)
    print("bench_e2e_smoke: ok")


def main():
    argv = sys.argv[1:]
    commands = {"set": set_run, "compare": compare, "smoke": smoke}
    if argv and argv[0] in commands:
        commands[argv[0]](argv[1:])
    else:
        contract_run(argv)


if __name__ == "__main__":
    main()

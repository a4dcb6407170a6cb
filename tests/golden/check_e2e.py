#!/usr/bin/env python3
"""Golden gate for the end-to-end benchmark's deterministic metrics.

  python3 tests/golden/check_e2e.py --bin build/bench/e2e/sci_e2e
      Runs `sci_e2e --workload W --seed 42 --vseconds 2 --setups 1` for every
      workload and compares each virtual-time and count metric (everything
      bench/e2e/run.py does not classify as host-measured), plus the
      attempted and failed op counts, with e2e_seed42.txt next to this
      script. Any difference fails: these numbers repeat exactly per seed, so
      a change to wire bytes, virtual latency or delivery counts shows here.

  python3 tests/golden/check_e2e.py --bin build/bench/e2e/sci_e2e --write
      Regenerates e2e_seed42.txt. Re-baselining is a reviewed diff of it.

Every listed value, mem.heap_allocs_per_op included, is the same in a
RelWithDebInfo build and an ASan+UBSan Debug build.
"""
import difflib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "bench" / "e2e"))
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/e2e
import run  # noqa: E402  (bench/e2e/run.py: workloads, runner, classifier)

GOLDEN = HERE / "e2e_seed42.txt"
ARGS = ["--seed", 42, "--vseconds", 2, "--setups", 1]


def observe(binary):
    lines = []
    for w in run.WORKLOADS:
        result, _ = run.run_e2e(binary, ["--workload", w] + ARGS)
        lines.append(f"{w} attempted {result['attempted']}")
        lines.append(f"{w} failed {result['failed']}")
        for group in ("end_to_end", "per_layer"):
            for name, metric in result[group].items():
                if run.is_host_measured(name):
                    continue
                lines.append(f"{w} {name} {metric['value']!r} {metric['unit']}")
    return [line + "\n" for line in lines]


def main():
    argv = sys.argv[1:]
    write = "--write" in argv
    if write:
        argv.remove("--write")
    if len(argv) != 2 or argv[0] != "--bin":
        run.die("usage: check_e2e.py --bin PATH [--write]", 2)
    actual = observe(Path(argv[1]))
    if write:
        GOLDEN.write_text("".join(actual))
        print(f"wrote {GOLDEN}")
        return
    expected = GOLDEN.read_text().splitlines(keepends=True)
    if actual != expected:
        sys.stdout.writelines(difflib.unified_diff(
            expected, actual, "e2e_seed42.txt (golden)", "sci_e2e (this build)"))
        sys.exit(1)
    print(f"e2e golden: {len(actual)} lines identical")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Golden gate for the examples' printed output.

  python3 tests/golden/check_examples.py BIN...
      Runs each example binary and compares its stdout with
      examples/<name>.txt next to this script, <name> being the binary's
      file name. The examples are seeded and run in virtual time, so their
      output repeats byte for byte; any difference fails.

  python3 tests/golden/check_examples.py --write BIN...
      Regenerates the golden files. Re-baselining is a reviewed diff of them.
"""
import difflib
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "examples"


def main():
    argv = sys.argv[1:]
    write = "--write" in argv
    if write:
        argv.remove("--write")
    if not argv:
        print("usage: check_examples.py [--write] BIN...", file=sys.stderr)
        return 2
    failed = 0
    for binary in map(Path, argv):
        run = subprocess.run([str(binary)], capture_output=True, text=True,
                             check=False)
        golden = GOLDEN / f"{binary.name}.txt"
        if run.returncode != 0:
            print(f"{binary.name}: exit {run.returncode}\n{run.stderr}")
            failed += 1
            continue
        if write:
            golden.write_text(run.stdout)
            print(f"wrote {golden}")
            continue
        expected = golden.read_text() if golden.exists() else ""
        if run.stdout != expected:
            sys.stdout.writelines(difflib.unified_diff(
                expected.splitlines(keepends=True),
                run.stdout.splitlines(keepends=True),
                f"{golden.name} (golden)", f"{binary.name} (this build)"))
            failed += 1
    if failed:
        print(f"{failed} example(s) differ from tests/golden/examples/; "
              "re-baseline with --write only for an intended change")
        return 1
    print(f"{len(argv)} example(s) match their golden output")
    return 0


if __name__ == "__main__":
    sys.exit(main())

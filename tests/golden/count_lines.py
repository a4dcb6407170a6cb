#!/usr/bin/env python3
"""Line budget: how much code src/ holds.

  python3 tests/golden/count_lines.py
      Counts the lines of every *.h / *.cpp under src/ that are neither
      blank nor comment-only (a `//` line, or a line inside or opening a
      `/* ... */` block) and fails when the total exceeds line_count.txt
      next to this script. A shrinking count passes; re-baseline to lock the
      gain in.

  python3 tests/golden/count_lines.py --write
      Rewrites line_count.txt with the current total. Raising it is a
      reviewed diff of that file.

  python3 tests/golden/count_lines.py --list
      Also prints every file with its count.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
BUDGET = HERE / "line_count.txt"


def code_lines(text):
    count, in_block = 0, False
    for line in text.splitlines():
        s = line.strip()
        if in_block:
            if "*/" not in s:
                continue
            in_block = False
            s = s.split("*/", 1)[1].strip()
        if s.startswith("/*"):
            if "*/" not in s:
                in_block = True
                continue
            s = s.split("*/", 1)[1].strip()
        if s and not s.startswith("//"):
            count += 1
    return count


def count():
    return {
        str(path.relative_to(SRC)): code_lines(path.read_text())
        for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cpp"))
    }


def main():
    argv = sys.argv[1:]
    files = count()
    total = sum(files.values())
    if "--list" in argv:
        for name, lines in files.items():
            print(f"{lines:6d} {name}")
    print(f"code lines: {total} in {len(files)} files")
    if "--write" in argv:
        BUDGET.write_text(f"{total}\n")
        print(f"wrote {BUDGET}")
        return
    budget = int(BUDGET.read_text().split()[0])
    if total > budget:
        print(f"line budget exceeded: {total} > {budget} "
              f"({BUDGET.name}); delete code or re-baseline with --write")
        sys.exit(1)
    print(f"within budget ({budget})")


if __name__ == "__main__":
    main()

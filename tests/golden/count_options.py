#!/usr/bin/env python3
"""Option budget: how many configuration fields src/ exposes.

  python3 tests/golden/count_options.py
      Counts the data members of every `struct *Config` / `struct *Options`
      under src/ (a member whose type is another such struct counts as one
      field; base classes, nested type definitions and functions count as
      none) and fails when the total exceeds option_count.txt next to this
      script. A shrinking count passes; re-baseline to lock the gain in.

  python3 tests/golden/count_options.py --write
      Rewrites option_count.txt with the current total. Raising it is a
      reviewed diff of that file.

  python3 tests/golden/count_options.py --list
      Also prints every struct with its fields.
"""
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
BUDGET = HERE / "option_count.txt"

STRUCT = re.compile(r"\bstruct\s+(\w+(?:Config|Options))\b\s*(?::[^{;]*)?\{")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
ACCESS = re.compile(r"^\s*(?:public|private|protected)\s*:")
NOT_A_FIELD = re.compile(r"^\s*(?:enum|struct|class|union|using|typedef|"
                         r"friend|static|template)\b")


def body(text, open_brace):
    """Text between the brace at `open_brace` and its match."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    raise ValueError("unbalanced braces")


def statements(block):
    """Top-level `;`-terminated statements of a struct body."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(block):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0 and block[i + 1:].lstrip()[:1] != ";":
                start = i + 1  # an inline function body ends the statement
        elif ch == ";" and depth == 0:
            out.append(block[start:i])
            start = i + 1
    return out


def fields(block):
    names = []
    for stmt in statements(block):
        stmt = ACCESS.sub("", stmt).strip()
        if not stmt or NOT_A_FIELD.match(stmt):
            continue
        declarator = stmt.split("=", 1)[0]
        if "(" in declarator:  # a member function declaration
            continue
        names.append(re.findall(r"\w+", declarator)[-1])
    return names


def count():
    structs = {}
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cpp")):
        text = COMMENT.sub("", path.read_text())
        for match in STRUCT.finditer(text):
            key = f"{path.relative_to(SRC)}:{match.group(1)}"
            structs[key] = fields(body(text, match.end() - 1))
    return structs


def main():
    argv = sys.argv[1:]
    structs = count()
    total = sum(len(f) for f in structs.values())
    if "--list" in argv:
        for key, names in structs.items():
            print(f"{len(names):3d} {key}: {', '.join(names)}")
    print(f"option fields: {total} in {len(structs)} structs")
    if "--write" in argv:
        BUDGET.write_text(f"{total}\n")
        print(f"wrote {BUDGET}")
        return
    budget = int(BUDGET.read_text().split()[0])
    if total > budget:
        print(f"option budget exceeded: {total} > {budget} "
              f"({BUDGET.name}); delete a knob or re-baseline with --write")
        sys.exit(1)
    print(f"within budget ({budget})")


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Docs that cannot go stale: every backticked Rust path (`a::b`, or
# `a::{b, c}`) in DESIGN.md and EXPERIMENTS.md must still name something
# in crates/, tests/ or examples/. README.md is not checked: its migration
# table names what is gone on purpose.
#
# A path is judged by its last segment. A capitalised one (a type, a
# variant, a constant) must appear there as a word. A lower-case one (a
# module, a function, a field) must be defined there (`fn`, `mod`, a
# `name:` field, or a file or directory of that name), or the path's last
# two segments must appear together (`thread::sleep`), because a local
# variable of the same name is not what the docs mean.
#
# Prints each stale path with its file and line, and fails if there is any.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import os
import re
import sys

names, src = set(), []
for top in ("crates", "tests", "examples"):
    for dirpath, dirs, files in os.walk(top):
        names.update(dirs)
        names.update(f.rsplit(".", 1)[0] for f in files)
        for f in files:
            if f.endswith(".rs"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src.append(fh.read())
text = "\n".join(src)
words = set(re.findall(r"\w+", text))
defined = set(re.findall(r"\b(?:fn|mod|const|static|type|struct|enum)\s+(\w+)", text))
defined |= set(re.findall(r"^\s*(?:pub(?:\([a-z]+\))?\s+)?(\w+)\s*:", text, re.M))

path = re.compile(r"((?:[A-Za-z_]\w*::)+)(?:\{([^}]*)\}|([A-Za-z_]\w*))")


def live(head, last):
    if not last[0].islower():
        return last in words
    pair = re.escape(head.split("::")[-2] + "::" + last)
    return last in defined or last in names or re.search(rf"\b{pair}\b", text)


stale = 0
for doc in ("DESIGN.md", "EXPERIMENTS.md"):
    with open(doc, encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            for span in re.findall(r"`([^`]+)`", line):
                for m in path.finditer(span):
                    head = m.group(1)
                    group = m.group(2)
                    items = group.split(",") if group is not None else [m.group(3)]
                    for item in items:
                        # `{name: value, ..}` and `{a::b, ..}` name their last word.
                        name = re.findall(r"\w+", item.split(":")[0] if "::" not in item else item)
                        if name and not live(head, name[-1]):
                            print(f"{doc}:{no}: `{m.group(0)}` names `{name[-1]}`, which is gone")
                            stale += 1
sys.exit(1 if stale else 0)
EOF

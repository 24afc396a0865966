#!/usr/bin/env python3
"""Fail on any `pub fn` that no product target calls.

Usage: unused_pub.py [REPO_ROOT]

The compiler decides, not a match on names. On a temporary copy of the
tree (without any `target/`, `out/` or `results/` directory, nor `.git/`):

1. every `pub fn` in `crates/*/src` and `src/` that stands before its
   file's first column-0 `#[cfg(test)]` gets a
   `#[deprecated(note = "unused_pub <n>")]` line, unless it is inside a
   `macro_rules!` body or is itself `#[cfg(test)]`;
2. `cargo check` builds the workspace's lib, bin and example targets and
   the benchmark (`benchmark/`, which compiles against the library);
3. every function a `deprecated` warning names has a caller there: its
   mark comes off, and the check runs again until no new function is
   named.

What is still marked is called by nothing but tests. A function whose doc
comment carries a `Kept public for:` line naming its external user is
listed separately and is not a finding.

Exit status: 0 when nothing is `unused`, 1 when anything is (each
printed on an `unused` line: delete it, make it `#[cfg(test)]`, or name
its external user on a `Kept public for:` line), and 2 when the marked
copy does not build, which is a fault of this script, not a finding.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

KEEP = "Kept public for:"
PUB_FN = re.compile(
    r'^(\s*)pub\s+(?:const\s+)?(?:async\s+)?(?:unsafe\s+)?(?:extern\s+"[^"]*"\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)'
)
NOTE = re.compile(r"unused_pub (\d+)")
COPY_SKIP = shutil.ignore_patterns("target", ".git", "results", "out")


def def_files(root):
    """The `.rs` files whose `pub fn`s are swept, relative to `root`."""
    crates = os.path.join(root, "crates")
    dirs = ["src"] + sorted(
        f"crates/{d}/src" for d in os.listdir(crates) if os.path.isdir(os.path.join(crates, d, "src"))
    )
    for rel in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, rel)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith(".rs"):
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def attrs_above(lines, idx):
    """The doc comment and attribute lines directly above line `idx`."""
    block = []
    k = idx - 1
    while k >= 0:
        s = lines[k].strip()
        if s.startswith("//") or s.startswith("#["):
            block.append(s)
            k -= 1
        else:
            break
    return block


def pub_fns(lines):
    """`(line index, indent, name)` of each `pub fn` the sweep marks."""
    found, in_macro, depth = [], False, 0
    for i, line in enumerate(lines):
        if line.startswith("#[cfg(test)]"):
            break
        if not in_macro and "macro_rules!" in line:
            in_macro, depth, opened = True, 0, False
        if in_macro:
            # The body runs to the brace that closes its first one.
            depth += line.count("{") - line.count("}")
            opened = opened or "{" in line
            in_macro = not (opened and depth <= 0)
            continue
        m = PUB_FN.match(line)
        if m and "#[cfg(test)]" not in attrs_above(lines, i):
            found.append((i, m.group(1), m.group(2)))
    return found


def mark(tree, marks):
    """Writes the marks into the copy: `marks` maps id -> (file, line, ...)."""
    by_file = {}
    for n, (rel, i, indent, _name) in marks.items():
        by_file.setdefault(rel, []).append((i, indent, n))
    for rel, entries in by_file.items():
        path = os.path.join(tree, rel)
        with open(path) as f:
            lines = f.read().split("\n")
        for i, indent, n in sorted(entries, reverse=True):
            lines.insert(i, f'{indent}#[deprecated(note = "unused_pub {n}")]')
        with open(path, "w") as f:
            f.write("\n".join(lines))


def unmark(tree, marks, ids):
    """Takes the marks of `ids` off the copy."""
    for rel in sorted({marks[n][0] for n in ids}):
        path = os.path.join(tree, rel)
        with open(path) as f:
            text = f.read()
        for n in ids:
            if marks[n][0] == rel:
                text = text.replace(f'#[deprecated(note = "unused_pub {n}")]\n', "", 1)
        with open(path, "w") as f:
            f.write(text)


def check(tree, target):
    """Ids named by a `deprecated` warning, or None when a build fails."""
    named = set()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "check", "--offline", "--workspace", "--lib", "--bins", "--examples"],
        ["cargo", "check", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--bins"],
    ):
        run = subprocess.run(
            cmd + ["--message-format=json"], cwd=tree, env=env, capture_output=True, text=True
        )
        for line in run.stdout.splitlines():
            if not line.startswith("{"):
                continue
            msg = json.loads(line)
            if msg.get("reason") != "compiler-message":
                continue
            diag = msg["message"]
            if (diag.get("code") or {}).get("code") == "deprecated":
                named.update(int(n) for n in NOTE.findall(diag["message"]))
        if run.returncode != 0:
            sys.stderr.write(run.stderr[-4000:])
            return None
    return named


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    marks, docs = {}, {}
    for rel in def_files(root):
        with open(os.path.join(root, rel)) as f:
            lines = f.read().split("\n")
        for i, indent, name in pub_fns(lines):
            n = len(marks)
            marks[n] = (rel, i, indent, name)
            docs[n] = attrs_above(lines, i)

    with tempfile.TemporaryDirectory(prefix="unused_pub.") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(root, tree, ignore=COPY_SKIP)
        mark(tree, marks)
        left = set(marks)
        passes = 0
        while True:
            named = check(tree, os.path.join(tmp, "target"))
            passes += 1
            if named is None:
                print("unused_pub: the marked copy did not build")
                return 2
            new = named & left
            if not new:
                break
            left -= new
            unmark(tree, marks, new)

    unused, kept = [], []
    for n in sorted(left, key=lambda n: marks[n][:2]):
        rel, i, _indent, name = marks[n]
        where = f"{rel}:{i + 1}"
        reason = next((s.split(KEEP, 1)[1].strip() for s in docs[n] if KEEP in s), None)
        if reason is not None:
            kept.append((where, name, reason))
        else:
            unused.append((where, name))

    for where, name, reason in kept:
        print(f"kept    {where}  {name}  ({reason})")
    for where, name in unused:
        print(f"unused  {where}  {name}")
    print(
        f"unused_pub: {len(marks)} marked, {passes} checks; "
        f"{len(unused)} without a caller, {len(kept)} kept public with a reason"
    )
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())

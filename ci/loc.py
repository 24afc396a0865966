#!/usr/bin/env python3
"""Print the non-test code lines of every crate, per file and in total.

Usage: loc.py [REPO_ROOT] [PATH_PREFIX ...]

A file's non-test code is what stands above its first column-0
`#[cfg(test)]` (the whole file when there is none), leaving out blank
lines and lines that start with `//` once their indentation is stripped
(comments, `///` and `//!` docs). Every `.rs` file under one of
`SOURCE_DIRS` is counted: the crates' sources, the compat shims, bench
targets and examples, and the root crate's; tests are not. With
PATH_PREFIX arguments (relative to the root, such as
`crates/bench/src`), only files under one of them are printed, and the
total is theirs.

Output: one `<lines> <path>` line per file, sorted by path, then a
`<lines> total` line.
"""

import glob
import os
import sys

# Where a crate keeps code that is not a test, relative to the root.
SOURCE_DIRS = [
    "crates/*/src",
    "crates/compat/*/src",
    "crates/*/benches",
    "crates/*/examples",
    "src",
    "examples",
]


def code_lines(path):
    """Non-test code lines of one Rust source file."""
    n = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            text = line.strip()
            if text and not text.startswith("//"):
                n += 1
    return n


def sources(root):
    """Every `.rs` file under one of `SOURCE_DIRS`, relative to `root`."""
    for pattern in SOURCE_DIRS:
        for top in sorted(glob.glob(os.path.join(root, pattern))):
            for dirpath, dirnames, filenames in os.walk(top):
                for name in filenames:
                    if name.endswith(".rs"):
                        yield os.path.relpath(os.path.join(dirpath, name), root)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    prefixes = [p.rstrip("/") + "/" for p in argv[2:]]
    total = 0
    for rel in sorted(sources(root)):
        if prefixes and not any(rel.startswith(p) for p in prefixes):
            continue
        n = code_lines(os.path.join(root, rel))
        total += n
        print(f"{n:6} {rel}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv)

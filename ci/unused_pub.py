#!/usr/bin/env python3
"""Report every `pub fn` that nothing but a test calls.

Usage: unused_pub.py [REPO_ROOT]

A `pub fn` defined in `crates/*/src` or `src/` is reported when its name
appears in no product code apart from its own definition. Product code is
everything under `crates/*/src`, `src/`, `examples/`, `crates/*/examples`
and `benchmark/src` (the benchmark's rigs compile against the library),
with comments, string literals and `#[cfg(test)]` items removed. Uses in
`crates/*/tests`, `tests/` and `benches/` do not count.

A function whose doc comment carries a `Kept public for:` line naming its
external user is listed separately and is not a finding.

The match is by name, not by type: a function is counted as called when any
other item of the same name is used. So the report can miss an unused
function, but every function it names is unused.

Report-only: the exit status is always 0.
"""

import os
import re
import sys

KEEP = "Kept public for:"
PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
RAW_STR = re.compile(r'b?r(#*)"')
CHAR = re.compile(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^\\'\n])'")


def blank(text):
    """`text` with comments, strings and char literals turned to spaces.

    Newlines are kept, so offsets and line numbers still match the source.
    """
    out = list(text)
    i, n = 0, len(text)

    def wipe(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            wipe(i, j)
            i = j
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            wipe(i, j)
            i = j
        elif (m := RAW_STR.match(text, i)) and not (i and (text[i - 1].isalnum() or text[i - 1] == "_")):
            close = '"' + m.group(1)
            j = text.find(close, m.end())
            j = n if j < 0 else j + len(close)
            wipe(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            wipe(i, j + 1)
            i = j + 1
        elif c == "'":
            m = CHAR.match(text, i)
            if m:
                wipe(i, m.end())
                i = m.end()
            else:
                i += 1  # a lifetime or a label
        else:
            i += 1
    return "".join(out)


def strip_cfg_test(code):
    """`code` (already blanked) with every `#[cfg(test)]` item removed."""
    out = list(code)
    for m in re.finditer(r"#\[cfg\(test\)\]", code):
        start = m.start()
        # The item runs to its first top-level `;` or to the `}` that
        # closes its body; a `;` inside `(..)` or `[..]` (an array type in
        # a signature) does not end it.
        j, depth = m.end(), 0
        while j < len(code):
            ch = code[j]
            if ch in "{([":
                depth += 1
            elif ch in "})]":
                depth -= 1
                if depth < 0:
                    break  # a field or a variant: its parent's `}` ends it
                if depth == 0 and ch == "}":
                    j += 1
                    break
            elif ch == ";" and depth == 0:
                j += 1
                break
            j += 1
        for k in range(start, j):
            if out[k] != "\n":
                out[k] = " "
    return "".join(out)


def rust_files(root, rel_dirs):
    for rel in rel_dirs:
        base = os.path.join(root, rel)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for f in sorted(filenames):
                if f.endswith(".rs"):
                    yield os.path.join(dirpath, f)


def product_dirs(root):
    crates = os.path.join(root, "crates")
    names = sorted(d for d in os.listdir(crates) if os.path.isdir(os.path.join(crates, d, "src")))
    defs = ["src"] + [f"crates/{d}/src" for d in names]
    uses = defs + ["examples", "benchmark/src"]
    uses += [f"crates/{d}/examples" for d in names if os.path.isdir(os.path.join(crates, d, "examples"))]
    return defs, uses


def doc_block(lines, idx):
    """The doc comment and attribute lines directly above line `idx`."""
    block = []
    k = idx - 1
    while k >= 0:
        s = lines[k].strip()
        if s.startswith("///") or s.startswith("#[") or s.startswith("//"):
            block.append(s)
            k -= 1
        else:
            break
    return block


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    defs_dirs, use_dirs = product_dirs(root)

    uses = {}
    for path in rust_files(root, use_dirs):
        with open(path) as f:
            code = strip_cfg_test(blank(f.read()))
        for m in IDENT.finditer(code):
            prev = code[max(0, m.start() - 8) : m.start()]
            if re.search(r"\bfn\s+$", prev):
                continue  # a definition, not a use
            uses[m.group(0)] = uses.get(m.group(0), 0) + 1

    unused, kept = [], []
    for path in rust_files(root, defs_dirs):
        with open(path) as f:
            text = f.read()
        code = strip_cfg_test(blank(text))
        lines = text.split("\n")
        for m in PUB_FN.finditer(code):
            name = m.group(1)
            if uses.get(name, 0):
                continue
            line = code.count("\n", 0, m.start())
            where = f"{os.path.relpath(path, root)}:{line + 1}"
            doc = doc_block(lines, line)
            reason = next((s.split(KEEP, 1)[1].strip() for s in doc if KEEP in s), None)
            if reason is not None:
                kept.append((where, name, reason))
            else:
                unused.append((where, name))

    for where, name, reason in kept:
        print(f"kept    {where}  {name}  ({reason})")
    for where, name in unused:
        print(f"unused  {where}  {name}")
    print(f"unused_pub: {len(unused)} without a caller, {len(kept)} kept public with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that every value a `lib/*/*.mli` exports has a production user.

Usage (from the repository root, after `dune build @check`):

    python3 tools/api_scan.py [--build _build/default]
                              [--allow tools/api_allowlist.txt]

The scan reads compiler-resolved references, not names.  The typedtree
reader `tools/cmt_uses.ml` (built by this script through dune) prints,
for every `.cmt` under the build directory, each value a unit uses,
named by the location of the declaration it resolves to, so module
aliases, `open`s and shadowing are all accounted for.  A declaration
in `lib/<dir>/<m>.mli` counts as used by production when a compilation
unit in `lib/`, `bin/`, `bench/`, `perfbench/` or `examples/`, other
than `<m>.ml` itself, refers to it.  Tests (`test/`) do not count.

The reader also prints the optional arguments each call writes out.
An optional parameter (`?knob`) of a `lib/*/*.mli` value counts as
passed when any production call of that value passes it, calls from
its own module included.

Exit status 1 when an export has no production user and is not named
in the allowlist, when an optional parameter no production call passes
is not named in the allowlist, or when an allowlist line names no such
export or parameter.  The allowlist holds one `Module.value — reason`
line per kept test-only export, or `Module.value ?knob — reason` per
optional parameter only tests pass, whose reason must start with
`guard:`, `bug:` or `reference:`; `#` starts a comment.
"""

import argparse
import collections
import os
import re
import subprocess
import sys

PRODUCTION = ("lib/", "bin/", "bench/", "perfbench/", "examples/")

# the reasons an unpassed optional parameter may stay (see the allowlist)
KNOB_REASONS = ("guard:", "bug:", "reference:")


def blank_comments(text):
    """Replace OCaml comments and string literals with spaces, keeping
    every offset and newline where it was.  Files are read as latin-1
    so that offsets count bytes, as the compiler's locations do."""
    out = list(text)
    i, n, depth = 0, len(text), 0
    while i < n:
        if not depth and text[i] == "'" and i + 2 < n and text[i + 2] == "'":
            i += 3  # a character literal such as '"'
        elif not depth and text.startswith("'\\", i):
            i = text.find("'", i + 2) + 1 or n  # an escaped one, '\"'
        elif text.startswith("(*", i):
            depth += 1
            out[i] = out[i + 1] = " "
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out[i] = out[i + 1] = " "
            i += 2
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            if depth and out[i] != "\n":
                out[i] = " "
            i += 1
    return "".join(out)


TOKEN = re.compile(
    r"\bmodule\s+(?:type\s+)?([A-Z]\w*)\s*:\s*sig\b"
    r"|\b(sig|end)\b"
    r"|\b(?:val|external)\s+([a-z_]\w*'*|\([^)]*\))")
NEXT_ITEM = re.compile(
    r"\b(val|external|type|module|exception|end|include|open)\b")


def mli_values(path):
    """[(offset, qualified name, declaration text)] for each `val` of
    an interface, nested module paths included (`Pin.we_wire`)."""
    text = blank_comments(open(path, encoding="latin-1").read())
    stack, vals = [], []
    for m in TOKEN.finditer(text):
        if m.group(1):
            stack.append(m.group(1))
        elif m.group(2) == "sig":
            stack.append(None)
        elif m.group(2) == "end":
            if stack:
                stack.pop()
        else:
            name = m.group(3)
            prefix = ".".join(s for s in stack if s)
            # the declaration runs to the next item keyword
            stop = NEXT_ITEM.search(text, m.end())
            decl = text[m.start(): stop.start() if stop else len(text)]
            vals.append((m.start(), (prefix + "." if prefix else "") + name, decl))
    return vals


def module_name(mli):
    return os.path.splitext(os.path.basename(mli))[0].capitalize()


def cmt_files(build):
    """Every bytecode unit's .cmt under the build directory."""
    return sorted(os.path.join(root, f)
                  for root, _, files in os.walk(build)
                  if os.path.basename(root) == "byte"
                  for f in files if f.endswith(".cmt"))


def read_allowlist(path):
    allow = {}
    if not os.path.exists(path):
        return allow
    for line in open(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, reason = line.partition("—")
        allow[name.strip()] = reason.strip()
    return allow


def uses(build, decls):
    """({(declaration file, offset): set(source files that use it)},
    {(qualified name, knob)} that production calls pass), read by
    cmt_uses.exe.  [decls] maps (mli path, offset) to the qualified name
    declared there."""
    build_dir = os.path.dirname(os.path.normpath(build)) or "."
    subprocess.run(["dune", "build", "--build-dir", build_dir,
                    "./tools/cmt_uses.exe"], check=True)
    out = subprocess.run(
        [os.path.join(build, "tools", "cmt_uses.exe")] + cmt_files(build),
        capture_output=True, text=True, check=True).stdout
    refs, passed = collections.defaultdict(set), set()
    src, defs = None, []
    for line in out.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "unit":
            src, defs = rest, []
        elif kind == "def":
            start, end, name = rest.split()
            defs.append((int(start), int(end), name))
        elif kind == "ref":
            path, off = rest.split()
            refs[(path, int(off))].add(src)
        elif kind == "app" and src.startswith(PRODUCTION):
            path, off, labels = rest.split()
            off = int(off)
            qual = decls.get((path, off))
            if path == src:
                # a call from the value's own module
                qual = next(("%s.%s" % (module_name(src), n)
                             for s, e, n in defs if s <= off < e), None)
            if qual:
                passed.update((qual, k) for k in labels.split(","))
    return refs, passed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", default=os.path.join("_build", "default"))
    ap.add_argument("--allow", default=os.path.join("tools", "api_allowlist.txt"))
    args = ap.parse_args()

    mlis = sorted(os.path.join("lib", d, f)
                  for d in os.listdir("lib") if os.path.isdir(os.path.join("lib", d))
                  for f in os.listdir(os.path.join("lib", d)) if f.endswith(".mli"))
    values = {mli: mli_values(mli) for mli in mlis}
    decls = {(mli, off): "%s.%s" % (module_name(mli), name)
             for mli in mlis for off, name, _ in values[mli]}
    refs, passed = uses(args.build, decls)
    allow = read_allowlist(args.allow)

    counts = collections.Counter()
    failures, allowed, knobs = [], set(), []
    for mli in mlis:
        own = mli[:-1]
        for off, name, decl in values[mli]:
            users = refs.get((mli, off), set()) - {own}
            qual = decls[(mli, off)]
            knobs += [(qual, k) for k in re.findall(r"\?([a-z_]\w*)\s*:", decl)]
            prod = [u for u in users if u.startswith(PRODUCTION)]
            if prod:
                counts["production"] += 1
            elif qual in allow:
                counts["allowlisted"] += 1
                allowed.add(qual)
            elif users:
                counts["test only"] += 1
                failures.append("%s: used only by tests (%s)"
                                % (qual, ", ".join(sorted(users))))
            else:
                counts["unused"] += 1
                failures.append("%s: used by nothing outside %s" % (qual, own))
    unset = ["%s ?%s" % qk for qk in knobs if qk not in passed]
    allowed_knobs = {k for k in allow if " ?" in k}
    for k in unset:
        if k not in allowed_knobs:
            failures.append("%s: optional parameter no production call "
                            "passes" % k)
    for k in sorted(allowed_knobs):
        if not allow[k].startswith(KNOB_REASONS):
            failures.append("%s: allowlist reason must start with one of %s"
                            % (k, ", ".join(KNOB_REASONS)))
    stale = (sorted(set(allow) - allowed - allowed_knobs)
             + sorted(allowed_knobs - set(unset)))

    total = sum(counts.values())
    print("api_scan: %d exported values in %d interfaces: %s"
          % (total, len(mlis), ", ".join("%d %s" % (v, k) for k, v in sorted(counts.items()))))
    print("api_scan: %d optional parameters, %d that no production call "
          "passes, %d of those allowlisted"
          % (len(knobs), len(unset), len(set(unset) & allowed_knobs)))
    for s in stale:
        print("api_scan: allowlist entry %s names no test-only export and "
              "no optional parameter that production leaves unpassed" % s)
    for f in failures:
        print("api_scan: " + f)
    if failures or stale:
        print("api_scan: FAIL — delete the export or parameter, give it a "
              "production caller, or allowlist it with a reason in %s"
              % args.allow)
        return 1
    print("api_scan: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

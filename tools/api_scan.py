#!/usr/bin/env python3
"""Check that every value a `lib/*/*.mli` exports has a production user.

Usage (from the repository root, after `dune build @check`):

    python3 tools/api_scan.py [--build _build/default]
                              [--allow tools/api_allowlist.txt]

The scan reads compiler-resolved references, not names: for every
`.cmt` under the build directory, `ocamlcmt -annot` prints each use of
a value with the location of the declaration it resolves to, so module
aliases, `open`s and shadowing are all accounted for.  A declaration in
`lib/<dir>/<m>.mli` counts as used by production when a compilation
unit in `lib/`, `bin/`, `bench/`, `perfbench/` or `examples/`, other
than `<m>.ml` itself, refers to it.  Tests (`test/`) do not count.

Exit status 1 when an export has no production user and is not named
in the allowlist, or when an allowlist line names no such export.  The
allowlist holds one `Module.value — reason` line per kept test-only
export, or `Module.value ?knob — reason` per optional parameter only
tests pass; `#` starts a comment.

The script also prints, as a report that does not change the exit
status, every optional parameter (`?name`) of a `lib/*/*.mli` value
that no production source outside its module passes as `~name` or
`?name`.  That part matches names only, so it is a lower bound.
"""

import argparse
import collections
import os
import re
import subprocess
import sys

PRODUCTION = ("lib/", "bin/", "bench/", "perfbench/", "examples/")


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


INT_REF = re.compile(r'^\s*int_ref \S+ "([^"]+\.mli)" \d+ \d+ (\d+) ')


def references(build):
    """{(mli path, offset): set(source files that refer to it)}"""
    cmts, dirs = [], set()
    for root, _, files in os.walk(build):
        if os.path.basename(root) != "byte":
            continue
        for f in files:
            if f.endswith(".cmt"):
                cmts.append(os.path.join(root, f))
                dirs.add(root)
    refs = collections.defaultdict(set)
    for cmt in sorted(cmts):
        # each executable has its own `Dune__exe` alias module, so the
        # unit's own directory must come first on the path
        own = os.path.dirname(cmt)
        inc = []
        for d in [own] + sorted(dirs - {own}):
            inc += ["-I", d]
        out = subprocess.run(["ocamlcmt"] + inc + ["-annot", "-o", "-", cmt],
                             capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("api_scan: ocamlcmt failed on %s:\n%s" % (cmt, out.stderr))
        first = re.match(r'"([^"]+)"', out.stdout)
        if not first:
            continue
        src = first.group(1)
        for line in out.stdout.splitlines():
            m = INT_REF.match(line)
            if m:
                refs[(m.group(1), int(m.group(2)))].add(src)
    return refs


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


def knob_report(mlis):
    """Optional parameters ("Module.value ?knob") that no production
    source outside the declaring module passes by name."""
    sources = {}
    for top in PRODUCTION:
        for root, _, files in os.walk(top):
            if "_build" in root:
                continue
            for f in files:
                if f.endswith(".ml"):
                    p = os.path.join(root, f)
                    sources[p] = blank_comments(open(p, encoding="latin-1").read())
    unset = []
    for mli in mlis:
        own = mli[:-1]
        for _, name, decl in mli_values(mli):
            for knob in re.findall(r"\?([a-z_]\w*)\s*:", decl):
                pat = re.compile(r"[~?]" + knob + r"\b")
                if not any(pat.search(t) for p, t in sources.items() if p != own):
                    unset.append("%s.%s ?%s" % (module_name(mli), name, knob))
    return unset


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", default=os.path.join("_build", "default"))
    ap.add_argument("--allow", default=os.path.join("tools", "api_allowlist.txt"))
    args = ap.parse_args()

    mlis = sorted(os.path.join("lib", d, f)
                  for d in os.listdir("lib") if os.path.isdir(os.path.join("lib", d))
                  for f in os.listdir(os.path.join("lib", d)) if f.endswith(".mli"))
    refs = references(args.build)
    allow = read_allowlist(args.allow)

    counts = collections.Counter()
    failures, allowed = [], set()
    for mli in mlis:
        own = mli[:-1]
        for off, name, _ in mli_values(mli):
            users = refs.get((mli, off), set()) - {own}
            qual = "%s.%s" % (module_name(mli), name)
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
    knobs = {k for k in allow if " ?" in k}
    unset = knob_report(mlis)
    stale = sorted(set(allow) - allowed - knobs) + sorted(knobs - set(unset))

    total = sum(counts.values())
    print("api_scan: %d exported values in %d interfaces: %s"
          % (total, len(mlis), ", ".join("%d %s" % (v, k) for k, v in sorted(counts.items()))))
    unlisted = [k for k in unset if k not in knobs]
    print("api_scan: %d optional parameters that no production caller passes, "
          "%d of them allowlisted (name match, report only):"
          % (len(unset), len(unset) - len(unlisted)))
    for k in unlisted:
        print("  " + k)
    for s in stale:
        print("api_scan: allowlist entry %s names no such test-only export "
              "or unpassed parameter" % s)
    for f in failures:
        print("api_scan: " + f)
    if failures or stale:
        print("api_scan: FAIL — delete the export, give it a production "
              "caller, or allowlist it with a reason in %s" % args.allow)
        return 1
    print("api_scan: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

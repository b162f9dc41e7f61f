#!/usr/bin/env python3
"""The two interface gates over lib/*/*.mli, run from the repo root.

    python3 tools/api_gates.py            # both gates
    python3 tools/api_gates.py exports    # unused exports only
    python3 tools/api_gates.py options    # option count only

Unused exports: every val in a lib/*/*.mli must be named by some tracked
.ml/.mli under lib, bin, bench, test, examples or perfbench other than its
own module's pair, comments stripped.  A val v of module M (or of its
submodule S) counts as named where a file writes M.v (S.v), writes A.v
after declaring module A = ...M (...S), or writes a bare v in a file that
opens M, A or S (open, let open ... in, or M.( ... )).  A name another
module merely shares does not count.

Option count: the optional labels (?name:) and the fields of the config
records (types named options or *config) declared in lib/*/*.mli,
comments stripped, must equal the counts pinned below.  Each independent
option doubles what the tests and benchmarks must cover.  A change that
adds or removes an option updates the numbers in the same commit and says
why in CHANGES.md, as for the fuzz summary line.

Exits 1 when a gate it ran fails.
"""
import re
import subprocess
import sys

EXPECTED_LABELS, EXPECTED_FIELDS = 60, 21


def strip_comments(text):
    out, depth, i = [], 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
        else:
            if not depth:
                out.append(text[i])
            i += 1
    return "".join(out)


def tracked(*dirs):
    return subprocess.run(["git", "ls-files", *dirs], capture_output=True,
                          text=True, check=True).stdout.split()


def is_lib_mli(f):
    return re.fullmatch(r"lib/[^/]+/[^/]+\.mli", f) is not None


def used(name, module, text):
    aliases = re.findall(
        r"\bmodule\s+([A-Z][\w']*)\s*=\s*(?:[A-Z][\w']*\.)*"
        + module + r"(?![\w'])", text)
    for q in [module] + aliases:
        q = r"(?<![\w'])(?:[A-Z][\w']*\.)*" + q
        if re.search(q + r"\." + re.escape(name) + r"(?![\w'])", text):
            return True
        opens = (r"\bopen!?\s+" + q + r"(?![\w'])",
                 r"\blet\s+open!?\s+" + q + r"\s+in\b", q + r"\.\(")
        if any(re.search(o, text) for o in opens) and re.search(
                r"(?<![\w'.])" + re.escape(name) + r"(?![\w'])", text):
            return True
    return False


def unused_exports(sources):
    unused = []
    for mli in sorted(f for f in sources if is_lib_mli(f)):
        own = {mli, mli[:-1]}
        base = mli.rsplit("/", 1)[1][:-4]
        path = [base[0].upper() + base[1:]]
        for line in sources[mli].splitlines():
            sub = re.match(r"\s*module\s+([A-Z][\w']*)\s*:\s*sig\b", line)
            if sub:
                path.append(sub.group(1))
            elif re.match(r"\s*end\b", line) and len(path) > 1:
                path.pop()
            val = re.match(r"\s*val\s+([a-z_][\w']*)", line)
            if val and not any(used(val.group(1), path[-1], text)
                               for f, text in sources.items()
                               if f not in own):
                unused.append(f"{mli}: {'.'.join(path)}.{val.group(1)}")
    return unused


def option_count(sources):
    labels = fields = 0
    for mli in sorted(f for f in sources if is_lib_mli(f)):
        text = sources[mli]
        labels += len(re.findall(r"\?[a-z_][\w']*\s*:", text))
        for body in re.findall(
                r"\btype\s+(?:options|\w*config)\s*=\s*\{([^}]*)\}", text):
            fields += len(re.findall(
                r"(?:^|;)\s*(?:mutable\s+)?[a-z_][\w']*\s*:", body))
    return labels, fields


def exports_gate(sources):
    unused = unused_exports(sources)
    for line in unused:
        print(line)
    print(f"{len(unused)} unused exports")
    return not unused


def options_gate(sources):
    labels, fields = option_count(sources)
    print(f"{labels} optional labels, {fields} config fields")
    if (labels, fields) != (EXPECTED_LABELS, EXPECTED_FIELDS):
        print(f"expected {EXPECTED_LABELS} optional labels, "
              f"{EXPECTED_FIELDS} config fields")
        return False
    return True


GATES = {"exports": exports_gate, "options": options_gate}


def main(args):
    unknown = [a for a in args if a not in GATES]
    if unknown:
        sys.exit(f"unknown gate {unknown[0]!r}; expected one of "
                 + ", ".join(GATES))
    sources = {f: strip_comments(open(f).read())
               for f in tracked("lib", "bin", "bench", "test", "examples",
                                "perfbench")
               if f.endswith((".ml", ".mli"))}
    results = [GATES[g](sources) for g in args or GATES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

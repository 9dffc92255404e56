#!/usr/bin/env python3
"""Generates docs/cli.md from the ofc-sim flag table.

FlagTable() in tools/ofc_sim.cpp (between the FLAG-TABLE-BEGIN / FLAG-TABLE-END
markers) is the only declaration of ofc-sim's flags: each row carries a flag's
group, grammar, help text and binder, Main() parses argv through the rows and
--help prints them. This script renders the same rows to markdown.

Usage:
  python3 tools/gen_cli_docs.py            # rewrite docs/cli.md
  python3 tools/gen_cli_docs.py --check    # exit 1 if docs/cli.md is stale
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(REPO, "tools", "ofc_sim.cpp")
OUTPUT = os.path.join(REPO, "docs", "cli.md")

ENTRY_RE = re.compile(r'^\s*\{"((?:[^"\\]|\\.)*)",\s*"((?:[^"\\]|\\.)*)",\s*"((?:[^"\\]|\\.)*)",\s*[^"]+\},\s*$')


def unescape(s):
    return s.replace('\\"', '"').replace("\\\\", "\\")


def parse_flag_table(text):
    """Returns [(group, spec, help)] from the FLAG-TABLE block."""
    try:
        block = text.split("FLAG-TABLE-BEGIN", 1)[1].split("FLAG-TABLE-END", 1)[0]
    except IndexError:
        sys.exit("error: FLAG-TABLE-BEGIN/END markers not found in " + SOURCE)
    entries = []
    for line in block.splitlines():
        m = ENTRY_RE.match(line)
        if m:
            entries.append(tuple(unescape(g) for g in m.groups()))
        elif line.strip().startswith('{"'):
            sys.exit("error: unparseable flag row (keep one {group, spec, help, binder} "
                     "per line): " + line.strip())
    if not entries:
        sys.exit("error: no flag rows parsed from " + SOURCE)
    return entries


def render(entries):
    out = []
    out.append("# `ofc-sim` command-line reference")
    out.append("")
    out.append("<!-- Generated by tools/gen_cli_docs.py from the flag rows of FlagTable()")
    out.append("     in tools/ofc_sim.cpp. Do not edit by hand: run")
    out.append("     `python3 tools/gen_cli_docs.py` to regenerate. CI runs it with")
    out.append("     --check and fails on drift. -->")
    out.append("")
    out.append("`ofc-sim` runs a configurable multi-tenant workload against OWK-Swift,")
    out.append("OWK-Redis, or OFC and prints per-tenant latency summaries plus OFC's")
    out.append("internal counters. Every run is a pure function of its flags: the same")
    out.append("seed and flags reproduce byte-identical artifacts (see")
    out.append("`--selfcheck-determinism`).")
    out.append("")
    out.append("```sh")
    out.append("./build/tools/ofc-sim --mode=ofc --functions=wand_blur,wand_edge \\")
    out.append("    --duration-min=10 --metrics-json=metrics.json")
    out.append("```")
    group = None
    for entry_group, spec, help_text in entries:
        if entry_group != group:
            group = entry_group
            out.append("")
            out.append(f"## {group}")
            out.append("")
            out.append("| Flag | Description |")
            out.append("|---|---|")
        out.append(f"| `{spec}` | {help_text} |")
    out.append("")
    out.append("Run `ofc-sim` with any unknown flag to print this reference plus the")
    out.append("registered function and pipeline names.")
    out.append("")
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify docs/cli.md is current; do not write")
    args = parser.parse_args()

    with open(SOURCE) as f:
        text = f.read()
    entries = parse_flag_table(text)
    rendered = render(entries)

    if args.check:
        try:
            with open(OUTPUT) as f:
                current = f.read()
        except FileNotFoundError:
            sys.exit(f"error: {OUTPUT} missing; run tools/gen_cli_docs.py")
        if current != rendered:
            sys.exit(f"error: {OUTPUT} is stale; run tools/gen_cli_docs.py")
        print(f"{os.path.relpath(OUTPUT, REPO)}: up to date "
              f"({len(entries)} flags documented)")
        return

    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w") as f:
        f.write(rendered)
    print(f"wrote {os.path.relpath(OUTPUT, REPO)} ({len(entries)} flags)")


if __name__ == "__main__":
    main()

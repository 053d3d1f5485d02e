#!/usr/bin/env python3
"""Docs/tree cross-reference linter.

Usage: scripts/lint_docs.py [repo-root]   (default: parent of scripts/)

Walks README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md, and docs/*.md and
verifies that everything they point at actually exists in the tree:

  * binary paths (`./build/bench/<name>`, `./build/tools/<name>`, ...) have
    a matching source file under bench/, tools/, or examples/;
  * `--flag` references name a flag some binary parses (`Flags::get_*`),
    modulo a small allowlist of external tools' flags (cmake/ctest);
  * `ELMO_<X>` environment variables map to a parsed flag key (util::Flags
    reads `ELMO_<KEY>` for `--<key>`) or appear literally in the sources
    (macros like ELMO_METRIC, getenv'd vars);
  * `DESIGN.md §N` anchors — in the docs AND in source comments — name a
    numbered `## N.` section that exists in DESIGN.md.

Exit status 0 when every reference resolves, 1 otherwise (each stale
reference is reported with file:line).
"""

import pathlib
import re
import sys

DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
DOC_GLOBS = ["docs/*.md"]
SOURCE_GLOBS = [
    "src/**/*.cc", "src/**/*.h", "bench/**/*.cc", "tools/**/*.cc",
    "examples/**/*.cpp", "tests/**/*.cc",
]

BINARY_RE = re.compile(r"(?:\./)?build/(bench|tools|examples)/([a-z0-9_]+)")
# Lookbehind keeps markdown heading anchors (`#...-pool--deterministic-merge`)
# from reading as flags: a real `--flag` is never glued to a word character.
FLAG_RE = re.compile(r"(?<![\w-])--([a-z][a-z0-9_-]*)")
ENV_RE = re.compile(r"ELMO_([A-Z0-9_]+)")
SECTION_REF_RE = re.compile(r"DESIGN\.md[^§\n]{0,10}§\s*(\d+)")
SECTION_DEF_RE = re.compile(r"^## (\d+)\.", re.MULTILINE)
GET_FLAG_RE = re.compile(r'get_(?:int|string|bool|double)\(\s*"([A-Za-z0-9_]+)"')

# Flags that belong to external tools the docs legitimately invoke, plus
# repo scripts' own argparse-style flags (not routed through util::Flags).
EXTERNAL_FLAGS = {"build", "test-dir", "output-on-failure", "incidents"}


def iter_doc_files(root: pathlib.Path):
    for name in DOC_FILES:
        path = root / name
        if path.is_file():
            yield path
    for pattern in DOC_GLOBS:
        yield from sorted(root.glob(pattern))


def collect_tree_facts(root: pathlib.Path):
    """Scans the sources once for flag keys and literal ELMO_ identifiers."""
    flag_keys = set()
    elmo_idents = set()
    for pattern in SOURCE_GLOBS:
        for path in root.glob(pattern):
            text = path.read_text(errors="replace")
            for key in GET_FLAG_RE.findall(text):
                flag_keys.add(key.upper())
            for ident in ENV_RE.findall(text):
                elmo_idents.add(ident)
    return flag_keys, elmo_idents


def design_sections(root: pathlib.Path):
    design = root / "DESIGN.md"
    if not design.is_file():
        return set()
    return set(SECTION_DEF_RE.findall(design.read_text(errors="replace")))


def lint_file(path, rel, flag_keys, elmo_idents, sections, root, errors,
              docs_mode):
    for lineno, line in enumerate(path.read_text(errors="replace")
                                  .splitlines(), 1):
        def err(msg):
            errors.append(f"{rel}:{lineno}: {msg}")

        for section in SECTION_REF_RE.findall(line):
            if section not in sections:
                err(f"DESIGN.md §{section} does not exist "
                    f"(sections: {', '.join(sorted(sections, key=int))})")

        if not docs_mode:
            continue  # sources are only checked for DESIGN.md anchors

        for kind, name in BINARY_RE.findall(line):
            ext = ".cpp" if kind == "examples" else ".cc"
            if not (root / kind / (name + ext)).is_file():
                err(f"binary build/{kind}/{name} has no source "
                    f"{kind}/{name}{ext}")

        for flag in FLAG_RE.findall(line):
            key = flag.replace("-", "_").upper()
            if key not in flag_keys and flag not in EXTERNAL_FLAGS:
                err(f"--{flag} is not parsed by any binary "
                    f"(no Flags::get_*(\"{key}\") in the tree)")

        for ident in ENV_RE.findall(line):
            if ident not in flag_keys and ident not in elmo_idents:
                err(f"ELMO_{ident} matches no flag key and no source "
                    "identifier")


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parent.parent)
    flag_keys, elmo_idents = collect_tree_facts(root)
    sections = design_sections(root)

    errors = []
    checked = 0
    for path in iter_doc_files(root):
        lint_file(path, path.relative_to(root), flag_keys, elmo_idents,
                  sections, root, errors, docs_mode=True)
        checked += 1
    for pattern in SOURCE_GLOBS:
        for path in sorted(root.glob(pattern)):
            lint_file(path, path.relative_to(root), flag_keys, elmo_idents,
                      sections, root, errors, docs_mode=False)
            checked += 1

    for error in errors:
        print(error)
    if errors:
        print(f"lint_docs: {len(errors)} stale reference(s) "
              f"across {checked} file(s)")
        return 1
    print(f"lint_docs: {checked} file(s) clean "
          f"({len(flag_keys)} flag keys, {len(sections)} DESIGN.md sections)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

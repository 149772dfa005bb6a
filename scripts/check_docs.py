#!/usr/bin/env python
"""Documentation health check: dead links and stale code references.

Run from the repository root (CI runs it in the docs job):

    python scripts/check_docs.py

Checks, over ``README.md``, ``PAPER.md``, ``PAPERS.md``, ``CHANGES.md``
and everything under ``docs/``:

1. every relative markdown link ``[text](path)`` resolves to an existing
   file (anchors are stripped; http(s)/mailto links are not fetched —
   only their syntax is validated);
2. every ``src/repro/...py``-style file reference in a docs table or
   inline code span points at a file that still exists;
3. every ``repro.<module>`` dotted reference names an importable module
   path under ``src/``, and when the reference carries an attribute
   suffix (``repro.sim.frame.FrameProgram``), the first attribute is
   defined in that module's source — so renaming or deleting a class
   breaks the doc check, not just deleting the file;
4. every backticked ``ClassName.attr`` or ``ClassName(attr=...)`` span
   whose class is defined under ``src/repro`` names an attribute of
   that class — a field, class attribute, method or ``self.attr``
   assignment in its body — so docs still citing a deleted config field
   or method fail the check.  Classes not defined under ``src/repro``,
   and classes with a base class (whose inherited attributes a textual
   scan cannot see), are ignored.

Exits non-zero with a per-problem report when anything is broken, so
docs rot fails CI instead of accumulating.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import re
import sys
from typing import Dict, Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

DOC_FILES = ["README.md", "PAPER.md", "PAPERS.md", "CHANGES.md"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FILE_REF_RE = re.compile(r"`((?:src|docs|tests|benchmarks|scripts|examples)/[\w./-]+)`")
MODULE_REF_RE = re.compile(r"`(repro(?:\.\w+)+)")
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
CLASS_ATTR_RE = re.compile(r"([A-Z]\w*)(?:\.(\w+)(?:[.(].*)?|\((.*)\))")
KWARG_RE = re.compile(r"[(,]\s*(\w+)\s*=(?!=)")


def doc_paths() -> List[pathlib.Path]:
    """Markdown files to check: the top-level docs plus docs/**."""
    paths = [ROOT / name for name in DOC_FILES if (ROOT / name).exists()]
    paths.extend(sorted((ROOT / "docs").glob("**/*.md")))
    return paths


def iter_problems(path: pathlib.Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, message)`` problems found in *path*."""
    text = path.read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):  # in-page anchor
                continue
            rel = target.split("#", 1)[0]
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                yield lineno, f"dead link: ({target})"
        for match in FILE_REF_RE.finditer(line):
            ref = match.group(1).rstrip("/")
            # table rows often list "dir/file.py" roles; tolerate
            # directories and files alike
            if not (ROOT / ref).exists():
                yield lineno, f"stale file reference: `{match.group(1)}`"
        for match in MODULE_REF_RE.finditer(line):
            dotted = match.group(1)
            problem = _module_problem(dotted)
            if problem is not None:
                yield lineno, problem
        for match in CODE_SPAN_RE.finditer(line):
            for problem in _class_attr_problems(match.group(1)):
                yield lineno, problem


def _class_attr_problems(span: str) -> Iterator[str]:
    """Problems with a ``Class.attr`` / ``Class(attr=...)`` code span."""
    match = CLASS_ATTR_RE.fullmatch(span.strip())
    if match is None:
        return
    cls, attr, call_args = match.groups()
    known = class_attributes().get(cls)
    if known is None:  # not a src/repro class: nothing to check against
        return
    names = [attr] if attr else KWARG_RE.findall("(" + call_args)
    for name in names:
        if name not in known:
            yield (
                f"stale attribute reference: `{span}` "
                f"({name!r} is not an attribute of {cls})"
            )


@functools.lru_cache(maxsize=None)
def class_attributes() -> Dict[str, Set[str]]:
    """Attribute names of every base-less class under ``src/repro``.

    A class's attributes are the names bound in its body (fields, class
    attributes, methods, nested classes) plus every ``self.attr`` it
    assigns.  Same-named classes pool their attributes; one with a base
    class makes the name unchecked.
    """
    attrs: Dict[str, Set[str]] = {}
    derived: Set[str] = set()
    for path in sorted((ROOT / "src" / "repro").glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.bases:
                derived.add(node.name)
            names = attrs.setdefault(node.name, set())
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    names.update(
                        sub.id for sub in ast.walk(stmt)
                        if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Store)
                    )
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    names.add(sub.attr)
    return {cls: names for cls, names in attrs.items() if cls not in derived}


def _module_problem(dotted: str) -> "str | None":
    """Check one dotted ``repro...`` reference; ``None`` when healthy.

    The longest prefix of *dotted* must map to a package or module file
    under ``src/``.  Any remainder is an attribute path
    (``repro.eval.batch.RunSpec``); its first segment must be *defined*
    in the resolved module — as a ``class``, ``def``, or module-level
    assignment, or re-exported for packages — which catches docs still
    naming a class that was renamed away.  Checking is textual so the
    docs job never imports the package.
    """
    parts = dotted.split(".")
    for end in range(len(parts), 1, -1):
        base = ROOT / "src" / pathlib.Path(*parts[:end])
        if base.with_suffix(".py").exists():
            source_path = base.with_suffix(".py")
        elif (base / "__init__.py").exists():
            source_path = base / "__init__.py"
        else:
            continue
        if end == len(parts):
            return None
        attr = parts[end]
        if _defines_name(source_path, attr):
            return None
        return (
            f"stale attribute reference: `{dotted}` "
            f"({attr!r} is not defined in {source_path.relative_to(ROOT)})"
        )
    return f"stale module reference: `{dotted}`"


def _defines_name(source_path: pathlib.Path, name: str) -> bool:
    """True when *name* is defined or re-exported at module top level."""
    pattern = re.compile(
        rf"^(?:class|def)\s+{re.escape(name)}\b"
        rf"|^{re.escape(name)}\s*[:=]"
        rf"|^\s+{re.escape(name)},?\s*$"      # import-list / __all__ entry
        rf"|\b{re.escape(name)}\s*=\s"        # aliased assignment
        rf"|import\s+.*\b{re.escape(name)}\b",
        re.MULTILINE,
    )
    return bool(pattern.search(source_path.read_text()))


def main() -> int:
    problems = 0
    for path in doc_paths():
        for lineno, message in iter_problems(path):
            print(f"{path.relative_to(ROOT)}:{lineno}: {message}")
            problems += 1
    if problems:
        print(f"\n{problems} documentation problem(s) found")
        return 1
    print(f"docs ok ({len(doc_paths())} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repo-specific lint rules clang-tidy cannot express.

Usage:
    lint_gesmc.py [REPO_ROOT]

Exit status is non-zero when any rule fires.  Rules (see
docs/static_analysis.md for the rationale behind each):

  determinism   Non-deterministic entropy/time sources are banned in the
                deterministic sampling paths (src/core, src/rng, src/gen,
                src/graph, src/hashing).  Every random draw must come from
                the counter-based RNG so runs are replayable byte-for-byte.

  raw-mutex     `std::mutex` & friends are banned outside src/check/: all
                locking goes through CheckedMutex so the Clang
                thread-safety analysis and the lock-rank detector see it.

  spinlock      `std::atomic_flag` is banned outside src/check/: it is
                the raw material of hand-rolled spinlocks that neither the
                thread-safety analysis nor the lock-rank detector can see.
                Any spinning belongs behind a CheckedMutex.

  iostream      `#include <iostream>` is banned in library code (src/
                except src/bench_util): it drags in static constructors
                and tempts ad-hoc stderr chatter in hot paths.  Tools own
                their stdout; the library reports through Error/metrics.

  strto-null-end
                `strto*` with a null end pointer in src/ and tools/: the
                call cannot tell "abc" or "3x" from a number, so a
                malformed value parses as 0 or a prefix.  Use the strict
                parsers (pipeline/config.hpp) or check the end pointer.

  page-memory   `mmap`, `munmap` and `madvise` are banned in src/ outside
                src/util/table_storage.cpp: the huge-page policy of the
                chains' tables (alignment, the THP hint, unmapping) lives
                in that one module.

Suppress a finding by appending `// lint: allow(<rule>)` to the line.
"""

import pathlib
import re
import sys

CXX_SUFFIXES = {".cpp", ".hpp"}

DETERMINISTIC_DIRS = ("src/core", "src/rng", "src/gen", "src/graph",
                      "src/hashing")

DETERMINISM_PATTERNS = [
    re.compile(r"\bstd::random_device\b"),
    re.compile(r"\bstd::m?t19937"),          # seed via rng/, not ad hoc
    re.compile(r"\bstd::rand\b"),
    re.compile(r"(^|[^\w:.])s?rand\s*\("),
    re.compile(r"(^|[^\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
]

RAW_MUTEX_PATTERN = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

SPINLOCK_PATTERN = re.compile(r"\bstd::atomic_flag\b")

IOSTREAM_PATTERN = re.compile(r"^\s*#\s*include\s*<iostream>")

STRTO_NULL_END_PATTERN = re.compile(
    r"\bstrto\w+\s*\([^,;]+,\s*(nullptr|NULL|0)\s*[,)]")

PAGE_MEMORY_PATTERN = re.compile(r"(^|[^\w.])(mmap|munmap|madvise)\s*\(")

PAGE_MEMORY_HOME = "src/util/table_storage.cpp"

ALLOW_PATTERN = re.compile(r"//\s*lint:\s*allow\((?P<rule>[\w-]+)\)")


def suppressed(line: str, rule: str) -> bool:
    match = ALLOW_PATTERN.search(line)
    return match is not None and match.group("rule") == rule


def strip_comments(line: str) -> str:
    """Drop // comments so prose mentioning a pattern does not fire."""
    return line.split("//", 1)[0]


def check_file(root: pathlib.Path, path: pathlib.Path, findings: list) -> None:
    rel = path.relative_to(root).as_posix()
    in_deterministic = rel.startswith(DETERMINISTIC_DIRS)
    in_check = rel.startswith("src/check/")
    in_bench_util = rel.startswith("src/bench_util/")
    in_library = rel.startswith("src/")

    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(),
                                 start=1):
        line = strip_comments(raw)

        if in_deterministic:
            for pattern in DETERMINISM_PATTERNS:
                if pattern.search(line) and not suppressed(raw, "determinism"):
                    findings.append(
                        (rel, lineno, "determinism",
                         "non-deterministic source in a sampling path: "
                         + raw.strip()))

        if not in_check and RAW_MUTEX_PATTERN.search(line) \
                and not suppressed(raw, "raw-mutex"):
            findings.append(
                (rel, lineno, "raw-mutex",
                 "use CheckedMutex/CheckedLockGuard (src/check/): "
                 + raw.strip()))

        if not in_check and SPINLOCK_PATTERN.search(line) \
                and not suppressed(raw, "spinlock"):
            findings.append(
                (rel, lineno, "spinlock",
                 "std::atomic_flag spinlocks are invisible to the lock "
                 "checkers; use CheckedMutex (src/check/): " + raw.strip()))

        if STRTO_NULL_END_PATTERN.search(line) \
                and not suppressed(raw, "strto-null-end"):
            findings.append(
                (rel, lineno, "strto-null-end",
                 "strto* without an end pointer accepts malformed input; "
                 "use parse_u64/parse_unsigned/parse_double: " + raw.strip()))

        if in_library and rel != PAGE_MEMORY_HOME \
                and PAGE_MEMORY_PATTERN.search(line) \
                and not suppressed(raw, "page-memory"):
            findings.append(
                (rel, lineno, "page-memory",
                 "page-level memory calls belong in " + PAGE_MEMORY_HOME
                 + " (TableStorage): " + raw.strip()))

        if in_library and not in_bench_util \
                and IOSTREAM_PATTERN.search(line) \
                and not suppressed(raw, "iostream"):
            findings.append(
                (rel, lineno, "iostream",
                 "<iostream> is banned in library code: " + raw.strip()))


def main(argv: list) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(".")
    root = root.resolve()

    scanned = 0
    findings = []
    for top in ("src", "tools"):
        for path in sorted((root / top).rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                scanned += 1
                check_file(root, path, findings)

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint_gesmc: {len(findings)} finding(s) in {scanned} files",
              file=sys.stderr)
        return 1
    print(f"lint_gesmc: OK ({scanned} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

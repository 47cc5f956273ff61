"""Include hygiene for src/ and testing/.

Rules:
  pragma-once       every header under src/ and testing/ must contain
                    `#pragma once`.
                    (House style: the pragma, not ifndef guards — one line,
                    no guard-name drift when files move.)
  iwyu              include-what-you-use for the curated house vocabulary:
                    a file whose code uses Status/Result/Span/Rng or the
                    annotated lock wrappers must include the defining header
                    directly, not inherit it transitively — transitive
                    includes break the moment an intermediate header sheds a
                    dependency.
  forbidden-include including another file's `.cc`, or including a std
                    header that has a designated owner: the raw concurrency
                    headers belong to common/thread_annotations.h (only the
                    wrappers carry thread-safety annotations), <random> is
                    banned outright (seeded common::Rng is the only
                    randomness source), <chrono>/<ctime> belong to
                    common/stopwatch.h and <thread> to the pool (wall-clock
                    and threads are load-bearing for reproducibility).

Escapes: `// NOLINT(amalur-<rule>): <reason>` on the offending line
(`amalur-pragma-once` anywhere in the file's first 10 lines).
"""

import re

from cpp_source import LIBRARY_TREES, nolint_rules
from findings import Finding

# token -> defining header. Tokens are matched against stripped code with
# word boundaries, so MutexLock does not count as a use of Mutex.
HOUSE_TYPES = {
    "Status": "common/status.h",
    "Result": "common/status.h",
    "Span": "common/span.h",
    "Rng": "common/rng.h",
    "Mutex": "common/thread_annotations.h",
    "SharedMutex": "common/thread_annotations.h",
    "MutexLock": "common/thread_annotations.h",
    "SharedLock": "common/thread_annotations.h",
    "CondVar": "common/thread_annotations.h",
}

# std header -> src files allowed to include it (empty = banned everywhere).
OWNED_STD_HEADERS = {
    "mutex": ("src/common/thread_annotations.h",),
    "shared_mutex": ("src/common/thread_annotations.h",),
    "condition_variable": ("src/common/thread_annotations.h",),
    "random": (),
    "chrono": ("src/common/stopwatch.h",),
    "ctime": ("src/common/stopwatch.h",),
    "thread": ("src/common/thread_pool.h", "src/common/thread_pool.cc"),
}


def _nolint(findings, source, line):
    raw = source.raw_lines[line - 1] if 0 < line <= len(source.raw_lines) \
        else ""
    return nolint_rules(
        raw, lambda rule: findings.append(Finding(
            "nolint-reason", source.rel, line,
            f"NOLINT(amalur-{rule}) needs a reason: "
            f"`// NOLINT(amalur-{rule}): <why this is safe>`")))


def check(sources, findings):
    for source in sources:
        if not source.rel.startswith(tuple(t + "/" for t in LIBRARY_TREES)):
            continue
        _check_pragma_once(source, findings)
        _check_forbidden_includes(source, findings)
        _check_iwyu(source, findings)


def _check_pragma_once(source, findings):
    if not source.is_header:
        return
    if any(re.match(r"\s*#\s*pragma\s+once\b", code)
           for code in source.code_lines):
        return
    for raw in source.raw_lines[:10]:
        if "NOLINT(amalur-pragma-once)" in raw:
            # Reason check rides on the line's own scan below.
            silenced = nolint_rules(raw, lambda rule: findings.append(Finding(
                "nolint-reason", source.rel, 1,
                f"NOLINT(amalur-{rule}) needs a reason: "
                f"`// NOLINT(amalur-{rule}): <why this is safe>`")))
            if "pragma-once" in silenced:
                return
    findings.append(Finding(
        "pragma-once", source.rel, 1,
        "header lacks `#pragma once` (house style: the pragma, not ifndef "
        "guards)"))


def _check_forbidden_includes(source, findings):
    for lineno, kind, path in source.includes:
        if path.endswith(".cc"):
            if "forbidden-include" in _nolint(findings, source, lineno):
                continue
            findings.append(Finding(
                "forbidden-include", source.rel, lineno,
                f'includes the translation unit "{path}": .cc files are '
                "compiled exactly once by the build; include the header"))
            continue
        if kind != "<":
            continue
        owners = OWNED_STD_HEADERS.get(path)
        if owners is None or source.rel in owners:
            continue
        if "forbidden-include" in _nolint(findings, source, lineno):
            continue
        if owners:
            where = " or ".join(owners)
            findings.append(Finding(
                "forbidden-include", source.rel, lineno,
                f"<{path}> may only be included by {where}; use the house "
                "wrapper it defines instead of the raw std facility"))
        else:
            findings.append(Finding(
                "forbidden-include", source.rel, lineno,
                f"<{path}> is banned: all randomness flows through seeded "
                "common::Rng so runs stay bitwise-reproducible"))


def _check_iwyu(source, findings):
    direct = {path for _, kind, path in source.includes if kind == '"'}
    for token, header in sorted(HOUSE_TYPES.items()):
        if source.rel == "src/" + header:
            continue  # the defining header itself
        if header in direct:
            continue
        first_use = None
        for lineno, line in enumerate(source.code_lines, 1):
            if re.search(rf"\b{token}\b", line):
                first_use = lineno
                break
        if first_use is None:
            continue
        if "iwyu" in _nolint(findings, source, first_use):
            continue
        findings.append(Finding(
            "iwyu", source.rel, first_use,
            f"uses {token} but does not include \"{header}\" directly "
            "(transitive includes break when an intermediate header sheds a "
            "dependency)"))

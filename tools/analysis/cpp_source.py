"""Shared C++ source lexing for the amalur house tools.

Both tools/amalur_lint.py and the tools/analysis passes scan C++ by line with
regexes; everything they share lives here so the two stay in lockstep:

  * strip_comments — blanks comments and string/char literals (raw strings
    included) while preserving line structure, so token scans never fire on
    quoted or commented mentions.
  * NOLINT handling — `// NOLINT(amalur-<rule>): <reason>` per-line escapes,
    with the reason mandatory (a bare NOLINT is itself a finding).
  * SourceFile — one loaded file: raw lines + stripped lines + include list.
"""

import os
import re

NOLINT_RE = re.compile(r"//\s*NOLINT\(amalur-([\w-]+)\)(:?)\s*(\S?)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')

_RAW_PREFIXES = ("R", "u8R", "uR", "UR", "LR")


def _raw_string_at(text, i):
    """If text[i] == '"' opens a raw string literal, returns the prefix start
    index, else None. Handles the R / u8R / uR / UR / LR prefixes."""
    for prefix in _RAW_PREFIXES:
        start = i - len(prefix)
        if start < 0 or text[start:i] != prefix:
            continue
        # The prefix must not be the tail of a longer identifier (e.g. the
        # 'R' in `FooR"..."` is part of the name, not a raw-string prefix).
        if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
            continue
        return start
    return None


def strip_comments(text):
    """Blanks out // and /* */ comments and string/char literals — including
    raw string literals R"delim(...)delim" — preserving line structure, so a
    commented or quoted mention of a forbidden token does not trip a rule.
    NOLINT directives are read from the raw line instead."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                raw_start = _raw_string_at(text, i)
                if raw_start is not None:
                    # Raw string literal: R"delim( ... )delim". The closing
                    # sequence is the only terminator — quotes and escapes
                    # inside are literal text, so the plain `str` state would
                    # desync on them and mask (or fabricate) findings on the
                    # lines after. Blank the body, keep newlines.
                    delim_end = text.find("(", i + 1)
                    if delim_end == -1 or delim_end - (i + 1) > 16:
                        # Malformed; treat as an ordinary string open.
                        state = "str"
                        out.append(" ")
                        i += 1
                        continue
                    delim = text[i + 1:delim_end]
                    closer = ")" + delim + '"'
                    end = text.find(closer, delim_end + 1)
                    end = n if end == -1 else end + len(closer)
                    for ch in text[i:end]:
                        out.append(ch if ch == "\n" else " ")
                    i = end
                    continue
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def nolint_rules(raw_line, report_missing_reason):
    """Returns the set of rules silenced on this raw line. For every NOLINT
    lacking a reason, calls report_missing_reason(rule)."""
    silenced = set()
    for m in NOLINT_RE.finditer(raw_line):
        rule, colon, reason_head = m.group(1), m.group(2), m.group(3)
        if not colon or not reason_head:
            report_missing_reason(rule)
        silenced.add(rule)
    return silenced


class SourceFile:
    """One C++ source file, loaded once and shared by every pass."""

    def __init__(self, root, rel):
        self.rel = rel  # repo-relative, forward slashes
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            self.text = f.read()
        self.raw_lines = self.text.splitlines()
        self.stripped = strip_comments(self.text)
        self.code_lines = self.stripped.splitlines()
        # [(lineno, kind, path)] where kind is '"' for quoted, '<' for system.
        # Matched against the RAW lines: stripping blanks the quoted path as
        # a string literal. A commented-out include cannot match (the comment
        # marker precedes the '#').
        self.includes = []
        for lineno, raw in enumerate(self.raw_lines, 1):
            m = INCLUDE_RE.match(raw)
            if m:
                self.includes.append((lineno, m.group(1), m.group(2)))

    @property
    def is_header(self):
        return self.rel.endswith(".h")


# The trees the analyzer passes scan: the library and its test fixtures.
LIBRARY_TREES = ("src", "testing")


def load_tree(root, subdirs=LIBRARY_TREES, extensions=(".h", ".cc")):
    """Loads every matching source file under root/<subdir>, sorted by path."""
    files = []
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(tuple(extensions)):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                files.append(SourceFile(root, rel.replace(os.sep, "/")))
    files.sort(key=lambda f: f.rel)
    return files

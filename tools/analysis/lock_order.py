"""Static lock-order analysis over the annotated lock wrappers.

The house locking vocabulary is small and uniform — `common::Mutex` /
`common::SharedMutex` members, RAII `MutexLock` / `SharedLock` acquisition
sites, `ParallelFor`/`RunChunks` for pool dispatch — so
the acquired-while-held relation is statically recoverable without a real
C++ frontend:

  1. a scope parser (brace matching over comment/string-stripped text) finds
     every class and function definition;
  2. class bodies yield the mutex-member index (`Class::member`);
  3. function bodies yield ordered events — RAII acquisitions (released when
     their enclosing block closes) and calls;
  4. call targets resolve against the function index (qualified calls
     exactly, unqualified ones by unique simple name, same-name overrides
     conservatively unioned — that is what catches a base-class method that
     locks being called under a derived-class lock);
  5. per-function acquisition summaries close over the call graph to a
     fixpoint, then a replay of each body emits `held -> acquired` edges.

Rules:
  lock-order      the acquired-while-held graph has a cycle (including the
                  length-1 cycle: re-acquiring a held non-recursive mutex).
                  Each edge in the reported cycle carries its file:line.
  pool-under-lock dispatching onto the worker pool while holding any lock:
                  pool workers may block on the same lock (or, worse, the
                  pool's own submit path), so this is a deadlock-in-waiting
                  even when today's callbacks happen not to lock.

Escapes: `// NOLINT(amalur-lock-order): <reason>` /
`// NOLINT(amalur-pool-under-lock): <reason>` on the acquisition or call
line.
"""

import bisect
import re

from cpp_source import LIBRARY_TREES, nolint_rules
from findings import Finding
from include_graph import find_cycle

EXEMPT_FILES = (
    # The primitive layer defines the wrappers themselves; everything it does
    # with std primitives is below the vocabulary this analysis speaks.
    "src/common/thread_annotations.h",
)

DISPATCH_NAMES = ("ParallelFor", "RunChunks")
POOL = "<worker-pool>"

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignof", "decltype", "operator", "throw", "new", "delete",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "static_assert", "defined", "noexcept", "alignas",
}
SKIP_QUALIFIERS = {"std", "chrono", "this_thread", "numeric_limits"}

MEMBER_RE = re.compile(
    r"\b(?:common::)?(Mutex|SharedMutex)\s+(\w+)\s*(?:GUARDED_BY\([^)]*\)\s*)?;")
ACQ_RE = re.compile(
    r"\b(?:common::)?(MutexLock|SharedLock)\s+\w+\s*\(\s*([^()]+?)\s*\)")
CALL_RE = re.compile(
    r"((?:\w+\s*::\s*)*)([A-Za-z_~]\w*)\s*(?:<[^<>;(){}]*>)?\s*\(")
FUNC_NAME_RE = re.compile(r"([A-Za-z_~]\w*(?:::~?[A-Za-z_]\w*)*)\s*\(")
PREPROC_RE = re.compile(r"^\s*#")


class Scope:
    def __init__(self, kind, name, parent, open_pos):
        self.kind = kind      # namespace | class | function | block
        self.name = name
        self.parent = parent
        self.open_pos = open_pos
        self.close_pos = None
        self.children = []
        if parent is not None:
            parent.children.append(self)

    def enclosing(self, kind):
        scope = self
        while scope is not None:
            if scope.kind == kind:
                return scope
            scope = scope.parent
        return None


def _blank_preprocessor(stripped):
    """Blanks preprocessor directives (with their backslash continuations):
    macro bodies are not statements of any scope, and their braces/parens
    would desync the scope parser."""
    out = []
    in_directive = False
    for line in stripped.split("\n"):
        if in_directive or PREPROC_RE.match(line):
            in_directive = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            out.append(line)
    return "\n".join(out)


def _classify_head(head):
    head = head.strip()
    if not head:
        return ("block", None)
    if head.startswith("namespace"):
        tokens = re.findall(r"[\w:]+", head)
        return ("namespace", tokens[1] if len(tokens) > 1 else "<anon>")
    if re.search(r"\benum\b", head):
        return ("block", None)
    if re.search(r"\b(?:class|struct|union)\b", head):
        # Drop the base-clause (single ':' — '::' survives), then the class
        # name is the last identifier token that is not a keyword.
        decl = re.split(r"(?<!:):(?!:)", head)[0]
        tokens = [t for t in re.findall(r"[A-Za-z_~][\w:]*", decl)
                  if t not in ("class", "struct", "union", "final",
                               "template", "typename", "alignas")]
        if tokens:
            return ("class", tokens[-1])
        return ("block", None)
    if head.endswith("=") or head.endswith(","):
        return ("block", None)  # brace initializer
    m = FUNC_NAME_RE.search(head)
    if m and m.group(1).split("::")[-1] not in CONTROL_KEYWORDS \
            and m.group(1).split("::")[0] not in CONTROL_KEYWORDS:
        return ("function", m.group(1))
    return ("block", None)


def parse_scopes(stripped):
    """Brace-matching scope parser over stripped (and directive-blanked)
    text. Returns (root_scope, blanked_text)."""
    text = _blank_preprocessor(stripped)
    root = Scope("namespace", "<file>", None, 0)
    current = root
    head_start = 0
    paren_depth = 0
    for i, c in enumerate(text):
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
        elif c == ";" and paren_depth == 0:
            head_start = i + 1
        elif c == "{" and paren_depth == 0:
            kind, name = _classify_head(text[head_start:i])
            current = Scope(kind, name, current, i)
            head_start = i + 1
        elif c == "}" and paren_depth == 0:
            current.close_pos = i
            if current.parent is not None:
                current = current.parent
            head_start = i + 1
    return root, text


def _walk(scope):
    yield scope
    for child in scope.children:
        yield from _walk(child)


def _span_blanked(text, scope):
    """The body of `scope` with every nested class/function sub-scope blanked
    (those have their own owners), newlines preserved."""
    start = scope.open_pos + 1
    end = scope.close_pos if scope.close_pos is not None else len(text)
    chars = list(text[start:end])
    for child in scope.children:
        if child.kind not in ("class", "function"):
            continue
        c_end = child.close_pos if child.close_pos is not None else end
        for j in range(child.open_pos - start, min(c_end + 1 - start,
                                                   len(chars))):
            if chars[j] != "\n":
                chars[j] = " "
    return start, "".join(chars)


class FunctionInfo:
    def __init__(self, qualified, rel):
        self.qualified = qualified  # Class::Name or bare name
        self.rel = rel
        self.events = []   # ordered: ("acq", node, line) | ("call", qual, name, line, held_tuple)
        self.direct_acquires = set()


def _line_of(line_starts, pos):
    # line_starts holds the offset of every '\n'; pos after k of them is on
    # 1-indexed line k+1.
    return bisect.bisect_right(line_starts, pos) + 1


def _resolve_lock_expr(expr, class_name, members, member_owners):
    """Maps a MutexLock argument expression to a canonical lock node."""
    expr = expr.replace("&", "").replace("*", "").strip()
    member = re.split(r"->|\.", expr)[-1].strip()
    if not re.fullmatch(r"\w+", member):
        return None
    if class_name and (class_name, member) in members:
        return f"{class_name}::{member}"
    owners = member_owners.get(member, [])
    if len(owners) == 1:
        return f"{owners[0]}::{member}"
    # Ambiguous or unknown: keep it distinct per enclosing context so
    # unrelated locks never merge into one node (which could fabricate
    # cycles), but same-context uses still line up.
    scope = class_name if class_name else "<local>"
    return f"{scope}::{member}"


def analyze(sources, findings):
    sources = [s for s in sources
               if s.rel.startswith(tuple(t + "/" for t in LIBRARY_TREES))
               and s.rel not in EXEMPT_FILES]

    members = {}        # (class, member) -> kind
    member_owners = {}  # member -> [class...]
    functions = {}      # qualified -> FunctionInfo (events merged on overload)
    by_simple = {}      # simple name -> set of qualified names
    parsed = []

    for source in sources:
        root, text = parse_scopes(source.stripped)
        line_starts = [m.start() for m in re.finditer(r"\n", text)]
        parsed.append((source, root, text, line_starts))
        for scope in _walk(root):
            if scope.kind != "class" or scope.name is None:
                continue
            _, body = _span_blanked(text, scope)
            for m in MEMBER_RE.finditer(body):
                members[(scope.name, m.group(2))] = m.group(1)
                member_owners.setdefault(m.group(2), [])
                if scope.name not in member_owners[m.group(2)]:
                    member_owners[m.group(2)].append(scope.name)

    for source, root, text, line_starts in parsed:
        for scope in _walk(root):
            if scope.kind != "function" or scope.name is None:
                continue
            name = scope.name
            if "::" in name:
                class_name, simple = name.rsplit("::", 1)
                class_name = class_name.split("::")[-1] \
                    if "::" in class_name else class_name
                qualified = f"{class_name}::{simple}"
            else:
                enclosing = scope.parent.enclosing("class") \
                    if scope.parent else None
                class_name = enclosing.name if enclosing else None
                simple = name
                qualified = f"{class_name}::{simple}" if class_name else simple
            info = functions.setdefault(qualified,
                                        FunctionInfo(qualified, source.rel))
            by_simple.setdefault(simple, set()).add(qualified)

            start, body = _span_blanked(text, scope)
            tokens = []
            acq_spans = []
            for m in ACQ_RE.finditer(body):
                node = _resolve_lock_expr(m.group(2), class_name, members,
                                          member_owners)
                if node:
                    tokens.append((m.start(), "acq", node))
                acq_spans.append((m.start(), m.end()))
            call_body = list(body)
            for a, b in acq_spans:
                for j in range(a, b):
                    if call_body[j] != "\n":
                        call_body[j] = " "
            call_body = "".join(call_body)
            for m in CALL_RE.finditer(call_body):
                qualifier = m.group(1).replace(" ", "").rstrip(":")
                callee = m.group(2)
                if callee in CONTROL_KEYWORDS:
                    continue
                if qualifier.split("::")[0] in SKIP_QUALIFIERS:
                    continue
                tokens.append((m.start(), "call", (qualifier, callee)))
            for j, c in enumerate(body):
                if c in "{}":
                    tokens.append((j, c, None))
            tokens.sort(key=lambda t: t[0])

            depth = 0
            held = []  # (node, depth, line)
            for pos, kind, payload in tokens:
                line = _line_of(line_starts, start + pos)
                if kind == "{":
                    depth += 1
                elif kind == "}":
                    depth -= 1
                    while held and held[-1][1] > depth:
                        held.pop()
                elif kind == "acq":
                    info.events.append(
                        ("acq", payload, line,
                         tuple(h[0] for h in held)))
                    info.direct_acquires.add(payload)
                    held.append((payload, depth, line))
                elif kind == "call":
                    info.events.append(
                        ("call", payload, line, tuple(h[0] for h in held)))

    def resolve_call(qualifier, callee):
        if qualifier:
            tail = qualifier.split("::")[-1]
            exact = f"{tail}::{callee}"
            if exact in functions:
                return [exact]
        if callee in by_simple:
            return sorted(by_simple[callee])
        return []

    # Fixpoint: transitive acquisition summaries over the call graph.
    closure = {q: set(f.direct_acquires) for q, f in functions.items()}
    changed = True
    while changed:
        changed = False
        for q, f in functions.items():
            for kind, payload, _, _ in f.events:
                if kind != "call":
                    continue
                qualifier, callee = payload
                extra = {POOL} if callee in DISPATCH_NAMES else set()
                for target in resolve_call(qualifier, callee):
                    extra |= closure[target]
                if not extra <= closure[q]:
                    closure[q] |= extra
                    changed = True

    # Replay every body once more to materialize held -> acquired edges.
    edges = {}  # (held, acquired) -> (rel, line, note)
    reported = set()
    raw_by_rel = {s.rel: s.raw_lines for s in sources}

    def silenced(rule, rel, line):
        raw = raw_by_rel[rel][line - 1] if 0 < line <= len(raw_by_rel[rel]) \
            else ""
        return rule in nolint_rules(
            raw, lambda r: _report_nolint(findings, reported, r, rel, line))

    for q, f in functions.items():
        for kind, payload, line, held in f.events:
            if not held:
                continue
            if kind == "acq":
                acquired = {payload}
                note = ""
            else:
                qualifier, callee = payload
                acquired = set()
                for target in resolve_call(qualifier, callee):
                    acquired |= closure[target]
                if callee in DISPATCH_NAMES or POOL in acquired:
                    acquired.discard(POOL)
                    if not silenced("pool-under-lock", f.rel, line):
                        key = ("pool-under-lock", f.rel, line)
                        if key not in reported:
                            reported.add(key)
                            findings.append(Finding(
                                "pool-under-lock", f.rel, line,
                                f"{q} dispatches onto the worker pool (via "
                                f"{callee}) while holding "
                                f"{', '.join(sorted(held))}: pool workers "
                                "may block on the same lock, deadlocking "
                                "the dispatch"))
                    continue
                acquired.discard(POOL)
                note = f" (via call to {callee})"
            for h in held:
                for a in acquired:
                    if silenced("lock-order", f.rel, line):
                        continue
                    edges.setdefault((h, a), (f.rel, line, note))

    for (h, a), (rel, line, note) in sorted(edges.items()):
        if h == a:
            key = ("lock-order", rel, line)
            if key not in reported:
                reported.add(key)
                findings.append(Finding(
                    "lock-order", rel, line,
                    f"{a} is acquired while already held{note}: the wrappers "
                    "are non-recursive, this self-deadlocks"))

    nodes = {n for e in edges for n in e}
    successors = {}
    for h, a in edges:
        if h != a:
            successors.setdefault(h, set()).add(a)
    cycle = find_cycle(nodes, successors)
    if cycle:
        sites = []
        for h, a in zip(cycle, cycle[1:]):
            rel, line, note = edges[(h, a)]
            sites.append(f"{h} -> {a} at {rel}:{line}{note}")
        rel, line, _ = edges[(cycle[0], cycle[1])]
        findings.append(Finding(
            "lock-order", rel, line,
            "lock-order cycle (potential deadlock): " +
            "; ".join(sites) +
            " — pick one global order for these locks"))

    return edges


def _report_nolint(findings, reported, rule, rel, line):
    key = ("nolint-reason", rel, line, rule)
    if key in reported:
        return
    reported.add(key)
    findings.append(Finding(
        "nolint-reason", rel, line,
        f"NOLINT(amalur-{rule}) needs a reason: "
        f"`// NOLINT(amalur-{rule}): <why this is safe>`"))

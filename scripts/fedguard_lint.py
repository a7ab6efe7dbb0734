#!/usr/bin/env python3
"""fedguard-lint: project-specific invariant checks that generic tools cannot
express. Layer 2 of the static-analysis gate (see docs/STATIC_ANALYSIS.md).

Rules
-----
rng                  All randomness must flow through util::rng. No std::rand,
                     srand, std::random_device, or raw standard-library engine
                     construction (mt19937 & friends) outside src/util/rng.*.
                     Anything else silently forks the reproducibility story.
unordered-iteration  No iteration over std::unordered_map / std::unordered_set
                     in src/defenses/, src/fl/, src/net/, or
                     src/util/serialize.* — bucket order is
                     implementation-defined, so iterating one in aggregation,
                     federation, or wire-framing code is a hidden
                     nondeterminism hazard.
stdout               Library code (src/) must not write to stdout directly
                     (std::cout, printf, puts, ...). Use util::logging so
                     verbosity and formatting stay centrally controlled.
                     src/util/logging.* is the one exempt location.
naked-new            No naked `new` / `delete` anywhere; use containers,
                     std::make_unique, or std::make_shared.
test-timeout         Every fedguard_add_test() call must carry a TIMEOUT so a
                     hung test can never wedge the suite (the rule that already
                     protects the `net` label, made universal).
config-docs          Every descriptor config key parsed in
                     src/core/config_file.cpp (including all fault_*/remote_*/
                     kernel_* keys) must be documented somewhere under docs/.
no-pointset-copy     No re-concatenation of ψ update vectors in src/defenses/
                     (insert(xxx.end(), ...psi...)). The round arena makes
                     sub-selection an index operation: build an UpdateView /
                     PointsView selection instead of copying point sets.
no-raw-stopwatch     No util::Stopwatch in src/fl/, src/net/, or src/defenses/.
                     Round-path timing must come from obs::now_ns() so trace
                     spans and RoundRecord::round_seconds share one clock
                     domain (Table V timing can never disagree with the trace).
span-category-docs   Every string-literal category passed to
                     FEDGUARD_TRACE_SPAN must appear in docs/OBSERVABILITY.md —
                     the span taxonomy is a documented contract, not folklore.
                     Dynamic categories (e.g. std::string{"agg."} + name())
                     are covered by the documented agg.<strategy> pattern.
                     Likewise every metric name (or static name prefix, when
                     the registration concatenates a label) passed to
                     Registry::counter/gauge/histogram in src/ must appear in
                     docs/OBSERVABILITY.md: a scrape endpoint exporting
                     undocumented series is folklore too.
no-raw-intrinsics    No raw SIMD intrinsics (<immintrin.h>, _mm*_ calls,
                     __m128/__m256/__m512 types) outside src/tensor/kernels/.
                     The kernel TUs are the only code compiled with widened
                     ISA flags behind the runtime cpuid gate; an intrinsic
                     anywhere else either fails to compile or, worse, sneaks
                     past the gate and SIGILLs on older hosts.
sweep-roster         Every enumerator with a case in the AttackType → string
                     switch of src/attacks/attack.cpp must be listed in
                     attacks::kAllAttackTypes (src/attacks/attack.hpp), and
                     every StrategyKind case in src/core/experiment.cpp in
                     core::kAllStrategyKinds (src/core/experiment.hpp). The
                     full robustness matrix sweeps those arrays, so a new
                     attack or defense cannot silently stay off the
                     leaderboard.
layering             The #include graph over src/ must respect the
                     architecture layer DAG (util -> parallel -> tensor ->
                     data/nn -> models -> attacks/defenses -> fl -> net ->
                     core -> scenario, with obs includable from every layer
                     above util) and contain no file-level include cycles.
                     A back-edge (e.g. tensor -> defenses) would silently
                     erode the layering that keeps the serial-kernel
                     determinism oracle auditable.
no-unannotated-mutex Every mutex member in src/ must be a util::Mutex /
                     util::SharedMutex (std::mutex carries no capability
                     attributes, so clang's thread-safety analysis cannot see
                     it) and must be named by at least one FEDGUARD_*
                     annotation (GUARDED_BY / PT_GUARDED_BY / REQUIRES /
                     ACQUIRE / EXCLUDES) in the same file — a lock nothing
                     declares a contract against protects nothing.
                     src/util/thread_annotations.hpp is the one exempt
                     location (it implements the wrappers).
no-const-cast-mutex  No const_cast on a mutex. A mutex locked from a const
                     method is synchronization state, not logical state:
                     declare it mutable.
lock-discipline      No raw .lock()/.unlock() calls in src/ outside the RAII
                     guards in src/util/thread_annotations.hpp. Manual
                     lock/unlock pairs leak on early return and exceptions
                     and are invisible to scoped-capability analysis.
no-blocking-socket   No blocking socket calls (::poll, send_all, recv_all,
                     receive_message, accept_within, SO_RCVTIMEO/SO_SNDTIMEO
                     deadlines) in src/net/reactor*/shard* files. The reactor
                     tier holds thousands of connections on one thread; a
                     single blocking call stalls every one of them. Use the
                     edge-triggered read_some/write_some state machines and
                     epoll timeouts instead.

Allowlist
---------
Append an inline annotation to the offending line (or place it on the line
directly above):

    legacy_call();  // fedguard-lint: allow(stdout) CLI banner, not library path

The justification text after the closing parenthesis is mandatory; an
allow() without one is itself reported. `allow(all)` suppresses every rule
for that line.

Usage: fedguard_lint.py [--root DIR] [--list-rules] [--verbose]
Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_ROOTS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
# Fixture trees carry deliberate violations for tests/test_lint.py; they are
# skipped unless the scan root itself points inside one.
EXCLUDED_DIR_NAMES = {"lint_fixtures", "build"}

RULES = {
    "rng": "randomness outside util::rng",
    "unordered-iteration": "iteration over unordered container in deterministic code",
    "stdout": "direct stdout write in library code (use util::logging)",
    "naked-new": "naked new/delete (use RAII wrappers)",
    "test-timeout": "fedguard_add_test without a TIMEOUT",
    "config-docs": "config key referenced in code but not documented in docs/",
    "no-pointset-copy": "psi re-concatenation in a defense (use an UpdateView selection)",
    "no-raw-stopwatch": "util::Stopwatch in round-path code (use obs::now_ns)",
    "span-category-docs": "span category or metric name missing from docs/OBSERVABILITY.md",
    "no-raw-intrinsics": "raw SIMD intrinsics outside src/tensor/kernels/",
    "sweep-roster": "attack/strategy enumerator missing from its kAll* sweep roster",
    "layering": "include crosses the architecture layer DAG backwards (or cycles)",
    "no-unannotated-mutex": "mutex member with no FEDGUARD_* annotation naming it",
    "no-const-cast-mutex": "const_cast on a mutex (declare it mutable instead)",
    "lock-discipline": "raw .lock()/.unlock() outside the RAII guards",
    "no-blocking-socket": "blocking socket call in a reactor-tier file",
    "allow-justification": "fedguard-lint allow() without a justification",
}

# `//` in C++, `#` in CMake files.
ALLOW_RE = re.compile(
    r"(?://|#)\s*fedguard-lint:\s*allow\(([a-z-]+)\)\s*(.*?)\s*$"
)

RNG_FORBIDDEN = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b"
    r"|\bminstd_rand0?\b|\bdefault_random_engine\b|\branlux(?:24|48)\b|\bknuth_b\b"
)

STDOUT_FORBIDDEN = re.compile(
    r"std::cout\b|std::clog\b|(?<![\w.])printf\s*\(|\bputs\s*\("
    r"|\bfprintf\s*\(\s*stdout\b|\bfputs\s*\([^,)]*,\s*stdout\s*\)"
)

NAKED_NEW = re.compile(r"\bnew\s+[A-Za-z_:(<]|\bnew\s*\[|\bdelete\s*\[\s*\]|\bdelete\s+[A-Za-z_*(]")

UNORDERED_DECL = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_SCOPE_DIRS = ("src/defenses", "src/fl", "src/net")
UNORDERED_SCOPE_FILES = ("src/util/serialize.cpp", "src/util/serialize.hpp")

CONFIG_KEY_RE = re.compile(r'key\s*==\s*"([a-z0-9_]+)"|values\.find\("([a-z0-9_]+)"\)')

# Appending psi data to a growing buffer inside a defense reintroduces the
# per-iteration point-set copies the round arena exists to eliminate.
POINTSET_COPY = re.compile(r"\.insert\s*\(\s*\w+\s*\.\s*end\s*\(\s*\)\s*,[^;]*psi")
POINTSET_SCOPE_DIR = "src/defenses/"

# Round-path code must time through obs::now_ns (the tracer clock) so spans
# and RoundRecord::round_seconds can never disagree by clock domain.
STOPWATCH_RE = re.compile(r"\butil::Stopwatch\b")
STOPWATCH_SCOPE_DIRS = ("src/fl", "src/net", "src/defenses")

# String-literal span categories; dynamic first arguments (no leading quote)
# are exempt and covered by the documented agg.<strategy> pattern.
SPAN_CATEGORY_RE = re.compile(r'FEDGUARD_TRACE_SPAN\s*\(\s*"([^"]+)"')

# String-literal metric registrations (registry.counter("...") etc.) in src/;
# the captured leading literal is the name (or its static prefix when the call
# concatenates a label). Fully dynamic names (with_origin_label(...)) carry no
# leading quote and are exempt — they share a documented literal prefix.
METRIC_NAME_RE = re.compile(
    r'\.\s*(?:counter|gauge|histogram)\s*\(\s*"([A-Za-z_][A-Za-z0-9_]*)')
METRIC_DOCS_SCOPE_DIR = "src/"

# Raw SIMD intrinsics are confined to the runtime-dispatched kernel TUs: the
# intrinsic headers, _mm*_ calls, and vector register types.
INTRINSICS_RE = re.compile(
    r"#\s*include\s*<[a-z0-9_]*intrin\.h>|#\s*include\s*<arm_neon\.h>"
    r"|\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b"
)
INTRINSICS_SCOPE_DIR = "src/tensor/kernels/"

# Enum → string switches whose every case must name an enumerator listed in
# the matching kAll* array, the roster the full robustness matrix sweeps:
# (to_string source, enum, array header, array name). The case pattern runs
# over raw text: it keys on the `return "name"` that marks a to_string case,
# and a case split across lines must still match.
SWEEP_ROSTERS = (
    ("src/attacks/attack.cpp", "AttackType", "src/attacks/attack.hpp", "kAllAttackTypes"),
    ("src/core/experiment.cpp", "StrategyKind", "src/core/experiment.hpp",
     "kAllStrategyKinds"),
)

# ---- Architecture layering (rule: layering) ---------------------------------
# Rank order of the enforced layer DAG over src/. A file may include only its
# own directory, strictly lower ranks, and `obs` (the observability layer is
# includable from everywhere above util — it must stay reachable from any
# layer without creating an edge the DAG doesn't already have). `obs` itself
# may reach only util. Derived from the dependency structure the tree has
# maintained since the seed; see docs/STATIC_ANALYSIS.md for the diagram.
LAYER_RANK = {
    "util": 0,
    "parallel": 1,
    "tensor": 2,
    "data": 3,
    "nn": 3,
    "models": 4,
    "attacks": 5,
    "defenses": 5,
    "fl": 6,
    "net": 7,
    "core": 8,
    "scenario": 9,
}
OBS_LAYER = "obs"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# ---- Lock discipline (rules: no-unannotated-mutex, no-const-cast-mutex,
#      lock-discipline) -------------------------------------------------------
# The annotated wrappers (and their raw std::mutex internals) live here; the
# mutex rules exempt this one file.
THREAD_ANNOTATIONS_FILE = "src/util/thread_annotations.hpp"

MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(std::mutex|std::shared_mutex|(?:util::)?(?:Mutex|SharedMutex))"
    r"\s+(\w+)\s*;")
CONST_CAST_MUTEX_RE = re.compile(r"const_cast\s*<[^<>;]*[Mm]utex[^<>;]*>")
RAW_LOCK_RE = re.compile(r"(?:\.|->)\s*(lock|unlock)\s*\(")

# -- no-blocking-socket (reactor-tier files must never block) -----------------
# Scope: src/net/ files whose basename starts with "reactor" or "shard" — the
# single-threaded event-loop tier. Any of these calls stalls every connection
# the loop holds.
BLOCKING_SOCKET_RE = re.compile(
    r"::poll\s*\(|\b(?:recv_all|send_all|receive_message|accept_within|"
    r"set_receive_timeout|set_send_timeout)\s*\(")


def in_reactor_scope(relpath: str) -> bool:
    if not relpath.startswith("src/net/"):
        return False
    basename = relpath.rsplit("/", 1)[-1]
    return basename.startswith("reactor") or basename.startswith("shard")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure,
    so token scans never match inside documentation or message text."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


def parse_allows(lines: list[str], relpath: str) -> tuple[dict[int, set[str]], list[Violation]]:
    """Map line number -> allowed rules. An annotation covers its own line and
    the next line (so a comment can sit above the code it excuses)."""
    allows: dict[int, set[str]] = {}
    problems: list[Violation] = []
    for idx, line in enumerate(lines, start=1):
        match = ALLOW_RE.search(line)
        if not match:
            continue
        rule, justification = match.group(1), match.group(2)
        if rule != "all" and rule not in RULES:
            problems.append(Violation(relpath, idx, "allow-justification",
                                      f"allow() names unknown rule '{rule}'"))
            continue
        if not justification:
            problems.append(Violation(relpath, idx, "allow-justification",
                                      "allow() requires a one-line justification"))
            continue
        for covered in (idx, idx + 1):
            allows.setdefault(covered, set()).add(rule)
    return allows, problems


def allowed(allows: dict[int, set[str]], line: int, rule: str) -> bool:
    granted = allows.get(line, set())
    return rule in granted or "all" in granted


def in_unordered_scope(relpath: str) -> bool:
    return relpath in UNORDERED_SCOPE_FILES or any(
        relpath.startswith(d + "/") for d in UNORDERED_SCOPE_DIRS
    )


def check_source_file(path: Path, relpath: str) -> list[Violation]:
    text = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = text.splitlines()
    allows, violations = parse_allows(raw_lines, relpath)
    code_lines = strip_comments_and_strings(text).splitlines()

    # Names of unordered containers declared in this file, for the iteration
    # check (declaration and membership lookups are fine; iteration is not).
    unordered_names: set[str] = set()
    if in_unordered_scope(relpath):
        for line in code_lines:
            for match in re.finditer(
                    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{=]*>\s+(\w+)", line):
                unordered_names.add(match.group(1))

    for idx, line in enumerate(code_lines, start=1):
        if relpath not in ("src/util/rng.cpp", "src/util/rng.hpp"):
            match = RNG_FORBIDDEN.search(line)
            if match and not allowed(allows, idx, "rng"):
                violations.append(Violation(
                    relpath, idx, "rng",
                    f"'{match.group(0).strip()}' bypasses util::rng; derive an Rng "
                    "from the experiment seed instead"))

        if relpath.startswith("src/") and not relpath.startswith("src/util/logging."):
            match = STDOUT_FORBIDDEN.search(line)
            if match and not allowed(allows, idx, "stdout"):
                violations.append(Violation(
                    relpath, idx, "stdout",
                    f"'{match.group(0).strip()}' writes to stdout from library code; "
                    "use util::log_info/log_debug"))

        match = NAKED_NEW.search(line)
        if match and not allowed(allows, idx, "naked-new"):
            violations.append(Violation(
                relpath, idx, "naked-new",
                f"'{match.group(0).strip()}' is a naked allocation; use a container "
                "or std::make_unique"))

        if relpath.startswith(POINTSET_SCOPE_DIR):
            match = POINTSET_COPY.search(line)
            if match and not allowed(allows, idx, "no-pointset-copy"):
                violations.append(Violation(
                    relpath, idx, "no-pointset-copy",
                    "re-concatenating psi vectors copies the point set; select "
                    "rows through an UpdateView/PointsView index selection instead"))

        if not relpath.startswith(INTRINSICS_SCOPE_DIR):
            match = INTRINSICS_RE.search(line)
            if match and not allowed(allows, idx, "no-raw-intrinsics"):
                violations.append(Violation(
                    relpath, idx, "no-raw-intrinsics",
                    f"'{match.group(0).strip()}' uses raw SIMD intrinsics outside "
                    "src/tensor/kernels/; go through the tensor::kernels dispatch "
                    "table so the cpuid gate stays the single point of ISA selection"))

        if relpath.startswith("src/") and relpath != THREAD_ANNOTATIONS_FILE:
            match = CONST_CAST_MUTEX_RE.search(line)
            if match and not allowed(allows, idx, "no-const-cast-mutex"):
                violations.append(Violation(
                    relpath, idx, "no-const-cast-mutex",
                    f"'{match.group(0).strip()}' casts constness off a mutex; a "
                    "lock taken from a const method is synchronization state — "
                    "declare the mutex mutable"))

            match = RAW_LOCK_RE.search(line)
            if match and not allowed(allows, idx, "lock-discipline"):
                violations.append(Violation(
                    relpath, idx, "lock-discipline",
                    f"raw .{match.group(1)}() call; manual lock/unlock leaks on "
                    "early return and is invisible to scoped-capability "
                    "analysis — use util::MutexLock (or another RAII guard)"))

        if in_reactor_scope(relpath):
            match = BLOCKING_SOCKET_RE.search(line)
            if match and not allowed(allows, idx, "no-blocking-socket"):
                violations.append(Violation(
                    relpath, idx, "no-blocking-socket",
                    f"'{match.group(0).strip()}' blocks the reactor thread — one "
                    "stalled call freezes every connection this loop holds; use "
                    "the non-blocking read_some/write_some state machines and "
                    "epoll timeouts instead"))

        if any(relpath.startswith(d + "/") for d in STOPWATCH_SCOPE_DIRS):
            match = STOPWATCH_RE.search(line)
            if match and not allowed(allows, idx, "no-raw-stopwatch"):
                violations.append(Violation(
                    relpath, idx, "no-raw-stopwatch",
                    "util::Stopwatch in round-path code forks the clock domain; "
                    "time with obs::now_ns() so spans and round_seconds agree"))

        if in_unordered_scope(relpath):
            hit = None
            range_for = re.search(r"\bfor\s*\(.*:\s*([^)]+)\)", line)
            if range_for:
                expr = range_for.group(1).strip()
                expr_head = re.split(r"[.\->\[(]", expr)[0].strip()
                if "unordered" in expr or expr_head in unordered_names:
                    hit = f"range-for over unordered container '{expr}'"
            if hit is None:
                for name in unordered_names:
                    if re.search(rf"\b{re.escape(name)}\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(", line):
                        hit = f"iterator walk over unordered container '{name}'"
                        break
            if hit and not allowed(allows, idx, "unordered-iteration"):
                violations.append(Violation(
                    relpath, idx, "unordered-iteration",
                    hit + "; bucket order is implementation-defined — use std::map, "
                    "std::vector, or sort the keys first"))

    # Mutex members must be analyzable: util::Mutex (std::mutex carries no
    # capability attributes) and named by at least one FEDGUARD_* annotation
    # in this file, so every lock has a declared contract.
    if relpath.startswith("src/") and relpath != THREAD_ANNOTATIONS_FILE:
        stripped_text = "\n".join(code_lines)
        for idx, line in enumerate(code_lines, start=1):
            decl = MUTEX_DECL_RE.match(line)
            if decl is None or allowed(allows, idx, "no-unannotated-mutex"):
                continue
            mutex_type, name = decl.group(1), decl.group(2)
            if mutex_type.startswith("std::"):
                violations.append(Violation(
                    relpath, idx, "no-unannotated-mutex",
                    f"'{mutex_type} {name}' is invisible to clang thread-safety "
                    "analysis; declare it util::Mutex / util::SharedMutex "
                    "(src/util/thread_annotations.hpp) and annotate what it "
                    "guards"))
            elif not re.search(
                    rf"FEDGUARD_[A-Z_]+\s*\([^)]*\b{re.escape(name)}\b",
                    stripped_text):
                violations.append(Violation(
                    relpath, idx, "no-unannotated-mutex",
                    f"no FEDGUARD_* annotation names '{name}' in this file; a "
                    "lock nothing declares a contract against protects nothing "
                    "(add FEDGUARD_GUARDED_BY/REQUIRES uses, or allow() with "
                    "the reason the guarded resource cannot be named)"))

    return violations


def layer_of(relpath: str) -> str | None:
    """src/<layer>/... -> <layer>; None for files outside a known layer."""
    parts = relpath.split("/")
    if len(parts) < 3 or parts[0] != "src":
        return None
    if parts[1] in LAYER_RANK or parts[1] == OBS_LAYER:
        return parts[1]
    return None


def check_layering(root: Path) -> list[Violation]:
    """Architecture DAG over the #include graph of src/ (rule: layering).

    Two passes: (1) every quoted include must stay within the including
    file's own layer, a strictly lower-ranked layer, or obs (obs itself may
    reach only util); (2) the file-level include graph must be acyclic — a
    cycle is a layering failure even when every edge individually points
    down, and the offending chain is printed."""
    violations: list[Violation] = []
    sources: dict[str, list[str]] = {}  # relpath -> raw lines
    for path, relpath in iter_source_files(root):
        if layer_of(relpath) is not None:
            sources[relpath] = path.read_text(
                encoding="utf-8", errors="replace").splitlines()

    # Pass 1: directory-level DAG.
    edges: dict[str, list[tuple[int, str]]] = {}  # relpath -> [(line, include)]
    for relpath in sorted(sources):
        lines = sources[relpath]
        allows, _ = parse_allows(lines, relpath)  # allow problems reported once
        from_layer = layer_of(relpath)
        edges[relpath] = []
        for idx, line in enumerate(lines, start=1):
            match = INCLUDE_RE.match(line)
            if not match:
                continue
            include = match.group(1)
            edges[relpath].append((idx, include))
            to_layer = include.split("/", 1)[0]
            if to_layer not in LAYER_RANK and to_layer != OBS_LAYER:
                continue  # relative or third-party include; not a layer edge
            if to_layer == from_layer:
                continue
            if to_layer == OBS_LAYER:
                if from_layer != "util":
                    continue  # obs is includable from every layer above util
            elif from_layer == OBS_LAYER:
                if to_layer == "util":
                    continue  # obs sits directly above util
            elif LAYER_RANK[to_layer] < LAYER_RANK[from_layer]:
                continue
            if allowed(allows, idx, "layering"):
                continue
            violations.append(Violation(
                relpath, idx, "layering",
                f'#include "{include}" is a back-edge: layer \'{from_layer}\' '
                f"must not depend on '{to_layer}' (enforced DAG: "
                "util -> parallel -> tensor -> data/nn -> models -> "
                "attacks/defenses -> fl -> net -> core -> scenario; obs "
                "reachable from every layer above util)"))

    # Pass 2: file-level cycles, over includes that resolve inside src/.
    graph: dict[str, list[tuple[int, str]]] = {}
    for relpath, incs in edges.items():
        graph[relpath] = [(idx, "src/" + inc) for idx, inc in incs
                          if "src/" + inc in sources]
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    stack: list[str] = []

    def visit(node: str) -> None:
        color[node] = GREY
        stack.append(node)
        for idx, target in graph[node]:
            if color[target] == GREY:
                chain = stack[stack.index(target):] + [target]
                violations.append(Violation(
                    node, idx, "layering",
                    "include cycle: " + " -> ".join(chain)))
            elif color[target] == WHITE:
                visit(target)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            visit(node)
    return violations


def check_test_timeouts(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    cmake = root / "tests" / "CMakeLists.txt"
    if not cmake.is_file():
        return violations
    relpath = "tests/CMakeLists.txt"
    lines = cmake.read_text(encoding="utf-8").splitlines()
    allows, problems = parse_allows(lines, relpath)
    violations.extend(problems)
    # Each fedguard_add_test(...) call (possibly spanning lines) must name
    # TIMEOUT. The function definition itself is skipped.
    idx = 0
    while idx < len(lines):
        line = lines[idx].split("#")[0]
        call = re.search(r"^\s*fedguard_add_test\s*\(", line)
        if not call:
            idx += 1
            continue
        start = idx
        depth = 0
        body = []
        while idx < len(lines):
            chunk = lines[idx].split("#")[0]
            depth += chunk.count("(") - chunk.count(")")
            body.append(chunk)
            idx += 1
            if depth <= 0:
                break
        body_text = "\n".join(body)
        if "TIMEOUT" not in body_text and not allowed(allows, start + 1, "test-timeout"):
            name = re.search(r"fedguard_add_test\s*\(\s*(\w+)", body_text)
            violations.append(Violation(
                relpath, start + 1, "test-timeout",
                f"fedguard_add_test({name.group(1) if name else '?'}) has no TIMEOUT; "
                "a hung test would wedge the suite"))
    return violations


def check_config_docs(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    config_cpp = root / "src" / "core" / "config_file.cpp"
    if not config_cpp.is_file():
        return violations
    relpath = "src/core/config_file.cpp"
    lines = config_cpp.read_text(encoding="utf-8").splitlines()
    allows, problems = parse_allows(lines, relpath)
    violations.extend(problems)

    docs_text = ""
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        for doc in sorted(docs_dir.glob("**/*.md")):
            docs_text += doc.read_text(encoding="utf-8", errors="replace")

    for idx, line in enumerate(lines, start=1):
        for match in CONFIG_KEY_RE.finditer(line):
            key = match.group(1) or match.group(2)
            if key in docs_text:
                continue
            if allowed(allows, idx, "config-docs"):
                continue
            violations.append(Violation(
                relpath, idx, "config-docs",
                f"descriptor key '{key}' is parsed here but documented nowhere "
                "under docs/ (add it to docs/CONFIG_REFERENCE.md)"))
    return violations


def check_span_categories(root: Path) -> list[Violation]:
    """Every string-literal FEDGUARD_TRACE_SPAN category — and every metric
    name (or static name prefix) registered on a Registry in src/ — must be
    listed in docs/OBSERVABILITY.md. Scans RAW lines — both live inside string
    literals, which the token scans deliberately blank out."""
    violations: list[Violation] = []
    doc = root / "docs" / "OBSERVABILITY.md"
    doc_text = doc.read_text(encoding="utf-8", errors="replace") if doc.is_file() else ""
    for path, relpath in iter_source_files(root):
        text = path.read_text(encoding="utf-8", errors="replace")
        scan_metrics = relpath.startswith(METRIC_DOCS_SCOPE_DIR)
        if "FEDGUARD_TRACE_SPAN" not in text and not scan_metrics:
            continue
        raw_lines = text.splitlines()
        # Allow problems are already reported by check_source_file.
        allows, _ = parse_allows(raw_lines, relpath)
        for idx, line in enumerate(raw_lines, start=1):
            for match in SPAN_CATEGORY_RE.finditer(line):
                category = match.group(1)
                if category in doc_text:
                    continue
                if allowed(allows, idx, "span-category-docs"):
                    continue
                violations.append(Violation(
                    relpath, idx, "span-category-docs",
                    f"span category '{category}' is not part of the documented "
                    "taxonomy in docs/OBSERVABILITY.md"))
            if not scan_metrics:
                continue
            for match in METRIC_NAME_RE.finditer(line):
                name = match.group(1)
                if name in doc_text:
                    continue
                if allowed(allows, idx, "span-category-docs"):
                    continue
                violations.append(Violation(
                    relpath, idx, "span-category-docs",
                    f"metric '{name}' is registered here but missing from the "
                    "documented metric reference in docs/OBSERVABILITY.md"))
    return violations


def check_sweep_roster(root: Path) -> list[Violation]:
    """Every enumerator a to_string switch names must be listed in its kAll*
    array — otherwise a new attack or defense ships without ever being
    exercised by the robustness sweep."""
    violations: list[Violation] = []
    for relpath, enum, header_relpath, array in SWEEP_ROSTERS:
        path = root / relpath
        header = root / header_relpath
        if not path.is_file() or not header.is_file():
            continue
        header_code = strip_comments_and_strings(
            header.read_text(encoding="utf-8", errors="replace"))
        body = re.search(r"\b" + array + r"\s*\{([^}]*)\}", header_code)
        listed = set(re.findall(enum + r"::(\w+)", body.group(1) if body else ""))
        text = path.read_text(encoding="utf-8", errors="replace")
        # Allow problems are already reported by check_source_file.
        allows, _ = parse_allows(text.splitlines(), relpath)
        case_re = re.compile(r"case\s+" + enum +
                             r'::(\w+)\s*:\s*\n?\s*return\s*"[a-z0-9_]+"')
        for match in case_re.finditer(text):
            name = match.group(1)
            line_no = text.count("\n", 0, match.start()) + 1
            if name in listed or allowed(allows, line_no, "sweep-roster"):
                continue
            violations.append(Violation(
                relpath, line_no, "sweep-roster",
                f"{enum}::{name} has a to_string case but is missing from "
                f"{array} in {header_relpath}; add it so the robustness "
                "leaderboard covers it (or allow() it with a reason)"))
    return violations


def iter_source_files(root: Path):
    for top in SOURCE_ROOTS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root)
            if any(part in EXCLUDED_DIR_NAMES for part in rel.parts):
                continue
            yield path, rel.as_posix()


def run(root: Path, verbose: bool = False) -> list[Violation]:
    violations: list[Violation] = []
    count = 0
    for path, relpath in iter_source_files(root):
        count += 1
        violations.extend(check_source_file(path, relpath))
    violations.extend(check_test_timeouts(root))
    violations.extend(check_config_docs(root))
    violations.extend(check_span_categories(root))
    violations.extend(check_sweep_roster(root))
    violations.extend(check_layering(root))
    if verbose:
        print(f"fedguard-lint: scanned {count} source files under {root}", file=sys.stderr)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="fedguard_lint.py",
                                     description="FedGuard project invariant linter")
    parser.add_argument("--root", default=None,
                        help="repository root to scan (default: parent of scripts/)")
    parser.add_argument("--list-rules", action="store_true", help="print rule ids and exit")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in RULES.items():
            print(f"{rule:22s} {summary}")
        return 0

    root = Path(args.root).resolve() if args.root else Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"fedguard-lint: root {root} is not a directory", file=sys.stderr)
        return 2

    violations = run(root, verbose=args.verbose)
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"fedguard-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

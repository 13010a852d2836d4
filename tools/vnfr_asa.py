#!/usr/bin/env python3
"""vnfr-asa: AST-driven static analysis for concurrency, determinism, and
durability invariants of the vnfr tree.

The generic toolchain (clang-tidy, -Wthread-safety) checks language-level
properties; this analyzer checks *repo-specific* contracts that the
paper's determinism and failure-model guarantees rely on:

determinism rules (scope: ``src/sim``, ``src/core`` — the checksummed
replication paths whose results must be bit-identical at any thread
count and across restarts):

  nondet-rand            ``std::rand`` / ``srand`` / ``std::random_device``
                         are banned; all randomness flows through
                         ``common::Rng`` counter-based streams.
  nondet-clock           ``steady_clock/system_clock/high_resolution_clock
                         ::now()`` is banned; wall-clock reads make
                         replications irreproducible. (Time limits belong
                         in src/opt, outside the checksummed scope.)
  nondet-addr-hash       ``std::hash`` over pointer types and
                         ``reinterpret_cast<uintptr_t>`` are banned;
                         address-dependent values change run to run (ASLR)
                         and poison digests.
  nondet-unordered-iter  range-for over a ``std::unordered_map/set`` in a
                         file that feeds a digest/checksum; iteration
                         order is hash-seed and rehash dependent — sort
                         or re-key before reducing.

durability rules (scope: ``src/serve`` — the crash-recovery proofs
assume a strict write -> fsync -> rename -> dirsync order):

  durability-rename-fsync    a ``rename()`` with no fsync/fdatasync
                             earlier in the same function: the renamed
                             file's contents may not be durable.
  durability-rename-dirsync  a ``rename()`` with no following
                             ``fsync_parent_dir()`` in the same function:
                             the new directory entry may not survive a
                             crash.
  durability-wal-sync        a ``write_all()`` append with no following
                             fsync/fdatasync in the same function: the
                             outcome could be externalized before the
                             bytes are durable.
  durability-vfs-routing     a raw POSIX file syscall (``::open``,
                             ``::write``, ``::fsync``, ``::rename``, ...)
                             anywhere in src/serve outside
                             ``src/serve/vfs.cpp``: all storage I/O must
                             route through the ``serve::Vfs`` layer, or
                             fault injection and power-cut simulation
                             silently stop covering it.

lock-order rule (scope: all of ``src/``):

  lock-order             every ``MutexLock`` / ``lock_guard`` /
                         ``unique_lock`` acquisition must name a lock
                         declared in ``tools/lock_hierarchy.txt``, and a
                         nested acquisition must never take a lock that
                         ranks *before* one already held (rank order =
                         file order, outermost first).

plus ``suppression-format`` (see tools/vnfr_findings.py): suppressions
must name a registered rule and justify themselves.

Front ends. With the libclang Python bindings installed (``pip install
libclang``) and a ``compile_commands.json`` in the build dir, functions,
calls, and range-for statements come from the real AST (``--mode ast``).
Without them the analyzer falls back to a documented token-level mode
(``--mode token``): single-line statements, brace-counted function
regions, and regex call detection. Both modes implement every rule and
agree on the fixtures under tests/analysis/; token mode is the floor CI
relies on, AST mode removes the single-line/boilerplate approximations.

Suppression: ``// vnfr-asa: allow(<rule>) <justification>`` on the
finding's line or the line above. Justification required.

Exit status: 0 clean, 1 findings, 2 usage/config error.
Run directly, via the ``vnfr_asa`` ctest, or with ``--json`` for CI.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import vnfr_findings as vf  # noqa: E402
from vnfr_findings import Finding  # noqa: E402

TOOL = "vnfr-asa"

RULES: dict[str, str] = {
    "nondet-rand": "std::rand/srand/std::random_device in a checksummed path; "
                   "use common::Rng counter-based streams",
    "nondet-clock": "steady/system/high_resolution_clock::now() in a "
                    "checksummed path; wall-clock reads break replayability",
    "nondet-addr-hash": "std::hash over a pointer type or "
                        "reinterpret_cast<uintptr_t>; address-dependent "
                        "values differ across runs (ASLR) and poison digests",
    "nondet-unordered-iter": "iteration over an unordered container in a "
                             "digest/checksum-feeding file; order is "
                             "hash-seed dependent — sort or re-key first",
    "durability-rename-fsync": "rename() without a preceding fsync/fdatasync "
                               "in the same function; renamed contents may "
                               "not be durable",
    "durability-rename-dirsync": "rename() without a following "
                                 "fsync_parent_dir() in the same function; "
                                 "the directory entry may not survive a crash",
    "durability-wal-sync": "write_all() without a following fsync/fdatasync "
                           "in the same function; bytes may be externalized "
                           "before they are durable",
    "durability-vfs-routing": "raw POSIX file syscall in src/serve outside "
                              "vfs.cpp; route all storage I/O through "
                              "serve::Vfs so fault injection covers it",
    "lock-order": "lock acquisition that is undeclared in "
                  "tools/lock_hierarchy.txt or inverts the declared order",
    "replication-ack-apply": "send_ack() without a preceding "
                             "apply_replicated() in the same function; the "
                             "standby would acknowledge records it has not "
                             "durably applied (ship-before-ack inversion)",
    "replication-release-ack": "release_wals_below() without a preceding "
                               "latest_ack() in the same function; the "
                               "primary would retire WAL generations the "
                               "standby never confirmed receiving",
    "replication-promote-checkpoint": "mark_promoted() without a preceding "
                                      "checkpoint() in the same function; "
                                      "promotion must persist the caught-up "
                                      "state before accepting admissions "
                                      "(fsync-before-promote)",
    vf.SUPPRESSION_RULE: vf.SUPPRESSION_RULE_DOC,
}

DETERMINISM_PREFIXES = ("src/sim", "src/core")
DURABILITY_PREFIXES = ("src/serve",)
REPLICATION_PREFIXES = ("src/serve/replication",)

# Tokens marking a file as feeding an ordered digest/checksum reduction.
CHECKSUM_TOKENS = re.compile(r"\b(?:digest|Fnv1a|metrics_checksum|checksum)\b")

RE_RAND = re.compile(
    r"\bstd::rand\b|\bstd::srand\b|\bstd::random_device\b"
    r"|(?<![:\w])(?:rand|srand)\s*\(|(?<![:\w])random_device\b"
)
RE_CLOCK = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)
RE_ADDR_HASH = re.compile(
    r"std::hash\s*<[^>]*\*[^>]*>"
    r"|reinterpret_cast\s*<\s*(?:std::)?uintptr_t\s*>"
)
RE_UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
# Raw POSIX file syscalls (globally qualified) that bypass the Vfs layer.
# The file-mutating and file-reading set only, path-based truncate
# included: mkdir stays raw, since the Vfs has no directory creation.
RE_RAW_SYSCALL = re.compile(
    r"(?<![\w>)])::\s*(open|openat|creat|read|pread|write|pwrite|fsync"
    r"|fdatasync|rename|renameat|ftruncate|truncate|unlink|close|lseek)\s*\("
)
# The single file allowed to touch raw syscalls: the PosixVfs backend.
VFS_BACKEND = "src/serve/vfs.cpp"
RE_DECL_NAME = re.compile(r">\s+([A-Za-z_]\w*)\s*(?:[;={(]|$)")
RE_RANGE_FOR = re.compile(r"\bfor\s*\(\s*[^;()]*?:\s*([^);]+)\)")
RE_CALLS = {
    "rename": re.compile(r"(?<![\w])rename\s*\("),
    "fsync": re.compile(r"(?<![\w])fsync\s*\("),
    "fdatasync": re.compile(r"(?<![\w])fdatasync\s*\("),
    "fsync_parent_dir": re.compile(r"(?<![\w])fsync_parent_dir\s*\("),
    "write_all": re.compile(r"(?<![\w])write_all\s*\("),
    "send_ack": re.compile(r"(?<![\w])send_ack\s*\("),
    "apply_replicated": re.compile(r"(?<![\w])apply_replicated\s*\("),
    "release_wals_below": re.compile(r"(?<![\w])release_wals_below\s*\("),
    "latest_ack": re.compile(r"(?<![\w])latest_ack\s*\("),
    "mark_promoted": re.compile(r"(?<![\w])mark_promoted\s*\("),
    "checkpoint": re.compile(r"(?<![\w])checkpoint\s*\("),
}
RE_ACQUIRE = [
    # common::MutexLock lock(&mu_);  /  MutexLock l(&job->error_mutex);
    re.compile(r"\bMutexLock\s+\w+\s*\(\s*&?\s*([\w.>\-\[\]]+?)\s*\)"),
    # std::lock_guard<std::mutex> lock(mutex_); / std::unique_lock<...> l(m);
    re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock)\s*<[^>]*>\s+\w+\s*"
               r"\(\s*([\w.>\-\[\]]+?)\s*[),]"),
]
RE_FUNC_OPEN = re.compile(
    r"\)\s*(?:const\b|noexcept\b|override\b|final\b|mutable\b"
    r"|->\s*[\w:<>,&*\s]+|\s)*\{"
)
RE_NAME_BEFORE_PAREN = re.compile(r"([A-Za-z_~]\w*(?:::[A-Za-z_~]\w*)*)\s*\(")
KEYWORDS = {"if", "for", "while", "switch", "catch", "return", "sizeof",
            "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
            "decltype", "alignof", "noexcept", "defined"}


@dataclass
class Event:
    line: int      # 1-based
    kind: str      # "call" | "acquire" | "range_for" | "depthmark"
    name: str      # callee base name / lock base name / range base name
    depth: int = 0  # brace depth relative to the function body
    #: For AST-mode acquisitions: last line of the enclosing scope (the
    #: scoped lock is released there). Token mode leaves this None and
    #: relies on per-line "depthmark" events instead.
    until: int | None = None


@dataclass
class FunctionRegion:
    name: str
    start: int
    end: int
    events: list[Event] = field(default_factory=list)


@dataclass
class FileModel:
    rel: str
    raw_lines: list[str]
    code_lines: list[str]
    functions: list[FunctionRegion]
    unordered_names: set[str]
    feeds_checksum: bool
    mode: str  # which front end produced the structure


def base_name(expr: str) -> str:
    """Last identifier of a member path: 'job->error_mutex' -> 'error_mutex'."""
    parts = re.split(r"->|\.|::", expr)
    tail = parts[-1].strip().strip("&*() \t")
    return tail


# --------------------------------------------------------------------------
# Token front end
# --------------------------------------------------------------------------

def guess_function_name(code_lines: list[str], open_idx: int) -> str:
    for idx in range(open_idx, max(-1, open_idx - 6), -1):
        line = code_lines[idx]
        if "(" not in line:
            continue
        for m in RE_NAME_BEFORE_PAREN.finditer(line):
            name = m.group(1).split("::")[-1]
            if name not in KEYWORDS:
                return name
        break
    return "?"


def scan_line_events(code: str, line_no: int, depth_before: int) -> list[Event]:
    events: list[Event] = []

    def depth_at(pos: int) -> int:
        prefix = code[:pos]
        return depth_before + prefix.count("{") - prefix.count("}")

    for name, pattern in RE_CALLS.items():
        for m in pattern.finditer(code):
            events.append(Event(line_no, "call", name, depth_at(m.start())))
    # adopt_lock/defer_lock constructions wrap an already-held (or not yet
    # held) mutex — they are not acquisitions and carry no ordering.
    if "adopt_lock" not in code and "defer_lock" not in code:
        for pattern in RE_ACQUIRE:
            for m in pattern.finditer(code):
                events.append(
                    Event(line_no, "acquire", base_name(m.group(1)),
                          depth_at(m.start())))
    for m in RE_RANGE_FOR.finditer(code):
        events.append(
            Event(line_no, "range_for", base_name(m.group(1)),
                  depth_at(m.start())))
    events.sort(key=lambda e: e.line)
    return events


def build_model_token(path: Path, rel: str) -> FileModel:
    text = path.read_text(encoding="utf-8")
    raw_lines = text.splitlines()
    code_lines = [vf.strip_comments_and_strings(l) for l in raw_lines]

    unordered_names: set[str] = set()
    for code in code_lines:
        if RE_UNORDERED_DECL.search(code):
            m = RE_DECL_NAME.search(code)
            if m:
                unordered_names.add(m.group(1))

    functions: list[FunctionRegion] = []
    depth = 0
    current: FunctionRegion | None = None
    current_start_depth = 0
    for idx, code in enumerate(code_lines):
        line_no = idx + 1
        if current is None and RE_FUNC_OPEN.search(code):
            current = FunctionRegion(
                guess_function_name(code_lines, idx), line_no, line_no)
            current_start_depth = depth
        if current is not None:
            current.events.extend(
                scan_line_events(code, line_no, depth - current_start_depth))
        depth += code.count("{") - code.count("}")
        if current is not None:
            # End-of-line depth marker: scoped locks acquired deeper than
            # this are released here (their block closed on this line).
            current.events.append(
                Event(line_no, "depthmark", "", depth - current_start_depth))
        if current is not None and depth <= current_start_depth:
            current.end = line_no
            functions.append(current)
            current = None
    if current is not None:  # unbalanced braces: close at EOF
        current.end = len(code_lines)
        functions.append(current)

    return FileModel(
        rel=rel,
        raw_lines=raw_lines,
        code_lines=code_lines,
        functions=functions,
        unordered_names=unordered_names,
        feeds_checksum=any(CHECKSUM_TOKENS.search(c) for c in code_lines),
        mode="token",
    )


# --------------------------------------------------------------------------
# AST front end (libclang; optional)
# --------------------------------------------------------------------------

def load_libclang():
    """Returns the clang.cindex module or None if unavailable."""
    try:
        from clang import cindex  # type: ignore
        cindex.Index.create()
        return cindex
    except Exception:
        return None


def compile_args_for(cindex, build_dir: Path | None, path: Path) -> list[str]:
    if build_dir is not None:
        try:
            db = cindex.CompilationDatabase.fromDirectory(str(build_dir))
            cmds = db.getCompileCommands(str(path))
            if cmds:
                args = list(cmds[0].arguments)[1:]  # drop the compiler
                # Drop the output/input file arguments libclang chokes on.
                cleaned, skip = [], False
                for a in args:
                    if skip:
                        skip = False
                        continue
                    if a in ("-o", "-c"):
                        skip = a == "-o"
                        continue
                    if a == str(path) or a.endswith(path.name):
                        continue
                    cleaned.append(a)
                return cleaned
        except Exception:
            pass
    return ["-std=c++20"]


def build_model_ast(cindex, path: Path, rel: str,
                    build_dir: Path | None) -> FileModel:
    """AST front end: real function extents, call sites, and range-fors.

    Shares the token scanner's per-line pattern rules (those are exact on
    stripped tokens already); the AST replaces the *structural*
    approximations — function regions, call/acquire events with scope
    depth, and unordered-container range detection via actual types.
    """
    model = build_model_token(path, rel)  # baseline incl. pattern artifacts

    index = cindex.Index.create()
    tu = index.parse(str(path), args=compile_args_for(cindex, build_dir, path),
                     options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)

    fn_kinds = {
        cindex.CursorKind.FUNCTION_DECL,
        cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.CONSTRUCTOR,
        cindex.CursorKind.DESTRUCTOR,
        cindex.CursorKind.FUNCTION_TEMPLATE,
    }

    functions: list[FunctionRegion] = []

    def in_this_file(cursor) -> bool:
        loc = cursor.location
        return loc.file is not None and Path(loc.file.name) == path

    def collect_events(cursor, region: FunctionRegion, depth: int,
                       scope_end: int) -> None:
        for child in cursor.get_children():
            d = depth
            end = scope_end
            if child.kind == cindex.CursorKind.COMPOUND_STMT:
                d += 1
                end = child.extent.end.line
            if child.kind == cindex.CursorKind.CALL_EXPR:
                callee = child.spelling or ""
                if callee in RE_CALLS:
                    region.events.append(
                        Event(child.location.line, "call", callee, depth))
            if child.kind in (cindex.CursorKind.VAR_DECL,):
                type_spelling = child.type.spelling or ""
                if "MutexLock" in type_spelling or "lock_guard" in type_spelling \
                        or "unique_lock" in type_spelling \
                        or "scoped_lock" in type_spelling:
                    tokens = [t.spelling for t in child.get_tokens()]
                    joined = " ".join(tokens)
                    m = re.search(r"\(\s*&?\s*([\w.>\-:\[\]\s]+?)\s*[),]", joined)
                    if m and "adopt_lock" not in joined \
                            and "defer_lock" not in joined:
                        region.events.append(
                            Event(child.location.line, "acquire",
                                  base_name(m.group(1).replace(" ", "")),
                                  depth, until=scope_end))
            if child.kind == cindex.CursorKind.CXX_FOR_RANGE_STMT:
                range_child = None
                for sub in child.get_children():
                    range_child = sub  # last decl before body holds the range
                    break
                # Inspect every child expression type for unordered containers.
                unordered = any(
                    "unordered_" in (sub.type.spelling or "")
                    for sub in child.walk_preorder() if in_this_file(sub)
                )
                name = "?"
                if range_child is not None:
                    name = base_name(range_child.spelling or "?")
                region.events.append(Event(
                    child.location.line, "range_for",
                    name if not unordered else "<unordered>", depth))
            collect_events(child, region, d, end)

    for cursor in tu.cursor.walk_preorder():
        if cursor.kind in fn_kinds and cursor.is_definition() and in_this_file(cursor):
            extent = cursor.extent
            region = FunctionRegion(cursor.spelling, extent.start.line,
                                    extent.end.line)
            collect_events(cursor, region, 0, extent.end.line)
            region.events.sort(key=lambda e: e.line)
            functions.append(region)

    if functions:
        model.functions = functions
        # AST marks unordered ranges directly with the '<unordered>' token.
        model.unordered_names.add("<unordered>")
        model.mode = "ast"
    return model


# --------------------------------------------------------------------------
# Rule engine (front-end independent)
# --------------------------------------------------------------------------

def load_hierarchy(hierarchy_path: Path) -> dict[str, int]:
    if not hierarchy_path.is_file():
        raise FileNotFoundError(f"lock hierarchy file missing: {hierarchy_path}")
    ranks: dict[str, int] = {}
    for raw in hierarchy_path.read_text(encoding="utf-8").splitlines():
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        if entry in ranks:
            raise ValueError(f"duplicate lock '{entry}' in {hierarchy_path}")
        ranks[entry] = len(ranks)
    return ranks


def analyze_model(model: FileModel, hierarchy: dict[str, int]) -> list[Finding]:
    findings: list[Finding] = []
    rel = model.rel
    in_determinism = rel.startswith(DETERMINISM_PREFIXES)
    in_durability = rel.startswith(DURABILITY_PREFIXES)
    in_replication = rel.startswith(REPLICATION_PREFIXES)

    # --- determinism pattern rules (line-exact in both modes) -------------
    if in_determinism:
        for idx, code in enumerate(model.code_lines):
            line_no = idx + 1
            if RE_RAND.search(code):
                findings.append(Finding(rel, line_no, "nondet-rand",
                                        RULES["nondet-rand"]))
            if RE_CLOCK.search(code):
                findings.append(Finding(rel, line_no, "nondet-clock",
                                        RULES["nondet-clock"]))
            if RE_ADDR_HASH.search(code):
                findings.append(Finding(rel, line_no, "nondet-addr-hash",
                                        RULES["nondet-addr-hash"]))

        # --- unordered iteration feeding a checksum -----------------------
        if model.feeds_checksum:
            for fn in model.functions:
                for ev in fn.events:
                    if ev.kind == "range_for" and ev.name in model.unordered_names:
                        findings.append(Finding(
                            rel, ev.line, "nondet-unordered-iter",
                            f"range-for over unordered container "
                            f"'{ev.name}' in a checksum-feeding file; "
                            "iteration order is hash-seed dependent"))

    # --- durability order -------------------------------------------------
    if in_durability:
        # Routing: every storage syscall must flow through the Vfs layer,
        # so FaultyVfs chaos (error injection, power cuts) covers it. Only
        # the PosixVfs backend itself may touch the raw calls.
        if rel != VFS_BACKEND:
            for idx, code in enumerate(model.code_lines):
                for m in RE_RAW_SYSCALL.finditer(code):
                    findings.append(Finding(
                        rel, idx + 1, "durability-vfs-routing",
                        f"raw ::{m.group(1)}() bypasses the Vfs layer; "
                        "route it through serve::Vfs so fault injection "
                        "and power-cut simulation cover it"))
        for fn in model.functions:
            calls = [e for e in fn.events if e.kind == "call"]
            sync_lines = [e.line for e in calls
                          if e.name in ("fsync", "fdatasync")]
            dirsync_lines = [e.line for e in calls
                             if e.name == "fsync_parent_dir"]
            for ev in calls:
                # A wrapper's own definition scans as a call to itself in
                # token mode (the signature line) and legitimately names
                # the wrapped primitive in its body (PosixVfs::rename
                # calls ::rename); the ordering rules target call *sites*,
                # not the wrappers.
                if ev.name == fn.name:
                    continue
                if ev.name == "rename":
                    if not any(s < ev.line for s in sync_lines):
                        findings.append(Finding(
                            rel, ev.line, "durability-rename-fsync",
                            "rename() with no fsync/fdatasync earlier in "
                            f"'{fn.name}'; the renamed file's contents may "
                            "not be durable"))
                    if not any(d > ev.line for d in dirsync_lines):
                        findings.append(Finding(
                            rel, ev.line, "durability-rename-dirsync",
                            "rename() with no fsync_parent_dir() afterwards "
                            f"in '{fn.name}'; the directory entry may not "
                            "survive a crash"))
                elif ev.name == "write_all":
                    if not any(s > ev.line
                               for s in sync_lines + dirsync_lines):
                        findings.append(Finding(
                            rel, ev.line, "durability-wal-sync",
                            f"write_all() in '{fn.name}' with no following "
                            "fsync/fdatasync; bytes may be externalized "
                            "before they are durable"))

    # --- replication ordering ---------------------------------------------
    # Same shape as the durability rules: call-ordering invariants inside a
    # single function, applied only under src/serve/replication. The
    # fn.name guard skips the trigger's own definition (its signature line
    # scans as a call in token mode, like write_all above).
    if in_replication:
        for fn in model.functions:
            calls = [e for e in fn.events if e.kind == "call"]

            def earlier(name: str, before: int) -> bool:
                return any(c.name == name and c.line < before for c in calls)

            for ev in calls:
                if ev.name == fn.name:
                    continue
                if ev.name == "send_ack" and \
                        not earlier("apply_replicated", ev.line):
                    findings.append(Finding(
                        rel, ev.line, "replication-ack-apply",
                        f"send_ack() in '{fn.name}' with no earlier "
                        "apply_replicated(); the standby would acknowledge "
                        "records it has not applied"))
                elif ev.name == "release_wals_below" and \
                        not earlier("latest_ack", ev.line):
                    findings.append(Finding(
                        rel, ev.line, "replication-release-ack",
                        f"release_wals_below() in '{fn.name}' with no "
                        "earlier latest_ack(); the primary would retire WAL "
                        "generations the standby never confirmed"))
                elif ev.name == "mark_promoted" and \
                        not earlier("checkpoint", ev.line):
                    findings.append(Finding(
                        rel, ev.line, "replication-promote-checkpoint",
                        f"mark_promoted() in '{fn.name}' with no earlier "
                        "checkpoint(); caught-up state must be durable "
                        "before the promoted controller admits"))

    # --- lock order (all of src/) -----------------------------------------
    # A scoped lock is held from its acquisition until its block closes:
    # token mode pops via per-line depthmarks (end-of-line depth below the
    # acquisition depth == the lock's block closed on that line), AST mode
    # pops via the recorded scope-end line. Two locks in the same block are
    # both held; locks in sibling blocks are not.
    for fn in model.functions:
        held: list[Event] = []
        for ev in fn.events:
            if ev.kind == "depthmark":
                held = [h for h in held if h.depth <= ev.depth]
                continue
            if ev.kind != "acquire":
                continue
            held = [h for h in held if h.until is None or ev.line <= h.until]
            rank = hierarchy.get(ev.name)
            if rank is None:
                findings.append(Finding(
                    rel, ev.line, "lock-order",
                    f"lock '{ev.name}' is not declared in "
                    "tools/lock_hierarchy.txt; add it at its place in the "
                    "acquisition order"))
                continue
            for h in held:
                held_rank = hierarchy[h.name]
                if held_rank >= rank:
                    what = ("re-acquires" if held_rank == rank
                            else "inverts the declared order:")
                    findings.append(Finding(
                        rel, ev.line, "lock-order",
                        f"{what} '{ev.name}' (rank {rank}) acquired while "
                        f"holding '{h.name}' (rank {held_rank}) in "
                        f"'{fn.name}'"))
            held.append(ev)
    return findings


def analyze_tree(root: Path, *, mode: str,
                 build_dir: Path | None) -> tuple[list[Finding], str]:
    """Analyzes every .hpp/.cpp under <root>/src. Returns (findings, mode)."""
    hierarchy = load_hierarchy(Path(__file__).resolve().parent /
                               "lock_hierarchy.txt")
    cindex = None
    effective = "token"
    if mode in ("auto", "ast"):
        cindex = load_libclang()
        if cindex is not None:
            effective = "ast"
        elif mode == "ast":
            raise RuntimeError(
                "--mode ast requires the libclang python bindings "
                "(pip install libclang)")

    src = root / "src"
    if not src.is_dir():
        raise FileNotFoundError(f"no src/ directory under {root}")

    findings: list[Finding] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        model = None
        if effective == "ast":
            try:
                model = build_model_ast(cindex, path, rel, build_dir)
            except Exception as exc:  # fall back per file, stay usable
                print(f"vnfr_asa: AST parse failed for {rel} ({exc}); "
                      "token fallback", file=sys.stderr)
        if model is None:
            model = build_model_token(path, rel)
        file_findings = analyze_model(model, hierarchy)
        covered, suppression_findings = vf.scan_suppressions(
            model.raw_lines, tool=TOOL, rel=rel, known_rules=set(RULES))
        findings.extend(vf.apply_suppressions(file_findings, covered))
        findings.extend(suppression_findings)
    return findings, effective


# --------------------------------------------------------------------------
# Fixtures / self-check
# --------------------------------------------------------------------------

RE_EXPECT = re.compile(r"//\s*expect:\s*([\w\-, ]+)")


def expected_findings(fixture_root: Path) -> dict[tuple[str, int], set[str]]:
    """Parses ``// expect: rule[, rule]`` markers from fixture sources."""
    expects: dict[tuple[str, int], set[str]] = {}
    for path in sorted((fixture_root / "src").rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(fixture_root).as_posix()
        for idx, raw in enumerate(path.read_text(encoding="utf-8").splitlines()):
            m = RE_EXPECT.search(raw)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                expects.setdefault((rel, idx + 1), set()).update(rules)
    return expects


def self_check(root: Path) -> int:
    """Verifies the rule registry against the fixtures: every rule has at
    least one positive fixture, every expectation fires, and nothing
    unexpected fires inside the fixture tree."""
    fixture_root = root / "tests" / "analysis" / "fixtures" / "asa"
    if not (fixture_root / "src").is_dir():
        print(f"vnfr_asa --self-check: no fixtures under {fixture_root}",
              file=sys.stderr)
        return 2

    expects = expected_findings(fixture_root)
    findings, _ = analyze_tree(fixture_root, mode="token", build_dir=None)
    got: dict[tuple[str, int], set[str]] = {}
    for f in findings:
        got.setdefault((f.path, f.line), set()).add(f.rule)

    errors: list[str] = []
    covered_rules = set()
    for key, rules in expects.items():
        covered_rules.update(rules)
        missing = rules - got.get(key, set())
        for rule in sorted(missing):
            errors.append(f"{key[0]}:{key[1]}: expected {rule} did not fire")
    for key, rules in got.items():
        unexpected = rules - expects.get(key, set())
        for rule in sorted(unexpected):
            errors.append(f"{key[0]}:{key[1]}: unexpected finding {rule}")
    for rule in sorted(set(RULES) - covered_rules):
        errors.append(f"rule '{rule}' has no positive fixture under "
                      f"{fixture_root}/src")

    for e in errors:
        print(f"vnfr_asa --self-check: {e}")
    if errors:
        print(f"vnfr_asa --self-check: {len(errors)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"vnfr_asa --self-check: ok ({len(RULES)} rules, "
          f"{len(expects)} expectation site(s))")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="vnfr_asa.py",
        description="repo-specific determinism/durability/lock-order analyzer")
    parser.add_argument("root", nargs="?", default=None,
                        help="repo root (default: the checkout this tool is in)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON object")
    parser.add_argument("--mode", choices=("auto", "ast", "token"),
                        default="auto",
                        help="front end: auto prefers libclang, token forces "
                             "the regex fallback")
    parser.add_argument("--build-dir", default=None,
                        help="build dir holding compile_commands.json "
                             "(ast mode)")
    parser.add_argument("--self-check", action="store_true",
                        help="verify every rule has a firing positive fixture")
    args = parser.parse_args(argv[1:])

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)
    if args.self_check:
        return self_check(root)

    build_dir = Path(args.build_dir).resolve() if args.build_dir else None
    try:
        findings, mode = analyze_tree(root, mode=args.mode, build_dir=build_dir)
    except (FileNotFoundError, RuntimeError, ValueError) as exc:
        print(f"vnfr_asa: {exc}", file=sys.stderr)
        return 2
    return vf.emit(findings, tool="vnfr_asa", rules=RULES,
                   json_mode=args.json, mode=mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""mbi-analyzer: AST-accurate domain static analysis for the MBI tree.

Drives `clang -Xclang -ast-dump=json` over the project's
compile_commands.json and enforces the repo-specific invariants that keep
scenario replay deterministic, budgets honest, and locking visible to the
compiler. The AST rules are evaluated on the Clang AST: macros are
expanded, typedefs are desugared, and call targets are resolved to
qualified names. A few rules are best expressed over source text; they run
over every file in the scan directories, with or without clang.

Check catalog (rule names double as waiver keys):

  determinism family — outside src/util/ (the sanctioned seams are
  util/clock.h and DeriveSeed-fed RNGs from util/rng.h):
    wall-clock        calls to std::chrono::{system,steady,high_resolution}_
                      clock::now, time, gettimeofday, clock_gettime, clock,
                      localtime, gmtime, timespec_get
    unseeded-entropy  rand/srand/random/*rand48, any std::random_device,
                      default-constructed std::mt19937 / mt19937_64 /
                      default_random_engine / minstd_rand* (not DeriveSeed-fed)
    pointer-key       pointer-keyed std::map/set/multimap/multiset (merge and
                      iteration order leak address-space layout) and
                      pointer-keyed unordered containers under std::hash<T*>

  budget-charge — src/ (minus util/, eval/, data/) and bench/:
    a loop body that calls a distance kernel (core/distance.h entry points or
    DistanceFunction::operator()) must, on some path through the loop, charge
    a BudgetTracker — directly (ChargeDistance/ChargeHop/CheckNow) or by
    passing a BudgetTracker*/& into a callee. New search paths cannot
    silently escape the PR-4 deadline machinery.

  status-flow — everywhere:
    unchecked-result  Result<T>::value() with no earlier .ok()/.status() call
                      on the same object in the same function (source-order
                      approximation of dominance; the repo idiom
                      `MBI_RETURN_IF_ERROR(r.status()); use(r.value())`
                      counts as checked)
    ignore-status     MBI_IGNORE_STATUS sites without a justification
                      comment on the same line or the line above

  lock-coverage — everywhere:
    for every class with an mbi::Mutex member, a field written while the
    lock is held (inside a MutexLock scope or an MBI_REQUIRES method) must
    be MBI_GUARDED_BY-annotated. Unannotated fields are compared against
    tools/mbi_analyzer/ratchet.json, which may only shrink.

  hygiene — outside src/util/:
    naked-thread      std::thread/std::jthread construction
    naked-new         non-placement new-expressions
    raw-mutex         std::mutex/lock_guard/unique_lock/scoped_lock/
                      condition_variable and friends by type

  text rules — run with or without clang:
    ignore-status     (above) MBI_IGNORE_STATUS justification comments
    unchecked-memcpy  memcpy whose length is neither an integer literal nor
                      a sizeof-expression, outside src/persist/ — framed
                      readers in persist/ validate lengths against the frame
                      header; everywhere else a computed length must be
                      visibly derived from sizeof or explicitly waived
    header-guard      every header must open with #pragma once or an
                      #ifndef/#define include guard

Waivers use the existing syntax, on the finding line or the line above:

    // mbi-lint: allow(<rule>) — why this site is fine

A waiver that suppresses nothing is itself an error (stale-waiver), as is a
rule name no tool knows (unknown-waiver) — suppressions cannot rot.

AST dumps are not cached raw (they run to hundreds of MB per TU); instead
the extracted *facts* (findings, waiver consumptions, lock facts, files
seen) are cached per TU under <build>/.mbi_analyzer_cache/, keyed by the
content hash of the TU, its repo-internal includes (via clang -MM), the
clang version and the analyzer itself — CI reruns only re-dump what changed.

Usage:
    python3 tools/mbi_analyzer/mbi_analyzer.py \
        --compile-commands build/compile_commands.json [--jobs N]
        [--require-clang] [--update-ratchet] [--check-file f.cc --flags ...]

Without a clang++ on the host only the text rules run (and judge their own
waivers); --require-clang turns that into an error instead.

Exit codes: 0 clean, 1 findings, 2 environment/usage error (no clang with
--require-clang, no -ast-dump=json support, unreadable compile db).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
TESTDATA = pathlib.Path(__file__).resolve().parent / "testdata"
RATCHET_PATH = pathlib.Path(__file__).resolve().parent / "ratchet.json"
SCAN_DIRS = ("src", "tests", "bench", "examples")

# Every rule this analyzer enforces (rule names double as waiver keys). The
# text rules need no clang, so a clang-less run still judges them and their
# waivers.
TEXT_RULES = frozenset({"ignore-status", "unchecked-memcpy", "header-guard"})
ANALYZER_RULES = frozenset({
    "wall-clock", "unseeded-entropy", "pointer-key", "budget-charge",
    "unchecked-result", "lock-coverage",
    "naked-thread", "naked-new", "raw-mutex",
}) | TEXT_RULES

ALLOW_RE = re.compile(r"//\s*mbi-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# ---------------------------------------------------------------------------
# Qualified-name patterns

WALL_CLOCK_QUAL_RE = re.compile(
    r"(^|::)std::chrono::(\w+::)*"
    r"(system_clock|steady_clock|high_resolution_clock)::now$")
WALL_CLOCK_C_FUNCS = frozenset({
    "time", "gettimeofday", "clock_gettime", "clock", "localtime", "gmtime",
    "localtime_r", "gmtime_r", "ftime", "timespec_get",
})
ENTROPY_C_FUNCS = frozenset({
    "rand", "srand", "random", "srandom", "rand_r",
    "drand48", "lrand48", "mrand48", "srand48",
})
RANDOM_DEVICE_RE = re.compile(r"\bstd::(\w+::)*random_device\b")
# Engines that are deterministic when explicitly seeded but banned when
# default-constructed (the seed is then a constant nobody derived from the
# scenario seed tree — and one refactor away from random_device).
ENGINE_TYPE_RE = re.compile(
    r"\bstd::(\w+::)*(mt19937(_64)?|default_random_engine|minstd_rand0?|"
    r"knuth_b|ranlux\d+(_base)?|mersenne_twister_engine<|"
    r"linear_congruential_engine<|subtract_with_carry_engine<)")
THREAD_TYPE_RE = re.compile(r"\bstd::(\w+::)*j?thread\b")
RAW_MUTEX_TYPE_RE = re.compile(
    r"\bstd::(\w+::)*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|lock_guard<|unique_lock<|"
    r"scoped_lock<|shared_lock<|condition_variable(_any)?)\b")
ORDERED_PTR_CONTAINERS = ("std::map<", "std::set<", "std::multimap<",
                          "std::multiset<")
UNORDERED_PTR_CONTAINERS = ("std::unordered_map<", "std::unordered_set<",
                            "std::unordered_multimap<",
                            "std::unordered_multiset<")
DISTANCE_KERNELS = frozenset({
    "mbi::L2SquaredDistance", "mbi::AngularDistance",
    "mbi::NegativeInnerProduct",
})
CHARGE_METHODS = frozenset({"ChargeDistance", "ChargeHop", "CheckNow"})
MUTATING_METHODS = frozenset({
    "push_back", "emplace_back", "pop_back", "clear", "insert", "emplace",
    "erase", "resize", "assign", "reset", "swap", "store", "fetch_add",
    "fetch_sub", "exchange", "append", "Append",
})
MBI_MUTEX_TYPE_RE = re.compile(r"(^|[\s:<,])(mbi::)?Mutex($|[\s>&,])")
MUTEX_LOCK_TYPE_RE = re.compile(r"(^|[\s:<,])(mbi::)?MutexLock($|[\s>&,])")
# Fields that are themselves synchronization/atomic state never need a
# GUARDED_BY: they carry their own ordering.
SELF_SYNC_TYPE_RE = re.compile(
    r"atomic|Mutex|CondVar|condition_variable|once_flag")

LOOP_KINDS = frozenset(
    {"ForStmt", "WhileStmt", "DoStmt", "CXXForRangeStmt"})
FUNC_KINDS = frozenset({
    "FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
    "CXXDestructorDecl", "CXXConversionDecl",
})
CONTEXT_KINDS = frozenset({
    "NamespaceDecl", "CXXRecordDecl", "ClassTemplateSpecializationDecl",
})


class Finding:
    __slots__ = ("file", "line", "rule", "message")

    def __init__(self, file: str, line: int, rule: str, message: str):
        self.file, self.line, self.rule, self.message = file, line, rule, message

    def key(self):
        return (self.file, self.line, self.rule, self.message)

    def as_dict(self):
        return {"file": self.file, "line": self.line, "rule": self.rule,
                "message": self.message}


# ---------------------------------------------------------------------------
# Rule scoping: which rules apply to a repo-relative path.

def active_rules(rel: str) -> frozenset:
    parts = pathlib.PurePosixPath(rel).parts
    if not parts:
        return frozenset()
    # Self-test fixtures get the full rule set (maximum strictness); only
    # headers can lack a header guard.
    if parts[0] == "tools":
        return ANALYZER_RULES if rel.endswith(".h") else \
            ANALYZER_RULES - {"header-guard"}
    rules = {"unchecked-result", "ignore-status", "lock-coverage"}
    in_util = parts[:2] == ("src", "util")
    if not in_util:
        rules |= {"wall-clock", "unseeded-entropy", "pointer-key",
                  "naked-thread", "naked-new", "raw-mutex"}
    if parts[:2] != ("src", "persist"):
        rules.add("unchecked-memcpy")
    if rel.endswith(".h"):
        rules.add("header-guard")
    if (parts[0] == "src" and parts[1:2] and
            parts[1] not in ("util", "eval", "data")) or parts[0] == "bench":
        rules.add("budget-charge")
    return frozenset(rules)


# ---------------------------------------------------------------------------
# AST walking: iterative DFS with clang's delta-encoded source locations.
# Every "loc"/"range" object only records fields that changed since the
# previously *printed* location, so the decoder is a running cursor that must
# observe every location in document order — including system-header nodes.


class _Cursor:
    __slots__ = ("file", "line")

    def __init__(self):
        self.file = ""
        self.line = 0


def _decode_loc(obj, cur: _Cursor):
    """Advances the cursor through one bare/macro loc; returns (file, line)
    attributed to the expansion site, or None for an invalid location."""
    if not isinstance(obj, dict):
        return None
    if "spellingLoc" in obj or "expansionLoc" in obj:
        result = None
        for key, sub in obj.items():  # insertion order == document order
            if key in ("spellingLoc", "expansionLoc"):
                decoded = _decode_loc(sub, cur)
                if key == "expansionLoc":
                    result = decoded
        return result
    if "file" in obj:
        cur.file = obj["file"]
    if "line" in obj:
        cur.line = obj["line"]
    if not obj:
        return None
    return (cur.file, cur.line)


def iter_subnodes(node):
    """Structural DFS over a node's subtree (the node itself included).
    Never touches the location cursor — safe for eager lookups."""
    stack = [node]
    while stack:
        n = stack.pop()
        if not isinstance(n, dict):
            continue
        if "kind" in n:
            yield n
        inner = n.get("inner")
        if inner:
            stack.extend(reversed(inner))


def _callee_ref(call_node):
    """referencedDecl dict of a CallExpr's callee, or None."""
    inner = call_node.get("inner")
    if not inner:
        return None
    for n in iter_subnodes(inner[0]):
        if n.get("kind") == "DeclRefExpr" and "referencedDecl" in n:
            return n["referencedDecl"]
    return None


def _first_var_ref(node):
    """First DeclRefExpr to a variable/parameter in a subtree: (id, type)."""
    for n in iter_subnodes(node):
        if n.get("kind") == "DeclRefExpr":
            ref = n.get("referencedDecl", {})
            if ref.get("kind") in ("VarDecl", "ParmVarDecl"):
                return ref.get("id"), ref.get("type", {}).get("qualType", "")
    return None, ""


def _type_strings(node):
    t = node.get("type", {})
    qual = t.get("qualType", "")
    desugared = t.get("desugaredQualType", qual)
    return qual, desugared


def _has_attr(node, attr_kinds):
    for child in node.get("inner", ()):
        if isinstance(child, dict) and child.get("kind") in attr_kinds:
            return True
    return False


def _first_template_arg(typestr: str, prefixes) -> str | None:
    """First template argument of the first matching container spelling."""
    for prefix in prefixes:
        start = typestr.find(prefix)
        if start < 0:
            continue
        i = start + len(prefix)
        depth = 0
        begin = i
        while i < len(typestr):
            c = typestr[i]
            if c == "<":
                depth += 1
            elif c == ">":
                if depth == 0:
                    return typestr[begin:i].strip()
                depth -= 1
            elif c == "," and depth == 0:
                return typestr[begin:i].strip()
            i += 1
    return None


def _pointer_keyed(qual: str, desugared: str) -> str | None:
    for typestr in (qual, desugared):
        arg = _first_template_arg(typestr, ORDERED_PTR_CONTAINERS)
        if arg is not None and arg.endswith("*"):
            return ("pointer-keyed ordered container (%s): iteration and "
                    "merge order depend on address-space layout" % arg)
        arg = _first_template_arg(typestr, UNORDERED_PTR_CONTAINERS)
        if arg is not None and arg.endswith("*"):
            return ("pointer-keyed unordered container (%s) hashes pointer "
                    "values: bucket order depends on address-space layout"
                    % arg)
    return None


class _Loop:
    __slots__ = ("file", "line", "has_dist", "has_charge", "pending")

    def __init__(self, file, line):
        self.file, self.line = file, line
        self.has_dist = False
        self.has_charge = False
        # Innermost kernel-calling descendants still awaiting a charge on
        # some enclosing loop (the amortized sub-batch charging idiom).
        self.pending = []


class _Func:
    __slots__ = ("class_id", "requires_lock", "lock_depth", "compound_stack",
                 "guarded_vars", "loops")

    def __init__(self, class_id, requires_lock):
        self.class_id = class_id
        self.requires_lock = requires_lock
        self.lock_depth = 0
        self.compound_stack = []
        self.guarded_vars = set()
        self.loops = []


class _ClassInfo:
    __slots__ = ("qname", "fields", "has_mutex")

    def __init__(self, qname):
        self.qname = qname
        self.fields = {}  # field id -> dict(name, guarded, type, file, line)
        self.has_mutex = False


class TuAnalysis:
    """One walk over one TU's AST JSON, producing facts."""

    def __init__(self, repo: pathlib.Path):
        self.repo = str(repo)
        self.findings: list[Finding] = []
        self.lock_facts: dict[str, dict] = {}  # "Class::field" -> site
        self.files_seen: set[str] = set()
        self.decl_qnames: dict[str, str] = {}
        self.classes: dict[str, _ClassInfo] = {}
        self._ns: list[str] = []
        self._record_ids: list[str] = []
        self._funcs: list[_Func] = []
        self._finding_keys: set = set()
        # Field writes are recorded during the walk but resolved only after
        # it: an inline method body may write a field declared further down
        # the class, so the field table isn't complete mid-class.
        self._pending_writes: list[tuple] = []

    # -- helpers ----------------------------------------------------------

    def _rel(self, path: str) -> str | None:
        if not path.startswith(self.repo + os.sep):
            return None
        return path[len(self.repo) + 1:]

    def _report(self, rel, line, rule, message):
        if rule not in active_rules(rel):
            return
        f = Finding(rel, line, rule, message)
        if f.key() in self._finding_keys:
            return
        self._finding_keys.add(f.key())
        self.findings.append(f)

    def _qname(self, ref) -> str:
        """Qualified name for a bare decl reference (or member decl id)."""
        if isinstance(ref, dict):
            did, name = ref.get("id"), ref.get("name", "")
        else:
            did, name = ref, ""
        return self.decl_qnames.get(did, name)

    def _cur_class(self) -> _ClassInfo | None:
        if not self._funcs:
            return None
        cid = self._funcs[-1].class_id
        return self.classes.get(cid) if cid else None

    # -- main walk --------------------------------------------------------

    def walk(self, root):
        cur = _Cursor()
        stack = [(root, None)]
        while stack:
            node, leave = stack.pop()
            if leave is not None:
                self._leave(node, leave)
                continue
            loc = None
            if "loc" in node:
                loc = _decode_loc(node["loc"], cur)
            rng = node.get("range")
            begin = end = None
            if isinstance(rng, dict):
                begin = _decode_loc(rng.get("begin"), cur)
                end = _decode_loc(rng.get("end"), cur)
            del end
            where = loc or begin
            token = self._enter(node, where)
            stack.append((node, token or ()))
            inner = node.get("inner")
            if inner:
                for child in reversed(inner):
                    if isinstance(child, dict) and "kind" in child:
                        stack.append((child, None))

    # -- enter/leave ------------------------------------------------------

    def _enter(self, node, where):
        kind = node.get("kind", "")
        rel = None
        line = 0
        if where is not None:
            rel = self._rel(where[0])
            line = where[1]
            if rel is not None:
                self.files_seen.add(rel)

        token = []

        if kind in CONTEXT_KINDS:
            name = node.get("name", "(anon)")
            self._ns.append(name)
            token.append("ns")
            if kind != "NamespaceDecl" and node.get("completeDefinition"):
                cid = node.get("id")
                if cid and cid not in self.classes:
                    self.classes[cid] = _ClassInfo("::".join(self._ns))
                self._record_ids.append(cid)
                token.append("record")
        elif kind == "FieldDecl":
            self._on_field(node, rel, line)
        elif kind in FUNC_KINDS:
            self._on_func_decl(node)
            self._funcs.append(self._make_func_frame(node))
            token.append("func")
        elif kind == "LambdaExpr":
            parent_class = self._funcs[-1].class_id if self._funcs else None
            # A lambda body runs later: never inherit the lock state.
            self._funcs.append(_Func(parent_class, False))
            token.append("func")
        elif kind == "CompoundStmt":
            if self._funcs:
                self._funcs[-1].compound_stack.append(0)
                token.append("compound")
        elif kind in LOOP_KINDS:
            if self._funcs and rel is not None:
                self._funcs[-1].loops.append(_Loop(rel, line))
                token.append("loop")
        elif kind == "VarDecl":
            self._on_var(node, rel, line)
        elif kind in ("CXXConstructExpr", "CXXTemporaryObjectExpr"):
            self._on_construct(node, rel, line)
        elif kind == "CXXNewExpr":
            if rel is not None and not node.get("isPlacement"):
                self._report(rel, line, "naked-new",
                             "naked new; use std::make_unique/make_shared")
        elif kind == "CallExpr":
            self._on_call(node, rel, line)
        elif kind == "CXXMemberCallExpr":
            self._on_member_call(node, rel, line)
        elif kind == "CXXOperatorCallExpr":
            self._on_operator_call(node, rel, line)
        elif kind in ("BinaryOperator", "CompoundAssignOperator"):
            op = node.get("opcode", "")
            if op == "=" or op.endswith("="):
                self._on_write(node, rel, line)
        elif kind == "UnaryOperator":
            if node.get("opcode") in ("++", "--"):
                self._on_write(node, rel, line)

        return token

    def _leave(self, node, token):
        for t in reversed(token):
            if t == "ns":
                self._ns.pop()
            elif t == "record":
                self._record_ids.pop()
            elif t == "func":
                self._funcs.pop()
            elif t == "compound":
                if self._funcs and self._funcs[-1].compound_stack:
                    n = self._funcs[-1].compound_stack.pop()
                    self._funcs[-1].lock_depth -= n
            elif t == "loop":
                # A loop's flags are final once its subtree is walked
                # (kernel calls / charges mark every open enclosing loop as
                # they're seen). A charge anywhere in the nest — including
                # *after* an inner loop, the amortized sub-batch idiom —
                # forgives the whole nest; otherwise the innermost kernel
                # loops bubble up and are reported when the nest ends
                # uncharged.
                if self._funcs and self._funcs[-1].loops:
                    loop = self._funcs[-1].loops.pop()
                    if loop.has_charge:
                        pending = []
                    elif loop.pending:
                        pending = loop.pending
                    elif loop.has_dist:
                        pending = [(loop.file, loop.line)]
                    else:
                        pending = []
                    if self._funcs[-1].loops:
                        self._funcs[-1].loops[-1].pending.extend(pending)
                    else:
                        for file, line in pending:
                            self._report(
                                file, line, "budget-charge",
                                "loop calls a distance kernel but no path "
                                "through it (or an enclosing loop) charges "
                                "a BudgetTracker (ChargeDistance/ChargeHop/"
                                "CheckNow or passing the tracker to a "
                                "callee)")
        del node

    # -- per-kind handlers ------------------------------------------------

    def _on_field(self, node, rel, line):
        if not self._record_ids:
            return
        info = self.classes.get(self._record_ids[-1])
        if info is None:
            return
        qual, desugared = _type_strings(node)
        if MBI_MUTEX_TYPE_RE.search(qual) and "MutexLock" not in qual:
            info.has_mutex = True
        guarded = _has_attr(node, ("GuardedByAttr", "PtGuardedByAttr"))
        info.fields[node.get("id")] = {
            "name": node.get("name", "?"), "guarded": guarded,
            "self_sync": bool(SELF_SYNC_TYPE_RE.search(qual) or
                              SELF_SYNC_TYPE_RE.search(desugared)),
            "const": qual.startswith("const "),
            "file": rel, "line": line,
        }
        if rel is not None:
            self._check_decl_types(node, rel, line)

    def _on_func_decl(self, node):
        did = node.get("id")
        name = node.get("name")
        if did and name:
            qname = "::".join([p for p in self._ns if p != "(anon)"] + [name])
            self.decl_qnames[did] = qname

    def _make_func_frame(self, node):
        if self._record_ids:
            class_id = self._record_ids[-1]
        else:
            class_id = node.get("parentDeclContextId")
        requires = _has_attr(node, ("RequiresCapabilityAttr",))
        return _Func(class_id, requires)

    def _check_decl_types(self, node, rel, line):
        qual, desugared = _type_strings(node)
        msg = _pointer_keyed(qual, desugared)
        if msg:
            self._report(rel, line, "pointer-key", msg)
        for t in (qual, desugared):
            if RAW_MUTEX_TYPE_RE.search(t):
                self._report(rel, line, "raw-mutex",
                             "raw std:: synchronization primitive (%s); use "
                             "the annotated mbi::Mutex/MutexLock/CondVar"
                             % qual)
                break
        for t in (qual, desugared):
            if THREAD_TYPE_RE.search(t):
                self._report(rel, line, "naked-thread",
                             "raw std::thread (%s); use util::ThreadPool"
                             % qual)
                break

    def _on_var(self, node, rel, line):
        qual, desugared = _type_strings(node)
        if self._funcs and (MUTEX_LOCK_TYPE_RE.search(qual) or
                            "lock_guard" in desugared):
            frame = self._funcs[-1]
            frame.lock_depth += 1
            if frame.compound_stack:
                frame.compound_stack[-1] += 1
        if rel is not None:
            self._check_decl_types(node, rel, line)
            if RANDOM_DEVICE_RE.search(qual) or RANDOM_DEVICE_RE.search(desugared):
                self._report(rel, line, "unseeded-entropy",
                             "std::random_device is nondeterministic; derive "
                             "seeds with DeriveSeedStream (util/rng.h)")

    def _on_construct(self, node, rel, line):
        if rel is None:
            return
        qual, desugared = _type_strings(node)
        if RANDOM_DEVICE_RE.search(qual) or RANDOM_DEVICE_RE.search(desugared):
            self._report(rel, line, "unseeded-entropy",
                         "std::random_device is nondeterministic; derive "
                         "seeds with DeriveSeedStream (util/rng.h)")
            return
        if ENGINE_TYPE_RE.search(qual) or ENGINE_TYPE_RE.search(desugared):
            args = [c for c in node.get("inner", ())
                    if isinstance(c, dict) and
                    c.get("kind") != "CXXDefaultArgExpr"]
            if not args:
                self._report(rel, line, "unseeded-entropy",
                             "default-constructed %s (constant seed, not "
                             "DeriveSeed-fed); seed it from util/rng.h"
                             % (qual or "std engine"))
        if THREAD_TYPE_RE.search(qual) or THREAD_TYPE_RE.search(desugared):
            self._report(rel, line, "naked-thread",
                         "raw std::thread; use util::ThreadPool")

    def _mark_loops(self, attr):
        for frame in self._funcs[-1:]:
            for loop in frame.loops:
                setattr(loop, attr, True)

    def _charge_via_args(self, node):
        for child in node.get("inner", ())[1:]:
            if not isinstance(child, dict):
                continue
            t = child.get("type", {}).get("qualType", "")
            if "BudgetTracker" in t:
                return True
        return False

    def _on_call(self, node, rel, line):
        ref = _callee_ref(node)
        if ref is None:
            return
        qname = self._qname(ref)
        if rel is not None:
            if WALL_CLOCK_QUAL_RE.search(qname) or qname in WALL_CLOCK_C_FUNCS:
                self._report(rel, line, "wall-clock",
                             "wall-clock read (%s); route through "
                             "util/clock.h NowNanos()" % qname)
            if qname in ENTROPY_C_FUNCS:
                self._report(rel, line, "unseeded-entropy",
                             "%s() is unseeded entropy; use a DeriveSeed-fed "
                             "mbi::Rng (util/rng.h)" % qname)
        if self._funcs:
            if qname in DISTANCE_KERNELS or qname.endswith("::operator()") and \
                    "DistanceFunction" in qname:
                self._mark_loops("has_dist")
            if self._charge_via_args(node):
                self._mark_loops("has_charge")

    def _member_info(self, node):
        """(member name, member qualified name, base var id, base var type)
        for a CXXMemberCallExpr."""
        inner = node.get("inner")
        if not inner:
            return None
        member = None
        for n in iter_subnodes(inner[0]):
            if n.get("kind") == "MemberExpr":
                member = n
                break
        if member is None:
            return None
        name = member.get("name", "")
        mid = member.get("referencedMemberDecl")
        qname = self.decl_qnames.get(mid, name)
        var_id, var_type = _first_var_ref(member)
        return name, qname, mid, var_id, var_type

    def _is_result_member(self, qname, var_type):
        return ("Result" in qname.rsplit("::", 1)[0] or
                "Result<" in var_type)

    def _on_member_call(self, node, rel, line):
        info = self._member_info(node)
        if info is None:
            return
        name, qname, mid, var_id, var_type = info

        # Determinism: member now() (e.g. a Clock-like type calling
        # system_clock::now through an alias) — covered by qname.
        if rel is not None and WALL_CLOCK_QUAL_RE.search(qname):
            self._report(rel, line, "wall-clock",
                         "wall-clock read (%s); route through util/clock.h "
                         "NowNanos()" % qname)

        # Budget charging.
        if self._funcs:
            if name in CHARGE_METHODS and (
                    "BudgetTracker" in qname or "BudgetTracker" in var_type):
                self._mark_loops("has_charge")
            if name == "operator()" and "DistanceFunction" in qname:
                self._mark_loops("has_dist")
            if self._charge_via_args(node):
                self._mark_loops("has_charge")

        # Status flow.
        if self._funcs and self._is_result_member(qname, var_type):
            frame = self._funcs[-1]
            if name in ("ok", "status") and var_id:
                frame.guarded_vars.add(var_id)
            elif name == "value" and rel is not None:
                if var_id is None or var_id not in frame.guarded_vars:
                    self._report(
                        rel, line, "unchecked-result",
                        "Result::value() with no earlier .ok()/.status() "
                        "check on the same object in this function")

        # Lock coverage: mutating member call on a field.
        if name in MUTATING_METHODS:
            self._field_write_from(node, rel, line)

    def _on_operator_call(self, node, rel, line):
        ref = _callee_ref(node)
        qname = self._qname(ref) if ref else ""
        if self._funcs and qname.endswith("operator()") and \
                "DistanceFunction" in qname:
            self._mark_loops("has_dist")
        if self._funcs and self._charge_via_args(node):
            self._mark_loops("has_charge")
        if qname.endswith("operator=") or qname.endswith("operator++") or \
                qname.endswith("operator--") or qname.endswith("operator+="):
            self._on_write(node, rel, line)

    def _on_write(self, node, rel, line):
        self._field_write_from(node, rel, line)

    def _field_write_from(self, node, rel, line):
        """The write target of `node` may name fields of the current
        method's class; record candidates (resolved after the walk, when the
        class's field table and has_mutex flag are complete)."""
        del rel, line
        if not self._funcs:
            return
        frame = self._funcs[-1]
        if frame.class_id is None:
            return
        if frame.lock_depth <= 0 and not frame.requires_lock:
            return
        inner = node.get("inner")
        if not inner:
            return
        # For operator-call syntax the written object is the first argument;
        # otherwise the LHS / callee subtree holds the member chain.
        target = inner[1] if (node.get("kind") == "CXXOperatorCallExpr"
                              and len(inner) > 1) else inner[0]
        for n in iter_subnodes(target):
            if n.get("kind") == "MemberExpr":
                mid = n.get("referencedMemberDecl")
                if mid:
                    self._pending_writes.append((frame.class_id, mid))

    def resolve_pending_writes(self):
        for class_id, mid in self._pending_writes:
            info = self.classes.get(class_id)
            if info is None or not info.has_mutex:
                continue
            field = info.fields.get(mid)
            if field is None:
                continue
            if field["guarded"] or field["self_sync"] or field["const"]:
                continue
            key = "%s::%s" % (info.qname, field["name"])
            self.lock_facts.setdefault(key, {
                "file": field["file"], "line": field["line"],
                "class": info.qname, "field": field["name"],
            })


# ---------------------------------------------------------------------------
# Text-level pass (runs on every scanned repo file, with or without clang):
# MBI_IGNORE_STATUS justification comments, memcpy lengths, header guards.

IGNORE_STATUS_RE = re.compile(r"\bMBI_IGNORE_STATUS\s*\(")
MEMCPY_RE = re.compile(r"\bmemcpy\s*\(")
TRUSTED_LEN_RE = re.compile(r"sizeof\b|^\s*\d+\s*$")
HEADER_GUARD_RE = re.compile(r"#ifndef\s+\w+\s*\n\s*#define\s+\w+")


def scan_ignore_status(rel: str, lines: list[str]) -> list[Finding]:
    out = []
    if "ignore-status" not in active_rules(rel):
        return out
    for i, line in enumerate(lines):
        if not IGNORE_STATUS_RE.search(line):
            continue
        if line.lstrip().startswith("#define"):
            continue
        m = IGNORE_STATUS_RE.search(line)
        after = line[m.end():]
        has_comment = "//" in after or \
            (i > 0 and lines[i - 1].lstrip().startswith("//"))
        if not has_comment:
            out.append(Finding(
                rel, i + 1, "ignore-status",
                "MBI_IGNORE_STATUS without a justification comment on this "
                "line or the line above"))
    return out


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def extract_call_args(code: str, open_paren: int) -> list[str]:
    """Splits the top-level comma-separated args of the call at `open_paren`."""
    depth, args, start = 0, [], open_paren + 1
    for i in range(open_paren, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(code[start:i])
                return args
        elif c == "," and depth == 1:
            args.append(code[start:i])
            start = i + 1
    return args


def scan_text_rules(rel: str, lines: list[str]) -> list[Finding]:
    """unchecked-memcpy and header-guard findings for one file."""
    out = []
    rules = active_rules(rel)
    text = "\n".join(lines)
    if "header-guard" in rules:
        head = "\n".join(lines[:50])
        if "#pragma once" not in head and not HEADER_GUARD_RE.search(head):
            out.append(Finding(
                rel, 1, "header-guard",
                "header lacks #pragma once or an include guard"))
    if "unchecked-memcpy" in rules:
        code = strip_comments_and_strings(text)
        for m in MEMCPY_RE.finditer(code):
            args = extract_call_args(code, m.end() - 1)
            if len(args) != 3:
                continue  # not the 3-arg libc memcpy
            length = args[2].strip()
            if not TRUSTED_LEN_RE.search(length):
                out.append(Finding(
                    rel, code.count("\n", 0, m.start()) + 1,
                    "unchecked-memcpy",
                    "memcpy length `%s` is neither a literal nor "
                    "sizeof-derived; validate it or move the parse into a "
                    "persist/ framed reader" % " ".join(length.split())))
    return out


# ---------------------------------------------------------------------------
# Waivers

def load_lines(path: pathlib.Path) -> list[str]:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return []


def waivers_for_line(lines: list[str], lineno: int) -> set[str]:
    rules = set()
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines):
            m = ALLOW_RE.search(lines[ln - 1])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def apply_waivers(findings, file_lines):
    """Splits findings into (kept, consumed) where consumed is a set of
    (file, waiver-line, rule) triples actually used."""
    kept, consumed = [], set()
    for f in findings:
        lines = file_lines.get(f.file)
        if lines is None:
            kept.append(f)
            continue
        waived = False
        for ln in (f.line, f.line - 1):
            if 1 <= ln <= len(lines):
                m = ALLOW_RE.search(lines[ln - 1])
                if m and f.rule in {r.strip() for r in m.group(1).split(",")}:
                    consumed.add((f.file, ln, f.rule))
                    waived = True
                    break
        if not waived:
            kept.append(f)
    return kept, consumed


def scan_waiver_rot(all_files, file_lines, consumed,
                    judged=ANALYZER_RULES) -> list[Finding]:
    """Stale waivers for the `judged` rules (the rules whose findings this
    run produced) and unknown rule names."""
    out = []
    for rel in sorted(all_files):
        lines = file_lines.get(rel, [])
        for i, line in enumerate(lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            for rule in (r.strip() for r in m.group(1).split(",")):
                if rule not in ANALYZER_RULES:
                    out.append(Finding(
                        rel, i, "unknown-waiver",
                        "waiver names unknown rule '%s' (known: %s)"
                        % (rule, ", ".join(sorted(ANALYZER_RULES)))))
                elif rule in judged and \
                        rule in active_rules(rel) and \
                        (rel, i, rule) not in consumed and \
                        (rel, i + 1, rule) not in consumed:
                    out.append(Finding(
                        rel, i, "stale-waiver",
                        "waiver for '%s' no longer suppresses anything; "
                        "remove it" % rule))
    return out


# ---------------------------------------------------------------------------
# Clang discovery and the AST-dump probe (pinned in CI; actionable locally).

CLANG_CANDIDATES = (
    "clang++-20", "clang++-19", "clang++-18", "clang++-17", "clang++-16",
    "clang++-15", "clang++-14", "clang++",
)


def find_clang(explicit: str | None) -> str | None:
    if explicit:
        return explicit if shutil.which(explicit) else None
    env = os.environ.get("MBI_CLANG")
    if env:
        return env if shutil.which(env) else None
    for c in CLANG_CANDIDATES:
        if shutil.which(c):
            return c
    return None


def probe_clang(clang: str) -> str | None:
    """Returns an error message if `clang` can't emit AST JSON, else None."""
    with tempfile.NamedTemporaryFile("w", suffix=".cc", delete=False) as f:
        f.write("int mbi_probe;\n")
        probe_src = f.name
    try:
        proc = subprocess.run(
            [clang, "-fsyntax-only", "-Xclang", "-ast-dump=json", probe_src],
            capture_output=True, text=True, timeout=60)
        if proc.returncode != 0 or not proc.stdout.lstrip().startswith("{"):
            version = subprocess.run([clang, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[:1]
            return ("%s cannot emit `-Xclang -ast-dump=json` (%s). "
                    "mbi-analyzer needs clang >= 10 with the JSON AST "
                    "dumper; install the pinned CI version (see "
                    ".github/workflows/ci.yml lint job) or point MBI_CLANG "
                    "at a capable clang++.\nstderr: %s"
                    % (clang, version[0] if version else "unknown version",
                       proc.stderr.strip()[:500]))
        try:
            json.loads(proc.stdout)
        except json.JSONDecodeError as e:
            return "%s produced unparseable AST JSON: %s" % (clang, e)
        return None
    finally:
        os.unlink(probe_src)


# ---------------------------------------------------------------------------
# Compile database handling

def load_compile_db(path: pathlib.Path):
    entries = json.loads(path.read_text())
    tus = []
    for e in entries:
        src = pathlib.Path(e["file"])
        if not src.is_absolute():
            src = pathlib.Path(e["directory"]) / src
        src = src.resolve()
        try:
            rel = src.relative_to(REPO)
        except ValueError:
            continue
        if rel.parts[0] not in SCAN_DIRS:
            continue
        if "arguments" in e:
            args = list(e["arguments"])
        else:
            args = shlex.split(e["command"])
        tus.append({"file": str(src), "rel": str(rel),
                    "dir": e["directory"], "args": args})
    return tus


def analysis_args(tu, clang: str) -> list[str]:
    """Original flags with the compiler swapped for clang, output dropped,
    warnings silenced, and the JSON dump requested."""
    out = [clang]
    args = tu["args"][1:]
    skip = 0
    for a in args:
        if skip:
            skip -= 1
            continue
        if a in ("-c", "-MMD", "-MP"):
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip = 1
            continue
        if a == tu["file"]:
            continue
        out.append(a)
    out += ["-fsyntax-only", "-Wno-everything", "-Xclang", "-ast-dump=json",
            tu["file"]]
    return out


def tu_cache_key(tu, clang_version: str) -> str:
    h = hashlib.sha256()
    h.update(clang_version.encode())
    h.update(("\0".join(tu["args"])).encode())
    h.update(pathlib.Path(__file__).read_bytes())
    try:
        h.update(pathlib.Path(tu["file"]).read_bytes())
    except OSError:
        pass
    for dep in tu.get("deps", ()):
        h.update(dep.encode())
        try:
            h.update((REPO / dep).read_bytes())
        except OSError:
            pass
    return h.hexdigest()[:32]


def repo_deps(tu, clang: str) -> list[str]:
    """Repo-relative headers the TU includes, via `clang -MM` (falls back to
    every repo header so the cache key stays sound)."""
    cmd = [clang] + analysis_args(tu, clang)[1:]
    cmd = [a for a in cmd if a not in ("-Xclang", "-ast-dump=json")]
    cmd += ["-MM", "-MF", "-"]
    try:
        proc = subprocess.run(cmd, cwd=tu["dir"], capture_output=True,
                              text=True, timeout=120)
        if proc.returncode == 0:
            deps = []
            for token in proc.stdout.replace("\\\n", " ").split()[1:]:
                p = pathlib.Path(token)
                if not p.is_absolute():
                    p = (pathlib.Path(tu["dir"]) / p).resolve()
                try:
                    deps.append(str(p.relative_to(REPO)))
                except ValueError:
                    pass
            return sorted(set(deps))
    except (OSError, subprocess.TimeoutExpired):
        pass
    return sorted(str(p.relative_to(REPO))
                  for p in (REPO / "src").rglob("*.h"))


def analyze_tu(tu, clang: str) -> dict:
    """Runs clang on one TU and extracts facts (no waiver logic here)."""
    cmd = analysis_args(tu, clang)
    with tempfile.TemporaryFile("w+") as dump:
        proc = subprocess.run(cmd, cwd=tu["dir"], stdout=dump,
                              stderr=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(
                "clang failed on %s (exit %d):\n%s"
                % (tu["rel"], proc.returncode, proc.stderr.strip()[:2000]))
        dump.seek(0)
        root = json.load(dump)
    ta = TuAnalysis(REPO)
    ta.walk(root)
    ta.resolve_pending_writes()
    ta.files_seen.add(tu["rel"])
    return {
        "findings": [f.as_dict() for f in ta.findings],
        "lock_facts": ta.lock_facts,
        "files_seen": sorted(ta.files_seen),
    }


def analyze_tu_cached(tu, clang, clang_version, cache_dir):
    tu = dict(tu)
    tu["deps"] = repo_deps(tu, clang)
    key = tu_cache_key(tu, clang_version)
    cache_file = cache_dir / (key + ".json")
    if cache_file.exists():
        try:
            return json.loads(cache_file.read_text()), True
        except (OSError, json.JSONDecodeError):
            pass
    facts = analyze_tu(tu, clang)
    cache_dir.mkdir(parents=True, exist_ok=True)
    cache_file.write_text(json.dumps(facts))
    return facts, False


# ---------------------------------------------------------------------------
# Ratchet

def check_ratchet(lock_facts: dict, update: bool,
                  ratchet_path: pathlib.Path) -> list[Finding]:
    try:
        ratchet = set(json.loads(ratchet_path.read_text())["lock_coverage"])
    except (OSError, KeyError, json.JSONDecodeError):
        ratchet = set()
    observed = set(lock_facts)
    if update:
        ratchet_path.write_text(json.dumps(
            {"lock_coverage": sorted(observed)}, indent=2) + "\n")
        return []
    out = []
    for key in sorted(observed - ratchet):
        site = lock_facts[key]
        out.append(Finding(
            site.get("file") or "?", site.get("line") or 0, "lock-coverage",
            "field %s is written under its class's Mutex but not "
            "MBI_GUARDED_BY-annotated (new debt; annotate it — the ratchet "
            "only shrinks)" % key))
    for key in sorted(ratchet - observed):
        try:
            where = str(ratchet_path.relative_to(REPO))
        except ValueError:
            where = str(ratchet_path)
        out.append(Finding(
            where, 1, "lock-coverage",
            "ratchet entry %s is no longer observed; shrink ratchet.json "
            "(rerun with --update-ratchet)" % key))
    return out


# ---------------------------------------------------------------------------
# Driver

def gather_repo_files() -> list[str]:
    out = []
    for d in SCAN_DIRS:
        root = REPO / d
        if root.is_dir():
            for p in sorted(root.rglob("*")):
                if p.suffix in (".h", ".cc"):
                    out.append(str(p.relative_to(REPO)))
    return out


def run_analysis(tus, clang, jobs, update_ratchet, verbose=False,
                 ratchet_path=RATCHET_PATH, scope=None):
    """`scope`, when given, is a set of repo-relative paths: findings, the
    text pass, waiver-rot scanning and lock facts are all restricted to
    those files (self-test mode analyzes fixtures without dragging the rest
    of the tree in). With `clang` None only the text rules run: no AST
    walk, no ratchet, and only text-rule waivers are judged stale."""

    findings: list[Finding] = []
    seen_keys = set()
    lock_facts: dict[str, dict] = {}
    files_seen: set[str] = set()
    cached_hits = 0

    def merge(facts):
        nonlocal cached_hits
        for fd in facts["findings"]:
            f = Finding(fd["file"], fd["line"], fd["rule"], fd["message"])
            if f.key() not in seen_keys:
                seen_keys.add(f.key())
                findings.append(f)
        for key, site in facts["lock_facts"].items():
            lock_facts.setdefault(key, site)
        files_seen.update(facts["files_seen"])

    if clang is not None:
        clang_version = subprocess.run(
            [clang, "--version"], capture_output=True, text=True).stdout
        cache_dir = pathlib.Path(
            os.environ.get("MBI_ANALYZER_CACHE",
                           str(REPO / "build" / ".mbi_analyzer_cache")))
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(analyze_tu_cached, tu, clang,
                                   clang_version, cache_dir): tu
                       for tu in tus}
            for fut in concurrent.futures.as_completed(futures):
                facts, was_cached = fut.result()
                cached_hits += was_cached
                merge(facts)
        if verbose:
            print("mbi-analyzer: %d TU(s), %d from cache" %
                  (len(tus), cached_hits), file=sys.stderr)

    if scope is not None:
        findings = [f for f in findings if f.file in scope]
        lock_facts = {k: s for k, s in lock_facts.items()
                      if s.get("file") in scope}

    # Text-level pass + waiver bookkeeping over every repo file the AST
    # walk touched (headers included), plus all scannable files for rot.
    if scope is not None:
        all_repo_files = set(scope)
        scan_set = sorted(scope)
    else:
        all_repo_files = set(gather_repo_files())
        scan_set = sorted((files_seen | all_repo_files)
                          if tus else all_repo_files)
    file_lines = {rel: load_lines(REPO / rel) for rel in scan_set}
    for rel in scan_set:
        for f in (scan_ignore_status(rel, file_lines[rel]) +
                  scan_text_rules(rel, file_lines[rel])):
            if f.key() not in seen_keys:
                seen_keys.add(f.key())
                findings.append(f)

    kept, consumed = apply_waivers(findings, file_lines)

    # Lock-coverage facts are waivable at the field's declaration site,
    # then ratcheted.
    lock_kept = {}
    for key, site in lock_facts.items():
        lines = file_lines.get(site.get("file") or "", [])
        waived = False
        for ln in (site.get("line") or 0, (site.get("line") or 0) - 1):
            if 1 <= ln <= len(lines):
                m = ALLOW_RE.search(lines[ln - 1])
                if m and "lock-coverage" in {r.strip()
                                             for r in m.group(1).split(",")}:
                    consumed.add((site["file"], ln, "lock-coverage"))
                    waived = True
                    break
        if not waived:
            lock_kept[key] = site
    if clang is not None:
        kept.extend(check_ratchet(lock_kept, update_ratchet, ratchet_path))

    kept.extend(scan_waiver_rot(
        all_repo_files, file_lines, consumed,
        ANALYZER_RULES if clang is not None else TEXT_RULES))
    kept.sort(key=lambda f: (f.file, f.line, f.rule))
    return kept


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], prog="mbi_analyzer")
    ap.add_argument("--compile-commands", type=pathlib.Path,
                    default=REPO / "build" / "compile_commands.json")
    ap.add_argument("--clang", default=None,
                    help="clang++ to use (default: $MBI_CLANG or PATH search)")
    ap.add_argument("--jobs", type=int,
                    default=min(4, os.cpu_count() or 1))
    ap.add_argument("--require-clang", action="store_true",
                    help="exit 2 instead of 0 when no usable clang exists "
                         "(CI mode; locally the analyzer degrades to a skip)")
    ap.add_argument("--update-ratchet", action="store_true",
                    help="rewrite ratchet.json from the observed set")
    ap.add_argument("--ratchet", type=pathlib.Path, default=RATCHET_PATH,
                    help="ratchet file to compare lock-coverage debt against")
    ap.add_argument("--check-file", type=pathlib.Path, action="append",
                    default=[], help="analyze the given file(s) instead of "
                    "the compile database (self-test mode)")
    ap.add_argument("--flags", nargs=argparse.REMAINDER, default=[],
                    help="compile flags for --check-file TUs")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    clang = find_clang(args.clang)
    if clang is None:
        msg = ("mbi-analyzer: no clang++ found (tried --clang, $MBI_CLANG, "
               "then %s). Install the pinned CI clang (see the lint job in "
               ".github/workflows/ci.yml) to run the AST checks locally."
               % ", ".join(CLANG_CANDIDATES))
        print(msg, file=sys.stderr)
        if args.require_clang:
            return 2
        print("mbi-analyzer: running the text rules only", file=sys.stderr)
    else:
        err = probe_clang(clang)
        if err is not None:
            print("mbi-analyzer: " + err, file=sys.stderr)
            return 2

    scope = None
    if args.check_file:
        flags = [f for f in args.flags if f != "--"]
        tus = [{"file": str(p.resolve()),
                "rel": str(p.resolve().relative_to(REPO)),
                "dir": str(REPO),
                "args": [clang] + flags + [str(p.resolve())]}
               for p in args.check_file]
        scope = {tu["rel"] for tu in tus}
    elif clang is None:
        tus = []
    else:
        if not args.compile_commands.exists():
            print("mbi-analyzer: %s not found; configure cmake first "
                  "(CMAKE_EXPORT_COMPILE_COMMANDS is always on)"
                  % args.compile_commands, file=sys.stderr)
            return 2
        tus = load_compile_db(args.compile_commands)
        if not tus:
            print("mbi-analyzer: compile database has no repo TUs",
                  file=sys.stderr)
            return 2

    findings = run_analysis(tus, clang, args.jobs, args.update_ratchet,
                            args.verbose, ratchet_path=args.ratchet,
                            scope=scope)
    for f in findings:
        print("%s:%d: [%s] %s" % (f.file, f.line, f.rule, f.message))
    what = "%d TU(s)" % len(tus) if clang is not None else "text rules only"
    if findings:
        print("\nmbi-analyzer: %d finding(s) (%s). Waive intentional sites "
              "with `// mbi-lint: allow(<rule>) — why`."
              % (len(findings), what), file=sys.stderr)
        return 1
    print("mbi-analyzer: OK (%s)" % what)
    return 0


if __name__ == "__main__":
    sys.exit(main())

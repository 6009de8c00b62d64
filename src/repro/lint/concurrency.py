"""Concurrency & serialization rules over the multiprocessing stack.

The measure layer runs weeks-long campaigns through forked, supervised
workers (PR 6) — the failure modes that corrupt such runs are not
syntax-local, they live at the *process boundary*:

* **MP02 pickle-safety** — every value that crosses a process boundary
  (``Process(target=..., args=...)``, ``Connection.send``, pool
  submissions) is resolved through the call graph and checked for
  statically unpicklable shapes: lambdas, locally-defined functions and
  closures, generators, open file handles, module-level
  ``random.Random`` instances, and instances of classes that hold any
  of these. Failures pickle *at submission time* — in the parent, hours
  in — or worse, silently on some platforms' spawn contexts.
* **MP03 fork hygiene** — the interprocedural extension of MP01: any
  module-level mutable (or ``global``-rebound) state reachable from a
  child-entry function (the ``target=`` frontier, pool submissions, and
  supervisor-style callables handed to spawning constructors) must be
  reset (``reset_world_tracking()``-style) *before* the child reads or
  mutates it; pre-fork locks/handles used on the child side are flagged
  outright — they do not survive the fork.
* **RES02 process/pipe lifecycle** — a second domain of the one
  abstract interpreter in :mod:`repro.lint.protocol` (the walk that
  also runs ATOM01/RES01's handle protocol) runs two automata::

      Process:    created -> started -> {joined | terminated -> joined}
      Connection: open -> closed

  and requires join/terminate-domination and close-domination on *all*
  paths, exception edges and ``KeyboardInterrupt`` teardown included,
  with per-function effect summaries (``_kill_process`` joins and
  terminates its parameter) so supervisor-style indirection is
  followed.
* **SIG01 signal-path safety** — code reachable from a registered
  signal handler, or placed after an ``os.kill(os.getpid(), ...)``
  self-kill, is restricted to async-signal-tolerant operations: no
  lock acquisition, no buffered-IO flushes, no ``open``/``print``/
  logging machinery. A handler may run inside *any* bytecode; code
  after a self-signal races the handler (or never runs at all).
* **ASY01 blocking-call-in-async** — no ``time.sleep``, blocking
  ``Connection.recv``/``poll(None)``, ``subprocess.run``, or
  synchronous file IO inside ``async def`` in the daemon zones — a
  forward-looking hard gate the ROADMAP's ``repro.serve`` work
  inherits on day one.

Everything unresolvable (dynamic dispatch, attribute-held receivers,
values from unknown calls) drops out of tracking — the conservative,
non-flagging direction, as everywhere in replint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Iterator, Optional

from repro.lint.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    _dotted,
    _walk_function_body,
)
from repro.lint.policy import RulePolicy
from repro.lint.protocol import (
    _chain_suffix,
    _ExitBundle,
    _fixpoint,
    _forget,
    _tail,
    _Walker,
    _zone_runs,
)
from repro.lint.rules import (
    _MUTATING_METHODS,
    Finding,
    ForkStateRule,
    ModuleContext,
    ProjectRule,
    Rule,
    _span,
)

# ---------------------------------------------------------------------------
# process-boundary detection, shared by MP02/MP03/RES02
# ---------------------------------------------------------------------------

#: Receivers whose trailing component marks a multiprocessing context.
_MP_OWNERS = frozenset({"multiprocessing", "mp", "ctx", "context"})
#: Pool/executor submission methods that pickle their payload.
_POOL_SUBMITS = frozenset({
    "apply", "apply_async", "submit", "map_async", "imap",
    "imap_unordered", "starmap", "starmap_async",
})
#: Connection methods that pickle (send) their argument.
_CONN_SENDS = frozenset({"send", "send_bytes"})
#: Synchronization primitives that must not cross a fork.
_SYNC_CTORS = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
    "Event", "Barrier",
})


def _is_process_ctor(node: ast.Call) -> bool:
    """``Process(...)`` / ``ctx.Process(...)`` / ``mp.Process(...)``."""
    name = _dotted(node.func)
    if name is None or name.split(".")[-1] != "Process":
        return False
    if any(kw.arg == "target" for kw in node.keywords):
        return True
    parts = name.split(".")
    return len(parts) >= 2 and parts[-2] in _MP_OWNERS


def _is_pipe_call(node: ast.Call) -> bool:
    name = _dotted(node.func)
    return name is not None and name.split(".")[-1] == "Pipe"


def _pool_submit(node: ast.Call) -> Optional[str]:
    """The submission method name if this call pickles a payload."""
    if not isinstance(node.func, ast.Attribute):
        return None
    attr = node.func.attr
    if attr in _POOL_SUBMITS:
        return attr
    if attr == "map":
        owner = _dotted(node.func.value)
        if owner is not None:
            tail = owner.split(".")[-1].lower()
            if "pool" in tail or "executor" in tail:
                return attr
    return None


def _connish(name: str) -> bool:
    """Heuristic: does this local name hold a Connection end?"""
    low = name.lower()
    return low in ("conn", "connection") or \
        low.endswith(("_conn", "_end", "_pipe"))


def _is_open_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return True
    return isinstance(func, ast.Attribute) and func.attr == "open"


def _resolve_callable(graph: CallGraph, fn: FunctionInfo,
                      expr: ast.expr) -> Optional[str]:
    """Resolve a callable expression to a project function qname."""
    dotted = _dotted(expr)
    if dotted is None:
        return None
    if "." not in dotted:
        hit = graph._scope_function(fn.qname, dotted)
        if hit is not None:
            return hit
    target = graph.resolve(fn.module, dotted)
    if target is not None and target in graph.functions:
        return target
    if target is not None and target in graph.classes:
        ctor = graph.lookup_method(target, "__init__")
        if ctor is not None:
            return ctor
    return None


# ---------------------------------------------------------------------------
# MP02 — pickle-safety at process boundaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Carrier:
    """An unpicklable shape, with the provenance that produced it."""

    desc: str                    # "a lambda", "a generator", ...
    module: str                  # module holding the shape's source
    line: int
    chain: tuple[str, ...] = ()  # helper chain, outermost first


class PickleSafetyRule(ProjectRule):
    rule_id = "MP02"
    summary = ("unpicklable value crosses a process boundary — "
               "submission fails (or corrupts) at runtime, not import")
    default_policy = RulePolicy(zones=("repro.measure",))

    def check_project(self, graph: CallGraph, rule_policy: RulePolicy,
                      ) -> Iterator[tuple[str, Finding]]:
        carriers = self._return_carriers(graph)
        rng_globals = self._rng_globals(graph)
        class_fields = self._class_fields(graph)
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if not rule_policy.applies_to(fn.module):
                continue
            yield from ((fn.module, finding) for finding in
                        self._check_function(graph, fn, carriers,
                                             rng_globals, class_fields))

    # -- project-wide shape inventory -----------------------------------

    @staticmethod
    def _return_carriers(graph: CallGraph) -> dict[str, _Carrier]:
        """qname -> what *calling* that function hands back, if
        unpicklable: generator functions return generators; helpers
        that return lambdas/handles forward through any number of
        hops (fixpoint over ``return helper(...)`` chains)."""
        carriers: dict[str, _Carrier] = {}
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            for node in _walk_function_body(fn.node):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    carriers[qname] = _Carrier(
                        "a generator", fn.module, fn.line, (qname,))
                    break
        for _ in range(8):
            changed = False
            for qname in sorted(graph.functions):
                if qname in carriers:
                    continue
                fn = graph.functions[qname]
                callee_of = {id(site.node): site.callee
                             for site in fn.calls
                             if site.callee is not None}
                for node in _walk_function_body(fn.node):
                    if not isinstance(node, ast.Return) or \
                            node.value is None:
                        continue
                    hit = PickleSafetyRule._direct_shape(
                        graph, fn, node.value)
                    if hit is None and isinstance(node.value, ast.Call):
                        callee = callee_of.get(id(node.value))
                        inner = carriers.get(callee) if callee else None
                        if inner is not None:
                            hit = replace(inner,
                                          chain=(qname,) + inner.chain)
                    if hit is not None:
                        if not hit.chain:
                            hit = replace(hit, chain=(qname,))
                        carriers[qname] = hit
                        changed = True
                        break
            if not changed:
                break
        return carriers

    @staticmethod
    def _direct_shape(graph: CallGraph, fn: FunctionInfo,
                      expr: ast.expr) -> Optional[_Carrier]:
        """An expression that *is* an unpicklable shape, context-free."""
        if isinstance(expr, ast.Lambda):
            return _Carrier("a lambda", fn.module, expr.lineno)
        if isinstance(expr, ast.GeneratorExp):
            return _Carrier("a generator expression", fn.module,
                            expr.lineno)
        if isinstance(expr, ast.Call) and _is_open_call(expr):
            return _Carrier("an open file handle", fn.module,
                            expr.lineno)
        if isinstance(expr, ast.Name):
            nested = graph._scope_function(fn.qname, expr.id)
            if nested is not None:
                target = graph.functions[nested]
                return _Carrier(
                    f"the locally-defined function '{expr.id}'",
                    target.module, target.line)
        return None

    @staticmethod
    def _rng_globals(graph: CallGraph) -> dict[tuple[str, str],
                                               int]:
        """(module, name) -> line of module-level ``random.Random``."""
        out: dict[tuple[str, str], int] = {}
        for module in sorted(graph.modules):
            info = graph.modules[module]
            for stmt in info.tree.body:
                if not isinstance(stmt, ast.Assign) or \
                        not isinstance(stmt.value, ast.Call):
                    continue
                dotted = _dotted(stmt.value.func)
                if dotted is None or dotted.split(".")[-1] != "Random":
                    continue
                head = dotted.split(".")[0]
                target = info.imports.get(head)
                is_rng = (target == "random" or
                          target == "random.Random" or
                          dotted == "random.Random")
                if not is_rng:
                    continue
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        out[(module, tgt.id)] = stmt.lineno
        return out

    @staticmethod
    def _class_fields(graph: CallGraph) -> dict[str, tuple[str, str,
                                                           str, int]]:
        """class qname -> (attr, desc, module, line) of one
        unpicklable field assigned in the class body's methods."""
        out: dict[str, tuple[str, str, str, int]] = {}
        for cls_qname in sorted(graph.classes):
            info = graph.classes[cls_qname]
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                target = node.targets[0] if len(node.targets) == 1 \
                    else None
                if not (isinstance(target, ast.Attribute) and
                        isinstance(target.value, ast.Name) and
                        target.value.id == "self"):
                    continue
                desc: Optional[str] = None
                if isinstance(node.value, ast.Lambda):
                    desc = "a lambda"
                elif isinstance(node.value, ast.GeneratorExp):
                    desc = "a generator expression"
                elif isinstance(node.value, ast.Call) and \
                        _is_open_call(node.value):
                    desc = "an open file handle"
                if desc is not None:
                    out.setdefault(cls_qname, (target.attr, desc,
                                               info.module, node.lineno))
        return out

    # -- per-function boundary scan -------------------------------------

    def _check_function(self, graph: CallGraph, fn: FunctionInfo,
                        carriers: dict[str, _Carrier],
                        rng_globals: dict[tuple[str, str], int],
                        class_fields: dict[str, tuple[str, str, str,
                                                      int]],
                        ) -> Iterator[Finding]:
        sites = {id(site.node): site for site in fn.calls}
        local_names = ForkStateRule._local_names(fn.node)
        judged: dict[str, _Carrier] = {}
        pipe_names: set[str] = set()

        def judge(expr: ast.expr) -> Optional[_Carrier]:
            hit = self._direct_shape(graph, fn, expr)
            if hit is not None:
                return hit
            if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
                for elt in expr.elts:
                    inner = judge(elt)
                    if inner is not None:
                        return inner
                return None
            if isinstance(expr, ast.Dict):
                for value in expr.values:
                    inner = judge(value)
                    if inner is not None:
                        return inner
                return None
            if isinstance(expr, ast.Name):
                if expr.id in judged:
                    return judged[expr.id]
                key = (fn.module, expr.id)
                if key in rng_globals and expr.id not in local_names:
                    return _Carrier(
                        f"the module-level random.Random '{expr.id}'",
                        fn.module, rng_globals[key])
                return None
            if isinstance(expr, ast.Attribute):
                dotted = _dotted(expr)
                if dotted is not None and "." in dotted:
                    head, _, rest = dotted.partition(".")
                    info = graph.modules.get(fn.module)
                    target = info.imports.get(head) if info else None
                    if target is not None and "." not in rest and \
                            (target, rest) in rng_globals:
                        return _Carrier(
                            f"the module-level random.Random '{rest}'",
                            target, rng_globals[(target, rest)])
                return None
            if isinstance(expr, ast.Call):
                site = sites.get(id(expr))
                callee = site.callee if site is not None else None
                if callee is not None:
                    inner = carriers.get(callee)
                    if inner is not None:
                        return inner
                    if callee.endswith(".__init__"):
                        cls_qname = callee.rsplit(".", 1)[0]
                        held = class_fields.get(cls_qname)
                        if held is not None:
                            attr, desc, module, line = held
                            cls_name = cls_qname.rsplit(".", 1)[-1]
                            return _Carrier(
                                f"a {cls_name} instance holding {desc} "
                                f"in '.{attr}'", module, line)
                return None
            return None

        def flag(node: ast.Call, slot: str,
                 carrier: _Carrier) -> Finding:
            raw = _dotted(node.func) or "<call>"
            via = _chain_suffix("via", carrier.chain)
            return Finding(
                node.lineno,
                getattr(node, "end_lineno", None) or node.lineno,
                node.col_offset,
                f"{slot} of {raw}(...) crosses a process boundary but "
                f"is {carrier.desc} ({carrier.module}:{carrier.line})"
                f"{via} — processes pickle everything they receive; "
                "pass module-level functions and plain data")

        for node in _walk_function_body(fn.node):
            if isinstance(node, ast.Assign) and \
                    len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                hit = judge(node.value)
                if hit is not None:
                    judged[name] = hit
                else:
                    judged.pop(name, None)
                continue
            if isinstance(node, ast.Assign) and \
                    isinstance(node.targets[0], ast.Tuple) and \
                    isinstance(node.value, ast.Call) and \
                    _is_pipe_call(node.value):
                for elt in node.targets[0].elts:
                    if isinstance(elt, ast.Name):
                        pipe_names.add(elt.id)
                continue
            if not isinstance(node, ast.Call):
                continue
            if _is_process_ctor(node):
                for kw in node.keywords:
                    if kw.arg == "target":
                        hit = judge(kw.value)
                        if hit is not None:
                            yield flag(node, "target", hit)
                    elif kw.arg in ("args", "kwargs"):
                        hit = judge(kw.value)
                        if hit is not None:
                            yield flag(node, kw.arg, hit)
                continue
            submit = _pool_submit(node)
            if submit is not None:
                for index, arg in enumerate(node.args):
                    hit = judge(arg)
                    if hit is not None:
                        slot = ("function" if index == 0
                                else f"arg {index}")
                        yield flag(node, slot, hit)
                continue
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _CONN_SENDS and \
                    isinstance(node.func.value, ast.Name):
                owner = node.func.value.id
                if owner in pipe_names or _connish(owner):
                    for arg in node.args[:1]:
                        hit = judge(arg)
                        if hit is not None:
                            yield flag(node, "message", hit)

# ---------------------------------------------------------------------------
# MP03 — fork hygiene: reset-domination for child-reachable state
# ---------------------------------------------------------------------------

_RESETTER_PREFIXES = ("reset", "clear")


@dataclass(frozen=True)
class _GlobalFacts:
    """Per-module fork-relevant module-level state."""

    #: (module, name) -> binding line for mutable / global-rebound state.
    tracked: dict[tuple[str, str], int]
    #: (module, name) -> binding line for pre-fork locks/handles.
    handles: dict[tuple[str, str], int]
    #: (module, name) -> qnames of reset helpers for that global.
    resetters: dict[tuple[str, str], frozenset[str]]
    #: (module, name) -> qnames of same-module functions reading or
    #: mutating that global (reset helpers excluded).
    accessors: dict[tuple[str, str], frozenset[str]]


def _collect_global_facts(graph: CallGraph) -> _GlobalFacts:
    mutable: dict[tuple[str, str], int] = {}
    mutated: set[tuple[str, str]] = set()
    tracked: dict[tuple[str, str], int] = {}
    handles: dict[tuple[str, str], int] = {}
    resetters: dict[tuple[str, str], set[str]] = {}
    accessors: dict[tuple[str, str], set[str]] = {}
    for module in sorted(graph.modules):
        info = graph.modules[module]
        bindings: dict[str, int] = {}
        for stmt in info.tree.body:
            names: list[str] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets
                         if isinstance(t, ast.Name)]
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
                value = stmt.value
            for name in names:
                bindings[name] = stmt.lineno
                if value is not None and \
                        ForkStateRule._is_mutable_init(value):
                    mutable[(module, name)] = stmt.lineno
                if isinstance(value, ast.Call):
                    dotted = _dotted(value.func)
                    tail = dotted.split(".")[-1] if dotted else ""
                    if tail in _SYNC_CTORS or _is_open_call(value):
                        handles[(module, name)] = stmt.lineno
        if not bindings:
            continue
        for fn in graph.functions_in_module(module):
            local = ForkStateRule._local_names(fn.node)
            rebinds: set[str] = set()
            for node in _walk_function_body(fn.node):
                if isinstance(node, ast.Global):
                    rebinds.update(n for n in node.names
                                   if n in bindings)
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATING_METHODS and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id not in local:
                    mutated.add((module, node.func.value.id))
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if isinstance(target, ast.Subscript) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id not in local:
                            mutated.add((module, target.value.id))
            is_reset = fn.name.startswith(_RESETTER_PREFIXES)
            for name in rebinds:
                key = (module, name)
                tracked.setdefault(key, bindings[name])
                if is_reset:
                    resetters.setdefault(key, set()).add(fn.qname)
            reads: set[str] = set()
            for node in _walk_function_body(fn.node):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load) and \
                        node.id in bindings and node.id not in local:
                    reads.add(node.id)
            for name in reads | (rebinds if not is_reset else set()):
                key = (module, name)
                if is_reset and key in resetters and \
                        fn.qname in resetters[key]:
                    continue
                accessors.setdefault(key, set()).add(fn.qname)
    # A mutable-typed global that nothing ever mutates or rebinds is a
    # constant table — it cannot diverge across a fork. Only state
    # that something actually writes is fork-hazardous.
    for key, line in mutable.items():
        if key in mutated:
            tracked.setdefault(key, line)
    return _GlobalFacts(
        tracked=tracked, handles=handles,
        resetters={k: frozenset(v) for k, v in resetters.items()},
        accessors={k: frozenset(v) for k, v in accessors.items()})


class ForkHygieneRule(ProjectRule):
    rule_id = "MP03"
    summary = ("child-entry function reaches fork-inherited module "
               "state without a dominating reset")
    default_policy = RulePolicy(
        zones=("repro.measure", "repro.core.world"))

    def check_project(self, graph: CallGraph, rule_policy: RulePolicy,
                      ) -> Iterator[tuple[str, Finding]]:
        facts = _collect_global_facts(graph)
        entries = self._child_entries(graph)
        closures: dict[str, frozenset[str]] = {}
        seen: set[tuple[str, str, str]] = set()
        for entry_qname in sorted(entries):
            entry = graph.functions.get(entry_qname)
            if entry is None or not rule_policy.applies_to(entry.module):
                continue
            reachable, parents = self._reach(graph, entry_qname)
            for key in sorted(facts.tracked):
                module, name = key
                accessor_hits = facts.accessors.get(key, frozenset())
                hit = next((q for q in sorted(accessor_hits)
                            if q in reachable), None)
                if hit is None:
                    continue
                dedup = (entry_qname, module, name)
                if dedup in seen:
                    continue
                access_line = self._access_line(
                    graph, entry, key, facts, closures)
                reset_line = self._reset_line(
                    graph, entry, key, facts, closures)
                if reset_line is not None and (
                        access_line is None or
                        reset_line <= access_line):
                    continue
                seen.add(dedup)
                chain = self._chain(parents, entry_qname, hit)
                via = _chain_suffix("via", chain) \
                    if len(chain) > 1 else ""
                yield entry.module, Finding(
                    entry.node.lineno, entry.node.lineno,
                    entry.node.col_offset,
                    f"child entry '{entry.name}' reaches module-level "
                    f"mutable '{name}' ({module}:"
                    f"{facts.tracked[key]}){via} without a dominating "
                    "reset — forked workers inherit the parent's "
                    "state; call its reset helper first in the child")
            for key in sorted(facts.handles):
                module, name = key
                accessor_hits = facts.accessors.get(key, frozenset())
                hit = next((q for q in sorted(accessor_hits)
                            if q in reachable), None)
                if hit is None:
                    continue
                dedup = (entry_qname, module, name)
                if dedup in seen:
                    continue
                seen.add(dedup)
                chain = self._chain(parents, entry_qname, hit)
                via = _chain_suffix("via", chain) \
                    if len(chain) > 1 else ""
                yield entry.module, Finding(
                    entry.node.lineno, entry.node.lineno,
                    entry.node.col_offset,
                    f"child entry '{entry.name}' uses the pre-fork "
                    f"handle/lock '{name}' ({module}:"
                    f"{facts.handles[key]}){via} — locks and handles "
                    "do not survive fork; create them inside the "
                    "child entry")

    # -- entry discovery ------------------------------------------------

    @staticmethod
    def _child_entries(graph: CallGraph) -> set[str]:
        spawners: set[str] = set()
        for fn in graph.functions.values():
            for site in fn.calls:
                if _is_process_ctor(site.node) or \
                        _pool_submit(site.node) is not None:
                    spawners.add(fn.qname)
                    break
        spawn_ctors: set[str] = set()
        for cls_qname in sorted(graph.classes):
            info = graph.classes[cls_qname]
            if any(m in spawners for m in info.methods.values()):
                ctor = info.methods.get("__init__")
                if ctor is not None:
                    spawn_ctors.add(ctor)
        entries: set[str] = set()
        for fn in graph.functions.values():
            for site in fn.calls:
                node = site.node
                if _is_process_ctor(node):
                    for kw in node.keywords:
                        if kw.arg != "target":
                            continue
                        hit = _resolve_callable(graph, fn, kw.value)
                        if hit is not None:
                            entries.add(hit)
                    continue
                if _pool_submit(node) is not None and node.args:
                    hit = _resolve_callable(graph, fn, node.args[0])
                    if hit is not None:
                        entries.add(hit)
                    continue
                if site.callee in spawners or site.callee in spawn_ctors:
                    if node.args:
                        hit = _resolve_callable(graph, fn, node.args[0])
                        if hit is not None:
                            entries.add(hit)
        return entries

    # -- reachability and domination ------------------------------------

    @staticmethod
    def _reach(graph: CallGraph, start: str,
               ) -> tuple[frozenset[str], dict[str, str]]:
        parents: dict[str, str] = {}
        seen = {start}
        queue = [start]
        while queue:
            current = queue.pop(0)
            fn = graph.functions.get(current)
            if fn is None:
                continue
            for site in sorted(fn.calls,
                               key=lambda s: (s.line, s.col)):
                callee = site.callee
                if callee is None or callee in seen or \
                        callee not in graph.functions:
                    continue
                seen.add(callee)
                parents[callee] = current
                queue.append(callee)
        return frozenset(seen), parents

    def _closure(self, graph: CallGraph, qname: str,
                 closures: dict[str, frozenset[str]]) -> frozenset[str]:
        cached = closures.get(qname)
        if cached is None:
            cached, _ = self._reach(graph, qname)
            closures[qname] = cached
        return cached

    def _access_line(self, graph: CallGraph, entry: FunctionInfo,
                     key: tuple[str, str], facts: _GlobalFacts,
                     closures: dict[str, frozenset[str]],
                     ) -> Optional[int]:
        accessor_hits = facts.accessors.get(key, frozenset())
        if entry.qname in accessor_hits:
            module, name = key
            local = ForkStateRule._local_names(entry.node)
            lines = [n.lineno for n in _walk_function_body(entry.node)
                     if isinstance(n, ast.Name) and n.id == name and
                     name not in local]
            if lines:
                return min(lines)
        lines = []
        for site in entry.calls:
            if site.callee is None:
                continue
            closure = self._closure(graph, site.callee, closures)
            if closure & accessor_hits:
                lines.append(site.line)
        return min(lines) if lines else None

    def _reset_line(self, graph: CallGraph, entry: FunctionInfo,
                    key: tuple[str, str], facts: _GlobalFacts,
                    closures: dict[str, frozenset[str]],
                    ) -> Optional[int]:
        reset_fns = facts.resetters.get(key, frozenset())
        if not reset_fns:
            return None
        lines = []
        for site in entry.calls:
            if site.callee is None:
                continue
            if site.callee in reset_fns:
                lines.append(site.line)
                continue
            closure = self._closure(graph, site.callee, closures)
            if closure & reset_fns:
                lines.append(site.line)
        return min(lines) if lines else None

    @staticmethod
    def _chain(parents: dict[str, str], entry: str,
               target: str) -> tuple[str, ...]:
        chain = [target]
        while chain[-1] != entry:
            parent = parents.get(chain[-1])
            if parent is None:
                break
            chain.append(parent)
        return tuple(reversed(chain))


# ---------------------------------------------------------------------------
# RES02 — Process / Connection lifecycle automata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Proc:
    """Process automaton: created -> started -> joined/terminated."""

    started: bool
    joined: bool
    terminated: bool
    line: int
    col: int
    chain: tuple[str, ...] = ()
    MAY: ClassVar[tuple[str, ...]] = ("started", "terminated")
    MUST: ClassVar[tuple[str, ...]] = ("joined",)


@dataclass(frozen=True)
class _Conn:
    """Connection automaton: open -> closed."""

    open: bool
    line: int
    col: int
    chain: tuple[str, ...] = ()
    MAY: ClassVar[tuple[str, ...]] = ("open",)
    MUST: ClassVar[tuple[str, ...]] = ()


@dataclass
class _LifeState:
    procs: dict[str, _Proc] = field(default_factory=dict)
    conns: dict[str, _Conn] = field(default_factory=dict)
    ABSENT: ClassVar[dict[str, Any]] = {
        "procs": _Proc(started=False, joined=True, terminated=False,
                       line=0, col=0),
        "conns": _Conn(open=False, line=0, col=0)}

    def copy(self) -> "_LifeState":
        return _LifeState(dict(self.procs), dict(self.conns))


#: Receiver methods that transition the automata.
_PROC_TRANSITIONS = frozenset({"start", "join", "terminate", "kill",
                               "close"})
#: Receiver methods with no lifecycle effect (and no escape).
_NEUTRAL_METHODS = frozenset({
    "is_alive", "poll", "send", "send_bytes", "recv", "recv_bytes",
    "fileno", "exitcode",
})


@dataclass(frozen=True)
class _LifeSummary:
    """What calling a function does to lifecycle-tracked arguments."""

    #: param -> subset of {"starts", "joins", "terminates", "closes"}.
    param_effects: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Returns a started-but-unjoined Process (caller owns it), chain.
    returns_proc: Optional[tuple[str, ...]] = None
    #: Returns an open Connection (caller owns it), chain.
    returns_conn: Optional[tuple[str, ...]] = None

    def key(self) -> tuple:
        return (tuple(sorted((k, tuple(sorted(v)))
                             for k, v in self.param_effects.items())),
                self.returns_proc, self.returns_conn)


class _LifeInterpreter(_Walker[_LifeState, _LifeSummary]):
    """The Process/Connection domain of the statement walk in
    :class:`repro.lint.protocol._Walker`.

    Ownership transfer (a tracked name passed to an unknown callee,
    stored into a container or attribute, or returned) drops the name
    from tracking — the conservative, non-flagging direction. Unlike
    the handle domain, the transfers a raising statement makes before
    it raises hold on its exception edge too (:meth:`_apply_escapes`),
    teardown calls never raise (:attr:`CLEANUP_METHODS`), and ``with``
    only drops the name it binds.
    """

    #: Teardown whose own failure is beyond the automata's scope.
    CLEANUP_METHODS = frozenset({"close", "join", "terminate", "kill"})

    def __init__(self, graph: CallGraph, fn: FunctionInfo,
                 summaries: dict[str, _LifeSummary]) -> None:
        super().__init__(graph, fn, summaries)
        self.param_effects: dict[str, set[str]] = {}
        #: name -> origin, for procs/conns acquired in this body.
        self.created_procs: dict[str, _Proc] = {}
        self.created_conns: dict[str, _Conn] = {}
        self.returned_proc: Optional[tuple[str, ...]] = None
        self.returned_conn: Optional[tuple[str, ...]] = None

    def _initial_state(self) -> _LifeState:
        return _LifeState()

    def summarize(self, bundle: _ExitBundle[_LifeState]) -> _LifeSummary:
        return _LifeSummary(
            param_effects={k: frozenset(v) for k, v in
                           self.param_effects.items()},
            returns_proc=self.returned_proc,
            returns_conn=self.returned_conn)

    # -- operations -----------------------------------------------------

    def _note_return(self, name: str, state: _LifeState) -> None:
        proc = state.procs.get(name)
        if proc is not None and proc.started and not proc.joined:
            self.returned_proc = self.returned_proc or \
                ((self.fn.qname,) + proc.chain)
        if proc is not None:
            state.procs.pop(name, None)
            self.created_procs.pop(name, None)
        conn = state.conns.get(name)
        if conn is not None:
            if conn.open:
                self.returned_conn = self.returned_conn or \
                    ((self.fn.qname,) + conn.chain)
            state.conns.pop(name, None)
            self.created_conns.pop(name, None)

    def _note_return_call(self, value: ast.Call) -> None:
        callee = self.callee_of.get(id(value))
        summary = self.summaries.get(callee) if callee else None
        if _is_process_ctor(value):
            return
        if summary is None:
            return
        if summary.returns_proc is not None:
            self.returned_proc = self.returned_proc or \
                ((self.fn.qname,) + summary.returns_proc)
        if summary.returns_conn is not None:
            self.returned_conn = self.returned_conn or \
                ((self.fn.qname,) + summary.returns_conn)

    def _apply_ops(self, root: ast.AST, state: _LifeState) -> None:
        if isinstance(root, ast.Assign) and len(root.targets) == 1 and \
                isinstance(root.targets[0], ast.Name):
            self._apply_ops(root.value, state)
            self._bind(root.targets[0].id, root.value, state)
            return
        if isinstance(root, ast.Assign) and len(root.targets) == 1 and \
                isinstance(root.targets[0], ast.Tuple) and \
                isinstance(root.value, ast.Call) and \
                _is_pipe_call(root.value):
            value = root.value
            for elt in root.targets[0].elts:
                if isinstance(elt, ast.Name):
                    conn = _Conn(open=True, line=value.lineno,
                                 col=value.col_offset)
                    state.conns[elt.id] = conn
                    self.created_conns.setdefault(elt.id, conn)
            return
        if isinstance(root, ast.Assign):
            # Stores into containers/attributes transfer ownership of
            # every tracked name they mention (target *and* value).
            self._apply_ops(root.value, state)
            for target in root.targets:
                self._escape_names(target, state)
            if isinstance(root.value, ast.Name):
                self._escape_names(root.value, state)
            return
        if isinstance(root, ast.AnnAssign) and \
                isinstance(root.target, ast.Name) and \
                root.value is not None:
            self._apply_ops(root.value, state)
            self._bind(root.target.id, root.value, state)
            return
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                self._apply_call(node, state)

    def _bind(self, target: str, value: ast.expr,
              state: _LifeState) -> None:
        _forget(state, target)
        if not isinstance(value, ast.Call):
            return
        if _is_process_ctor(value):
            proc = _Proc(started=False, joined=False, terminated=False,
                         line=value.lineno, col=value.col_offset)
            state.procs[target] = proc
            self.created_procs.setdefault(target, proc)
            return
        callee = self.callee_of.get(id(value))
        summary = self.summaries.get(callee) if callee else None
        if summary is None:
            return
        if summary.returns_proc is not None:
            proc = _Proc(started=True, joined=False, terminated=False,
                         line=value.lineno, col=value.col_offset,
                         chain=summary.returns_proc)
            state.procs[target] = proc
            self.created_procs.setdefault(target, proc)
        if summary.returns_conn is not None:
            conn = _Conn(open=True, line=value.lineno,
                         col=value.col_offset,
                         chain=summary.returns_conn)
            state.conns[target] = conn
            self.created_conns.setdefault(target, conn)

    def _apply_call(self, node: ast.Call, state: _LifeState) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            name = func.value.id
            attr = func.attr
            if attr in _PROC_TRANSITIONS:
                self._transition(name, attr, state)
                return
            if attr in _NEUTRAL_METHODS:
                return
        callee = self.callee_of.get(id(node))
        summary = self.summaries.get(callee) if callee else None
        if summary is not None:
            self._apply_summary(node, callee, summary, state)
            return
        if _is_process_ctor(node) or _is_pipe_call(node):
            # The parent keeps its copy of anything it hands to a
            # child process — ``args=(send_end, ...)`` does not close
            # the parent's send_end.
            return
        self._escape_call_args(node, state)

    def _transition(self, name: str, attr: str,
                    state: _LifeState) -> None:
        proc = state.procs.get(name)
        conn = state.conns.get(name)
        if proc is not None:
            if attr == "start":
                state.procs[name] = replace(proc, started=True,
                                            joined=False)
            elif attr == "join":
                state.procs[name] = replace(proc, joined=True)
            elif attr in ("terminate", "kill"):
                state.procs[name] = replace(proc, terminated=True)
            # Process.close() after join is fine; before join it
            # raises at runtime — out of scope here.
            return
        if conn is not None:
            if attr == "close":
                state.conns[name] = replace(conn, open=False)
            return
        if name in self.params:
            effect = {"start": "starts", "join": "joins",
                      "terminate": "terminates", "kill": "terminates",
                      "close": "closes"}[attr]
            self.param_effects.setdefault(name, set()).add(effect)

    def _apply_summary(self, node: ast.Call, callee: str,
                       summary: _LifeSummary,
                       state: _LifeState) -> None:
        # Names handed to a *summarized* callee stay tracked (we know
        # exactly what it does to them).
        for name, param in self._summary_args(node, callee):
            for effect in sorted(summary.param_effects.get(param, ())):
                attr = {"starts": "start", "joins": "join",
                        "terminates": "terminate",
                        "closes": "close"}[effect]
                self._transition(name, attr, state)

    def _escape_call_args(self, node: ast.Call,
                          state: _LifeState) -> None:
        for arg in node.args:
            self._escape_names(arg, state)
        for kw in node.keywords:
            self._escape_names(kw.value, state)

    def _escape_names(self, expr: ast.expr, state: _LifeState) -> None:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name):
                _forget(state, sub.id)

    def _apply_escapes(self, stmt: ast.stmt,
                       state: _LifeState) -> None:
        """Ownership transfers inside a raising statement, without
        crediting any of its lifecycle transitions:
        ``registry[conn] = wrap(proc)`` raising mid-call must not
        report proc/conn as leaked-by-us."""
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    self._escape_names(target, state)
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            callee = self.callee_of.get(id(node))
            if callee is not None and callee in self.summaries:
                continue
            if _is_process_ctor(node) or _is_pipe_call(node):
                continue
            if isinstance(node.func, ast.Attribute) and \
                    isinstance(node.func.value, ast.Name) and \
                    (node.func.attr in _PROC_TRANSITIONS or
                     node.func.attr in _NEUTRAL_METHODS):
                continue
            self._escape_call_args(node, state)


def build_life_summaries(graph: CallGraph) -> dict[str, _LifeSummary]:
    return _fixpoint(graph, _LifeInterpreter)


class ProcessLifecycleRule(ProjectRule):
    rule_id = "RES02"
    summary = ("Process not join/terminate-dominated or Connection "
               "not closed on all paths (exception edges included)")
    default_policy = RulePolicy(zones=("repro.measure",))

    def check_project(self, graph: CallGraph, rule_policy: RulePolicy,
                      ) -> Iterator[tuple[str, Finding]]:
        for module, interp, bundle in _zone_runs(graph, rule_policy,
                                                 _LifeInterpreter):
            yield from ((module, finding) for finding in
                        self._leaks(interp, bundle))

    @staticmethod
    def _leaks(interp: _LifeInterpreter,
               bundle: _ExitBundle[_LifeState]) -> Iterator[Finding]:
        for name in sorted(interp.created_procs):
            origin = interp.created_procs[name]
            via = _chain_suffix("spawned via", origin.chain)
            normal, exc = bundle.records("procs", name)
            if any(p.started and not p.joined for p in normal):
                if any(p.terminated for p in normal):
                    yield Finding(
                        origin.line, origin.line, origin.col,
                        f"process '{name}' is terminated but never "
                        f"joined on some path{via} — terminate() "
                        "without join() leaves a zombie and an "
                        "unreaped exit code; join() after terminate()")
                else:
                    yield Finding(
                        origin.line, origin.line, origin.col,
                        f"process '{name}' is not joined on all "
                        f"paths{via} — join (or terminate, then join) "
                        "on every exit, teardown included")
            elif any(p.started and not p.joined for p in exc):
                yield Finding(
                    origin.line, origin.line, origin.col,
                    f"process '{name}' leaks on exception edges{via} "
                    "— an error between start() and join() strands a "
                    "live child; join/terminate it in a finally or "
                    "supervisor teardown")
        for name in sorted(interp.created_conns):
            origin = interp.created_conns[name]
            via = _chain_suffix("acquired via", origin.chain)
            normal, exc = bundle.records("conns", name)
            if any(c.open for c in normal):
                yield Finding(
                    origin.line, origin.line, origin.col,
                    f"pipe end '{name}' is not closed on all "
                    f"paths{via} — an unclosed Connection leaks its "
                    "fd into every later fork and holds EOF back "
                    "from the peer; close it on every exit")
            elif any(c.open for c in exc):
                yield Finding(
                    origin.line, origin.line, origin.col,
                    f"pipe end '{name}' leaks on exception edges{via} "
                    "— an error between Pipe() and close() strands "
                    "the fd; close it in a finally or supervisor "
                    "teardown")


# ---------------------------------------------------------------------------
# SIG01 — signal-path safety
# ---------------------------------------------------------------------------

#: Logging-ish receivers whose level methods allocate and lock.
_LOG_OWNERS = ("logging", "logger", "log")
_LOG_METHODS = frozenset({"debug", "info", "warning", "error",
                          "exception", "critical", "log"})


def _resolved_external(info: Optional[ModuleInfo],
                       dotted: Optional[str]) -> Optional[str]:
    """Rewrite a dotted call through the module's import aliases."""
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = info.imports.get(head) if info is not None else None
    if target is None:
        return dotted
    return target + ("." + rest if rest else "")


def _restricted_op(node: ast.Call) -> Optional[str]:
    """Why this call is unsafe on a signal path, or None."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "opens a file"
        if func.id == "print":
            return "writes through buffered print()"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "acquire":
        return "acquires a lock"
    if func.attr == "flush":
        return "flushes a buffered stream"
    if func.attr == "open":
        return "opens a file"
    if func.attr in _LOG_METHODS:
        owner = _dotted(func.value)
        if owner is not None:
            root = owner.split(".")[0].lower()
            if root in _LOG_OWNERS or root.endswith(_LOG_OWNERS):
                return "calls the logging machinery"
    return None


def _is_self_kill(node: ast.Call, info: Optional[ModuleInfo]) -> bool:
    """``os.kill(os.getpid(), ...)``."""
    dotted = _resolved_external(info, _dotted(node.func))
    if dotted != "os.kill" or not node.args:
        return False
    target = node.args[0]
    if not isinstance(target, ast.Call):
        return False
    inner = _resolved_external(info, _dotted(target.func))
    return inner == "os.getpid"


class SignalPathRule(ProjectRule):
    rule_id = "SIG01"
    summary = ("signal-handler-reachable (or post-self-kill) code "
               "performs non-async-signal-tolerant operations")
    default_policy = RulePolicy(
        zones=("repro.measure", "repro.serve"))

    def check_project(self, graph: CallGraph, rule_policy: RulePolicy,
                      ) -> Iterator[tuple[str, Finding]]:
        for qname in sorted(graph.functions):
            fn = graph.functions[qname]
            if not rule_policy.applies_to(fn.module):
                continue
            info = graph.modules.get(fn.module)
            for site in sorted(fn.calls, key=lambda s: (s.line, s.col)):
                node = site.node
                dotted = _resolved_external(info, _dotted(node.func))
                if dotted == "signal.signal" and len(node.args) >= 2:
                    handler = _resolve_callable(graph, fn,
                                                node.args[1])
                    if handler is None:
                        continue
                    hit = self._first_restricted(graph, handler)
                    if hit is None:
                        continue
                    desc, module, line, chain = hit
                    via = _chain_suffix("via", chain) \
                        if len(chain) > 1 else ""
                    yield fn.module, Finding(
                        node.lineno,
                        getattr(node, "end_lineno", None) or
                        node.lineno,
                        node.col_offset,
                        f"signal handler "
                        f"'{_tail(handler)}' {desc} ({module}:{line})"
                        f"{via} — a handler can run inside any "
                        "bytecode; restrict it to async-signal-"
                        "tolerant work (set a flag, os.write to a "
                        "pipe)")
            yield from ((fn.module, finding) for finding in
                        self._post_kill(graph, fn, info))

    def _first_restricted(self, graph: CallGraph, start: str,
                          ) -> Optional[tuple[str, str, int,
                                              tuple[str, ...]]]:
        """BFS from a handler to the first restricted operation."""
        parents: dict[str, str] = {}
        seen = {start}
        queue = [start]
        while queue:
            current = queue.pop(0)
            fn = graph.functions.get(current)
            if fn is None:
                continue
            ops = sorted(
                ((op, node) for node in _walk_function_body(fn.node)
                 if isinstance(node, ast.Call)
                 for op in [_restricted_op(node)] if op is not None),
                key=lambda pair: (pair[1].lineno,
                                  pair[1].col_offset))
            if ops:
                op, node = ops[0]
                chain = ForkHygieneRule._chain(parents, start, current)
                return op, fn.module, node.lineno, chain
            for site in sorted(fn.calls,
                               key=lambda s: (s.line, s.col)):
                callee = site.callee
                if callee is None or callee in seen or \
                        callee not in graph.functions:
                    continue
                seen.add(callee)
                parents[callee] = current
                queue.append(callee)
        return None

    def _post_kill(self, graph: CallGraph, fn: FunctionInfo,
                   info: Optional[ModuleInfo]) -> Iterator[Finding]:
        kill_line: Optional[int] = None
        for node in _walk_function_body(fn.node):
            if isinstance(node, ast.Call) and _is_self_kill(node, info):
                kill_line = node.lineno
                break
        if kill_line is None:
            return
        for node in _walk_function_body(fn.node):
            if not isinstance(node, ast.Call) or \
                    node.lineno <= kill_line:
                continue
            op = _restricted_op(node)
            desc: Optional[str] = None
            origin = ""
            if op is not None:
                desc = op
            else:
                callee = next((s.callee for s in fn.calls
                               if id(s.node) == id(node) and
                               s.callee is not None), None)
                if callee is not None:
                    hit = self._first_restricted(graph, callee)
                    if hit is not None:
                        inner_desc, module, line, chain = hit
                        desc = inner_desc
                        origin = f" ({module}:{line})" + \
                            _chain_suffix("via", chain)
            if desc is None:
                continue
            yield Finding(
                node.lineno,
                getattr(node, "end_lineno", None) or node.lineno,
                node.col_offset,
                f"code after the self-kill at line {kill_line} "
                f"{desc}{origin} — once os.kill(os.getpid(), ...) is "
                "sent, later statements race the signal (or never "
                "run); do all buffered IO before the kill")


# ---------------------------------------------------------------------------
# ASY01 — blocking calls inside ``async def``
# ---------------------------------------------------------------------------

_SUBPROCESS_BLOCKERS = frozenset({"run", "call", "check_call",
                                  "check_output", "Popen"})
_PATH_IO_METHODS = frozenset({"read_text", "read_bytes", "write_text",
                              "write_bytes"})


class BlockingAsyncRule(Rule):
    rule_id = "ASY01"
    summary = ("blocking call inside 'async def' — stalls the event "
               "loop for every other task")
    default_policy = RulePolicy(zones=("repro.serve",))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        sleep_aliases = {"time.sleep"}
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ImportFrom) and \
                    stmt.module == "time":
                sleep_aliases.update(
                    alias.asname or alias.name
                    for alias in stmt.names if alias.name == "sleep")
        for func in (n for n in ast.walk(ctx.tree)
                     if isinstance(n, ast.AsyncFunctionDef)):
            for node in _walk_function_body(func):
                if not isinstance(node, ast.Call):
                    continue
                verdict = self._blocking(node, sleep_aliases)
                if verdict is None:
                    continue
                what, fix = verdict
                line, end, col = _span(node)
                yield Finding(
                    line, end, col,
                    f"blocking {what} inside 'async def {func.name}' "
                    f"stalls the event loop — {fix}")

    @staticmethod
    def _blocking(node: ast.Call, sleep_aliases: set[str],
                  ) -> Optional[tuple[str, str]]:
        dotted = _dotted(node.func)
        if dotted in sleep_aliases:
            return ("time.sleep()",
                    "await asyncio.sleep() instead")
        if dotted == "input":
            return ("input()",
                    "read stdin through the event loop or a thread")
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return ("file open()",
                    "use asyncio.to_thread() for synchronous IO")
        if not isinstance(node.func, ast.Attribute):
            return None
        attr = node.func.attr
        owner = _dotted(node.func.value)
        if owner is not None and owner.split(".")[-1] == "subprocess" \
                and attr in _SUBPROCESS_BLOCKERS:
            return (f"subprocess.{attr}()",
                    "use asyncio.create_subprocess_exec()")
        if attr in _PATH_IO_METHODS:
            return (f".{attr}()",
                    "use asyncio.to_thread() for synchronous IO")
        if attr in ("recv", "recv_bytes") and \
                isinstance(node.func.value, ast.Name) and \
                _connish(node.func.value.id):
            return (f"Connection.{attr}()",
                    "poll with a timeout in a thread, or wire the fd "
                    "into the loop with add_reader()")
        if attr == "poll" and node.args and \
                isinstance(node.args[0], ast.Constant) and \
                node.args[0].value is None:
            return ("poll(None)",
                    "poll with a bounded timeout")
        return None

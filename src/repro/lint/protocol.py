"""File-handle protocol verification (ATOM01/RES01) and exception
hygiene (EXC01) over the measure/supervise zones.

The crash-safety story of the measure layer is a five-state protocol::

    opened-tmp -> written -> fsynced -> closed -> renamed

A rename that is reachable while the written data is not yet fsynced
on *all* paths publishes a name whose content can vanish in a crash —
the bug class PR 7 caught by hand in the merged-shard copier. A
writable handle that stays open on some path (an early return, an
exception edge without ``with``/``finally``) leaks an fd and, worse,
unflushed buffers. This module checks the protocol with a small
abstract interpreter:

* **intra-procedurally** it walks a function's statements tracking the
  state of every handle opened into a local name and every path
  written through one, joining states at branch merges (``fsynced``
  holds after a join only if it held on *all* incoming paths —
  must-analysis; ``written`` if on *any* — may-analysis) and routing
  an exception channel so ``finally``/``with`` cleanup is credited and
  everything else is not;
* **inter-procedurally** it computes per-function summaries to a
  fixpoint — does a helper write/fsync/close a handle parameter, dirty
  a path parameter, return an open handle or an unsynced path — and
  applies them at call sites, so the violation may sit any number of
  call hops below the zone function that commits the rename.

Everything the interpreter cannot see (attribute-held handles,
handles passed to unresolved callees, dynamically computed paths)
drops out of tracking — the conservative, non-flagging direction.

**EXC01** is module-local: a ``try`` in supervisor/teardown zones
whose handler catches ``BaseException``/``KeyboardInterrupt`` (or is
bare) must re-``raise`` or hard-exit (``os._exit``); anything else
swallows Ctrl-C and breaks PR 6's deterministic-teardown guarantee.

The interpreter skeleton (:class:`_Walker`) — branch joins, the
exception channel, ``try``/``finally`` routing, the summary fixpoint —
is written once here and is not specific to file handles: RES02
(:mod:`repro.lint.concurrency`) reuses the walk, supplying only its
Process/Connection states, transitions and summaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    ClassVar,
    Generic,
    Iterator,
    Optional,
    Protocol,
    Self,
    Sequence,
    TypeVar,
)

from repro.lint.callgraph import (
    CallGraph,
    FunctionInfo,
    _dotted,
    _walk_function_body,
)
from repro.lint.policy import RulePolicy
from repro.lint.rules import Finding, ModuleContext, ProjectRule, Rule

# ---------------------------------------------------------------------------
# the interpreter skeleton (shared with RES02)
# ---------------------------------------------------------------------------


class _Tables(Protocol):
    """A domain's abstract state: one dict of frozen records per kind of
    tracked name. ``ABSENT`` maps each dict's attribute name to the
    record a key joins as on the paths that lack it; each record class
    lists its may-fields in ``MAY`` and its must-fields in ``MUST``."""

    ABSENT: ClassVar[dict[str, Any]]

    def copy(self) -> Self: ...


class _Keyed(Protocol):
    def key(self) -> tuple: ...


S = TypeVar("S", bound=_Tables)
M = TypeVar("M", bound=_Keyed)
W = TypeVar("W", bound="_Walker")


def _join(states: Sequence[S]) -> S:
    """Branch merge: a may-field holds if it holds on *any* incoming
    path, a must-field only if it holds on *all* of them."""
    out = states[0].copy()
    if len(states) == 1:
        return out
    for table, absent in out.ABSENT.items():
        tables = [getattr(s, table) for s in states]
        merged: dict[str, Any] = {}
        for key in sorted({k for t in tables for k in t}):
            variants = [t.get(key, absent) for t in tables]
            base = next(v for v in variants if v is not absent)
            if all(v is base for v in variants):
                merged[key] = base       # same record on every path
                continue
            merged[key] = replace(
                base,
                **{f: any(getattr(v, f) for v in variants)
                   for f in base.MAY},
                **{f: all(getattr(v, f) for v in variants)
                   for f in base.MUST})
        setattr(out, table, merged)
    return out


def _forget(state: _Tables, name: str) -> None:
    """Drop ``name`` from tracking, whatever it held."""
    for table in state.ABSENT:
        getattr(state, table).pop(name, None)


@dataclass
class _ExitBundle(Generic[S]):
    """All the ways control leaves a block."""

    fall: Optional[S]                # falls off the end (None: never)
    returns: list[tuple[S, Optional[str]]] = \
        field(default_factory=list)  # (state, returned Name or None)
    exc: list[S] = field(default_factory=list)

    def normal(self) -> list[S]:
        """The states at every return, then at the fallthrough."""
        exits = [s for s, _ in self.returns]
        if self.fall is not None:
            exits.append(self.fall)
        return exits

    def records(self, table: str, name: str) -> tuple[list, list]:
        """``name``'s record in ``table`` at every normal exit and at
        every exception exit (the absent record where untracked)."""
        def at(states: list[S]) -> list:
            return [getattr(s, table).get(name, s.ABSENT[table])
                    for s in states]
        return at(self.normal()), at(self.exc)


def _params(fn: FunctionInfo) -> list[str]:
    """Parameter names, without a method's ``self``/``cls``."""
    args = fn.node.args
    params = [a.arg for a in (*args.posonlyargs, *args.args,
                              *args.kwonlyargs)]
    return params[1:] if fn.cls is not None else params


class _Walker(Generic[S, M]):
    """Abstract interpretation of one function body: the statement walk.

    Branches join with may/must semantics, loops run zero-or-once, and
    an exception channel carries the *pre*-state of every raising
    statement through ``try``/``except``/``finally`` routing, so
    cleanup in a ``finally`` or a catch-all handler is credited and
    everything else is not. A domain subclass supplies its state and
    summary types, the hooks below and :attr:`CLEANUP_METHODS`.
    """

    #: Methods whose own failure is beyond the domain's scope: a leaf
    #: statement whose calls are all of these never raises.
    CLEANUP_METHODS: ClassVar[frozenset[str]]

    def __init__(self, graph: CallGraph, fn: FunctionInfo,
                 summaries: dict[str, M]) -> None:
        self.graph = graph
        self.fn = fn
        self.summaries = summaries
        self.callee_of = {id(site.node): site.callee
                          for site in fn.calls if site.callee is not None}
        self.params = _params(fn)

    def run(self) -> _ExitBundle[S]:
        return self._exec_block(self.fn.node.body, self._initial_state())

    # -- domain hooks ---------------------------------------------------

    def _initial_state(self) -> S:
        raise NotImplementedError

    def _apply_ops(self, root: ast.AST, state: S) -> None:
        """Apply every transition inside one statement or expression."""
        raise NotImplementedError

    def _note_return(self, name: str, state: S) -> None:
        raise NotImplementedError

    def _note_return_call(self, value: ast.Call) -> None:
        raise NotImplementedError

    def _exec_with(self, stmt: ast.With | ast.AsyncWith,
                   state: S) -> _ExitBundle[S]:
        """By default a ``with`` target is just rebound: its name drops
        out of tracking."""
        for item in stmt.items:
            self._apply_ops(item.context_expr, state)
            if isinstance(item.optional_vars, ast.Name):
                _forget(state, item.optional_vars.id)
        return self._exec_block(stmt.body, state)

    def _apply_escapes(self, stmt: ast.stmt, state: S) -> None:
        """Ownership transfers a raising statement makes before it
        raises, applied to its exception-channel snapshot (none unless
        the domain says so)."""

    def summarize(self, bundle: _ExitBundle[S]) -> M:
        """This function's summary, from the exits of :meth:`run`."""
        raise NotImplementedError

    # -- statement walk -------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt],
                    state: Optional[S]) -> _ExitBundle[S]:
        bundle: _ExitBundle[S] = _ExitBundle(fall=state)
        for stmt in stmts:
            if bundle.fall is None:
                break
            step = self._exec_stmt(stmt, bundle.fall)
            bundle.returns.extend(step.returns)
            bundle.exc.extend(step.exc)
            bundle.fall = step.fall
        return bundle

    def _exec_stmt(self, stmt: ast.stmt, state: S) -> _ExitBundle[S]:
        state = state.copy()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return _ExitBundle(fall=state)
        if isinstance(stmt, ast.Return):
            name = (stmt.value.id
                    if isinstance(stmt.value, ast.Name) else None)
            if stmt.value is not None:
                self._apply_ops(stmt.value, state)
            if name is not None:
                self._note_return(name, state)
            elif isinstance(stmt.value, ast.Call):
                self._note_return_call(stmt.value)
            return _ExitBundle(fall=None, returns=[(state, name)])
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._apply_ops(stmt.exc, state)
            return _ExitBundle(fall=None, exc=[state])
        if isinstance(stmt, ast.If):
            self._apply_ops(stmt.test, state)
            then = self._exec_block(stmt.body, state.copy())
            other = self._exec_block(stmt.orelse, state.copy())
            return _ExitBundle(
                fall=self._join_falls(then.fall, other.fall),
                returns=then.returns + other.returns,
                exc=then.exc + other.exc)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                self._apply_ops(stmt.test, state)
            else:
                self._apply_ops(stmt.iter, state)
            once = self._exec_block(stmt.body, state.copy())
            body_fall = self._join_falls(state, once.fall)
            orelse = self._exec_block(stmt.orelse, body_fall)
            return _ExitBundle(fall=orelse.fall,
                               returns=once.returns + orelse.returns,
                               exc=once.exc + orelse.exc)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, state)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, state)
        # Leaf statements: snapshot the pre-state into the exception
        # channel (an exception interrupts the statement before its
        # effects land — ``fh = open(...)`` failing binds no handle —
        # so only the domain's escapes reach it), then apply ops on
        # the fallthrough.
        exc: list[S] = []
        if self._can_raise(stmt):
            snapshot = state.copy()
            self._apply_escapes(stmt, snapshot)
            exc.append(snapshot)
        self._apply_ops(stmt, state)
        return _ExitBundle(fall=state, exc=exc)

    def _exec_try(self, stmt: ast.Try, state: S) -> _ExitBundle[S]:
        body = self._exec_block(stmt.body, state.copy())
        handler_in = _join(body.exc) if body.exc else None
        absorbs_all = any(self._catches_everything(h)
                          for h in stmt.handlers)
        escaping: list[S] = [] if absorbs_all else list(body.exc)
        returns = list(body.returns)
        falls: list[Optional[S]] = []
        if body.fall is not None:
            orelse = self._exec_block(stmt.orelse, body.fall)
            falls.append(orelse.fall)
            returns.extend(orelse.returns)
            escaping.extend(orelse.exc)
        for handler in stmt.handlers:
            if handler_in is None:
                break
            handled = self._exec_block(handler.body, handler_in.copy())
            falls.append(handled.fall)
            returns.extend(handled.returns)
            escaping.extend(handled.exc)
        live_falls = [f for f in falls if f is not None]
        fall = _join(live_falls) if live_falls else None
        if stmt.finalbody:
            def through_finally(s: S) -> Optional[S]:
                done = self._exec_block(stmt.finalbody, s.copy())
                # Returns/raises inside finally are rare enough to
                # fold into the fallthrough approximation.
                return done.fall
            fall = through_finally(fall) if fall is not None else None
            returns = [(through_finally(s) or s, n) for s, n in returns]
            escaping = [through_finally(s) or s for s in escaping]
        return _ExitBundle(fall=fall, returns=returns, exc=escaping)

    @staticmethod
    def _catches_everything(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        if isinstance(handler.type, ast.Tuple):
            names = [_dotted(e) for e in handler.type.elts]
        else:
            names = [_dotted(handler.type)]
        return any(n is not None and
                   n.split(".")[-1] in ("BaseException", "Exception")
                   for n in names)

    def _can_raise(self, stmt: ast.stmt) -> bool:
        """Whether a leaf statement belongs on the exception channel."""
        calls = [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]
        if not calls:
            return False
        return not all(
            isinstance(c.func, ast.Attribute) and
            c.func.attr in self.CLEANUP_METHODS
            for c in calls)

    def _join_falls(self, a: Optional[S],
                    b: Optional[S]) -> Optional[S]:
        live = [s for s in (a, b) if s is not None]
        if not live:
            return None
        return _join(live)

    def _summary_args(self, node: ast.Call,
                      callee: str) -> Iterator[tuple[str, str]]:
        """``(argument name, callee parameter)`` for every positional
        argument of a summarized call that is a plain Name."""
        params = _params(self.graph.functions[callee])
        for arg, param in zip(node.args, params):
            if isinstance(arg, ast.Name):
                yield arg.id, param


def _fixpoint(graph: CallGraph, walker: type[_Walker[S, M]]) -> dict[str, M]:
    """Every function's summary in one domain, iterated to a fixpoint
    (at most 8 passes) and cached on the graph."""
    cache = f"_{walker.__name__}_summaries"
    cached: Optional[dict[str, M]] = getattr(graph, cache, None)
    if cached is not None:
        return cached
    summaries: dict[str, M] = {}
    for _ in range(8):
        changed = False
        for qname in sorted(graph.functions):
            interp = walker(graph, graph.functions[qname], summaries)
            summary = interp.summarize(interp.run())
            prior = summaries.get(qname)
            if prior is None or prior.key() != summary.key():
                summaries[qname] = summary
                changed = True
        if not changed:
            break
    setattr(graph, cache, summaries)
    return summaries


def _zone_runs(graph: CallGraph, rule_policy: RulePolicy,
               walker: type[W]) -> Iterator[tuple[str, W, _ExitBundle]]:
    """``(module, interpreter, exits)`` for every function in the rule's
    zones, interpreted against the domain's summaries."""
    summaries = _fixpoint(graph, walker)
    for qname in sorted(graph.functions):
        fn = graph.functions[qname]
        if rule_policy.applies_to(fn.module):
            interp = walker(graph, fn, summaries)
            yield fn.module, interp, interp.run()


def _tail(qname: str) -> str:
    parts = qname.split(".")
    if len(parts) >= 2 and parts[-2][:1].isupper():
        return ".".join(parts[-2:])
    return parts[-1]


def _chain_suffix(verb: str, chain: tuple[str, ...]) -> str:
    if not chain:
        return ""
    return f" ({verb} " + " -> ".join(_tail(q) for q in chain) + ")"


# ---------------------------------------------------------------------------
# ATOM01/RES01 — the file-handle/path domain
# ---------------------------------------------------------------------------

_WRITE_MODE_CHARS = frozenset("wax+")
_HANDLE_WRITES = frozenset({"write", "writelines"})
_PATH_WRITES = frozenset({"write_text", "write_bytes"})
_RENAME_METHODS = frozenset({"rename", "replace"})
#: shutil entry points that write their destination without fsync.
_COPY_FNS = frozenset({"copy", "copy2", "copyfile", "move"})


def _call_mode(node: ast.Call, *, skip_first: bool) -> Optional[str]:
    args = node.args[1:] if skip_first else node.args
    candidates: list[ast.expr] = list(args[:1])
    candidates.extend(kw.value for kw in node.keywords if kw.arg == "mode")
    for arg in candidates:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _open_target(node: ast.Call) -> Optional[tuple[Optional[str], str]]:
    """``(path_var, mode)`` if this is a writable open, else None.

    Recognizes ``open(p, "wb")`` and ``p.open("wb")``; the path var is
    the Name the call opens, or None when the path expression is
    computed.
    """
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _call_mode(node, skip_first=True)
        path = node.args[0] if node.args else None
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode = _call_mode(node, skip_first=False)
        path = func.value
    else:
        return None
    if mode is None or not (_WRITE_MODE_CHARS & set(mode)):
        return None
    name = path.id if isinstance(path, ast.Name) else None
    return name, mode


@dataclass(frozen=True)
class _Handle:
    open: bool
    written: bool
    fsynced: bool
    path: Optional[str]          # path variable the handle writes to
    auto_close: bool             # opened via ``with`` — closes itself
    line: int
    col: int
    chain: tuple[str, ...] = ()  # helper chain that produced it
    MAY: ClassVar[tuple[str, ...]] = ("open", "written")
    MUST: ClassVar[tuple[str, ...]] = ("fsynced",)


@dataclass(frozen=True)
class _PathState:
    written: bool
    fsynced: bool
    line: int
    chain: tuple[str, ...] = ()
    MAY: ClassVar[tuple[str, ...]] = ("written",)
    MUST: ClassVar[tuple[str, ...]] = ("fsynced",)


_ABSENT_PATH = _PathState(written=False, fsynced=True, line=0)


@dataclass
class _State:
    handles: dict[str, _Handle] = field(default_factory=dict)
    paths: dict[str, _PathState] = field(default_factory=dict)
    ABSENT: ClassVar[dict[str, Any]] = {
        "handles": _Handle(open=False, written=False, fsynced=True,
                           path=None, auto_close=False, line=0, col=0),
        "paths": _ABSENT_PATH}

    def copy(self) -> "_State":
        return _State(dict(self.handles), dict(self.paths))


@dataclass(frozen=True)
class _Summary:
    """What calling a function does to its arguments / return value."""

    #: param name -> subset of {"writes", "fsyncs", "closes"}.
    handle_params: dict[str, frozenset[str]] = field(default_factory=dict)
    #: param name -> helper chain that performs its "writes" effect
    #: (this function first), so callers can print provenance.
    write_chains: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: param name -> ("dirty" | "clean", chain) — the function writes
    #: the path without / with a dominating fsync.
    path_params: dict[str, tuple[str, tuple[str, ...]]] = \
        field(default_factory=dict)
    #: Returns a handle still open (caller takes ownership), chain.
    returns_open: Optional[tuple[str, ...]] = None
    #: Returns a path written without a dominating fsync, chain.
    returns_dirty: Optional[tuple[str, ...]] = None

    def key(self) -> tuple:
        return (tuple(sorted((k, tuple(sorted(v)))
                             for k, v in self.handle_params.items())),
                tuple(sorted(self.write_chains.items())),
                tuple(sorted(self.path_params.items())),
                self.returns_open, self.returns_dirty)


class _Interpreter(_Walker[_State, _Summary]):
    """The file-handle/path domain of the walk (ATOM01/RES01)."""

    #: ``h.close()`` raising is beyond the protocol's scope, and
    #: snapshotting its pre-state would flag the canonical
    #: try/finally-close as a leak.
    CLEANUP_METHODS = frozenset({"close"})

    def __init__(self, graph: CallGraph, fn: FunctionInfo,
                 summaries: dict[str, _Summary]) -> None:
        super().__init__(graph, fn, summaries)
        self.param_handle_effects: dict[str, set[str]] = {}
        #: param -> helper chain behind its first "writes" effect.
        self.param_write_chains: dict[str, tuple[str, ...]] = {}
        #: (loc-name | None) -> interpreted chain, for open handles
        #: acquired locally — used for RES01 reporting.
        self.opened: dict[str, _Handle] = {}
        #: Names returned while holding an open handle / dirty path.
        self.returned_open: Optional[tuple[str, ...]] = None
        self.returned_dirty: Optional[tuple[str, ...]] = None
        self.findings: list[Finding] = []

    def _initial_state(self) -> _State:
        state = _State()
        for param in self.params:
            # Parameters start as clean tracked paths so writes through
            # them surface in the summary; handle effects are recorded
            # as ops touch the raw names.
            state.paths[param] = _PathState(written=False, fsynced=True,
                                            line=self.fn.node.lineno)
        return state

    def _exec_with(self, stmt: ast.With | ast.AsyncWith,
                   state: _State) -> _ExitBundle[_State]:
        managed: list[str] = []
        for item in stmt.items:
            expr = item.context_expr
            self._apply_ops(expr, state, skip_open=True)
            bound = (item.optional_vars.id
                     if isinstance(item.optional_vars, ast.Name) else None)
            opened = (_open_target(expr)
                      if isinstance(expr, ast.Call) else None)
            if opened is not None and bound is not None:
                path_var, _mode = opened
                state.handles[bound] = _Handle(
                    open=True, written=True, fsynced=False,
                    path=path_var, auto_close=True,
                    line=expr.lineno, col=expr.col_offset)
                if path_var is not None:
                    state.paths[path_var] = _PathState(
                        written=True, fsynced=False, line=expr.lineno)
                managed.append(bound)
        body = self._exec_block(stmt.body, state)

        def close_managed(s: _State) -> _State:
            out = s.copy()
            for name in managed:
                handle = out.handles.get(name)
                if handle is not None:
                    out.handles[name] = replace(handle, open=False)
            return out

        return _ExitBundle(
            fall=None if body.fall is None else close_managed(body.fall),
            returns=[(close_managed(s), n) for s, n in body.returns],
            exc=[close_managed(s) for s in body.exc])

    # -- operations -----------------------------------------------------

    def _note_return_call(self, value: ast.Call) -> None:
        """``return open(...)`` / ``return helper(...)`` — ownership of
        an open handle or a dirty path passes straight through."""
        if _open_target(value) is not None:
            self.returned_open = self.returned_open or (self.fn.qname,)
            return
        callee = self.callee_of.get(id(value))
        summary = self.summaries.get(callee) if callee else None
        if summary is None:
            return
        if summary.returns_open is not None:
            self.returned_open = self.returned_open or \
                ((self.fn.qname,) + summary.returns_open)
        if summary.returns_dirty is not None:
            self.returned_dirty = self.returned_dirty or \
                ((self.fn.qname,) + summary.returns_dirty)

    def _note_return(self, name: str, state: _State) -> None:
        handle = state.handles.get(name)
        if handle is not None and handle.open and not handle.auto_close:
            self.returned_open = self.returned_open or \
                ((self.fn.qname,) + handle.chain)
            state.handles[name] = replace(handle, open=False)
        path = state.paths.get(name)
        if path is not None and path.written and not path.fsynced:
            self.returned_dirty = self.returned_dirty or \
                ((self.fn.qname,) + path.chain)

    def _apply_ops(self, root: ast.AST, state: _State,
                   skip_open: bool = False) -> None:
        """Apply every handle/path operation inside one statement."""
        if isinstance(root, ast.Assign) and len(root.targets) == 1 and \
                isinstance(root.targets[0], ast.Name):
            target = root.targets[0].id
            self._apply_ops(root.value, state)
            self._bind(target, root.value, state)
            return
        if isinstance(root, ast.AnnAssign) and \
                isinstance(root.target, ast.Name) and \
                root.value is not None:
            self._apply_ops(root.value, state)
            self._bind(root.target.id, root.value, state)
            return
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                self._apply_call(node, state, skip_open=skip_open)

    def _bind(self, target: str, value: ast.expr, state: _State) -> None:
        _forget(state, target)
        if not isinstance(value, ast.Call):
            return
        opened = _open_target(value)
        if opened is not None:
            path_var, _mode = opened
            handle = _Handle(open=True, written=True, fsynced=False,
                             path=path_var, auto_close=False,
                             line=value.lineno, col=value.col_offset)
            state.handles[target] = handle
            self.opened.setdefault(target, handle)
            if path_var is not None:
                state.paths[path_var] = _PathState(
                    written=True, fsynced=False, line=value.lineno)
            return
        callee = self.callee_of.get(id(value))
        summary = self.summaries.get(callee) if callee else None
        if summary is None:
            return
        if summary.returns_open is not None:
            handle = _Handle(open=True, written=True, fsynced=False,
                             path=None, auto_close=False,
                             line=value.lineno, col=value.col_offset,
                             chain=summary.returns_open)
            state.handles[target] = handle
            self.opened.setdefault(target, handle)
        if summary.returns_dirty is not None:
            state.paths[target] = _PathState(
                written=True, fsynced=False, line=value.lineno,
                chain=summary.returns_dirty)

    def _apply_call(self, node: ast.Call, state: _State,
                    skip_open: bool = False) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            owner_name = owner.id if isinstance(owner, ast.Name) else None
            dotted_owner = _dotted(owner)
            if func.attr == "fsync" and dotted_owner is not None and \
                    dotted_owner.split(".")[-1] == "os" and node.args:
                self._fsync_arg(node.args[0], state)
                return
            if owner_name is not None:
                if func.attr == "close":
                    self._close(owner_name, state)
                    return
                if func.attr in _HANDLE_WRITES:
                    self._write(owner_name, state, node.lineno)
                    return
                if func.attr in _PATH_WRITES:
                    self._dirty_path(owner_name, state, node.lineno, ())
                    return
                if func.attr in _RENAME_METHODS and \
                        not self._is_module(owner_name):
                    self._check_rename(owner_name, node, state)
                    return
                if func.attr in ("flush", "tell", "seek", "fileno",
                                 "writable", "readable"):
                    return
            if dotted_owner is not None and \
                    dotted_owner.split(".")[-1] == "os" and \
                    func.attr in ("rename", "replace") and node.args:
                src = node.args[0]
                if isinstance(src, ast.Name):
                    self._check_rename(src.id, node, state)
                return
            if dotted_owner is not None and \
                    dotted_owner.split(".")[-1] == "shutil" and \
                    func.attr in _COPY_FNS and len(node.args) >= 2:
                dst = node.args[1]
                if isinstance(dst, ast.Name):
                    self._dirty_path(dst.id, state, node.lineno, ())
                return
        callee = self.callee_of.get(id(node))
        summary = self.summaries.get(callee) if callee else None
        if summary is not None:
            self._apply_summary(node, callee, summary, state)
            return
        if skip_open or _open_target(node) is not None:
            return
        # Unknown callee: anything it receives escapes our tracking —
        # the conservative, non-flagging direction.
        for arg in node.args:
            if isinstance(arg, ast.Name):
                _forget(state, arg.id)

    def _apply_summary(self, node: ast.Call, callee: str,
                       summary: _Summary, state: _State) -> None:
        for name, param in self._summary_args(node, callee):
            for effect in sorted(summary.handle_params.get(param, ())):
                if effect == "closes":
                    self._close(name, state)
                elif effect == "fsyncs":
                    self._fsync_name(name, state)
                elif effect == "writes":
                    self._write(name, state, node.lineno,
                                chain=summary.write_chains.get(
                                    param, (callee,)))
            path_effect = summary.path_params.get(param)
            if path_effect is not None:
                kind, chain = path_effect
                if kind == "dirty":
                    self._dirty_path(name, state, node.lineno, chain)
                else:
                    state.paths[name] = _PathState(
                        written=True, fsynced=True, line=node.lineno,
                        chain=chain)

    def _is_module(self, name: str) -> bool:
        info = self.graph.modules.get(self.fn.module)
        return info is not None and name in info.imports

    # -- primitive transitions ------------------------------------------

    def _write(self, name: str, state: _State, line: int,
               chain: tuple[str, ...] = ()) -> None:
        handle = state.handles.get(name)
        if handle is not None:
            state.handles[name] = replace(handle, written=True,
                                          fsynced=False)
            if handle.path is not None:
                prior = state.paths.get(handle.path, _ABSENT_PATH)
                state.paths[handle.path] = replace(
                    prior, written=True, fsynced=False,
                    chain=chain or prior.chain)
        elif name in self.params:
            self.param_handle_effects.setdefault(name, set()).add("writes")
            self.param_write_chains.setdefault(name, chain)

    def _fsync_arg(self, arg: ast.expr, state: _State) -> None:
        name: Optional[str] = None
        if isinstance(arg, ast.Name):
            name = arg.id
        elif isinstance(arg, ast.Call) and \
                isinstance(arg.func, ast.Attribute) and \
                arg.func.attr == "fileno" and \
                isinstance(arg.func.value, ast.Name):
            name = arg.func.value.id
        if name is not None:
            self._fsync_name(name, state)

    def _fsync_name(self, name: str, state: _State) -> None:
        handle = state.handles.get(name)
        if handle is not None:
            state.handles[name] = replace(handle, fsynced=True)
            if handle.path is not None:
                prior = state.paths.get(handle.path, _ABSENT_PATH)
                state.paths[handle.path] = replace(prior, fsynced=True)
        elif name in self.params:
            self.param_handle_effects.setdefault(name, set()).add("fsyncs")

    def _close(self, name: str, state: _State) -> None:
        handle = state.handles.get(name)
        if handle is not None:
            state.handles[name] = replace(handle, open=False)
        elif name in self.params:
            self.param_handle_effects.setdefault(name, set()).add("closes")

    def _dirty_path(self, name: str, state: _State, line: int,
                    chain: tuple[str, ...]) -> None:
        state.paths[name] = _PathState(written=True, fsynced=False,
                                       line=line, chain=chain)

    def _check_rename(self, src: str, node: ast.Call,
                      state: _State) -> None:
        path = state.paths.get(src)
        if path is None or not path.written or path.fsynced:
            return
        via = _chain_suffix("written via", path.chain)
        self.findings.append(Finding(
            node.lineno,
            getattr(node, "end_lineno", None) or node.lineno,
            node.col_offset,
            f"rename of '{src}' is reachable without a dominating "
            f"fsync on all paths{via} — a crash here can publish an "
            "empty or torn artifact; fsync the handle (and close it) "
            "before renaming, or route through "
            "measure.io.write_shard/atomic_writer"))

    def summarize(self, bundle: _ExitBundle[_State]) -> _Summary:
        qname = self.fn.qname
        exits = bundle.normal()
        end = _join(exits) if exits else _State()
        path_params: dict[str, tuple[str, tuple[str, ...]]] = {}
        for param in self.params:
            pstate = end.paths.get(param)
            if pstate is not None and pstate.written:
                kind = "clean" if pstate.fsynced else "dirty"
                chain = ((qname,) + pstate.chain
                         if not pstate.chain or
                         pstate.chain[0] != qname
                         else pstate.chain)
                path_params[param] = (kind, chain)
        write_chains: dict[str, tuple[str, ...]] = {}
        for param, effects in self.param_handle_effects.items():
            if "writes" not in effects:
                continue
            inner = self.param_write_chains.get(param, ())
            write_chains[param] = (
                inner if inner and inner[0] == qname
                else (qname,) + inner)
        return _Summary(
            handle_params={k: frozenset(v) for k, v in
                           self.param_handle_effects.items()},
            write_chains=write_chains,
            path_params=path_params,
            returns_open=self.returned_open,
            returns_dirty=self.returned_dirty)


class AtomicRenameRule(ProjectRule):
    rule_id = "ATOM01"
    summary = ("rename reachable without a dominating fsync on all "
               "paths — crash can publish a torn artifact")
    default_policy = RulePolicy(zones=("repro.measure",))

    def check_project(self, graph: CallGraph, rule_policy: RulePolicy,
                      ) -> Iterator[tuple[str, Finding]]:
        for module, interp, _ in _zone_runs(graph, rule_policy,
                                            _Interpreter):
            for finding in interp.findings:
                yield module, finding


class HandleLeakRule(ProjectRule):
    rule_id = "RES01"
    summary = ("writable handle not closed on all paths (including "
               "exception edges)")
    default_policy = RulePolicy(zones=("repro.measure",))

    def check_project(self, graph: CallGraph, rule_policy: RulePolicy,
                      ) -> Iterator[tuple[str, Finding]]:
        for module, interp, bundle in _zone_runs(graph, rule_policy,
                                                 _Interpreter):
            yield from ((module, finding) for finding in
                        self._leaks(interp, bundle))

    @staticmethod
    def _leaks(interp: _Interpreter,
               bundle: _ExitBundle[_State]) -> Iterator[Finding]:
        for name in sorted(interp.opened):
            origin = interp.opened[name]
            if origin.auto_close:
                continue
            via = _chain_suffix("acquired via", origin.chain)
            normal, exc = bundle.records("handles", name)
            if any(h.open for h in normal):
                yield Finding(
                    origin.line, origin.line, origin.col,
                    f"writable handle '{name}' is not closed on all "
                    f"paths{via} — close it on every exit, or use "
                    "'with'")
            elif any(h.open for h in exc):
                yield Finding(
                    origin.line, origin.line, origin.col,
                    f"writable handle '{name}' leaks on exception "
                    f"edges{via} — an error between open and close "
                    "strands the fd and its unflushed buffer; use "
                    "'with' or close in a 'finally'")


# ---------------------------------------------------------------------------
# EXC01 — swallowed BaseException in supervisor/teardown zones
# ---------------------------------------------------------------------------

_SWALLOW_NAMES = frozenset({"BaseException", "KeyboardInterrupt"})


class SwallowedInterruptRule(Rule):
    rule_id = "EXC01"
    summary = ("handler swallows BaseException/KeyboardInterrupt "
               "without re-raising — breaks deterministic teardown")
    default_policy = RulePolicy(
        zones=("repro.measure.supervise", "repro.measure.parallel",
               "repro.measure.campaign"))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not self._catches_interrupt(handler):
                    continue
                if self._terminates(handler):
                    continue
                caught = ("bare except" if handler.type is None
                          else _dotted(handler.type) or "except")
                yield Finding(
                    handler.lineno, handler.lineno, handler.col_offset,
                    f"{caught} swallows KeyboardInterrupt in a "
                    "supervisor/teardown zone — Ctrl-C must tear the "
                    "campaign down deterministically; re-raise (or "
                    "os._exit in a worker) after cleanup")

    @staticmethod
    def _catches_interrupt(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (handler.type.elts
                 if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        for entry in types:
            name = _dotted(entry)
            if name is not None and \
                    name.split(".")[-1] in _SWALLOW_NAMES:
                return True
        return False

    @staticmethod
    def _terminates(handler: ast.ExceptHandler) -> bool:
        """Handler re-raises or hard-exits on some path."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is not None and dotted.split(".")[-1] in \
                        ("_exit", "exit", "abort", "kill"):
                    return True
        return False

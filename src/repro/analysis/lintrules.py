"""Concurrency lint rules over the extracted thread models.

=========  ========  =======================================================
code       severity  meaning
=========  ========  =======================================================
NEPL200    error     file failed to parse (lint could not run)
NEPL201    error     attribute mutated from a thread entry with no lock
NEPL202    error     attribute mutated both with and without a lock
NEPL203    error     lock-acquisition-order cycle (deadlock risk)
NEPL204    warning   state lock held across a blocking call
NEPL205    warning   callback invoked while a state lock is held
NEPL210    error     parent state mutated after spawn but read in the child
NEPL211    error     unpicklable attribute captured in Process args
NEPL212    error     mp primitive from module default despite pinned context
NEPL213    warning   blocking call inside an OS signal handler
NEPL214    warning   fork/default-context spawn in a lock/thread-owning class
=========  ========  =======================================================

The engine works per class (see :mod:`repro.analysis.threadmodel`):

1. **Entry contexts.**  Each method gets the set of ``(kind, held)``
   contexts it can be entered in: thread targets enter lock-free from
   their tier thread; public methods enter lock-free from callers;
   ``_locked``-suffixed / "Caller must hold" methods enter with that
   lock held.  Contexts propagate along intra-class calls (a caller's
   held locks at the call site join the callee's entry set) to a fixed
   point, so a private helper only ever called under ``_lock`` is
   analyzed as lock-protected without any annotation.
2. **Lock roles.**  A group is a *state lock* when some attribute
   mutation happens while it is the only lock held — it guards data.
   A lock never alone at a mutation is a *pipeline lock*: it exists to
   serialize stages (e.g. flush→sink ordering, send serialization),
   and blocking inside it is the design, not a defect.  NEPL204/205
   only fire for state locks.
3. **Rules** evaluate every event under every reachable context;
   ``__init__`` is exempt (the object is not yet shared).

Lock-order edges include one level of cross-class resolution: a call
``self._chan.put(...)`` made under a held lock, where ``_chan`` was
built from a known class, adds edges to every lock that class's method
(transitively, intra-class) acquires.

The NEPL210–214 tier reasons about the ``multiprocessing`` *spawn
boundary* instead of threads: a spawned child gets a pickled copy of
the parent object at spawn time, so parent-side mutation after spawn is
invisible to child-reachable code (NEPL210), locks/sockets/threads in
``Process`` args fail to pickle — or worse, pickle into useless copies
(NEPL211), primitives created through the module default don't
interoperate with a pinned ``get_context`` start method (NEPL212), and
forking (or relying on the platform default, which forks on Linux)
while the class owns locks or threads can clone a held lock into the
child (NEPL214).  NEPL213 covers OS signal handlers, which interrupt
the main thread at arbitrary points: a blocking call there stalls
delivery of every subsequent signal.
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.analysis.threadmodel import ClassModel, Event, MethodModel

Context = tuple[str, frozenset[str]]  # (entry kind, locks held at entry)


def evaluate(models: list[ClassModel], report: DiagnosticReport) -> None:
    """Run every rule over every analyzable class into ``report``."""
    by_name = {m.name: m for m in models}
    order_edges: dict[tuple[str, str], tuple[str, str, int]] = {}
    for model in models:
        _check_spawn_staleness(model, report)
        _check_spawn_captures(model, report)
        _check_context_mismatch(model, report)
        _check_signal_handlers(model, report)
        _check_fork_with_locks(model, report)
        if not model.has_concurrency():
            continue
        contexts = _entry_contexts(model)
        _check_mutations(model, contexts, report)
        state_locks = _state_locks(model, contexts)
        _check_blocking(model, contexts, state_locks, report)
        _check_callbacks(model, contexts, state_locks, report)
        _collect_order_edges(model, contexts, by_name, order_edges)
    _check_order_cycles(order_edges, report)


def _where(model: ClassModel, lineno: int) -> str:
    return f"{model.path}:{lineno}"


# -- entry contexts ------------------------------------------------------------


def _entry_contexts(model: ClassModel) -> dict[str, set[Context]]:
    """Fixed-point context sets per method (see module docstring)."""
    contexts: dict[str, set[Context]] = {name: set() for name in model.methods}
    called_somewhere = {
        e.name
        for mm in model.methods.values()
        for e in mm.events
        if e.kind == "call"
    }
    for name, mm in model.methods.items():
        if name in model.thread_targets:
            contexts[name].add(("thread", mm.requires))
        if mm.is_public:
            contexts[name].add(("public", mm.requires))
        elif mm.requires:
            # Annotated helper: external callers honour the contract.
            contexts[name].add(("public", mm.requires))
        elif name not in called_somewhere and name not in model.thread_targets:
            # Never called intra-class: assume a lock-free outside caller
            # rather than silently skipping it.
            contexts[name].add(("public", frozenset()))
    changed = True
    while changed:
        changed = False
        for name, mm in model.methods.items():
            for event in mm.events:
                if event.kind != "call" or event.name not in contexts:
                    continue
                callee = contexts[event.name]
                for kind, entry_held in contexts[name]:
                    ctx = (kind, frozenset(entry_held | event.held))
                    if ctx not in callee:
                        callee.add(ctx)
                        changed = True
    return contexts


def _iter_events(model: ClassModel):
    """(method, event) pairs, skipping ``__init__`` (unshared object)."""
    for name, mm in model.methods.items():
        if name == "__init__":
            continue
        for event in mm.events:
            yield mm, event


def _effective(
    contexts: dict[str, set[Context]], mm: MethodModel, event: Event
):
    """Every (kind, effective-held) the event can execute under."""
    for kind, entry_held in contexts[mm.name]:
        yield kind, frozenset(entry_held | event.held)


# -- rules ---------------------------------------------------------------------


def _check_mutations(
    model: ClassModel, contexts: dict[str, set[Context]], report: DiagnosticReport
) -> None:
    """NEPL201 (unsynchronized cross-thread mutation) + NEPL202
    (inconsistent locking)."""
    locked_attrs: set[str] = set()
    unlocked: dict[tuple[str, int], str] = {}  # (attr, line) -> worst kind
    for mm, event in _iter_events(model):
        if event.kind != "mutate":
            continue
        for kind, eff in _effective(contexts, mm, event):
            if eff:
                locked_attrs.add(event.name)
            else:
                key = (event.name, event.lineno)
                if unlocked.get(key) != "thread":
                    unlocked[key] = kind
    flagged: set[tuple[str, int]] = set()
    for (attr, lineno), kind in sorted(unlocked.items(), key=lambda kv: kv[0][1]):
        if kind == "thread" and model.thread_targets:
            report.add(
                "NEPL201",
                Severity.ERROR,
                f"{model.name}.{attr} is mutated without a lock on a path "
                "reachable from a thread entry point; concurrent updates "
                "can be lost",
                where=_where(model, lineno),
                hint="hold the owning lock around the mutation",
            )
            flagged.add((attr, lineno))
    for (attr, lineno), _kind in sorted(unlocked.items(), key=lambda kv: kv[0][1]):
        if (attr, lineno) in flagged or attr not in locked_attrs:
            continue
        report.add(
            "NEPL202",
            Severity.ERROR,
            f"{model.name}.{attr} is mutated under a lock elsewhere but "
            "without one here; the lock protects nothing if any writer "
            "bypasses it",
            where=_where(model, lineno),
            hint="take the same lock on every mutation of the attribute",
        )


def _state_locks(
    model: ClassModel, contexts: dict[str, set[Context]]
) -> frozenset[str]:
    """Groups that are the sole lock held at some attribute mutation."""
    state: set[str] = set()
    for mm, event in _iter_events(model):
        if event.kind != "mutate":
            continue
        for _kind, eff in _effective(contexts, mm, event):
            if len(eff) == 1:
                state.update(eff)
    return frozenset(state)


def _check_blocking(
    model: ClassModel,
    contexts: dict[str, set[Context]],
    state_locks: frozenset[str],
    report: DiagnosticReport,
) -> None:
    """NEPL204: state lock held across a blocking call."""
    seen: set[int] = set()
    for mm, event in _iter_events(model):
        if event.kind != "blocking" or event.lineno in seen:
            continue
        for _kind, eff in _effective(contexts, mm, event):
            # A condition wait releases its own lock while waiting.
            held = eff - {event.detail} if event.detail else eff
            culprits = sorted(held & state_locks)
            if culprits:
                seen.add(event.lineno)
                report.add(
                    "NEPL204",
                    Severity.WARNING,
                    f"{model.name}.{mm.name} holds state lock "
                    f"{culprits[0]!r} across blocking call {event.name}; "
                    "every reader/writer of that state stalls for the "
                    "full call",
                    where=_where(model, event.lineno),
                    hint="copy what you need, release the lock, then block",
                )
                break


def _check_callbacks(
    model: ClassModel,
    contexts: dict[str, set[Context]],
    state_locks: frozenset[str],
    report: DiagnosticReport,
) -> None:
    """NEPL205: foreign callback invoked while a state lock is held."""
    seen: set[int] = set()
    for mm, event in _iter_events(model):
        if event.kind != "callback" or event.lineno in seen:
            continue
        for _kind, eff in _effective(contexts, mm, event):
            culprits = sorted(eff & state_locks)
            if culprits:
                seen.add(event.lineno)
                report.add(
                    "NEPL205",
                    Severity.WARNING,
                    f"{model.name}.{mm.name} invokes callback "
                    f"{event.name} while holding state lock "
                    f"{culprits[0]!r}; a callback that re-enters this "
                    "object or blocks deadlocks the lock",
                    where=_where(model, event.lineno),
                    hint="record the callback under the lock, invoke it "
                    "after release",
                )
                break


def static_order_edges(
    models: list[ClassModel],
) -> dict[tuple[str, str], tuple[str, str, int]]:
    """The lock-order edge set NEPL203 reasons over, as
    ``(held_node, acquired_node) -> (path, method, lineno)`` with nodes
    labelled ``ClassName.lockgroup``.

    Public for :mod:`repro.analysis.sanitizer`, which cross-validates
    these *predicted* edges against the edges an instrumented run
    actually *witnesses*.
    """
    by_name = {m.name: m for m in models}
    edges: dict[tuple[str, str], tuple[str, str, int]] = {}
    for model in models:
        if not model.has_concurrency():
            continue
        contexts = _entry_contexts(model)
        _collect_order_edges(model, contexts, by_name, edges)
    return edges


# -- process-model rules (NEPL210–214) -----------------------------------------

#: Attribute classes that cannot cross the pickle/spawn boundary (or
#: arrive as useless copies).  threading locks are caught through the
#: class's lock groups instead.
UNPICKLABLE_CLASSES = frozenset({"Thread", "Timer", "socket", "Condition"})


def _child_reachable(model: ClassModel) -> set[str]:
    """Methods reachable (intra-class) from a process target."""
    reachable = set(model.process_targets & model.methods.keys())
    frontier = list(reachable)
    while frontier:
        mm = model.methods[frontier.pop()]
        for event in mm.events:
            if event.kind == "call" and event.name in model.methods:
                if event.name not in reachable:
                    reachable.add(event.name)
                    frontier.append(event.name)
    return reachable


def _check_spawn_staleness(model: ClassModel, report: DiagnosticReport) -> None:
    """NEPL210: parent-side mutation of state the spawned child reads.

    A spawn-context child pickles the object once, at spawn time; any
    later parent mutation updates the parent's copy only, so the child
    silently computes on stale state.
    """
    if not model.process_targets:
        return
    child = _child_reachable(model)
    child_reads: dict[str, int] = {}
    for name in child:
        for attr, lineno in model.methods[name].reads.items():
            child_reads.setdefault(attr, lineno)
    flagged: set[str] = set()
    for name, mm in sorted(model.methods.items(), key=lambda kv: kv[1].lineno):
        if name == "__init__" or name in child:
            continue
        mutations = [(e.name, e.lineno) for e in mm.events if e.kind == "mutate"]
        mutations += list(mm.rebinds.items())
        for attr, lineno in sorted(mutations, key=lambda kv: kv[1]):
            if attr not in child_reads or attr in flagged:
                continue
            if attr in model.methods:
                continue  # rebinding a method name — not state
            flagged.add(attr)
            report.add(
                "NEPL210",
                Severity.ERROR,
                f"{model.name}.{attr} is written by parent-side "
                f"{name}() but read inside process-target code; the "
                "spawned child holds a pickled copy from spawn time and "
                "never sees this write",
                where=_where(model, lineno),
                hint="move the state into the spec/args shipped at spawn, "
                "or use an mp primitive (ctx.Value/ctx.Queue) for "
                "cross-process state",
            )


def _check_spawn_captures(model: ClassModel, report: DiagnosticReport) -> None:
    """NEPL211: locks/sockets/threads shipped through Process args."""
    seen: set[str] = set()
    for attr, lineno in model.spawn_captures:
        if attr in seen or attr in model.mp_owned_attrs:
            continue
        if attr in model.lock_groups:
            kind = "a threading lock"
        elif model.attr_classes.get(attr) in UNPICKLABLE_CLASSES:
            kind = f"a {model.attr_classes[attr]}"
        else:
            continue
        seen.add(attr)
        report.add(
            "NEPL211",
            Severity.ERROR,
            f"{model.name}.{attr} ({kind}) is captured in Process args; "
            "it either fails to pickle at spawn or arrives as a "
            "disconnected copy that synchronizes nothing",
            where=_where(model, lineno),
            hint="ship plain data (JSON/specs) across the spawn boundary "
            "and rebuild runtime objects in the child",
        )


def _check_context_mismatch(model: ClassModel, report: DiagnosticReport) -> None:
    """NEPL212: module-default primitive in a pinned-context class."""
    if not model.mp_contexts:
        return
    pinned = sorted(set(model.mp_contexts.values()))[0]
    for factory, lineno in model.default_ctx_primitives:
        report.add(
            "NEPL212",
            Severity.ERROR,
            f"{model.name} pins multiprocessing context {pinned!r} but "
            f"creates {factory} through the module default; primitives "
            "from mismatched start methods fail (or deadlock) when "
            "shared with the pinned context's processes",
            where=_where(model, lineno),
            hint=f"create it from the pinned context (ctx.{factory}(...))",
        )


def _check_signal_handlers(model: ClassModel, report: DiagnosticReport) -> None:
    """NEPL213: blocking call reachable inside an OS signal handler."""
    for handler in sorted(model.signal_handlers):
        if handler not in model.methods:
            continue
        reachable = {handler}
        frontier = [handler]
        while frontier:
            mm = model.methods[frontier.pop()]
            for event in mm.events:
                if event.kind == "call" and event.name in model.methods:
                    if event.name not in reachable:
                        reachable.add(event.name)
                        frontier.append(event.name)
        for name in sorted(reachable):
            blocking = [
                e for e in model.methods[name].events if e.kind == "blocking"
            ]
            if blocking:
                event = min(blocking, key=lambda e: e.lineno)
                report.add(
                    "NEPL213",
                    Severity.WARNING,
                    f"signal handler {model.name}.{handler} reaches "
                    f"blocking call {event.name}; handlers interrupt the "
                    "main thread at arbitrary points, so blocking here "
                    "stalls the interrupted code and delays every "
                    "subsequent signal",
                    where=_where(model, event.lineno),
                    hint="set a flag in the handler and do the blocking "
                    "work on the main loop",
                )
                break


def _check_fork_with_locks(model: ClassModel, report: DiagnosticReport) -> None:
    """NEPL214: forking while owning locks/threads clones lock state."""
    if not model.lock_groups and not model.thread_targets:
        return
    for lineno, source in model.process_spawns:
        if source in ("spawn", "forkserver"):
            continue
        if source == "?":
            continue  # unresolvable context: don't guess
        how = (
            "the platform-default start method (fork on Linux)"
            if source == "module"
            else f"the {source!r} start method"
        )
        report.add(
            "NEPL214",
            Severity.WARNING,
            f"{model.name} owns locks/threads but spawns a process via "
            f"{how}; a fork taken while another thread holds a lock "
            "clones that lock permanently-held into the child",
            where=_where(model, lineno),
            hint='pin a spawn context: ctx = multiprocessing.get_context("spawn")',
        )


# -- lock-order cycles ---------------------------------------------------------


def _transitive_acquires(
    model: ClassModel, method: str, _seen: set[str] | None = None
) -> frozenset[str]:
    """Lock groups a method may acquire, following intra-class calls."""
    if method not in model.methods:
        return frozenset()
    seen = _seen if _seen is not None else set()
    if method in seen:
        return frozenset()
    seen.add(method)
    acquired: set[str] = set(model.methods[method].requires)
    for event in model.methods[method].events:
        if event.kind == "acquire":
            acquired.add(event.name)
        elif event.kind == "call":
            acquired |= _transitive_acquires(model, event.name, seen)
    return frozenset(acquired)


def _collect_order_edges(
    model: ClassModel,
    contexts: dict[str, set[Context]],
    by_name: dict[str, ClassModel],
    edges: dict[tuple[str, str], tuple[str, str, int]],
) -> None:
    """Directed held→acquired edges between (class, lock-group) nodes."""

    def add_edge(a: str, b: str, mm: MethodModel, lineno: int) -> None:
        if a != b:
            edges.setdefault((a, b), (model.path, mm.name, lineno))

    for mm, event in _iter_events(model):
        if event.kind == "acquire":
            for _kind, eff in _effective(contexts, mm, event):
                for group in eff:
                    add_edge(
                        f"{model.name}.{group}",
                        f"{model.name}.{event.name}",
                        mm,
                        event.lineno,
                    )
        elif event.kind == "xcall":
            attr, _, method = event.name.partition(".")
            target = by_name.get(model.attr_classes.get(attr, ""))
            if target is None or target is model:
                continue
            inner = _transitive_acquires(target, method)
            if not inner:
                continue
            for _kind, eff in _effective(contexts, mm, event):
                for group in eff:
                    for acquired in inner:
                        add_edge(
                            f"{model.name}.{group}",
                            f"{target.name}.{acquired}",
                            mm,
                            event.lineno,
                        )


def _check_order_cycles(
    edges: dict[tuple[str, str], tuple[str, str, int]],
    report: DiagnosticReport,
) -> None:
    """NEPL203: cycle detection over the lock-order graph (plain DFS;
    unlike :func:`repro.util.dag.find_cycle` it reports every distinct
    cycle, each at the edge that closes it)."""
    graph: dict[str, list[str]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    stack: list[str] = []
    reported: set[frozenset[str]] = set()

    def dfs(node: str) -> None:
        color[node] = GREY
        stack.append(node)
        for nxt in graph[node]:
            if color[nxt] == GREY:
                cycle = stack[stack.index(nxt) :] + [nxt]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    path, method, lineno = edges[(node, nxt)]
                    report.add(
                        "NEPL203",
                        Severity.ERROR,
                        "lock-acquisition-order cycle: "
                        + " -> ".join(cycle)
                        + "; two threads taking these locks in opposite "
                        "order deadlock",
                        where=f"{path}:{lineno} (in {method})",
                        hint="impose one global acquisition order and "
                        "document it where the locks are created",
                    )
            elif color[nxt] == WHITE:
                dfs(nxt)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)

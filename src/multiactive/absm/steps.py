"""Reduction rules of the cooperative active-object engine.

Communication is rendez-vous style (requests land in the callee queue
synchronously) and fresh requests are served FIFO: `Activate` only ever
takes the queue head, while interrupted processes re-enter the queue at
a nondeterministic position (every position in `explore` mode, the tail
in `run` mode).

Enumeration defines when a rule is enabled. Every handler first checks
that its label is one that `_object_labels` gives the object the label
names, in `explore` mode (a superset of `run` mode's), and then only
rewrites, so `abs_apply_step` rejects any other label with `EngineFault`.
`_head_rule` names the rule a running process's head statement enables,
and `_process_labels` builds its labels; `_call_target` is the one
delivery check of asynchronous and synchronous calls alike.

Rules with one conclusion share a handler, each keeping its own name,
label and `_RULES` key: `New-Object` and `New-Cog-Object`, `Await-False`
and `Suspend`, `Rendez-vous-Comm` and `Rem-Sync-Call`, `Cog-Sync-Call`
and `Self-Sync-Call`, and the two `*-Sync-Return-Sched` rules.

Every rule that draws no fresh cog or future name rewrites only the cog
its label names (`_LOCAL`), and is memoized on that cog's node (`_next`,
through `steplabel.memo_step`), with the futures it reads and writes:
the destiny that `Return` and the synchronous returns resolve, and the
future that `Await-*` and `Read-Fut` read.
"""

from __future__ import annotations

from typing import Optional

from ..lang.ast_abs import (
    AAssign,
    AAsync,
    AAwait,
    AGet,
    AIf,
    ANew,
    AReturn,
    aseq_list,
    ASkip,
    ASuspend,
    ASync,
    GAnd,
    GBool,
    GFut,
)
from ..lang.ast_expr import RuntimeVal, Var
from ..steplabel import ABSENT, Label, memo_step
from ..values import (
    UNDEFINED,
    UNRESOLVED,
    ActRef,
    EngineFault,
    FutRef,
    ObjRef,
)
from .evalfn import abs_evaluate, abs_evaluate_list
from .runtime import AbsConfig, Cog, Ob, Process, RGFut, abs_bind


def split_guard(g):
    """First conjunct and the remainder (None when exhausted)."""
    if isinstance(g, GAnd):
        first, rest = split_guard(g.left)
        if rest is None:
            return first, g.right
        return first, GAnd(rest, g.right)
    return g, None


# -- enumeration ---------------------------------------------------------------


def abs_enabled_steps(config: AbsConfig, mode: str = "explore") -> list:
    labels = []
    for cog in config.cogs.values():
        for ob in cog.objects.values():
            labels.extend(_object_labels(config, cog, ob, mode))
    return labels


def _object_labels(config, cog, ob, mode) -> list:
    """The labels whose first ``extra`` item names ``ob``, an object of
    ``cog``: its running process's, `Release-Cog` once that process is
    gone, or `Activate` while its cog is free. Every rule's handler takes
    only these."""
    running = cog.running
    ident = (ob.name.ident,)
    if running == ob.name:
        if ob.active is not None:
            return _process_labels(config, ob, mode)
        return [Label("Release-Cog", ob.name.cog, None, ident)]
    if running is None and ob.active is None and ob.queue:
        return [Label("Activate", ob.name.cog, _dest(ob.queue[0]), ident)]
    return []


def _dest(proc) -> Optional[str]:
    d = proc.locals.get("destiny")
    return d.name if isinstance(d, FutRef) else None


def _process_labels(config, ob, mode) -> list:
    """The running process's labels: its head statement's rule, with the
    object's ident and the rule's further ``extra`` items; `Suspend` and
    `Await-False` once per position the process may re-enter its queue
    at (only the tail in ``run`` mode)."""
    proc = ob.active
    found = _head_rule(config, ob, proc, proc.stmts[0])
    if found is None:
        return []
    rule, more = found
    cog, dest, ident = ob.name.cog, _dest(proc), ob.name.ident
    if rule == "Suspend" or rule == "Await-False":
        end = len(ob.queue)
        return [
            Label(rule, cog, dest, (ident, pos))
            for pos in range(end if mode == "run" else 0, end + 1)
        ]
    return [Label(rule, cog, dest, (ident,) + more)]


def _head_rule(config, ob, proc, head):
    """The rule that the head statement enables, with its label's
    ``extra`` items after the object's ident; None when none is."""
    if isinstance(head, ASkip):
        return "Skip", ()
    if isinstance(head, ASuspend):
        return "Suspend", ()
    if isinstance(head, AIf):
        v = abs_evaluate(head.cond, ob.fields, proc.locals)
        if v is True:
            return "Cond-True", ()
        return ("Cond-False", ()) if v is False else None
    if isinstance(head, AReturn):
        return _return_rule(config, ob, proc)
    if isinstance(head, AAwait):
        return _await_rule(config, ob, proc)
    if isinstance(head, AAssign):
        return _assign_rule(config, ob, proc, head)
    raise EngineFault(f"unknown statement {head!r}")


def _await_rule(config, ob, proc):
    first, _ = split_guard(proc.stmts[0].guard)
    if isinstance(first, GBool):
        v = abs_evaluate(first.expr, ob.fields, proc.locals)
        if v is True:
            return "Await-True", ()
        return ("Await-False", ()) if v is False else None
    if isinstance(first, (GFut, RGFut)):
        if isinstance(first, GFut):
            f = abs_evaluate(Var(first.var), ob.fields, proc.locals)
        else:
            f = first.value
        if not isinstance(f, FutRef):
            return None
        if config.futures.get(f.name, UNRESOLVED) is UNRESOLVED:
            return "Await-False", ()
        return "Await-True", ()
    raise EngineFault(f"unknown guard {first!r}")


def _return_rule(config, ob, proc):
    if abs_evaluate(proc.stmts[0].expr, ob.fields, proc.locals) is UNDEFINED:
        return None
    cont = proc.locals.get("cont")
    if cont is None:
        if config.futures.get(_dest(proc)) is not UNRESOLVED:
            return None
        return "Return", ()
    # a synchronous callee: hand control back to the interrupted caller
    if not isinstance(cont, FutRef):
        return None
    for pos, p in enumerate(ob.queue):
        if p.locals.get("destiny") == cont:
            return "Self-Sync-Return-Sched", (pos,)
    for other in config.cogs[ob.name.cog].objects.values():
        if other.name != ob.name and other.active is None:
            for pos, p in enumerate(other.queue):
                if p.locals.get("destiny") == cont:
                    return "Cog-Sync-Return-Sched", (other.name.ident, pos)
    return None


def _assign_rule(config, ob, proc, head):
    rhs = head.rhs
    fields, locals_ = ob.fields, proc.locals
    if isinstance(rhs, ANew):
        cls = config.program.cls(rhs.cls)
        if cls is None or len(rhs.args) != len(cls.fields):
            return None
        if abs_evaluate_list(rhs.args, fields, locals_) is None:
            return None
        return ("New-Object" if rhs.local else "New-Cog-Object"), ()
    if isinstance(rhs, (AAsync, ASync)):
        callee = _call_target(config, ob, rhs)
        if callee is None:
            return None
        if isinstance(rhs, AAsync):
            return "Rendez-vous-Comm", ()
        if callee.name == ob.name:
            return "Self-Sync-Call", ()
        if callee.name.cog != ob.name.cog:
            return "Rem-Sync-Call", ()
        return ("Cog-Sync-Call", (callee.name.ident,)) if callee.active is None else None
    if isinstance(rhs, AGet):
        f = abs_evaluate(rhs.expr, fields, locals_)
        if not isinstance(f, FutRef) or config.futures.get(f.name, UNRESOLVED) is UNRESOLVED:
            return None  # a blocking read holds the whole cog
        return "Read-Fut", ()
    if abs_evaluate(rhs, fields, locals_) is UNDEFINED:
        return None
    if head.target in locals_:
        return "Assign-Local", ()
    if head.target in fields:
        return "Assign-Field", ()
    return None


def _call_target(config, ob, rhs) -> Optional[Ob]:
    """The callee of an asynchronous or synchronous call, when the call
    can be delivered: its target is an object, its arguments evaluate and
    its method binds on the callee."""
    fields, locals_ = ob.fields, ob.active.locals
    target = abs_evaluate(rhs.target, fields, locals_)
    callee = config.ob(target) if isinstance(target, ObjRef) else None
    if callee is None:
        return None
    args = abs_evaluate_list(rhs.args, fields, locals_)
    if args is None:
        return None
    if abs_bind(config.program, target, callee.cls, "f?", rhs.method, args) is None:
        return None
    return callee


# -- application -----------------------------------------------------------------


def abs_apply_step(config: AbsConfig, label: Label) -> AbsConfig:
    handler = _RULES.get(label.rule)
    if handler is None:
        raise EngineFault(f"unknown rule {label.rule}")
    if label.rule in _LOCAL:
        cog = config.cogs.get(label.activity)
        if cog is not None:
            return memo_step(config, cog, label, handler, _outcome, AbsConfig.with_cog)
    return handler(config, label)


def _outcome(config, new, cog, label) -> tuple:
    """What a local rule did, for `memo_step`: the `_RESOLVES` rules read
    and resolved their destiny, ``Await-*`` (on a future guard) and
    ``Read-Fut`` read one future."""
    succ = new.cogs[cog.name]
    rule = label.rule
    if rule in _RESOLVES:
        fut = cog.objects[label.extra[0]].active.locals["destiny"].name
        return succ, ((fut, config.futures[fut]),), ((fut, new.futures[fut]),)
    if rule in _READS_FUTURE:
        f = _read_future(cog.objects[label.extra[0]])
        if f is not None:
            return succ, ((f.name, config.futures.get(f.name, ABSENT)),), ()
    return succ, (), ()


def _read_future(ob):
    """The future that ``ob``'s head statement, an ``await`` or a ``get``,
    reads; None for a boolean guard."""
    head = ob.active.stmts[0]
    if isinstance(head, AAssign):
        return abs_evaluate(head.rhs.expr, ob.fields, ob.active.locals)
    first, _ = split_guard(head.guard)
    if isinstance(first, GBool):
        return None
    if isinstance(first, RGFut):
        return first.value
    return abs_evaluate(Var(first.var), ob.fields, ob.active.locals)


def _ob(config, label) -> tuple:
    """The cog a label names and its object that the label's first
    ``extra`` item names, which must offer the label in ``explore`` mode
    (whose labels include ``run`` mode's); its handler then only
    rewrites."""
    cog = config.cogs.get(label.activity)
    ob = cog.objects.get(label.extra[0]) if cog is not None and label.extra else None
    if ob is None or label not in _object_labels(config, cog, ob, "explore"):
        raise EngineFault(f"step not enabled: {label.key()}")
    return cog, ob


def _rewrite(config, cog, ob, **changes) -> AbsConfig:
    """``config`` with ``ob``, an object of ``cog``, changed by ``changes``."""
    return config.with_cog(cog.with_object(ob.update(**changes)))


def _pop(proc) -> Process:
    return proc.with_stmts(proc.stmts[1:])


def _apply_skip(config, label):
    cog, ob = _ob(config, label)
    return _rewrite(config, cog, ob, active=_pop(ob.active))


def _apply_cond(config, label):
    cog, ob = _ob(config, label)
    head = ob.active.stmts[0]
    branch = head.then if label.rule == "Cond-True" else head.els
    stmts = tuple(aseq_list(branch)) + ob.active.stmts[1:]
    return _rewrite(config, cog, ob, active=ob.active.with_stmts(stmts))


def _apply_assign_local(config, label):
    cog, ob = _ob(config, label)
    head = ob.active.stmts[0]
    v = abs_evaluate(head.rhs, ob.fields, ob.active.locals)
    proc = Process({**ob.active.locals, head.target: v}, ob.active.stmts[1:])
    return _rewrite(config, cog, ob, active=proc)


def _apply_assign_field(config, label):
    cog, ob = _ob(config, label)
    head = ob.active.stmts[0]
    v = abs_evaluate(head.rhs, ob.fields, ob.active.locals)
    fields = dict(ob.fields)
    fields[head.target] = v
    return _rewrite(config, cog, ob, fields=fields, active=_pop(ob.active))


def _apply_await_true(config, label):
    cog, ob = _ob(config, label)
    _, rest = split_guard(ob.active.stmts[0].guard)
    stmts = ob.active.stmts[1:]
    if rest is not None:
        stmts = (AAwait(rest),) + stmts
    return _rewrite(config, cog, ob, active=ob.active.with_stmts(stmts))


def _apply_await_false(config, label):
    """`Await-False` and `Suspend`: the process re-enters its queue at the
    label's position, before its guard or past its ``suspend``."""
    cog, ob = _ob(config, label)
    proc = ob.active if label.rule == "Await-False" else _pop(ob.active)
    pos = label.extra[1]
    queue = ob.queue[:pos] + (proc,) + ob.queue[pos:]
    return _rewrite(config, cog, ob, active=None, queue=queue)


def _apply_release_cog(config, label):
    cog, _ = _ob(config, label)
    return config.with_cog(cog.update(running=None))


def _apply_activate(config, label):
    cog, ob = _ob(config, label)
    proc, rest = ob.queue[0], ob.queue[1:]
    return config.with_cog(cog.with_object(ob.update(active=proc, queue=rest), running=ob.name))


def _apply_read_fut(config, label):
    cog, ob = _ob(config, label)
    head = ob.active.stmts[0]
    v = config.futures[_read_future(ob).name]
    stmts = (AAssign(head.target, RuntimeVal(v)),) + ob.active.stmts[1:]
    return _rewrite(config, cog, ob, active=ob.active.with_stmts(stmts))


def _apply_new_object(config, label):
    """`New-Object` and `New-Cog-Object`: the new object joins the
    caller's cog, or a fresh cog that starts free."""
    cog, ob = _ob(config, label)
    head = ob.active.stmts[0]
    cls = config.program.cls(head.rhs.cls)
    args = abs_evaluate_list(head.rhs.args, ob.fields, ob.active.locals)
    local = label.rule == "New-Object"
    home = cog.name if local else f"a{config.cog_counter}"
    name = ObjRef(cog.next_id if local else 1, home)
    fields = dict(zip(cls.fields, args))
    fields["cog"] = ActRef(home)
    new_ob = Ob(name, cls.name, fields, None, ())
    stmts = (AAssign(head.target, RuntimeVal(name)),) + ob.active.stmts[1:]
    caller = ob.update(active=ob.active.with_stmts(stmts))
    if local:
        return config.with_cog(cog.with_object(caller, new_ob, next_id=name.ident + 1))
    fresh = Cog(home, None, 2, {1: new_ob})
    return config.with_cog(cog.with_object(caller), fresh, cog_counter=config.cog_counter + 1)


def _call_parts(config, ob):
    """A call's head statement, its target, a fresh future, and the
    target's method bound with that future as its destiny."""
    head = ob.active.stmts[0]
    target = abs_evaluate(head.rhs.target, ob.fields, ob.active.locals)
    args = abs_evaluate_list(head.rhs.args, ob.fields, ob.active.locals)
    fut = f"f{config.fut_counter}"
    cls = config.ob(target).cls
    bound = abs_bind(config.program, target, cls, fut, head.rhs.method, args)
    return head, target, fut, bound


def _apply_call(config, label):
    """`Rendez-vous-Comm` and `Rem-Sync-Call`: the request lands in the
    callee's queue, and the caller goes on with the future, or with a
    blocking read of it."""
    cog, ob = _ob(config, label)
    head, target, fut, bound = _call_parts(config, ob)
    value = RuntimeVal(FutRef(fut))
    if label.rule == "Rem-Sync-Call":
        value = AGet(value)
    stmts = (AAssign(head.target, value),) + ob.active.stmts[1:]
    caller = ob.update(active=ob.active.with_stmts(stmts))
    callee = caller if target == ob.name else config.ob(target)
    callee = callee.update(queue=callee.queue + (bound,))
    if target.cog == cog.name:
        cogs = (cog.with_object(caller, callee),)
    else:
        cogs = (cog.with_object(caller), config.cogs[target.cog].with_object(callee))
    futures = dict(config.futures)
    futures[fut] = UNRESOLVED
    return config.with_cog(*cogs, futures=futures, fut_counter=config.fut_counter + 1)


def _apply_local_sync_call(config, label):
    """`Cog-Sync-Call` and `Self-Sync-Call`: the caller queues its
    continuation (await the call's future, then read it) and hands its
    cog to the callee, which may be the caller itself."""
    cog, ob = _ob(config, label)
    head, target, fut, bound = _call_parts(config, ob)
    f = FutRef(fut)
    cont = (AAwait(RGFut(f)), AAssign(head.target, AGet(RuntimeVal(f))))
    continuation = Process(ob.active.locals, cont + ob.active.stmts[1:])
    caller = ob.update(active=None, queue=ob.queue + (continuation,))
    callee = caller if target == ob.name else cog.objects[target.ident]
    callee = callee.update(active=bound.with_local("cont", ob.active.locals["destiny"]))
    futures = dict(config.futures)
    futures[fut] = UNRESOLVED
    return config.with_cog(
        cog.with_object(caller, callee, running=target),
        futures=futures,
        fut_counter=config.fut_counter + 1,
    )


def _resolve_destiny(config, ob):
    """Shared tail of the return rules: resolve the returning process's
    future to the value it returns."""
    proc = ob.active
    v = abs_evaluate(proc.stmts[0].expr, ob.fields, proc.locals)
    futures = dict(config.futures)
    futures[proc.locals["destiny"].name] = v
    return futures


def _apply_return(config, label):
    cog, ob = _ob(config, label)
    futures = _resolve_destiny(config, ob)
    return config.with_cog(cog.with_object(ob.update(active=None)), futures=futures)


def _apply_sync_return(config, label):
    """`Self-Sync-Return-Sched` and `Cog-Sync-Return-Sched`: the callee
    resolves its destiny and hands its cog to the waiting caller, whose
    object and queue position close the label's ``extra``; a self-call's
    caller is the callee itself."""
    cog, ob = _ob(config, label)
    other = cog.objects[label.extra[-2]]
    pos = label.extra[-1]
    queue = other.queue[:pos] + other.queue[pos + 1 :]
    other = other.update(active=other.queue[pos], queue=queue)
    futures = _resolve_destiny(config, ob)
    return config.with_cog(
        cog.with_object(ob.update(active=None), other, running=other.name), futures=futures
    )


_RULES = {
    "Skip": _apply_skip,
    "Cond-True": _apply_cond,
    "Cond-False": _apply_cond,
    "Assign-Local": _apply_assign_local,
    "Assign-Field": _apply_assign_field,
    "Await-True": _apply_await_true,
    "Await-False": _apply_await_false,
    "Suspend": _apply_await_false,
    "Release-Cog": _apply_release_cog,
    "Activate": _apply_activate,
    "Read-Fut": _apply_read_fut,
    "New-Object": _apply_new_object,
    "New-Cog-Object": _apply_new_object,
    "Rendez-vous-Comm": _apply_call,
    "Cog-Sync-Call": _apply_local_sync_call,
    "Self-Sync-Call": _apply_local_sync_call,
    "Rem-Sync-Call": _apply_call,
    "Return": _apply_return,
    "Self-Sync-Return-Sched": _apply_sync_return,
    "Cog-Sync-Return-Sched": _apply_sync_return,
}

# the rules that rewrite only their own cog, so `abs_apply_step` memoizes
# them on it: all but those that draw a fresh cog or future name. The
# `_RESOLVES` rules read and resolve their destiny, the `_READS_FUTURE`
# rules read one future, and the rest read nothing outside the cog
_RESOLVES = frozenset({"Return", "Self-Sync-Return-Sched", "Cog-Sync-Return-Sched"})
_READS_FUTURE = frozenset({"Await-True", "Await-False", "Read-Fut"})
_LOCAL = frozenset(_RULES) - {
    "New-Cog-Object", "Rendez-vous-Comm", "Rem-Sync-Call", "Cog-Sync-Call", "Self-Sync-Call"
}

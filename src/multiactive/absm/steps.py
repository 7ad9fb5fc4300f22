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

The rules that rewrite only one object (`_LOCAL`) are memoized on it
(`_next`, through `steplabel.memo_step`), with the configuration cells
they read and write: a cog's running object for `Activate`, a future for
`Return`, `Await-*` and `Read-Fut`.
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
from .runtime import AbsConfig, Ob, Process, RGFut, abs_bind


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
    by_cog = {}
    for o in config.objects.values():
        by_cog.setdefault(o.name.cog, []).append(o)
    labels = []
    for cog in config.cogs:
        for ob in sorted(by_cog.get(cog, ()), key=lambda o: o.name.ident):
            labels.extend(_object_labels(config, ob, mode))
    return labels


def _object_labels(config, ob, mode) -> list:
    """The labels whose first ``extra`` item names ``ob``: its running
    process's, `Release-Cog` once that process is gone, or `Activate`
    while its cog is free. Every rule's handler takes only these."""
    running = config.cogs.get(ob.name.cog, ABSENT)
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


def _insertion_labels(config, ob, rule, mode) -> list:
    cog = ob.name.cog
    dest = _dest(ob.active)
    if mode == "run":
        return [Label(rule, cog, dest, (ob.name.ident, len(ob.queue)))]
    return [
        Label(rule, cog, dest, (ob.name.ident, pos))
        for pos in range(len(ob.queue) + 1)
    ]


def _process_labels(config, ob, mode) -> list:
    proc = ob.active
    head = proc.stmts[0]
    cog = ob.name.cog
    dest = _dest(proc)
    fields, locals_ = ob.fields, proc.locals
    ident = (ob.name.ident,)
    if isinstance(head, ASkip):
        return [Label("Skip", cog, dest, ident)]
    if isinstance(head, ASuspend):
        return _insertion_labels(config, ob, "Suspend", mode)
    if isinstance(head, AIf):
        v = abs_evaluate(head.cond, fields, locals_)
        if v is True:
            return [Label("Cond-True", cog, dest, ident)]
        if v is False:
            return [Label("Cond-False", cog, dest, ident)]
        return []
    if isinstance(head, AReturn):
        return _return_labels(config, ob, proc)
    if isinstance(head, AAwait):
        return _await_labels(config, ob, proc, mode)
    if isinstance(head, AAssign):
        return _assign_labels(config, ob, proc, head)
    raise EngineFault(f"unknown statement {head!r}")


def _await_labels(config, ob, proc, mode) -> list:
    first, _ = split_guard(proc.stmts[0].guard)
    cog = ob.name.cog
    dest = _dest(proc)
    ident = (ob.name.ident,)
    if isinstance(first, GBool):
        v = abs_evaluate(first.expr, ob.fields, proc.locals)
        if v is True:
            return [Label("Await-True", cog, dest, ident)]
        if v is False:
            return _insertion_labels(config, ob, "Await-False", mode)
        return []
    if isinstance(first, (GFut, RGFut)):
        if isinstance(first, GFut):
            f = abs_evaluate(Var(first.var), ob.fields, proc.locals)
        else:
            f = first.value
        if not isinstance(f, FutRef):
            return []
        val = config.futures.get(f.name, UNRESOLVED)
        if val is not UNRESOLVED:
            return [Label("Await-True", cog, dest, ident)]
        return _insertion_labels(config, ob, "Await-False", mode)
    raise EngineFault(f"unknown guard {first!r}")


def _return_labels(config, ob, proc) -> list:
    v = abs_evaluate(proc.stmts[0].expr, ob.fields, proc.locals)
    if v is UNDEFINED:
        return []
    cog = ob.name.cog
    dest = _dest(proc)
    ident = (ob.name.ident,)
    cont = proc.locals.get("cont")
    if cont is None:
        if config.futures.get(dest) is not UNRESOLVED:
            return []
        return [Label("Return", cog, dest, ident)]
    # a synchronous callee: hand control back to the interrupted caller
    if not isinstance(cont, FutRef):
        return []
    for pos, p in enumerate(ob.queue):
        if p.locals.get("destiny") == cont:
            return [Label("Self-Sync-Return-Sched", cog, dest, (ob.name.ident, pos))]
    for other in config.objects.values():
        if other.name.cog == cog and other.name != ob.name and other.active is None:
            for pos, p in enumerate(other.queue):
                if p.locals.get("destiny") == cont:
                    return [
                        Label(
                            "Cog-Sync-Return-Sched",
                            cog,
                            dest,
                            (ob.name.ident, other.name.ident, pos),
                        )
                    ]
    return []


def _assign_labels(config, ob, proc, head) -> list:
    rhs = head.rhs
    cog = ob.name.cog
    dest = _dest(proc)
    ident = (ob.name.ident,)
    fields, locals_ = ob.fields, proc.locals
    if isinstance(rhs, ANew):
        cls = config.program.cls(rhs.cls)
        if cls is None or len(rhs.args) != len(cls.fields):
            return []
        if abs_evaluate_list(rhs.args, fields, locals_) is None:
            return []
        rule = "New-Object" if rhs.local else "New-Cog-Object"
        return [Label(rule, cog, dest, ident)]
    if isinstance(rhs, AAsync):
        target = abs_evaluate(rhs.target, fields, locals_)
        if not isinstance(target, ObjRef) or target not in config.objects:
            return []
        callee = config.objects[target]
        args = abs_evaluate_list(rhs.args, fields, locals_)
        if args is None:
            return []
        if abs_bind(config.program, target, callee.cls, "f?", rhs.method, args) is None:
            return []
        return [Label("Rendez-vous-Comm", cog, dest, ident)]
    if isinstance(rhs, ASync):
        return _sync_labels(config, ob, proc, head)
    if isinstance(rhs, AGet):
        f = abs_evaluate(rhs.expr, fields, locals_)
        if not isinstance(f, FutRef):
            return []
        val = config.futures.get(f.name, UNRESOLVED)
        if val is UNRESOLVED:
            return []  # blocking read holds the whole cog
        return [Label("Read-Fut", cog, dest, ident)]
    v = abs_evaluate(rhs, fields, locals_)
    if v is UNDEFINED:
        return []
    if head.target in locals_:
        return [Label("Assign-Local", cog, dest, ident)]
    if head.target in fields:
        return [Label("Assign-Field", cog, dest, ident)]
    return []


def _sync_labels(config, ob, proc, head) -> list:
    rhs = head.rhs
    cog = ob.name.cog
    dest = _dest(proc)
    fields, locals_ = ob.fields, proc.locals
    target = abs_evaluate(rhs.target, fields, locals_)
    if not isinstance(target, ObjRef) or target not in config.objects:
        return []
    args = abs_evaluate_list(rhs.args, fields, locals_)
    if args is None:
        return []
    callee = config.objects[target]
    if abs_bind(config.program, target, callee.cls, "f?", rhs.method, args) is None:
        return []
    if target == ob.name:
        return [Label("Self-Sync-Call", cog, dest, (ob.name.ident,))]
    if callee.name.cog == cog:
        if callee.active is not None:
            return []
        return [Label("Cog-Sync-Call", cog, dest, (ob.name.ident, target.ident))]
    return [Label("Rem-Sync-Call", cog, dest, (ob.name.ident,))]


# -- application -----------------------------------------------------------------


def abs_apply_step(config: AbsConfig, label: Label) -> AbsConfig:
    handler = _RULES.get(label.rule)
    if handler is None:
        raise EngineFault(f"unknown rule {label.rule}")
    if label.rule in _LOCAL:
        ob = _named(config, label)
        if ob is not None:
            return memo_step(config, ob, label, handler, _outcome, AbsConfig.with_object)
    return handler(config, label)


def _outcome(config, new, ob, label) -> tuple:
    """What a local rule did, for `memo_step`: ``Activate`` read and wrote
    its cog's running object, ``Return`` its destiny, ``Await-*`` (on a
    future guard) and ``Read-Fut`` read one future."""
    succ = new.objects[ob.name]
    rule = label.rule
    if rule == "Activate":
        cog = label.activity
        return succ, (("cogs", cog, config.cogs.get(cog, ABSENT)),), (
            ("cogs", cog, new.cogs[cog]),
        )
    if rule == "Return":
        fut = ob.active.locals["destiny"].name
        return succ, (("futures", fut, config.futures[fut]),), (
            ("futures", fut, new.futures[fut]),
        )
    if rule in _READS_FUTURE:
        f = _read_future(ob)
        if f is not None:
            return succ, (("futures", f.name, config.futures.get(f.name, ABSENT)),), ()
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


def _named(config, label) -> Optional[Ob]:
    """The object that a label's first ``extra`` item names, if any."""
    if not label.extra:
        return None
    return config.objects.get(ObjRef(label.extra[0], label.activity))


def _ob(config, label) -> Ob:
    """The object a label names, which must offer the label in ``explore``
    mode (whose labels include ``run`` mode's); its handler then only
    rewrites."""
    ob = _named(config, label)
    if ob is None or label not in _object_labels(config, ob, "explore"):
        raise EngineFault(f"step not enabled: {label.key()}")
    return ob


def _pop(proc) -> Process:
    return proc.with_stmts(proc.stmts[1:])


def _apply_skip(config, label):
    ob = _ob(config, label)
    return config.with_object(ob.update(active=_pop(ob.active)))


def _apply_cond(config, label):
    ob = _ob(config, label)
    head = ob.active.stmts[0]
    branch = head.then if label.rule == "Cond-True" else head.els
    stmts = tuple(aseq_list(branch)) + ob.active.stmts[1:]
    return config.with_object(ob.update(active=ob.active.with_stmts(stmts)))


def _apply_assign_local(config, label):
    ob = _ob(config, label)
    head = ob.active.stmts[0]
    v = abs_evaluate(head.rhs, ob.fields, ob.active.locals)
    proc = Process({**ob.active.locals, head.target: v}, ob.active.stmts[1:])
    return config.with_object(ob.update(active=proc))


def _apply_assign_field(config, label):
    ob = _ob(config, label)
    head = ob.active.stmts[0]
    v = abs_evaluate(head.rhs, ob.fields, ob.active.locals)
    fields = dict(ob.fields)
    fields[head.target] = v
    return config.with_object(ob.update(fields=fields, active=_pop(ob.active)))


def _apply_await_true(config, label):
    ob = _ob(config, label)
    _, rest = split_guard(ob.active.stmts[0].guard)
    stmts = ob.active.stmts[1:]
    if rest is not None:
        stmts = (AAwait(rest),) + stmts
    return config.with_object(ob.update(active=ob.active.with_stmts(stmts)))


def _schedule(queue, proc, pos) -> tuple:
    return queue[:pos] + (proc,) + queue[pos:]


def _apply_await_false(config, label):
    ob = _ob(config, label)
    queue = _schedule(ob.queue, ob.active, label.extra[1])
    return config.with_object(ob.update(active=None, queue=queue))


def _apply_suspend(config, label):
    ob = _ob(config, label)
    queue = _schedule(ob.queue, _pop(ob.active), label.extra[1])
    return config.with_object(ob.update(active=None, queue=queue))


def _apply_release_cog(config, label):
    _ob(config, label)
    cogs = dict(config.cogs)
    cogs[label.activity] = None
    return config.update(cogs=cogs)


def _apply_activate(config, label):
    ob = _ob(config, label)
    proc, rest = ob.queue[0], ob.queue[1:]
    cogs = dict(config.cogs)
    cogs[label.activity] = ob.name
    return config.with_object(ob.update(active=proc, queue=rest), cogs=cogs)


def _apply_read_fut(config, label):
    ob = _ob(config, label)
    head = ob.active.stmts[0]
    v = config.futures[_read_future(ob).name]
    stmts = (AAssign(head.target, RuntimeVal(v)),) + ob.active.stmts[1:]
    return config.with_object(ob.update(active=ob.active.with_stmts(stmts)))


def _apply_new_object(config, label):
    ob = _ob(config, label)
    head = ob.active.stmts[0]
    cog = label.activity
    cls = config.program.cls(head.rhs.cls)
    args = abs_evaluate_list(head.rhs.args, ob.fields, ob.active.locals)
    counters = dict(config.id_counters)
    ident = counters.get(cog, 1)
    counters[cog] = ident + 1
    name = ObjRef(ident, cog)
    fields = dict(zip(cls.fields, args))
    fields["cog"] = ActRef(cog)
    new_ob = Ob(name, cls.name, fields, None, ())
    stmts = (AAssign(head.target, RuntimeVal(name)),) + ob.active.stmts[1:]
    caller = ob.update(active=ob.active.with_stmts(stmts))
    return config.with_object(caller, new_ob, id_counters=counters)


def _apply_new_cog_object(config, label):
    ob = _ob(config, label)
    head = ob.active.stmts[0]
    cls = config.program.cls(head.rhs.cls)
    args = abs_evaluate_list(head.rhs.args, ob.fields, ob.active.locals)
    new_cog = f"a{config.cog_counter}"
    counters = dict(config.id_counters)
    ident = counters.get(new_cog, 1)
    counters[new_cog] = ident + 1
    name = ObjRef(ident, new_cog)
    fields = dict(zip(cls.fields, args))
    fields["cog"] = ActRef(new_cog)
    new_ob = Ob(name, cls.name, fields, None, ())
    cogs = dict(config.cogs)
    cogs[new_cog] = None
    stmts = (AAssign(head.target, RuntimeVal(name)),) + ob.active.stmts[1:]
    caller = ob.update(active=ob.active.with_stmts(stmts))
    return config.with_object(
        caller, new_ob, cogs=cogs, cog_counter=config.cog_counter + 1, id_counters=counters
    )


def _call_parts(config, ob):
    """A call's head statement, its target, a fresh future, and the
    target's method bound with that future as its destiny."""
    head = ob.active.stmts[0]
    target = abs_evaluate(head.rhs.target, ob.fields, ob.active.locals)
    args = abs_evaluate_list(head.rhs.args, ob.fields, ob.active.locals)
    fut = f"f{config.fut_counter}"
    cls = config.objects[target].cls
    bound = abs_bind(config.program, target, cls, fut, head.rhs.method, args)
    return head, target, fut, bound


def _apply_rendez_vous(config, label):
    ob = _ob(config, label)
    head, target, fut, bound = _call_parts(config, ob)
    stmts = (AAssign(head.target, RuntimeVal(FutRef(fut))),) + ob.active.stmts[1:]
    caller = ob.update(active=ob.active.with_stmts(stmts))
    callee = caller if target == ob.name else config.objects[target]
    callee = callee.update(queue=callee.queue + (bound,))
    futures = dict(config.futures)
    futures[fut] = UNRESOLVED
    return config.with_object(
        caller, callee, futures=futures, fut_counter=config.fut_counter + 1
    )


def _apply_cog_sync_call(config, label):
    ob = _ob(config, label)
    head, target, fut, bound = _call_parts(config, ob)
    bound = bound.with_local("cont", ob.active.locals["destiny"])
    cont_stmts = (
        AAwait(RGFut(FutRef(fut))),
        AAssign(head.target, AGet(RuntimeVal(FutRef(fut)))),
    ) + ob.active.stmts[1:]
    continuation = Process(ob.active.locals, cont_stmts)
    caller = ob.update(active=None, queue=ob.queue + (continuation,))
    cogs = dict(config.cogs)
    cogs[label.activity] = target
    futures = dict(config.futures)
    futures[fut] = UNRESOLVED
    callee = config.objects[target].update(active=bound)
    return config.with_object(
        caller, callee, cogs=cogs, futures=futures, fut_counter=config.fut_counter + 1
    )


def _apply_self_sync_call(config, label):
    ob = _ob(config, label)
    head, _, fut, bound = _call_parts(config, ob)
    bound = bound.with_local("cont", ob.active.locals["destiny"])
    cont_stmts = (
        AAwait(RGFut(FutRef(fut))),
        AAssign(head.target, AGet(RuntimeVal(FutRef(fut)))),
    ) + ob.active.stmts[1:]
    continuation = Process(ob.active.locals, cont_stmts)
    futures = dict(config.futures)
    futures[fut] = UNRESOLVED
    ob = ob.update(active=bound, queue=ob.queue + (continuation,))
    return config.with_object(ob, futures=futures, fut_counter=config.fut_counter + 1)


def _apply_rem_sync_call(config, label):
    ob = _ob(config, label)
    head, target, fut, bound = _call_parts(config, ob)
    stmts = (
        AAssign(head.target, AGet(RuntimeVal(FutRef(fut)))),
    ) + ob.active.stmts[1:]
    caller = ob.update(active=ob.active.with_stmts(stmts))
    futures = dict(config.futures)
    futures[fut] = UNRESOLVED
    callee = config.objects[target]
    callee = callee.update(queue=callee.queue + (bound,))
    return config.with_object(
        caller, callee, futures=futures, fut_counter=config.fut_counter + 1
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
    ob = _ob(config, label)
    futures = _resolve_destiny(config, ob)
    return config.with_object(ob.update(active=None), futures=futures)


def _apply_self_sync_return(config, label):
    ob = _ob(config, label)
    pos = label.extra[1]
    futures = _resolve_destiny(config, ob)
    queue = ob.queue[:pos] + ob.queue[pos + 1 :]
    ob = ob.update(active=ob.queue[pos], queue=queue)
    return config.with_object(ob, futures=futures)


def _apply_cog_sync_return(config, label):
    ob = _ob(config, label)
    other = config.objects[ObjRef(label.extra[1], label.activity)]
    pos = label.extra[2]
    futures = _resolve_destiny(config, ob)
    queue = other.queue[:pos] + other.queue[pos + 1 :]
    cogs = dict(config.cogs)
    cogs[label.activity] = other.name
    other = other.update(active=other.queue[pos], queue=queue)
    return config.with_object(ob.update(active=None), other, futures=futures, cogs=cogs)


_RULES = {
    "Skip": _apply_skip,
    "Cond-True": _apply_cond,
    "Cond-False": _apply_cond,
    "Assign-Local": _apply_assign_local,
    "Assign-Field": _apply_assign_field,
    "Await-True": _apply_await_true,
    "Await-False": _apply_await_false,
    "Suspend": _apply_suspend,
    "Release-Cog": _apply_release_cog,
    "Activate": _apply_activate,
    "Read-Fut": _apply_read_fut,
    "New-Object": _apply_new_object,
    "New-Cog-Object": _apply_new_cog_object,
    "Rendez-vous-Comm": _apply_rendez_vous,
    "Cog-Sync-Call": _apply_cog_sync_call,
    "Self-Sync-Call": _apply_self_sync_call,
    "Rem-Sync-Call": _apply_rem_sync_call,
    "Return": _apply_return,
    "Self-Sync-Return-Sched": _apply_self_sync_return,
    "Cog-Sync-Return-Sched": _apply_cog_sync_return,
}

# the rules that rewrite only their own object, so `abs_apply_step`
# memoizes them on it: the first six read nothing else; `Activate` reads
# and writes its cog's running object, `Return` its destiny, and the
# `_READS_FUTURE` rules read one future
_READS_FUTURE = frozenset({"Await-True", "Await-False", "Read-Fut"})
_LOCAL = frozenset(
    {"Skip", "Cond-True", "Cond-False", "Assign-Local", "Assign-Field", "Suspend",
     "Activate", "Return"}
) | _READS_FUTURE

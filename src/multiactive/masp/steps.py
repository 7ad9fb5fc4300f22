"""Reduction rules of the multi-active engine.

`enabled_steps` enumerates every applicable rule instance; `apply_step`
applies one. Each rule rewrites only the activities and futures it
mentions, leaving the rest of the configuration shared.

Enumeration defines when a rule is enabled: its handler checks that the
label is one `enabled_steps` offers in `explore` mode (a superset of
`run` mode's), then only rewrites, so `apply_step` rejects any other
label with `EngineFault`.

Rules with one conclusion share a handler, each keeping its own name,
label and `_RULES` key: `_apply_invk_active` serves `Invk-Active` and
`Invk-Active-Self` (once the caller holds the new future's location, a
self-call's callee is that caller), as `_apply_set_limit` and
`_apply_cond` serve their pairs. `_native_enabled` is the one check that
a native call can bind, for `Serve` and `Invk-Passive` alike.

Every rule but `Update` reads only its own activity and the program, so
each `Activity` memoizes its own labels and future cells (`_labels`);
a state adds only the `Update` labels that its futures allow.

The results of local rules are memoized on the activity too (`_next`,
through `steplabel.memo_step`), so both orders of a commuting diamond
share one successor activity, with its memos, and a successor rebuilt
once is kept while its source lives. The local rules write
nothing but their own activity: Serve, Skip, Set-*-Limit, Cond-*,
Assign-*, New-Object, Invk-Passive, Invk-Future, Return-Local,
Activate-Thread, Update and Return. Each reads only the activity and the
program, except `Update`, which reads the binder of its cell's future,
and `Return`, which reads its request's binder and writes a resolved one
in its place. New-Active and Invk-Active* read the counters or a second
activity, and are never memoized.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..lang.ast_expr import RuntimeVal
from ..steplabel import Label, memo_step
from ..lang.ast_masp import (
    MAssign,
    MIf,
    MInvoke,
    MNew,
    MNewActive,
    MReturn,
    MSetLimit,
    MSkip,
    mseq_list,
)
from ..policy import (
    UNGROUND,
    activate_admissible,
    priority_filter,
    resolve_policy,
    serve_admissible,
)
from ..values import (
    UNDEFINED,
    ActRef,
    EngineFault,
    FutRef,
    Loc,
    MethodVal,
    is_primitive,
)
from .evalfn import (
    chase,
    evaluate,
    evaluate_list,
    ground,
    rename_disjoint,
    serialise,
    serialise_all,
)
from .runtime import (
    Activity,
    FutBinder,
    Frame,
    MHole,
    MaspConfig,
    NATIVE_ARITY,
    Obj,
    Request,
    Thread,
    bind,
    bindable,
    is_native,
)


def _grounder(store):
    return lambda v: ground(v, store)


def native_ready(activity, method: str, args: tuple) -> bool:
    """Natives need their identifier arguments grounded before they bind."""
    g = _grounder(activity.store)
    if method == "register":
        return len(args) == 2 and g(args[1]) is not UNGROUND
    if method == "retrieve":
        return len(args) == 1 and g(args[0]) is not UNGROUND
    return len(args) == NATIVE_ARITY.get(method, -1)


def _native_enabled(activity, method: str, args: tuple) -> bool:
    """A native call binds once its ids are ground, and ``retrieve`` only
    a registered id: a miss leaves the thread stuck for good (Invariant
    Reg violated)."""
    if not native_ready(activity, method, args):
        return False
    return method != "retrieve" or ground(args[0], activity.store) in activity.registry


def _native_bind(activity, o: Loc, method: str, args: tuple):
    """Native frame, the computed result behind a plain return statement,
    and the activity's updates, at bind time."""
    store = activity.store
    if method == "freshId":
        value = activity.id_counter
        updates = {"id_counter": value + 1}
    elif method == "register":
        value = ground(args[1], store)
        target = args[0]
        if isinstance(target, Loc):
            target = chase(target, store)
        registry = dict(activity.registry)
        registry[value] = target
        updates = {"registry": registry}
    elif method == "retrieve":
        value, updates = activity.registry[ground(args[0], store)], {}
    else:
        raise EngineFault(f"unknown native {method}")
    return Frame({"this": o}, (MReturn(RuntimeVal(value)),)), updates


# -- enumeration --------------------------------------------------------------


def enabled_steps(config: MaspConfig, mode: str = "explore") -> list:
    """All applicable rule instances, in a deterministic order.

    In ``run`` mode, thread activations are offered only when the thread
    can make progress (its blocking future was updated locally).

    Per activity: its memoized own labels, then one ``Update`` per future
    cell whose future this configuration has resolved, by location.
    """
    labels = []
    futures = config.futures
    for name, act in config.activities.items():
        explore, run, cells = _activity_labels(config, act)
        labels.extend(run if mode == "run" else explore)
        for index, fut in cells:
            binder = futures.get(fut)
            if binder is not None and binder.resolved:
                labels.append(Label("Update", name, fut, (index,)))
    return labels


def _activity_labels(config, act) -> tuple:
    """An activity's labels apart from ``Update`` in ``explore`` mode and
    in ``run`` mode, and its future cells as ``(location index, future
    name)`` pairs in index order.

    Every rule but ``Update`` reads only the activity and the program, so
    the result is memoized on the (immutable) activity and reused while
    the configuration runs the same program.
    """
    hit = act.__dict__.get("_labels")
    if hit is not None and hit[0] is config.program:
        return hit[1]
    result = _own_labels(config, act)
    object.__setattr__(act, "_labels", (config.program, result))
    return result


def _own_labels(config, act) -> tuple:
    """What `_activity_labels` memoizes. Run mode's labels are explore
    mode's without the activations of threads that would make no
    progress."""
    name, g = act.name, _grounder(act.store)
    sched, threads = [], []
    for idx, q in enumerate(act.queue):
        if _serve_possible(config, act, q) and serve_admissible(act, idx, g):
            label = Label("Serve", name, q.future, (idx,))
            sched.append((act.policy.group_of(q.method), label))
    for fut, thread in act.current.items():
        if thread.state == "P":
            if activate_admissible(act, fut):
                label = Label("Activate-Thread", name, fut)
                sched.append((act.policy.group_of(thread.request.method), label))
        elif (label := _thread_label(config, act, fut, thread)) is not None:
            threads.append(label)
    explore = priority_filter(act.policy, sched)
    run = []
    for label in explore:
        if label.rule == "Serve" or _progresses(config, act, label.future):
            run.append(label)
    cells = sorted(
        (loc.index, s.name) for loc, s in act.store.items() if s.__class__ is FutRef
    )
    own = tuple(explore + threads)
    return own, own if len(run) == len(explore) else tuple(run + threads), tuple(cells)


def _serve_possible(config, act, q) -> bool:
    if is_native(act.cls, q.method):
        return _native_enabled(act, q.method, q.args)
    return bindable(config.program, act.cls, q.method, q.args)


def _progresses(config, act, fut) -> bool:
    """Would the passive thread of ``fut`` do anything useful once
    activated?"""
    thread = act.current[fut]
    probe = Thread(thread.request, "A", thread.stack)
    lab = _thread_label(config, act, fut, probe)
    return lab is not None and lab.rule != "Invk-Future"


def _invoke_args(act, frame, inv):
    args = evaluate_list(inv.args, act.store, frame.locals)
    if args is None:
        return None
    if inv.vararg is not None:
        rest = frame.locals.get(inv.vararg)
        if not isinstance(rest, tuple):
            return None
        args = args + rest
    return args


def _invoke_method(frame, inv):
    if inv.method is not None:
        return inv.method
    mv = frame.locals.get(inv.method_var)
    if isinstance(mv, MethodVal):
        return mv.name
    return None


def _thread_label(config, act, fut, thread) -> Optional[Label]:
    """The single rule instance (if any) enabled for an active thread."""
    frame = thread.stack[0]
    head = frame.stmts[0]
    name = act.name
    if isinstance(head, MSkip):
        return Label("Skip", name, fut)
    if isinstance(head, MSetLimit):
        rule = "Set-Hard-Limit" if head.kind == "H" else "Set-Soft-Limit"
        return Label(rule, name, fut)
    if isinstance(head, MReturn):
        v = evaluate(head.expr, act.store, frame.locals)
        if v is UNDEFINED:
            return None
        return Label("Return-Local" if len(thread.stack) > 1 else "Return", name, fut)
    if isinstance(head, MIf):
        v = evaluate(head.cond, act.store, frame.locals)
        if v is True:
            return Label("Cond-True", name, fut)
        if v is False:
            return Label("Cond-False", name, fut)
        return None
    if isinstance(head, MHole):
        raise EngineFault("hole marker on top of stack")
    if isinstance(head, MAssign):
        rhs = head.rhs
        if isinstance(rhs, (MNew, MNewActive)):
            cls = config.program.cls(rhs.cls)
            if cls is None or len(rhs.args) != len(cls.fields):
                return None
            if evaluate_list(rhs.args, act.store, frame.locals) is None:
                return None
            rule = "New-Object" if isinstance(rhs, MNew) else "New-Active"
            return Label(rule, name, fut)
        if isinstance(rhs, MInvoke):
            return _invoke_label(config, act, fut, thread, frame, rhs)
        v = evaluate(rhs, act.store, frame.locals)
        if v is UNDEFINED:
            return None
        if head.target in frame.locals:
            return Label("Assign-Local", name, fut)
        this_obj = act.store.get(frame.locals.get("this"))
        if isinstance(this_obj, Obj) and head.target in this_obj.fields:
            return Label("Assign-Field", name, fut)
        return None
    raise EngineFault(f"unknown statement {head!r}")


def _invoke_label(config, act, fut, thread, frame, inv) -> Optional[Label]:
    method = _invoke_method(frame, inv)
    if method is None:
        return None
    target = evaluate(inv.target, act.store, frame.locals)
    if target is UNDEFINED:
        return None
    name = act.name
    if isinstance(target, ActRef):
        if _invoke_args(act, frame, inv) is None:
            return None
        rule = "Invk-Active-Self" if target.name == name else "Invk-Active"
        return Label(rule, name, fut)
    if isinstance(target, Loc):
        storable = act.store.get(target)
        if isinstance(storable, FutRef):
            if act.limit == "S":
                return Label("Invk-Future", name, fut)
            return None  # hard limit: wait-by-necessity blocks the thread
        if isinstance(storable, Obj):
            args = _invoke_args(act, frame, inv)
            if args is None:
                return None
            if is_native(storable.cls, method):
                enabled = _native_enabled(act, method, args)
            elif storable.cls is None and method in ("cog", "myId", "get") and not args:
                enabled = True  # the classless main object's addressing methods
            else:
                enabled = bindable(config.program, storable.cls, method, args)
            return Label("Invk-Passive", name, fut) if enabled else None
        return None
    if is_primitive(target) and method == "get":
        return Label("Invk-Passive", name, fut)
    return None


# -- application ---------------------------------------------------------------


def apply_step(config: MaspConfig, label: Label) -> MaspConfig:
    handler = _RULES.get(label.rule)
    if handler is None:
        raise EngineFault(f"unknown rule {label.rule}")
    if label.rule in _LOCAL:
        act = config.activities.get(label.activity)
        if act is not None:
            return memo_step(
                config, act, label, handler, _outcome, MaspConfig.with_activity
            )
    return handler(config, label)


def _outcome(config, new, act, label) -> tuple:
    """What a local rule did, for `memo_step`: ``Update`` read the binder
    of its cell's future, ``Return`` read and replaced its request's."""
    succ = new.activities[label.activity]
    rule = label.rule
    if rule == "Update":
        fut = act.store[Loc(label.extra[0])].name
        return succ, ((fut, config.futures[fut]),), ()
    if rule == "Return":
        fut = act.current[label.future].request.future
        return succ, ((fut, config.futures[fut]),), ((fut, new.futures[fut]),)
    return succ, (), ()


def _expect(cond, label):
    if not cond:
        raise EngineFault(f"step not enabled: {label.key()}")


def _enabled_thread(config, label) -> tuple:
    """The activity and active thread of a thread rule's label, which must
    be the label `_thread_label` gives that thread; its handler then only
    rewrites."""
    act = config.activities.get(label.activity)
    th = act.current.get(label.future) if act is not None else None
    enabled = th is not None and th.state == "A"
    _expect(enabled and _thread_label(config, act, label.future, th) == label, label)
    return act, th


def _set_thread(act, thread, **kw) -> Activity:
    """The activity with ``thread`` put in place and ``kw`` changed."""
    cur = dict(act.current)
    cur[thread.request.future] = thread
    return act.update(current=cur, **kw)


def _replace_head(thread, *stmts) -> Thread:
    """The thread with its head statement replaced by ``stmts`` (none:
    popped)."""
    frame = thread.stack[0]
    new_frame = frame.with_stmts(tuple(stmts) + frame.stmts[1:])
    return Thread(thread.request, thread.state, (new_frame,) + thread.stack[1:])


def _offered(config, label) -> Activity:
    """The activity of a scheduler rule's label, which must be one that
    `enabled_steps` offers in ``explore`` mode."""
    _expect(label in enabled_steps(config), label)
    return config.activities[label.activity]


def _apply_serve(config, label):
    act = _offered(config, label)
    (idx,) = label.extra
    q = act.queue[idx]
    updates = {}
    if is_native(act.cls, q.method):
        frame, updates = _native_bind(act, act.active_loc, q.method, q.args)
    else:
        frame = bind(config.program, act.active_loc, act.cls, q.method, q.args)
    queue = act.queue[:idx] + act.queue[idx + 1 :]
    act2 = _set_thread(act, Thread(q, "A", (frame,)), queue=queue, **updates)
    return config.with_activity(act2)


def _apply_skip(config, label):
    act, th = _enabled_thread(config, label)
    return config.with_activity(_set_thread(act, _replace_head(th)))


def _apply_set_limit(config, label):
    act, th = _enabled_thread(config, label)
    kind = "H" if label.rule == "Set-Hard-Limit" else "S"
    act2 = _set_thread(act, _replace_head(th), limit=kind)
    return config.with_activity(act2)


def _apply_cond(config, label):
    act, th = _enabled_thread(config, label)
    head = th.stack[0].stmts[0]
    branch = head.then if label.rule == "Cond-True" else head.els
    return config.with_activity(_set_thread(act, _replace_head(th, *mseq_list(branch))))


def _apply_assign_local(config, label):
    act, th = _enabled_thread(config, label)
    frame = th.stack[0]
    head = frame.stmts[0]
    v = evaluate(head.rhs, act.store, frame.locals)
    new_frame = Frame({**frame.locals, head.target: v}, frame.stmts[1:])
    th2 = Thread(th.request, th.state, (new_frame,) + th.stack[1:])
    return config.with_activity(_set_thread(act, th2))


def _apply_assign_field(config, label):
    act, th = _enabled_thread(config, label)
    frame = th.stack[0]
    head = frame.stmts[0]
    this_loc = frame.locals.get("this")
    obj = act.store.get(this_loc)
    v = evaluate(head.rhs, act.store, frame.locals)
    store = dict(act.store)
    store[this_loc] = obj.with_field(head.target, v)
    act2 = _set_thread(act, _replace_head(th), store=store)
    return config.with_activity(act2)


def _apply_new_object(config, label):
    act, th = _enabled_thread(config, label)
    frame = th.stack[0]
    head = frame.stmts[0]
    cls = config.program.cls(head.rhs.cls)
    args = evaluate_list(head.rhs.args, act.store, frame.locals)
    loc = Loc(act.loc_counter + 1)
    store = dict(act.store)
    store[loc] = Obj(cls.name, dict(zip(cls.fields, args)))
    th2 = _replace_head(th, replace(head, rhs=RuntimeVal(loc)))
    act2 = _set_thread(act, th2, store=store, loc_counter=act.loc_counter + 1)
    return config.with_activity(act2)


def _apply_new_active(config, label):
    act, th = _enabled_thread(config, label)
    frame = th.stack[0]
    head = frame.stmts[0]
    cls = config.program.cls(head.rhs.cls)
    args = evaluate_list(head.rhs.args, act.store, frame.locals)
    beta = f"a{config.act_counter}"
    piece = serialise_all(args, act.store)
    args_r, piece_r, counter = rename_disjoint({}, args, piece, counter=0)
    active_loc = Loc(counter + 1)
    new_store = dict(piece_r)
    new_store[active_loc] = Obj(cls.name, dict(zip(cls.fields, args_r)))
    policy = resolve_policy(cls)
    new_act = Activity(
        name=beta,
        cls=cls.name,
        active_loc=active_loc,
        store=new_store,
        current={},
        queue=(),
        limit="H" if policy.policy.hard_limit_default else "S",
        policy=policy,
        loc_counter=counter + 1,
        id_counter=1,
        registry={},
    )
    th2 = _replace_head(th, replace(head, rhs=RuntimeVal(ActRef(beta))))
    return config.with_activity(
        _set_thread(act, th2), new_act, act_counter=config.act_counter + 1
    )


def _invoke_parts(act, th):
    """The top frame, head statement, method name and target value of an
    invocation."""
    frame = th.stack[0]
    head = frame.stmts[0]
    target = evaluate(head.rhs.target, act.store, frame.locals)
    return frame, head, _invoke_method(frame, head.rhs), target


def _apply_invk_active(config, label):
    """`Invk-Active` and `Invk-Active-Self`: the caller holds the new
    future's location first, so a self-call's callee is that caller."""
    act, th = _enabled_thread(config, label)
    frame, head, method, target = _invoke_parts(act, th)
    args = _invoke_args(act, frame, head.rhs)
    fut = f"f{config.fut_counter}"
    o_fut = Loc(act.loc_counter + 1)
    store = dict(act.store)
    store[o_fut] = FutRef(fut)
    th2 = _replace_head(th, replace(head, rhs=RuntimeVal(o_fut)))
    caller = _set_thread(act, th2, store=store, loc_counter=act.loc_counter + 1)
    callee = caller if target.name == act.name else config.activities.get(target.name)
    _expect(callee is not None, label)
    piece = serialise_all(args, act.store)
    args_r, piece_r, counter = rename_disjoint(
        callee.store, args, piece, counter=callee.loc_counter
    )
    callee_store = dict(callee.store)
    callee_store.update(piece_r)
    callee = callee.update(
        store=callee_store,
        queue=callee.queue + (Request(fut, method, args_r),),
        loc_counter=counter,
    )
    futures = dict(config.futures)
    futures[fut] = FutBinder(method=method)
    return config.with_activity(
        caller, callee, futures=futures, fut_counter=config.fut_counter + 1
    )


def _apply_invk_passive(config, label):
    act, th = _enabled_thread(config, label)
    frame, head, method, target = _invoke_parts(act, th)
    updates = {}
    if isinstance(target, Loc):
        storable = act.store[target]
        args = _invoke_args(act, frame, head.rhs)
        if is_native(storable.cls, method):
            new_frame, updates = _native_bind(act, target, method, args)
        elif storable.cls is None and method in ("cog", "myId", "get") and not args:
            # the classless main object still answers the addressing methods
            value = None if method == "get" else storable.fields.get(method)
            new_frame = Frame({"this": target}, (MReturn(RuntimeVal(value)),))
        else:
            new_frame = bind(config.program, target, storable.cls, method, args)
    else:  # ``get`` on a primitive value
        new_frame = Frame({"this": target}, (MReturn(RuntimeVal(None)),))
    interrupted = frame.with_stmts((MHole(head.target, head.origin),) + frame.stmts[1:])
    th2 = Thread(th.request, th.state, (new_frame, interrupted) + th.stack[1:])
    return config.with_activity(_set_thread(act, th2, **updates))


def _apply_invk_future(config, label):
    act, th = _enabled_thread(config, label)
    th2 = Thread(th.request, "P", th.stack)
    return config.with_activity(_set_thread(act, th2))


def _apply_return_local(config, label):
    act, th = _enabled_thread(config, label)
    frame = th.stack[0]
    v = evaluate(frame.stmts[0].expr, act.store, frame.locals)
    below = th.stack[1]
    hole = below.stmts[0]
    _expect(isinstance(hole, MHole), label)
    below2 = below.with_stmts(
        (MAssign(hole.target, RuntimeVal(v), origin=hole.origin),)
        + below.stmts[1:]
    )
    th2 = Thread(th.request, th.state, (below2,) + th.stack[2:])
    return config.with_activity(_set_thread(act, th2))


def _apply_return(config, label):
    act, th = _enabled_thread(config, label)
    frame = th.stack[0]
    v = evaluate(frame.stmts[0].expr, act.store, frame.locals)
    fut = th.request.future
    binder = config.futures.get(fut)
    _expect(binder is not None and not binder.resolved, label)
    piece = serialise(v, act.store)
    futures = dict(config.futures)
    futures[fut] = FutBinder(value=v, piece=piece, method=binder.method)
    cur = dict(act.current)
    del cur[fut]
    return config.with_activity(act.update(current=cur), futures=futures)


def _apply_update(config, label):
    act = _offered(config, label)
    loc = Loc(label.extra[0])
    binder = config.futures[label.future]
    (v_r,), piece_r, counter = rename_disjoint(
        act.store, (binder.value,), binder.piece, counter=act.loc_counter
    )
    store = dict(act.store)
    store[loc] = v_r
    store.update(piece_r)
    act2 = act.update(store=store, loc_counter=counter)
    return config.with_activity(act2)


def _apply_activate(config, label):
    act = _offered(config, label)
    th = act.current[label.future]
    th2 = Thread(th.request, "A", th.stack)
    return config.with_activity(_set_thread(act, th2))


_RULES = {
    "Serve": _apply_serve,
    "Skip": _apply_skip,
    "Set-Hard-Limit": _apply_set_limit,
    "Set-Soft-Limit": _apply_set_limit,
    "Cond-True": _apply_cond,
    "Cond-False": _apply_cond,
    "Assign-Local": _apply_assign_local,
    "Assign-Field": _apply_assign_field,
    "New-Object": _apply_new_object,
    "New-Active": _apply_new_active,
    "Invk-Active": _apply_invk_active,
    "Invk-Active-Self": _apply_invk_active,
    "Invk-Passive": _apply_invk_passive,
    "Invk-Future": _apply_invk_future,
    "Return-Local": _apply_return_local,
    "Return": _apply_return,
    "Update": _apply_update,
    "Activate-Thread": _apply_activate,
}

# the rules that write nothing but their own activity (and, for `Return`,
# its request's binder), so `apply_step` memoizes them on the activity
_LOCAL = frozenset(_RULES) - {"New-Active", "Invk-Active", "Invk-Active-Self"}


def stuck_threads(config: MaspConfig) -> list:
    """Threads with no enabled step, with a coarse reason classification."""
    out = []
    for name, act in config.activities.items():
        for fut, thread in act.current.items():
            if thread.state == "P":
                continue
            if _thread_label(config, act, fut, thread) is None:
                out.append((name, fut, _stuck_reason(config, act, thread)))
    return out


def _stuck_reason(config, act, thread) -> str:
    frame = thread.stack[0]
    head = frame.stmts[0]
    if isinstance(head, MAssign) and isinstance(head.rhs, MInvoke):
        inv = head.rhs
        try:
            target = evaluate(inv.target, act.store, frame.locals)
        except EngineFault:
            return "engine-fault"
        if isinstance(target, Loc):
            storable = act.store.get(target)
            if isinstance(storable, FutRef):
                return "wait-by-necessity"
            if isinstance(storable, Obj):
                method = _invoke_method(frame, inv)
                if is_native(storable.cls, method):
                    args = _invoke_args(act, frame, inv)
                    if args is not None and not native_ready(act, method, args):
                        return "wait-by-necessity"
                    return "retrieve-miss"
                return "method-missing"
        return "method-missing"
    return "undefined-expression"

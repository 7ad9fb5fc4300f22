"""The built-in properties that ``explore`` checks: state properties take
a configuration, transition properties ``(old, new, label)``, and each
returns a list of violation messages. Each calculus's semantics record
carries its tuple (``MASP_PROPERTIES`` or ``ABS_PROPERTIES``)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .absm.runtime import AbsConfig
from .masp.evalfn import ground
from .masp.runtime import MaspConfig, Obj
from .policy import ThreadAccount, compatible
from .values import UNRESOLVED, FutRef, Loc


@dataclass
class Property:
    name: str
    state: Optional[Callable] = None  # config -> list of violation strings
    transition: Optional[Callable] = None  # (old, new, label) -> list


def _per_node(check, nodes: str = "activities"):
    """A state property that runs ``check`` on each node of the
    configuration's ``nodes`` table (its activities, or its cogs),
    memoizing its messages on the (immutable) node: ``check`` reads only
    it."""
    key = f"_{check.__name__}"

    def prop(config) -> list:
        out = []
        for node in getattr(config, nodes).values():
            msgs = node.__dict__.get(key)
            if msgs is None:
                msgs = tuple(check(node))
                object.__setattr__(node, key, msgs)
            out.extend(msgs)
        return out

    return prop


def _parallelism(act) -> list:
    """Any two requests served in parallel are compatible."""
    g = lambda v: ground(v, act.store)
    out = []
    for t, t2 in combinations(act.current.values(), 2):
        q, q2 = t.request, t2.request
        if not compatible(q, q2, act.policy, g):
            out.append(
                f"{act.name}: incompatible requests {q.method} and {q2.method} in parallel"
            )
    return out


def _limits(act) -> list:
    acc = ThreadAccount.of_activity(act)
    pol = act.policy.policy
    out = []
    if pol.thread_pool_size is not None and acc.total_active > pol.thread_pool_size:
        out.append(f"{act.name}: {acc.total_active} active threads over the pool")
    for decl in pol.groups:
        if decl.max_threads is None:
            continue
        n = acc.per_group_active.get(decl.name, 0)
        if n > decl.max_threads:
            out.append(f"{act.name}: group {decl.name} has {n} active threads")
    return out


_safe_parallelism = _per_node(_parallelism)
_thread_limits = _per_node(_limits)


def _store_closure(config: MaspConfig) -> list:
    out = []
    for name, act in config.activities.items():
        for fut, detail in _closure_refs(act):
            if fut is None or fut not in config.futures:
                out.append(f"{name}: {detail}")
    return out


def _closure_refs(act) -> tuple:
    """What store closure checks in one activity, in walk order: a
    dangling location as ``(None, detail)``, a future reference as
    ``(name, detail)``, which holds only while the configuration binds
    that future. Memoized on the (immutable) activity."""
    refs = act.__dict__.get("_closure")
    if refs is not None:
        return refs
    out = []

    def check_value(v, where):
        if isinstance(v, Loc) and v not in act.store:
            out.append((None, f"dangling {v} in {where}"))
        if isinstance(v, FutRef):
            out.append((v.name, f"unknown future {v.name} in {where}"))

    for loc, storable in act.store.items():
        if isinstance(storable, Obj):
            for x, v in storable.fields.items():
                check_value(v, f"{loc}.{x}")
        else:
            check_value(storable, f"{loc}")
    for fut, thread in act.current.items():
        for frame in thread.stack:
            for x, v in frame.locals.items():
                if isinstance(v, tuple):
                    for w in v:
                        check_value(w, f"{fut}:{x}")
                else:
                    check_value(v, f"{fut}:{x}")
        for a in thread.request.args:
            check_value(a, f"{fut}:arg")
    for q in act.queue:
        for a in q.args:
            check_value(a, f"{q.future}:arg")
    refs = tuple(out)
    object.__setattr__(act, "_closure", refs)
    return refs


def _order_kept(old_order: list, new_order: list) -> bool:
    """Do the entries that both orders hold stand in the same relative order?"""
    new_set = set(new_order)
    old_order = [f for f in old_order if f in new_set]
    old_set = set(old_order)
    return [f for f in new_order if f in old_set] == old_order


def _fifo_integrity(old: MaspConfig, new: MaspConfig, label) -> list:
    """Relative order of never-served requests is stable."""
    out = []
    for name, act in new.activities.items():
        before = old.activities.get(name)
        if before is None or before is act:
            continue
        if not _order_kept(
            [q.future for q in before.queue], [q.future for q in act.queue]
        ):
            out.append(f"{name}: queue order changed under {label.rule}")
    return out


MASP_PROPERTIES = (
    Property("safe-parallelism", state=_safe_parallelism),
    Property("thread-limits", state=_thread_limits),
    Property("store-closure", state=_store_closure),
    Property("fifo-integrity", transition=_fifo_integrity),
)


def _one_active(cog) -> list:
    busy = [o.name for o in cog.objects.values() if o.active is not None]
    out = []
    if len(busy) > 1:
        out.append(f"{cog.name}: several non-idle objects {busy}")
    for name in busy:
        if cog.running != name:
            out.append(f"{cog.name}: non-idle {name} is not the running object")
    return out


_one_active_per_cog = _per_node(_one_active, "cogs")


def _futures_write_once(old: AbsConfig, new: AbsConfig, label) -> list:
    if old.futures is new.futures:  # a step that wrote no future
        return []
    out = []
    for f, v in old.futures.items():
        if v is not UNRESOLVED and new.futures.get(f) != v:
            out.append(f"future {f} changed after resolution")
    return out


def _destiny_totality(config: AbsConfig) -> list:
    out = []
    for cog in config.cogs.values():
        for ob in cog.objects.values():
            procs = ([ob.active] if ob.active is not None else []) + list(ob.queue)
            for p in procs:
                dest = p.locals.get("destiny")
                if not isinstance(dest, FutRef) or dest.name not in config.futures:
                    out.append(f"{ob.name}: process without a destiny future")
                elif config.futures[dest.name] is not UNRESOLVED:
                    out.append(f"{ob.name}: live process with resolved destiny")
    return out


def _fresh_fifo(old: AbsConfig, new: AbsConfig, label) -> list:
    def dests(o):
        return [
            p.locals.get("destiny").name
            for p in o.queue
            if isinstance(p.locals.get("destiny"), FutRef)
        ]

    out = []
    for name, cog in new.cogs.items():
        was = old.cogs.get(name)
        if was is None or was is cog:
            continue
        for ident, ob in cog.objects.items():
            before = was.objects.get(ident)
            if before is None or before is ob:
                continue
            if not _order_kept(dests(before), dests(ob)):
                out.append(f"{ob.name}: pending order changed under {label.rule}")
    return out


ABS_PROPERTIES = (
    Property("one-active-per-cog", state=_one_active_per_cog),
    Property("destiny-totality", state=_destiny_totality),
    Property("futures-write-once", transition=_futures_write_once),
    Property("fresh-request-fifo", transition=_fresh_fifo),
)

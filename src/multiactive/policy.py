"""Group-policy evaluation: compatibility, thread accounting, limits,
priorities. Shared by the multi-active engine; pure functions over
activity snapshots."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .lang.ast_masp import EMPTY_POLICY, GroupDecl, GroupPolicy

# grounder results: a ground value, or UNGROUND when it still hides a future
UNGROUND = object()


@dataclass(frozen=True)
class ResolvedPolicy:
    """A class's policy plus its method-to-group map and dynamic rules."""

    policy: GroupPolicy = EMPTY_POLICY
    method_group: tuple = ()  # ((method, group), ...)
    dynamic_rule: Optional[Callable] = None  # (q, q', ground) -> bool

    def group_of(self, method: str) -> Optional[str]:
        for m, g in self.method_group:
            if m == method:
                return g
        return None

    def group_decl(self, name: str) -> Optional[GroupDecl]:
        return self.policy.group(name)


DEFAULT_POLICY = ResolvedPolicy()


def resolve_policy(cls) -> ResolvedPolicy:
    """Resolve a class declaration's annotations into a usable policy."""
    pol = cls.policy if cls.policy is not None else EMPTY_POLICY
    mg = tuple((m.name, m.group) for m in cls.methods if m.group is not None)
    dyn = _cog_dynamic_rule if cls.name == "COG" else None
    return ResolvedPolicy(pol, mg, dyn)


def _cog_dynamic_rule(q, q2, ground) -> bool:
    """register(x, id) conflicts with execute(id, m, ...) on the same id.

    Ids still hidden behind unresolved futures are treated as potentially
    equal, hence incompatible, until a future update grounds them.
    """
    for a, b in ((q, q2), (q2, q)):
        if a.method == "register" and b.method == "execute":
            ida = ground(a.args[1]) if len(a.args) > 1 else None
            idb = ground(b.args[0]) if b.args else None
            if ida is UNGROUND or idb is UNGROUND:
                return False
            if ida == idb:
                return False
    return True


def compatible(q, q2, rp: ResolvedPolicy, ground=lambda v: v) -> bool:
    """True iff the two requests may run in parallel.

    Ungrouped methods conflict with everything, including themselves.
    """
    g1 = rp.group_of(q.method)
    g2 = rp.group_of(q2.method)
    if g1 is None or g2 is None:
        return False
    if g1 == g2:
        decl = rp.group_decl(g1)
        if decl is None or not decl.self_compatible:
            return False
    elif frozenset((g1, g2)) not in rp.policy.compatible_pairs:
        return False
    if rp.dynamic_rule is not None and not rp.dynamic_rule(q, q2, ground):
        return False
    return True


def ready(q, current, earlier, rp: ResolvedPolicy, ground=lambda v: v) -> bool:
    """Compatible with every served request and every older queued one."""
    for thread in current.values():
        if not compatible(q, thread.request, rp, ground):
            return False
    for q2 in earlier:
        if not compatible(q, q2, rp, ground):
            return False
    return True


@dataclass
class ThreadAccount:
    per_group_active: dict = field(default_factory=dict)
    total_active: int = 0

    @classmethod
    def of_activity(cls, activity) -> "ThreadAccount":
        rp = activity.policy
        acc = cls()
        for thread in activity.current.values():
            if thread.state == "A":
                acc.total_active += 1
                g = rp.group_of(thread.request.method)
                if g is not None:
                    acc.per_group_active[g] = acc.per_group_active.get(g, 0) + 1
        return acc


def _group_limit_ok(rp: ResolvedPolicy, acc: ThreadAccount, group) -> bool:
    if group is None:
        return True
    decl = rp.group_decl(group)
    if decl is None or decl.max_threads is None:
        return True
    return acc.per_group_active.get(group, 0) < decl.max_threads


def limits_admit(rp: ResolvedPolicy, acc: ThreadAccount, group) -> bool:
    """One more active thread of ``group`` stays within its group's limit
    and leaves the pool room for every other group's unmet reserved
    minimum (so the pool has room for it too). Serving a request needs
    this; deadlock diagnosis calls a ready request that fails it starved."""
    if not _group_limit_ok(rp, acc, group):
        return False
    pool = rp.policy.thread_pool_size
    if pool is None:
        return True
    unmet = 0
    for decl in rp.policy.groups:
        if decl.name != group:
            unmet += max(0, decl.min_threads - acc.per_group_active.get(decl.name, 0))
    return pool - (acc.total_active + 1) >= unmet


def serve_admissible(activity, queue_index: int, ground=lambda v: v) -> bool:
    """Full admission check for serving the queued request at ``queue_index``
    (except the priority filter, which compares candidates)."""
    rp = activity.policy
    q = activity.queue[queue_index]
    if not ready(q, activity.current, activity.queue[:queue_index], rp, ground):
        return False
    return limits_admit(rp, ThreadAccount.of_activity(activity), rp.group_of(q.method))


def activate_admissible(activity, future: str) -> bool:
    """Thread (re)activation check: group and pool limits."""
    rp = activity.policy
    thread = activity.current[future]
    if thread.state != "P":
        return False
    acc = ThreadAccount.of_activity(activity)
    pool = rp.policy.thread_pool_size
    return _group_limit_ok(rp, acc, rp.group_of(thread.request.method)) and (
        pool is None or acc.total_active < pool
    )


def _priority_level(rp: ResolvedPolicy, group) -> Optional[int]:
    if group is None:
        return None
    for i, level in enumerate(rp.policy.priority_levels):
        if group in level:
            return i
    return None


def priority_filter(rp: ResolvedPolicy, candidates: list) -> list:
    """Keep candidates whose group is maximal in the priority partial order
    restricted to the candidate set. ``candidates``: (group, payload) pairs."""
    levels = [_priority_level(rp, g) for g, _ in candidates]
    keep = []
    for i, (g, payload) in enumerate(candidates):
        li = levels[i]
        dominated = li is not None and any(
            lj is not None and lj < li for j, lj in enumerate(levels) if j != i
        )
        if not dominated:
            keep.append(payload)
    return keep

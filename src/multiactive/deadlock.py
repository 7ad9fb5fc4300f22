"""Terminal-state diagnosis: why does a request never end?

A stuck computation is classified per thread/request: blocked on an
unresolved future (wait-by-necessity), queued behind an incompatibility
that will never clear, or starved of threads by the pool/group limits.
The wait-for graph ties blocked parties to the requests that should
produce their futures; cycles witness circular dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang.ast_masp import MAssign, MInvoke
from .masp.evalfn import evaluate, ground
from .masp.runtime import MaspConfig
from .masp.steps import enabled_steps
from .policy import ThreadAccount, activate_admissible, compatible, limits_admit, ready
from .values import FutRef, Loc


@dataclass
class Diagnosis:
    classifications: list = field(default_factory=list)
    wait_for: list = field(default_factory=list)  # (blocked, waits-on) edges
    cycles: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.classifications

    def kinds(self) -> set:
        return {c["kind"] for c in self.classifications}

    def to_json(self) -> dict:
        return {
            "classifications": self.classifications,
            "wait_for": [list(e) for e in self.wait_for],
            "cycles": [list(c) for c in self.cycles],
        }


def _blocking_future(act, thread):
    """The future an active-but-stuck thread's head call waits on."""
    frame = thread.stack[0]
    head = frame.stmts[0]
    if not (isinstance(head, MAssign) and isinstance(head.rhs, MInvoke)):
        return None
    try:
        target = evaluate(head.rhs.target, act.store, frame.locals)
    except Exception:
        return None
    if isinstance(target, Loc):
        storable = act.store.get(target)
        if isinstance(storable, FutRef):
            return storable.name
    return None


def _producer(config, fut):
    """Where the value of an unresolved future would come from."""
    for name, act in config.activities.items():
        if fut in act.current:
            return ("thread", name, fut)
        for q in act.queue:
            if q.future == fut:
                return ("queued", name, fut)
    return ("lost", "", fut)


def diagnose_deadlock(config: MaspConfig) -> Diagnosis:
    """Classify a terminal configuration with unresolved futures."""
    diag = Diagnosis()
    unresolved = {f for f, b in config.futures.items() if not b.resolved}
    # run-mode enabledness: activate/passivate loops make no progress
    if not unresolved or enabled_steps(config, mode="run"):
        return diag
    edges = {}

    def edge(src, fut):
        kind, act, f = _producer(config, fut)
        dst = f"{kind}:{act}:{f}"
        edges.setdefault(src, set()).add(dst)
        diag.wait_for.append((src, dst))

    def classify(kind, activity, request, detail):
        diag.classifications.append(
            {"kind": kind, "activity": activity, "request": request, "detail": detail}
        )

    for name, act in config.activities.items():
        g = lambda v: ground(v, act.store)
        acc = ThreadAccount.of_activity(act)
        for fut, thread in act.current.items():
            # passivated and never admissible again, or waiting forever
            if thread.state == "P" and not activate_admissible(act, fut):
                classify("thread-starved", name, fut, "activation blocked by thread limits")
            blocking = _blocking_future(act, thread)
            if blocking is not None:
                detail = f"wait-by-necessity on {blocking}"
                if thread.state == "A" and act.limit == "H":
                    detail += " under a hard limit"
                classify("blocked-on-future", name, fut, detail)
                edge(f"thread:{name}:{fut}", blocking)
        for idx, q in enumerate(act.queue):
            node = f"queued:{name}:{q.future}"
            if not ready(q, act.current, act.queue[:idx], act.policy, g):
                conflicts = [
                    t.request.method
                    for t in act.current.values()
                    if not compatible(q, t.request, act.policy, g)
                ] + [
                    q2.method
                    for q2 in act.queue[:idx]
                    if not compatible(q, q2, act.policy, g)
                ]
                detail = f"conflicts with {sorted(set(conflicts))}"
                classify("incompatible-forever", name, q.future, detail)
                for t_fut, t in act.current.items():
                    if not compatible(q, t.request, act.policy, g):
                        edge(node, t_fut)
            elif not limits_admit(act.policy, acc, act.policy.group_of(q.method)):
                classify("thread-starved", name, q.future, "service blocked by thread limits")
                for t_fut, t in act.current.items():
                    if t.state == "A":
                        edge(node, t_fut)
    diag.cycles = _find_cycles(edges)
    return diag


def _find_cycles(edges) -> list:
    """One witness cycle per strongly connected component that has a
    cycle (two or more nodes, or a self-loop), in the order of each
    component's first node in ``edges``. The witness is the cycle that a
    walk from that node closes, taking the least edge inside the
    component at every step."""
    comp = _components(edges)
    cycles, done = [], set()
    for start in edges:
        c = comp[start]
        inside = lambda n: min((m for m in edges.get(n, ()) if comp[m] == c), default=None)
        if c in done or inside(start) is None:
            continue
        done.add(c)
        path, at = [start], {start: 0}
        while (m := inside(path[-1])) not in at:
            at[m] = len(path)
            path.append(m)
        cycles.append(tuple(path[at[m]:]))
    return cycles


def _components(edges) -> dict:
    """Tarjan's strongly connected components (SIAM J. Comput. 1972),
    iteratively: node -> the root node of its component."""
    index, low, comp, stack = {}, {}, {}, []
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(edges[root]))]
        while work:
            node, succs = work[-1]
            for m in succs:
                if m not in index:
                    index[m] = low[m] = len(index)
                    stack.append(m)
                    work.append((m, iter(edges.get(m, ()))))
                    break
                if m not in comp:  # still on the stack
                    low[node] = min(low[node], index[m])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        m = stack.pop()
                        comp[m] = node
                        if m == node:
                            break
    return comp

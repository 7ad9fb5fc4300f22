"""Bounded weak-simulation checking between a cooperative program and
its multi-active translation.

Forward: every explored cooperative step is matched by a sequence of
multi-active steps (the prescribed rule sequence first, then a bounded
BFS over silent steps) reaching an equivalent configuration. Backward:
every multi-active step of the translation maps to at most one
observable cooperative rule plus listed auxiliaries.

Synchronous calls and boolean await guards lie outside the proved
fragment; branches through them are flagged and pruned, not failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .absm.engine import abs_initial_config
from .absm.runtime import RGFut
from .absm.steps import abs_apply_step, abs_enabled_steps, split_guard
from .canon import abs_digest, masp_digest
from .equiv import EquivContext, config_equiv
from .lang.ast_abs import AAwait, GBool, AbsProgram
from .lang.ast_masp import MIf
from .masp.engine import initial_config
from .masp.steps import apply_step, enabled_steps
from .translate import _pick_prefix, detect_future_of_future, translate_program
from .values import UNRESOLVED, ObjRef

AUX_BOUND = 16  # longest silent chain: remote-new registration, ~14 steps
SYNC_RULES = {
    "Cog-Sync-Call",
    "Self-Sync-Call",
    "Rem-Sync-Call",
    "Cog-Sync-Return-Sched",
    "Self-Sync-Return-Sched",
}

# known matching sequences for the common rows, tried before the search
PRESCRIBED = {
    "Skip": (("Skip",),),
    "Assign-Local": (("Assign-Local",),),
    "Assign-Field": (("Assign-Field",),),
    "Await-False": (("Invk-Future",),),
    "Await-True": (
        ("Update", "Invk-Passive", "Return-Local", "Assign-Local"),
        ("Invk-Passive", "Return-Local", "Assign-Local"),
    ),
    "Release-Cog": ((),),
    "Read-Fut": (
        ("Set-Hard-Limit", "Update", "Invk-Passive", "Return-Local",
         "Set-Soft-Limit", "Assign-Local"),
        ("Set-Hard-Limit", "Invk-Passive", "Return-Local",
         "Set-Soft-Limit", "Assign-Local"),
    ),
    "Activate": (
        ("Activate-Thread",),
        ("Serve", "Invk-Passive", "Return-Local", "Assign-Local", "Invk-Passive"),
    ),
    "Return": (("Return", "Return-Local"), ("Return",)),
}


@dataclass
class SimulationReport:
    direction: str
    steps_checked: int = 0
    matched: int = 0
    skipped_restriction: int = 0
    outside_fragment: int = 0
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # matched rule mapping records
    states: int = 0
    truncated: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "steps_checked": self.steps_checked,
            "matched": self.matched,
            "skipped_restriction": self.skipped_restriction,
            "outside_fragment": self.outside_fragment,
            "failures": self.failures,
            "states": self.states,
            "truncated": self.truncated,
            "elapsed_s": round(self.elapsed, 3),
        }


def _abs_rule_fragment(config, label) -> str:
    """'in' for proved-fragment rules, 'outside' otherwise."""
    if label.rule in SYNC_RULES or label.rule == "Suspend":
        return "outside"
    if label.rule in ("Await-True", "Await-False"):
        ob = config.objects.get(ObjRef(label.extra[0], label.activity))
        head = ob.active.stmts[0]
        if isinstance(head, AAwait):
            first, _ = split_guard(head.guard)
            if isinstance(first, GBool):
                return "outside"
            if isinstance(first, RGFut):
                return "outside"  # synchronous-call continuation
    if label.rule == "Read-Fut":
        ob = config.objects.get(ObjRef(label.extra[0], label.activity))
        from .lang.ast_expr import RuntimeVal

        if isinstance(ob.active.stmts[0].rhs.expr, RuntimeVal):
            return "outside"  # get injected by a remote synchronous call
    return "in"


def _allowed_masp_labels(labels, step_cog, base_activities):
    """Silent-step candidates among ``labels``, the steps enabled at some
    configuration: the stepping cog's activity, activities created during
    this match, and future updates anywhere."""
    return [
        l
        for l in labels
        if l.rule == "Update" or l.activity == step_cog or l.activity not in base_activities
    ]


def _try_prescribed(mcn, enabled, sequence, step_cog, base_activities):
    """Apply a rule-name sequence greedily; None on ambiguity or absence.
    ``enabled`` is ``enabled_steps(mcn)``."""
    path = []
    cur = mcn
    for rule in sequence:
        if path:
            enabled = enabled_steps(cur, mode="explore")
        cands = [
            l
            for l in _allowed_masp_labels(enabled, step_cog, base_activities)
            if l.rule == rule
        ]
        if len(cands) != 1:
            return None
        cur = apply_step(cur, cands[0])
        path.append(cands[0])
    return cur, path


_SILENT_FIRST = {
    "Update": 0,
    "Invk-Passive": 1,
    "Return-Local": 2,
    "Assign-Local": 3,
    "New-Active": 4,
    "Set-Hard-Limit": 4,
    "Set-Soft-Limit": 4,
    "Serve": 5,
    "Return": 5,
}


def _label_priority(mcn, label) -> int:
    base = _SILENT_FIRST.get(label.rule, 7)
    if label.rule in ("Serve", "Return"):
        binder = mcn.futures.get(label.future)
        if binder is not None and binder.method != "execute":
            return 1  # meta-request plumbing: very likely silent
    if label.rule == "Assign-Local" and label.future is not None:
        act = mcn.activities.get(label.activity)
        thread = act.current.get(label.future) if act else None
        if thread is not None:
            head = thread.stack[0].stmts[0]
            if getattr(head, "target", "").startswith("§"):
                return 1
    return base


def _quick_mismatch(abs_succ, mcn) -> bool:
    """Cheap necessary condition before a full equivalence check."""
    n_abs = sum(1 for v in abs_succ.futures.values() if v is UNRESOLVED)
    n_masp = sum(
        1
        for b in mcn.futures.values()
        if not b.resolved and b.method == "execute"
    )
    return n_abs != n_masp


def _match_forward(abs_succ, mcn, enabled, ctx, step_cog, bound):
    """Find a silent multi-active sequence reaching an equivalent config;
    ``enabled`` is ``enabled_steps(mcn)``.

    Depth-first with silent-looking steps tried first: the additional
    steps never introduce concurrency, so the greedy descent almost
    always walks straight down the prescribed chain."""
    base_activities = set(mcn.activities)
    seen = {masp_digest(mcn)}
    stack = [(mcn, [])]
    while stack:
        cfg, path = stack.pop()
        if not _quick_mismatch(abs_succ, cfg):
            ok, _, ctx2 = config_equiv(abs_succ, cfg, ctx)
            if ok:
                return cfg, path, ctx2
        if len(path) >= bound:
            continue
        if path:
            enabled = enabled_steps(cfg, mode="explore")
        labels = _allowed_masp_labels(enabled, step_cog, base_activities)
        labels.sort(key=lambda l: _label_priority(cfg, l), reverse=True)
        for label in labels:  # reversed: best candidates pop first
            succ = apply_step(cfg, label)
            d = masp_digest(succ)
            if d in seen:
                continue
            seen.add(d)
            stack.append((succ, path + [label]))
    return None


def check_forward_simulation(
    p: AbsProgram, depth: int = 30, width: int = 10000
) -> SimulationReport:
    """Every explored cooperative step is matched by the translation."""
    t0 = time.monotonic()
    report = SimulationReport("forward")
    mp = translate_program(p)
    ctx0 = EquivContext(prefix=_pick_prefix(p))
    cn0 = abs_initial_config(p)
    mcn0 = initial_config(mp)
    ok, reason, ctx0 = config_equiv(cn0, mcn0, ctx0)
    if not ok:
        report.failures.append({"abs_rule": "initial", "found": reason})
        report.elapsed = time.monotonic() - t0
        return report
    worklist = [(cn0, mcn0, ctx0, depth)]
    visited = set()
    while worklist:
        cn, mcn, ctx, fuel = worklist.pop()
        key = (abs_digest(cn), masp_digest(mcn))
        if key in visited:
            continue
        visited.add(key)
        report.states = len(visited)
        if len(visited) >= width:
            report.truncated = True
            break
        if fuel <= 0:
            continue
        abs_labels = abs_enabled_steps(cn, mode="explore")
        # the same for every cooperative label: computed once per state
        enabled = enabled_steps(mcn, mode="explore") if abs_labels else []
        base_activities = set(mcn.activities)
        for label in abs_labels:
            abs_succ = abs_apply_step(cn, label)
            report.steps_checked += 1
            if detect_future_of_future(abs_succ):
                report.skipped_restriction += 1
                report.rows.append(
                    {"abs_rule": label.rule, "note": "restriction-3: future of future"}
                )
                continue
            fragment = _abs_rule_fragment(cn, label)
            bound = 4 if fragment == "outside" else AUX_BOUND
            hit = None
            for seq in PRESCRIBED.get(label.rule, ()):
                got = _try_prescribed(mcn, enabled, seq, label.activity, base_activities)
                if got is None:
                    continue
                cand, path = got
                ok, _, ctx2 = config_equiv(abs_succ, cand, ctx)
                if ok:
                    hit = (cand, path, ctx2, "prescribed")
                    break
            if hit is None:
                got = _match_forward(abs_succ, mcn, enabled, ctx, label.activity, bound)
                if got is not None:
                    hit = (*got, "bfs")
            if hit is None:
                if fragment == "outside":
                    report.outside_fragment += 1
                    report.rows.append(
                        {"abs_rule": label.rule, "note": "outside-proved-fragment"}
                    )
                    continue
                report.failures.append(
                    {
                        "abs_rule": label.rule,
                        "abs_label": label.key(),
                        "expected_seq": [
                            list(s) for s in PRESCRIBED.get(label.rule, ())
                        ],
                        "found": "no matching silent sequence",
                        "abs_digest": abs_digest(cn),
                        "masp_digest": masp_digest(mcn),
                    }
                )
                continue
            cand, path, ctx2, via = hit
            report.matched += 1
            report.rows.append(
                {
                    "abs_rule": label.rule,
                    "masp_rules": [l.rule for l in path],
                    "via": via,
                }
            )
            worklist.append((abs_succ, cand, ctx2, fuel - 1))
    report.elapsed = time.monotonic() - t0
    return report


# -- backward direction -----------------------------------------------------------


def _masp_label_class(mcn, label):
    """Expected cooperative responses per rule, most specific first;
    every row also falls back to the bounded search on a miss."""
    act = mcn.activities[label.activity]
    rule = label.rule
    if rule == "Skip":
        return [["Skip"]]
    if rule == "Assign-Local":
        thread = act.current[label.future]
        target = thread.stack[0].stmts[0].target
        if _is_temp(mcn, target) or len(thread.stack) != 2:
            return [[]]
        return [["Assign-Local"], []]
    if rule == "Assign-Field":
        return [["Assign-Field"]]
    if rule == "New-Object":
        thread = act.current[label.future]
        rhs = thread.stack[0].stmts[0].rhs
        # created in its own cog: the cooperative object appears now
        if len(rhs.args) >= 2 and _names_own_cog(act, thread, rhs.args[-2]):
            return [["New-Object"]]
        return [[]]
    if rule == "Invk-Active":
        meth = _invoked_method(act, label)
        if meth == "execute":
            return [["Rendez-vous-Comm"]]
        if meth == "register":
            return [["New-Cog-Object"], []]
        return [[]]
    if rule == "Invk-Active-Self":
        meth = _invoked_method(act, label)
        if meth == "execute":
            return [["Rendez-vous-Comm"]]
        return [[]]
    if rule == "Invk-Future":
        return [["Await-False", "Release-Cog"], ["Await-False"]]
    if rule == "Invk-Passive":
        return [[], ["Read-Fut"], ["Await-True"]]
    if rule == "Activate-Thread":
        return [["Activate"], []]
    if rule == "Serve":
        q = next(q for q in act.queue if q.future == label.future)
        if q.method == "execute":
            return [["Activate"], []]
        return [[]]
    if rule == "Return":
        binder = mcn.futures.get(label.future)
        if binder is not None and binder.method == "execute":
            return [["Return"]]
        return [[]]
    return [[]]


def _is_temp(mcn, name: str) -> bool:
    return name.startswith("§")


def _invoked_method(act, label):
    """Method name of the call the labelled thread is about to make."""
    thread = act.current.get(label.future)
    if thread is None:
        return None
    head = thread.stack[0].stmts[0]
    from .lang.ast_masp import MAssign, MInvoke

    if isinstance(head, MAssign) and isinstance(head.rhs, MInvoke):
        return head.rhs.method
    return None


def _names_own_cog(act, thread, cog_arg) -> bool:
    """Does the constructor's cog argument name the current activity?"""
    from .masp.evalfn import evaluate
    from .values import ActRef

    try:
        v = evaluate(cog_arg, act.store, thread.stack[0].locals)
    except Exception:
        return False
    return v == ActRef(act.name)


def _abs_candidates(cn, rules):
    """All ways to apply the named rule sequence on the cooperative side."""
    states = [(cn, [])]
    for rule in rules:
        nxt = []
        for cfg, path in states:
            for label in abs_enabled_steps(cfg, mode="explore"):
                if label.rule == rule:
                    nxt.append((abs_apply_step(cfg, label), path + [label]))
        states = nxt
        if not states:
            return []
    return states


def _masp_step_outside(mcn, label) -> bool:
    """Steps born from synchronous-call or boolean-guard translation."""
    act = mcn.activities.get(label.activity)
    if act is None or label.future not in getattr(act, "current", {}):
        return False
    thread = act.current[label.future]
    head = thread.stack[0].stmts[0]
    if label.rule in ("Cond-True", "Cond-False") and isinstance(head, MIf):
        return True  # if-statements only arise from sync calls / bool guards
    if label.rule == "Invk-Passive":
        # direct user-method invocation = local synchronous call
        from .lang.ast_masp import MAssign, MInvoke

        if isinstance(head, MAssign) and isinstance(head.rhs, MInvoke):
            m = head.rhs.method
            if m in ("cog", "myId", "get", "retrieve"):
                return False
            if m is None:  # dynamic dispatch inside the scheduler body
                return False
            return True
    return False


def check_backward_simulation(
    p: AbsProgram, depth: int = 30, width: int = 10000
) -> SimulationReport:
    """Every step of the translation corresponds to a cooperative execution."""
    t0 = time.monotonic()
    report = SimulationReport("backward")
    mp = translate_program(p)
    ctx0 = EquivContext(prefix=_pick_prefix(p))
    cn0 = abs_initial_config(p)
    mcn0 = initial_config(mp)
    ok, reason, ctx0 = config_equiv(cn0, mcn0, ctx0, relaxed=True)
    if not ok:
        report.failures.append({"masp_rule": "initial", "found": reason})
        report.elapsed = time.monotonic() - t0
        return report
    worklist = [(mcn0, cn0, ctx0, depth)]
    visited = set()
    while worklist:
        mcn, cn, ctx, fuel = worklist.pop()
        key = (masp_digest(mcn), abs_digest(cn))
        if key in visited:
            continue
        visited.add(key)
        report.states = len(visited)
        if len(visited) >= width:
            report.truncated = True
            break
        if fuel <= 0:
            continue
        labels = enabled_steps(mcn, mode="explore")
        # restriction (4): future values propagate eagerly, in causal order;
        # explorations that race invocations against updates are excluded
        updates = [l for l in labels if l.rule == "Update"]
        if updates:
            labels = updates[:1]
        for label in labels:
            report.steps_checked += 1
            if _masp_step_outside(mcn, label):
                report.outside_fragment += 1
                report.rows.append(
                    {"masp_rule": label.rule, "note": "outside-proved-fragment"}
                )
                continue
            masp_succ = apply_step(mcn, label)
            hit = None
            for rules in _masp_label_class(mcn, label):
                for cand, path in _abs_candidates(cn, rules):
                    ok, _, ctx2 = config_equiv(cand, masp_succ, ctx, relaxed=True)
                    if ok:
                        hit = (cand, path, ctx2, rules)
                        break
                if hit:
                    break
            if hit is None:
                # bounded fallback over short cooperative sequences
                hit = _backward_bfs(cn, masp_succ, ctx)
            if hit is None:
                report.failures.append(
                    {
                        "masp_rule": label.rule,
                        "masp_label": label.key(),
                        "found": "no cooperative response",
                        "masp_digest": masp_digest(mcn),
                        "abs_digest": abs_digest(cn),
                    }
                )
                continue
            cand, path, ctx2, rules = hit
            report.matched += 1
            report.rows.append(
                {
                    "masp_rule": label.rule,
                    "abs_rules": [l.rule for l in path],
                }
            )
            worklist.append((masp_succ, cand, ctx2, fuel - 1))
    report.elapsed = time.monotonic() - t0
    return report


def _backward_bfs(cn, masp_succ, ctx, bound: int = 4):
    frontier = [(cn, [])]
    seen = {abs_digest(cn)}
    for _ in range(bound):
        nxt = []
        for cfg, path in frontier:
            for label in abs_enabled_steps(cfg, mode="explore"):
                succ = abs_apply_step(cfg, label)
                d = abs_digest(succ)
                if d in seen:
                    continue
                seen.add(d)
                ok, _, ctx2 = config_equiv(succ, masp_succ, ctx, relaxed=True)
                if ok:
                    return succ, path + [label], ctx2, [l.rule for l in path] + [label.rule]
                nxt.append((succ, path + [label]))
        frontier = nxt
        if not frontier:
            break
    return None

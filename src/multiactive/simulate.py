"""Bounded weak-simulation checking between a cooperative program and
its multi-active translation.

Both directions run one level-by-level search over pairs of
configurations, a cooperative one and a multi-active one held
equivalent, with the future bijection that relates them. A direction
differs only in its per-pair step checker. Forward: every cooperative
step is matched by a sequence of multi-active steps (the prescribed rule
sequence first, then a bounded search over silent steps) reaching an
equivalent configuration. Backward: every multi-active step of the
translation maps to at most one observable cooperative rule plus listed
auxiliaries. The matched pairs form the next level. ``explore.levels``
decides the levels, both bounds and ``SimulationReport.stop``.

Synchronous calls, ``suspend`` and boolean await guards lie outside the
proved fragment (``OUTSIDE``); branches through them are flagged and
pruned, not failed. The translator decides which construct a step comes
from: it records each statement's cooperative construct as its
``origin``. Backward reads the origin of the statement a step runs,
forward maps a cooperative step to its construct, and both ask
``OUTSIDE``. The origin also says which backward rows a step has.

Pairs share configurations. When a pair is admitted, each side's
configuration is replaced by the object already admitted under the same
digest in this level or the previous one, if the two are equal as raw
values; an alpha variant keeps its own object. A configuration memoizes
its enabled labels and its successor under each label (``_labels``,
``_successor``), so the pairs and silent searches that reach one
configuration step it once, and its successors, shared in turn, are
digested once. The table of admitted objects holds two levels: a
configuration lives as long as a pair or a successor memo of those
levels refers to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .absm.engine import abs_initial_config
from .absm.runtime import RGFut
from .absm.steps import abs_apply_step, abs_enabled_steps, split_guard
from .canon import abs_digest, masp_digest
from .equiv import EquivContext, config_equiv
from .explore import levels
from .lang.ast_abs import GBool, AbsProgram
from .lang.ast_expr import RuntimeVal
from .masp.engine import initial_config
from .masp.steps import apply_step, enabled_steps
from .translate import _pick_prefix, detect_future_of_future, translate_program

AUX_BOUND = 16  # longest silent chain: remote-new registration, ~14 steps

# the cooperative constructs outside the proved fragment; a multi-active
# statement's construct is the one the translator records as its origin
OUTSIDE = frozenset({"sync", "suspend", "guard"})

# the construct each cooperative rule steps, where the rule alone says it
RULE_CONSTRUCT = {
    rule: construct
    for construct, rules in (
        ("skip", ("Skip",)),
        ("return", ("Return",)),
        ("if", ("Cond-True", "Cond-False")),
        ("assign", ("Assign-Local", "Assign-Field")),
        ("new", ("New-Object", "New-Cog-Object")),
        ("async", ("Rendez-vous-Comm",)),
        ("suspend", ("Suspend",)),
        ("sync", ("Cog-Sync-Call", "Self-Sync-Call", "Rem-Sync-Call")),
        ("sync", ("Cog-Sync-Return-Sched", "Self-Sync-Return-Sched")),
    )
    for rule in rules
}

# known matching sequences for the common rows, tried before the search
# (Read-Fut and Return are left to it: no fixed sequence of theirs applied)
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
    "Activate": (
        ("Activate-Thread",),
        ("Serve", "Invk-Passive", "Return-Local", "Assign-Local", "Invk-Passive"),
    ),
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
    states: int = 0  # distinct pairs counted, the initial one included
    abs_states: int = 0  # distinct cooperative configurations among the pairs
    masp_states: int = 0  # distinct multi-active configurations among the pairs
    stop: str = "exhausted"  # or the bound that ended it: "depth" or "width"
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def truncated(self) -> bool:
        return self.stop == "width"

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "steps_checked": self.steps_checked,
            "matched": self.matched,
            "skipped_restriction": self.skipped_restriction,
            "outside_fragment": self.outside_fragment,
            "failures": self.failures,
            "states": self.states,
            "stop": self.stop,
            "truncated": self.truncated,
            "elapsed_s": round(self.elapsed, 3),
        }


def _check(direction, p, depth, width, check_steps) -> SimulationReport:
    """Search the pairs from the initial one with ``explore.levels``,
    keyed on the two digests. ``check_steps(report, cn, mcn, ctx)``
    checks every step that the driving side can take from a pair and
    returns the matched successor pairs. The configurations admitted in
    the level being expanded and in the next are held, by digest."""
    t0 = time.monotonic()
    report = SimulationReport(direction)
    tables = {}  # level -> {digest: the configuration admitted under it}

    def admit(pair, key, level):
        if level == depth:
            return pair  # counted, not checked
        admitted, before = tables.setdefault(level, {}), tables.get(level - 1, {})
        cn = _shared(pair[0], key[0], admitted, before)
        return cn, _shared(pair[1], key[1], admitted, before), pair[2], level

    def expand(pair):
        tables.pop(pair[3] - 1, None)  # its level is admitted whole: drop the one before
        return check_steps(report, *pair[:3])

    seen, report.stop = levels(
        _initial_pairs(report, p),
        lambda pair: (abs_digest(pair[0]), masp_digest(pair[1])),
        admit,
        expand,
        depth,
        width,
    )
    report.states = len(seen)
    report.abs_states = len({a for a, _ in seen})
    report.masp_states = len({m for _, m in seen})
    report.elapsed = time.monotonic() - t0
    return report


def _initial_pairs(report, p):
    """The initial pair, if its sides are equivalent; ``_check`` must not
    hold it, as its successor memos reach every configuration after it."""
    cn, mcn = abs_initial_config(p), initial_config(translate_program(p))
    ctx = EquivContext(prefix=_pick_prefix(p))
    ok, reason, ctx = config_equiv(cn, mcn, ctx, relaxed=report.direction == "backward")
    if ok:
        return [(cn, mcn, ctx)]
    side = "abs_rule" if report.direction == "forward" else "masp_rule"
    report.failures.append({side: "initial", "found": reason})
    return []


def _shared(config, digest, admitted, before):
    """The object admitted under ``digest`` in this level or the one
    ``before`` if it equals ``config`` as a raw value, else ``config``;
    either way it is admitted in this level. Equal raw configurations
    give equal future bijections, so the pair's ``ctx`` stays valid."""
    got = admitted.get(digest) or before.get(digest)
    if got is not None and (got is config or got == config):
        config = got
    admitted.setdefault(digest, config)
    return config


def _labels(config, enabled):
    """``enabled(config, mode="explore")`` as a tuple, memoized on the
    (immutable) configuration, outside its fields, as ``_steps``."""
    labels = config.__dict__.get("_steps")
    if labels is None:
        labels = tuple(enabled(config, mode="explore"))
        object.__setattr__(config, "_steps", labels)
    return labels


def _successor(config, label, apply):
    """``apply(config, label)``, memoized on the configuration as ``_succ``."""
    succs = config.__dict__.get("_succ")
    if succs is None:
        succs = config.__dict__["_succ"] = {}
    succ = succs.get(label)
    if succ is None:
        succ = succs[label] = apply(config, label)
    return succ


def _abs_construct(config, label):
    """The cooperative construct a cooperative step runs; None for a
    scheduler rule."""
    if label.rule not in ("Await-True", "Await-False", "Read-Fut"):
        return RULE_CONSTRUCT.get(label.rule)
    head = config.cogs[label.activity].objects[label.extra[0]].active.stmts[0]
    if label.rule == "Read-Fut":
        # a get that a remote synchronous call injected reads a value
        return "sync" if isinstance(head.rhs.expr, RuntimeVal) else "get"
    first, _ = split_guard(head.guard)
    if isinstance(first, GBool):
        return "guard"
    return "sync" if isinstance(first, RGFut) else "await"  # RGFut: a sync return


def _allowed_masp_labels(labels, step_cog, base_activities):
    """Silent-step candidates among ``labels``, the steps enabled at some
    configuration: the stepping cog's activity, activities created during
    this match, and future updates anywhere."""
    return [
        l
        for l in labels
        if l.rule == "Update" or l.activity == step_cog or l.activity not in base_activities
    ]


def _try_prescribed(mcn, sequence, step_cog, base_activities):
    """Apply a rule-name sequence greedily; None on ambiguity or absence."""
    path = []
    cur = mcn
    for rule in sequence:
        enabled = _labels(cur, enabled_steps)
        cands = [
            l
            for l in _allowed_masp_labels(enabled, step_cog, base_activities)
            if l.rule == rule
        ]
        if len(cands) != 1:
            return None
        cur = _successor(cur, cands[0], apply_step)
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


def _head_origin(mcn, label):
    """The origin of the statement that a thread rule's label steps."""
    return mcn.activities[label.activity].current[label.future].stack[0].stmts[0].origin


def _serves_execute(mcn, label) -> bool:
    """Does a ``Serve`` or ``Return`` label take an execute request, that
    is, a cooperative call rather than the scheduler's own?"""
    return mcn.futures[label.future].method == "execute"


def _label_priority(mcn, label) -> int:
    """Plumbing first: the scheduler's own requests, and assignments that
    realise no cooperative rule."""
    if label.rule in ("Serve", "Return") and not _serves_execute(mcn, label):
        return 1
    if label.rule == "Assign-Local":
        origin = _head_origin(mcn, label)
        if origin is not None and not origin.step:
            return 1
    return _SILENT_FIRST.get(label.rule, 7)


def _match_forward(abs_succ, mcn, ctx, step_cog, bound):
    """Find a silent multi-active sequence reaching an equivalent config.

    Depth-first with silent-looking steps tried first: the additional
    steps never introduce concurrency, so the greedy descent almost
    always walks straight down the prescribed chain."""
    base_activities = set(mcn.activities)
    seen = {masp_digest(mcn)}
    stack = [(mcn, [])]
    while stack:
        cfg, path = stack.pop()
        ok, _, ctx2 = config_equiv(abs_succ, cfg, ctx)
        if ok:
            return cfg, path, ctx2
        if len(path) >= bound:
            continue
        labels = _allowed_masp_labels(_labels(cfg, enabled_steps), step_cog, base_activities)
        labels.sort(key=lambda l: _label_priority(cfg, l), reverse=True)
        for label in labels:  # reversed: best candidates pop first
            succ = _successor(cfg, label, apply_step)
            d = masp_digest(succ)
            if d in seen:
                continue
            seen.add(d)
            stack.append((succ, path + [label]))
    return None


def _forward_steps(report, cn, mcn, ctx):
    """Check every cooperative step from the pair; the matched pairs."""
    matched = []
    base_activities = set(mcn.activities)
    for label in _labels(cn, abs_enabled_steps):
        abs_succ = _successor(cn, label, abs_apply_step)
        report.steps_checked += 1
        if detect_future_of_future(abs_succ):
            report.skipped_restriction += 1
            report.rows.append(
                {"abs_rule": label.rule, "note": "restriction-3: future of future"}
            )
            continue
        outside = _abs_construct(cn, label) in OUTSIDE
        bound = 4 if outside else AUX_BOUND
        hit = None
        for seq in PRESCRIBED.get(label.rule, ()):
            got = _try_prescribed(mcn, seq, label.activity, base_activities)
            if got is None:
                continue
            cand, path = got
            ok, _, ctx2 = config_equiv(abs_succ, cand, ctx)
            if ok:
                hit = (cand, path, ctx2, "prescribed")
                break
        if hit is None:
            got = _match_forward(abs_succ, mcn, ctx, label.activity, bound)
            if got is not None:
                hit = (*got, "bfs")
        if hit is None:
            if outside:
                report.outside_fragment += 1
                report.rows.append(
                    {"abs_rule": label.rule, "note": "outside-proved-fragment"}
                )
                continue
            report.failures.append(
                {
                    "abs_rule": label.rule,
                    "abs_label": label.key(),
                    "expected_seq": [list(s) for s in PRESCRIBED.get(label.rule, ())],
                    "found": "no matching silent sequence",
                    "abs_digest": abs_digest(cn),
                    "masp_digest": masp_digest(mcn),
                }
            )
            continue
        cand, path, ctx2, via = hit
        report.matched += 1
        report.rows.append(
            {"abs_rule": label.rule, "masp_rules": [l.rule for l in path], "via": via}
        )
        matched.append((abs_succ, cand, ctx2))
    return matched


def check_forward_simulation(
    p: AbsProgram, depth: int = 30, width: int = 10000
) -> SimulationReport:
    """Every explored cooperative step is matched by the translation."""
    return _check("forward", p, depth, width, _forward_steps)


# -- backward direction -----------------------------------------------------------


# the cooperative responses to a step of a statement that realises its
# construct's cooperative rule, by construct and multi-active rule, most
# specific first; every other step of a translated statement is silent
STEP_ROWS = {
    ("skip", "Skip"): [["Skip"]],
    ("if", "Cond-True"): [["Cond-True"]],
    ("if", "Cond-False"): [["Cond-False"]],
    ("assign", "Assign-Local"): [["Assign-Local"]],
    ("assign", "Assign-Field"): [["Assign-Field"]],
    ("new", "New-Object"): [["New-Object"]],
    ("new", "Invk-Active"): [["New-Cog-Object"]],
    ("async", "Invk-Active"): [["Rendez-vous-Comm"]],
    ("async", "Invk-Active-Self"): [["Rendez-vous-Comm"]],
    ("async", "Assign-Local"): [["Assign-Local"]],  # the call, rewritten
    ("async", "Assign-Field"): [["Assign-Field"]],
    ("get", "Assign-Local"): [["Read-Fut", "Assign-Local"]],
    ("get", "Assign-Field"): [["Read-Fut", "Assign-Field"]],
    ("await", "Invk-Passive"): [["Await-True"]],
    ("await", "Invk-Future"): [["Await-False", "Release-Cog"], ["Await-False"]],
}


# the responses to serving an execute request: the cog activates the
# process, first releasing the one that has finished if it must, or not yet
_ACTIVATE = [["Activate"], ["Release-Cog", "Activate"], []]


def _masp_label_class(mcn, label):
    """Expected cooperative responses to a multi-active step, most
    specific first, each but ``Return``'s ending in the silent one; None
    for a step outside the proved fragment. A scheduler rule reads its
    request's method, a thread rule the origin of the statement it steps."""
    rule = label.rule
    if rule in ("Serve", "Return"):
        if not _serves_execute(mcn, label):
            return [[]]
        return _ACTIVATE if rule == "Serve" else [["Return"]]
    if rule == "Activate-Thread":
        return _ACTIVATE
    if rule == "Update":
        return [[]]
    origin = _head_origin(mcn, label)
    if origin is None:  # scheduler or native plumbing
        return [[]]
    if origin.construct in OUTSIDE:
        return None
    rows = STEP_ROWS.get((origin.construct, rule), []) if origin.step else []
    return rows + [[]]


def _abs_candidates(cn, rules):
    """All ways to apply the named rule sequence on the cooperative side."""
    states = [(cn, [])]
    for rule in rules:
        nxt = []
        for cfg, path in states:
            for label in _labels(cfg, abs_enabled_steps):
                if label.rule == rule:
                    nxt.append((_successor(cfg, label, abs_apply_step), path + [label]))
        states = nxt
        if not states:
            return []
    return states


def _backward_steps(report, cn, mcn, ctx):
    """Check every multi-active step from the pair; the matched pairs."""
    matched = []
    labels = enabled_steps(mcn, mode="explore")
    # restriction (4): future values propagate eagerly, in causal order;
    # explorations that race invocations against updates are excluded
    updates = [l for l in labels if l.rule == "Update"]
    if updates:
        labels = updates[:1]
    for label in labels:
        report.steps_checked += 1
        rows = _masp_label_class(mcn, label)
        if rows is None:
            report.outside_fragment += 1
            report.rows.append({"masp_rule": label.rule, "note": "outside-proved-fragment"})
            continue
        masp_succ = apply_step(mcn, label)
        hit = None
        for rules in rows:
            for cand, path in _abs_candidates(cn, rules):
                ok, _, ctx2 = config_equiv(cand, masp_succ, ctx, relaxed=True)
                if ok:
                    hit = (cand, path, ctx2)
                    break
            if hit:
                break
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
        cand, path, ctx2 = hit
        report.matched += 1
        report.rows.append({"masp_rule": label.rule, "abs_rules": [l.rule for l in path]})
        matched.append((cand, masp_succ, ctx2))
    return matched


def check_backward_simulation(
    p: AbsProgram, depth: int = 30, width: int = 10000
) -> SimulationReport:
    """Every step of the translation corresponds to a cooperative execution."""
    return _check("backward", p, depth, width, _backward_steps)

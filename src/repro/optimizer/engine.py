"""The rewrite engine: rules, rule bases, phases.

Section 5: "The AQL optimizer proceeds in a number of phases.  The rule
bases, the rule application strategies, and the number of phases of this
optimizer are extensible."  Accordingly:

* a :class:`Rule` is a named partial function ``Expr -> Expr | None``;
* a :class:`RuleBase` is an ordered, mutable collection of rules;
* a :class:`Phase` applies a rule base by one innermost walk; a
  subclass overriding :meth:`Phase.walk` is another strategy;
* an :class:`Optimizer` runs its phases in order and supports dynamic
  rule/phase registration (the openness of Section 4.1).

A non-terminating or exploding rule set stops rewriting at
:attr:`Phase.MAX_NODES` and hands back the expression as it stands
(never an error — optimization must be transparent).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import ast
from repro.errors import RegistrationError
from repro.obs.trace import NULL_TRACER
from repro.optimizer.analysis import has_class

RewriteFn = Callable[[ast.Expr], Optional[ast.Expr]]

#: rule-base versions: every construction and mutation draws a new one,
#: so a version names one rule set in one rule base for the process
_versions = itertools.count(1)


@dataclass
class Rule:
    """A named rewrite rule.

    ``fn`` returns ``None`` when the rule does not apply, or a *new*
    node when it does — never the object it was given (progress is
    detected by identity); a pre-existing *subnode* of the input is
    fine.  Rules must be *local* and deterministic — the verdict depends
    only on the node given — which lets the engine memoise normal forms.

    ``roots`` optionally names the AST classes the rule can match at its
    *root*: a *conservative* pruning hint; ``None`` means "try
    everywhere".  Skipped probes are tallied under ``pruned``.
    """

    name: str
    fn: RewriteFn
    description: str = ""
    roots: Optional[Tuple[type, ...]] = None

    def apply(self, expr: ast.Expr) -> Optional[ast.Expr]:
        """Apply the rule at ``expr``; None when it does not match."""
        return self.fn(expr)


class RuleBase:
    """An ordered, mutable collection of rules.  :attr:`version` moves
    on every :meth:`add`/:meth:`remove`: results cached under an older
    one (a macro's normal form, a cached plan) are stale."""

    def __init__(self, rules: Optional[List[Rule]] = None):
        self._rules: List[Rule] = list(rules or [])
        self._names = {rule.name for rule in self._rules}
        #: lazily built per-node-class candidate lists, and under the
        #: key ``None`` the :meth:`root_classes` union; cleared on every
        #: mutation so dynamic rule injection stays visible
        self._candidates: Dict[Optional[type], Any] = {}
        self.version = next(_versions)

    def add(self, rule: Rule) -> None:
        """Register a rule (Section 4.1's dynamic rule injection)."""
        if rule.name in self._names:
            raise RegistrationError(f"rule {rule.name!r} already registered")
        self._rules.append(rule)
        self._names.add(rule.name)
        self._mutated()

    def remove(self, name: str) -> None:
        """Unregister a rule by name (used by the ablation benchmarks)."""
        if name not in self._names:
            raise RegistrationError(f"no rule named {name!r}")
        self._rules = [r for r in self._rules if r.name != name]
        self._names.discard(name)
        self._mutated()

    def _mutated(self) -> None:
        self._candidates.clear()
        self.version = next(_versions)

    def root_classes(self) -> Optional[frozenset]:
        """The union of every rule's ``roots`` annotation, or ``None``
        when any rule is unannotated (could match anywhere).  A phase
        skips an expression holding no node of these classes."""
        if None not in self._candidates:
            roots = [rule.roots for rule in self._rules]
            self._candidates[None] = (
                None if None in roots else frozenset().union(*roots))
        return self._candidates[None]

    def candidates(self, node_type: type) -> List[Rule]:
        """The rules that could match a node of ``node_type``, in
        registration order (pruning drops only rules that would have
        returned ``None``, so first-match semantics are kept)."""
        cached = self._candidates.get(node_type)
        if cached is None:
            cached = [
                rule for rule in self._rules
                if rule.roots is None or node_type in rule.roots
            ]
            self._candidates[node_type] = cached
        return cached

    def names(self) -> List[str]:
        """The registered rule names, in application order."""
        return [rule.name for rule in self._rules]

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)


@dataclass
class PhaseStats:
    """Counters reported per optimization phase.

    ``by_rule`` is always collected.  The timing fields — ``seconds``
    for the whole phase, ``time_by_rule`` for cumulative seconds spent
    *attempting* each rule — are only populated when the phase runs
    instrumented (under an enabled tracer).
    """

    #: 1 when the phase ran its walk, else 0
    passes: int = 0
    applications: int = 0
    by_rule: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    attempts: int = 0
    #: rule probes skipped by root-class dispatch (instrumented runs
    #: only): ``attempts + pruned`` is the unpruned attempt count
    pruned: int = 0
    time_by_rule: Dict[str, float] = field(default_factory=dict)
    #: ``"absent-roots"`` when the engine skipped the whole phase: no
    #: node of any rule's root class occurs, so it is provably identity
    skipped: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe snapshot (timings rounded to nanoseconds)."""
        return {
            "passes": self.passes, "applications": self.applications,
            "by_rule": dict(self.by_rule),
            "seconds": round(self.seconds, 9), "attempts": self.attempts,
            "pruned": self.pruned, "skipped": self.skipped,
            "time_by_rule": {name: round(spent, 9)
                             for name, spent in self.time_by_rule.items()},
        }


class Phase:
    """One optimizer phase: a rule base applied by :meth:`walk`.  A
    subclass overriding ``walk`` is another strategy (register it with
    :meth:`Optimizer.add_phase`)."""

    #: size ceiling of one run: past this many nodes entered, or this
    #: many firings (a divergent rule set), the walk stops rewriting
    MAX_NODES = 500_000

    def __init__(self, name: str, rules: Optional[RuleBase] = None):
        self.name = name
        self.rules = rules if rules is not None else RuleBase()
        self.stats = PhaseStats()
        self._timed, self._visited = False, 0
        self._memo: Dict[int, ast.Expr] = {}

    def run(self, expr: ast.Expr, instrument: bool = False) -> ast.Expr:
        """Normalise ``expr`` in one :meth:`walk`.  ``instrument=True``
        also records the phase's wall-clock time and per-rule attempt
        timings into :attr:`stats`."""
        self.stats = PhaseStats()
        if not len(self.rules):
            return expr
        self.stats.passes, self._timed = 1, instrument
        self._memo, self._visited = {}, 0
        started = time.perf_counter() if instrument else 0.0
        try:
            expr = self.walk(expr)
        except RecursionError:
            # deeper than the host stack: optimization must stay
            # transparent, so hand back the input
            pass
        self._memo = {}
        if instrument:
            self.stats.seconds = time.perf_counter() - started
        return expr

    def walk(self, expr: ast.Expr, tried: bool = False) -> ast.Expr:
        """The normal form of ``expr`` (``tried``: no rule fires at its
        root as it stands).  The per-run memo maps ``id(node)`` to each
        node proven normal; a visit returns from one at once."""
        settled = False
        while not settled:
            expr, settled = self._visit(expr, tried)
            tried = True
        return expr

    def _visit(self, expr: ast.Expr,
               tried: bool = False) -> Tuple[ast.Expr, bool]:
        """Children first, then the rules at the node until none fires.

        A rewritten node comes back unsettled, its root tried: the
        parent tries its own rules on it before it is normalised, so a
        parent that drops it saves the work.  A node at which nothing
        fires normalises its unsettled children and tries again."""
        if id(expr) in self._memo or self._visited > self.MAX_NODES:
            return expr, True
        self._visited += 1
        parts, children, pending, changed = expr.parts(), [], [], False
        for old, _ in parts:  # loops, not comprehensions: fewer frames
            child, settled = self._visit(old)
            if not settled:
                pending.append(len(children))
            children.append(child)
            changed = changed or child is not old
        if changed:
            expr = expr.with_parts(children)
        rewritten = self._apply_first(expr) if changed or not tried else None
        if rewritten is None and pending:
            changed = False
            for index in pending:
                child = self.walk(children[index], True)
                changed = changed or child is not children[index]
                children[index] = child
            if changed:
                expr = expr.with_parts(children)
                rewritten = self._apply_first(expr)
        if rewritten is None:
            self._memo[id(expr)] = expr
            return expr, True
        while True:  # on at the root until no rule fires there
            fired = self._apply_first(rewritten)
            if fired is None:
                return rewritten, False
            rewritten = fired

    def _apply_first(self, expr: ast.Expr) -> Optional[ast.Expr]:
        # progress is detected by identity (the Rule contract is "None
        # or a new node"); an instrumented run reads the clock per rule
        stats, timed = self.stats, self._timed
        if stats.applications > self.MAX_NODES:
            return None
        candidates = self.rules.candidates(type(expr))
        if timed:
            stats.pruned += len(self.rules) - len(candidates)
        for rule in candidates:
            if timed:
                stats.attempts += 1
                started = time.perf_counter()
            result = rule.apply(expr)
            if timed:
                stats.time_by_rule[rule.name] = (
                    stats.time_by_rule.get(rule.name, 0.0)
                    + time.perf_counter() - started)
            if result is not None and result is not expr:
                stats.applications += 1
                stats.by_rule[rule.name] = stats.by_rule.get(rule.name, 0) + 1
                return result
        return None


class Optimizer:
    """Drives a pipeline of phases over core expressions."""

    def __init__(self, phases: Optional[List[Phase]] = None):
        self.phases: List[Phase] = list(phases or [])

    def phase(self, name: str) -> Phase:
        """Look up a phase by name (for rule registration/ablation)."""
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise RegistrationError(f"no phase named {name!r}")

    def add_phase(self, phase: Phase,
                  before: Optional[str] = None) -> None:
        """Insert a phase, optionally before an existing one."""
        if before is None:
            self.phases.append(phase)
            return
        for position, existing in enumerate(self.phases):
            if existing.name == before:
                self.phases.insert(position, phase)
                return
        raise RegistrationError(f"no phase named {before!r}")

    def register_rule(self, phase_name: str, rule: Rule) -> None:
        """Dynamically inject an optimization rule (Section 4.1)."""
        self.phase(phase_name).rules.add(rule)

    def versions(self) -> Tuple[Tuple["Phase", int], ...]:
        """Each phase with its rule base's version (equal: same rules)."""
        return tuple((phase, phase.rules.version) for phase in self.phases)

    def optimize(self, expr: ast.Expr, tracer=NULL_TRACER) -> ast.Expr:
        """Run every phase in order.  ``tracer`` wraps each phase in a
        span; an enabled one also turns on :meth:`Phase.run`'s per-rule
        timing."""
        instrument = tracer.enabled
        for phase in self.phases:
            with tracer.span(f"phase:{phase.name}"):
                roots = phase.rules.root_classes()
                if roots is not None and not has_class(expr, roots):
                    # no rule can match any node: the phase is provably
                    # identity.  Its span still shows, with the reason
                    phase.stats = PhaseStats(skipped="absent-roots")
                    if instrument:
                        tracer.annotate(passes=0, firings=0,
                                        skipped="absent-roots")
                    continue
                expr = phase.run(expr, instrument=instrument)
                if instrument:
                    tracer.annotate(passes=phase.stats.passes,
                                    firings=phase.stats.applications)
        return expr

    def report(self) -> Dict[str, PhaseStats]:
        """Per-phase statistics from the most recent :meth:`optimize`."""
        return {phase.name: phase.stats for phase in self.phases}


def default_optimizer(assume_error_free: bool = True) -> Optimizer:
    """The stock pipeline: normalize → bounds → code motion.

    Mirrors Section 5: "We have implemented normalization and constraint
    elimination as the first two phases of our optimizer."  The bounds
    phase carries the normalization rules too, so the conditionals that
    bounds elimination decides fold in the same walk.

    ``assume_error_free`` guards δ^p and its relatives: the paper
    assumes "no bounds errors were present in the original code"
    (Section 5); ``False`` gives the strictly-sound pipeline that
    preserves ⊥-behaviour exactly.
    """
    from repro.optimizer.rules_arith import arith_rules
    from repro.optimizer.rules_arrays import array_rules
    from repro.optimizer.rules_bounds import bounds_rules
    from repro.optimizer.rules_motion import motion_rules
    from repro.optimizer.rules_nrc import nrc_rules

    normalization = (nrc_rules(assume_error_free)
                     + array_rules(assume_error_free)
                     + arith_rules(assume_error_free))
    # code motion runs LAST: the hoisted β-redexes it builds must not be
    # re-inlined by a later normalization pass
    return Optimizer([
        Phase("normalize", RuleBase(normalization)),
        Phase("bounds", RuleBase(bounds_rules() + normalization)),
        Phase("motion", RuleBase(motion_rules())),
    ])


__all__ = ["Rule", "RuleBase", "Phase", "PhaseStats", "Optimizer",
           "default_optimizer"]

"""The rewrite engine: rules, rule bases, phases, strategies.

Section 5: "The AQL optimizer proceeds in a number of phases.  The rule
bases, the rule application strategies, and the number of phases of this
optimizer are extensible."  Accordingly:

* a :class:`Rule` is a named partial function ``Expr -> Expr | None``;
* a :class:`RuleBase` is an ordered, mutable collection of rules;
* a :class:`Phase` pairs a rule base with a strategy (``"exhaustive"``
  bottom-up fixpoint, or ``"once"`` single bottom-up pass);
* an :class:`Optimizer` runs its phases in order and supports dynamic
  rule/phase registration (the openness of Section 4.1).

The engine guards against non-terminating or exploding rule sets with an
iteration cap and a node-count ceiling; hitting either aborts the phase
and returns the best expression so far (never an error — optimization
must be transparent).  Within one :meth:`Optimizer.optimize` call, a
subterm that a pass proved irreducible under a rule base is never walked
again by a phase with the same rules (the irreducibility memo).
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
    node when it does — never the object it was given (the engine
    detects progress by identity, so returning the input would count as
    an endless firing); a pre-existing *subnode* of the input is fine.
    Rules must be *local* and deterministic: the verdict depends only on
    the node they are given (an arbitrarily large subtree), which is
    what lets the engine memoise irreducible subterms.

    ``roots`` optionally names the AST classes the rule can match at its
    *root* — a pruning hint that must be *conservative* (every class the
    ``fn`` could rewrite); ``None`` means "try everywhere".  The
    profile's ``attempts``/``by_rule`` count actual ``fn`` calls and
    firings; skipped probes are tallied under ``pruned``.
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
        #: lazily built per-node-class candidate lists (rules whose
        #: ``roots`` admit the class, in registration order), and under
        #: the key ``None`` the :meth:`root_classes` union; cleared on
        #: every mutation so dynamic rule injection stays visible
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
        when any rule is unannotated (could match anywhere)."""
        if None not in self._candidates:
            roots = [rule.roots for rule in self._rules]
            self._candidates[None] = (
                None if None in roots else frozenset().union(*roots))
        return self._candidates[None]

    def candidates(self, node_type: type) -> List[Rule]:
        """The rules that could match a node of ``node_type``, in
        registration order — rules with ``roots=None`` always qualify.
        First-match semantics are preserved exactly: pruning only drops
        rules whose ``apply`` would have returned ``None`` anyway."""
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

    ``by_rule`` is always collected (counting is nearly free).  The
    timing fields — ``seconds`` for the whole phase, ``time_by_rule``
    for cumulative seconds spent *attempting* each rule (hits and
    misses) — are only populated when the phase runs instrumented, i.e.
    under an enabled tracer; otherwise they stay at their zeros.
    """

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
    """One optimizer phase: a rule base plus an application strategy."""

    #: hard cap on full bottom-up passes within one phase
    MAX_PASSES = 64
    #: expression-size ceiling; beyond it the phase stops rewriting
    MAX_NODES = 500_000
    #: cap on consecutive rule firings at a single node position
    MAX_LOCAL = 64

    def __init__(self, name: str, rules: Optional[RuleBase] = None,
                 strategy: str = "exhaustive"):
        if strategy not in ("exhaustive", "once"):
            raise RegistrationError(f"unknown strategy {strategy!r}")
        self.name = name
        self.rules = rules if rules is not None else RuleBase()
        self.strategy = strategy
        self.stats = PhaseStats()
        self._timed = False
        self._memo: Dict[int, ast.Expr] = {}

    def root_classes(self) -> Optional[frozenset]:
        """:meth:`RuleBase.root_classes` of this phase's rules.  When no
        node of any member class occurs in an expression, the phase is
        provably identity on it (the absence-proof skipping)."""
        return self.rules.root_classes()

    def run(self, expr: ast.Expr, instrument: bool = False,
            memo: Optional[Dict[int, ast.Expr]] = None) -> ast.Expr:
        """Apply this phase's rules to ``expr`` under its strategy.

        With ``instrument=True`` the phase additionally records its
        wall-clock time and cumulative per-rule attempt timings into
        :attr:`stats` (a per-attempt clock read — only paid when an
        enabled tracer asked for it).

        ``memo`` maps ``id(node)`` to each node proven irreducible under
        these rules (the value keeps the id unique); the run reads and
        extends it.  A pass stops at a memoised node, and ``passes``
        counts only the walks whose root was not yet proven normal.
        """
        self.stats = PhaseStats()
        if not len(self.rules):
            return expr
        self._timed = instrument
        self._memo = {} if memo is None else memo
        started = time.perf_counter() if instrument else 0.0
        passes = 1 if self.strategy == "once" else self.MAX_PASSES
        try:
            for _ in range(passes):
                if id(expr) in self._memo:
                    break
                self._visited = 0
                expr, changed = self._bottom_up_pass(expr)
                self.stats.passes += 1
                # the size cap counts the nodes this pass visited
                if not changed or self._visited > self.MAX_NODES:
                    break
        except RecursionError:
            # the expression out-nests the host stack: optimization must
            # stay transparent, so hand back the best expression so far
            pass
        self._memo = {}
        if instrument:
            self.stats.seconds = time.perf_counter() - started
        return expr

    def _bottom_up_pass(self, expr: ast.Expr) -> Tuple[ast.Expr, bool]:
        memo = self._memo
        if id(expr) in memo:
            return expr, False
        self._visited += 1
        changed = False
        new_children = []
        dirty = False
        for child, _ in expr.parts():
            new_child, child_changed = self._bottom_up_pass(child)
            new_children.append(new_child)
            dirty = dirty or child_changed
        if dirty:
            expr = expr.with_parts(new_children)
            changed = True
        for _ in range(self.MAX_LOCAL):
            rewritten = self._apply_first(expr)
            if rewritten is None:
                break
            expr = rewritten
            changed = True
        if not changed:
            memo[id(expr)] = expr
        return expr, changed

    def _apply_first(self, expr: ast.Expr) -> Optional[ast.Expr]:
        # progress is detected by identity, not structural equality: the
        # rule contract (see Rule) is "None or a new node", so comparing
        # whole subtrees on every firing would be pure overhead.  An
        # instrumented run reads the clock once per attempted rule
        stats, timed = self.stats, self._timed
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
        """Each phase with its rule base's version: equal tuples mean
        the same phases over the same rule sets."""
        return tuple((phase, phase.rules.version) for phase in self.phases)

    def optimize(self, expr: ast.Expr, tracer=NULL_TRACER) -> ast.Expr:
        """Run every phase in order.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer` or the shared
        null) wraps each phase in a span; an enabled tracer also turns
        on the per-rule timing instrumentation of :meth:`Phase.run`.
        Phases whose rule bases hold the same rules, in the same order,
        share one irreducibility memo for the call.
        """
        instrument = tracer.enabled
        memos: Dict[Tuple[int, ...], Dict[int, ast.Expr]] = {}
        for phase in self.phases:
            with tracer.span(f"phase:{phase.name}"):
                roots = phase.root_classes()
                if roots is not None and not has_class(expr, roots):
                    # no rule can match any node: the phase is provably
                    # identity.  Its span still shows, with the reason
                    phase.stats = PhaseStats(skipped="absent-roots")
                    if instrument:
                        tracer.annotate(passes=0, firings=0,
                                        skipped="absent-roots")
                    continue
                memo = memos.setdefault(tuple(map(id, phase.rules)), {})
                expr = phase.run(expr, instrument=instrument, memo=memo)
                if instrument:
                    tracer.annotate(passes=phase.stats.passes,
                                    firings=phase.stats.applications)
        return expr

    def report(self) -> Dict[str, PhaseStats]:
        """Per-phase statistics from the most recent :meth:`optimize`."""
        return {phase.name: phase.stats for phase in self.phases}


def default_optimizer(assume_error_free: bool = True) -> Optimizer:
    """The stock pipeline: normalize → bounds → cleanup → code motion.

    Mirrors Section 5: "We have implemented normalization and constraint
    elimination as the first two phases of our optimizer."  The final
    cleanup pass re-runs normalization to collapse the conditionals that
    bounds elimination turned into constants.

    ``assume_error_free`` controls the guard on δ^p and its relatives.
    The paper's derivations apply these rules under the assumption that
    "no bounds errors were present in the original code" (Section 5), so
    that is the default; pass ``False`` for the strictly-sound pipeline
    that preserves ⊥-behaviour exactly.
    """
    from repro.optimizer.rules_arith import arith_rules
    from repro.optimizer.rules_arrays import array_rules
    from repro.optimizer.rules_bounds import bounds_rules
    from repro.optimizer.rules_motion import motion_rules
    from repro.optimizer.rules_nrc import nrc_rules

    # normalize and cleanup are two rule bases over the same Rule
    # objects, so cleanup skips every subterm normalize proved normal
    # and bounds left alone; registering into one separates them
    normalization = (nrc_rules(assume_error_free)
                     + array_rules(assume_error_free)
                     + arith_rules(assume_error_free))
    # bounds elimination produces `if true/...` residue; fold it eagerly
    bounds = bounds_rules() + nrc_rules(assume_error_free)
    # code motion runs LAST: the hoisted β-redexes it builds must not be
    # re-inlined by a later normalization pass
    return Optimizer([
        Phase("normalize", RuleBase(normalization)),
        Phase("bounds", RuleBase(bounds)),
        Phase("cleanup", RuleBase(normalization)),
        Phase("motion", RuleBase(motion_rules())),
    ])


__all__ = [
    "Rule", "RuleBase", "Phase", "PhaseStats", "Optimizer",
    "default_optimizer",
]

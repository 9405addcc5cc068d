"""The pre-worklist restart-sweep rewrite loops: the fixed-point oracle.

Faithful ports of the rewrite loops this repository used before the
worklist rewrite engine landed, kept as an independent oracle (the
worklist tests require the worklist engine to reach the same printed
IR):

* :func:`apply_patterns_restart_sweep` — the old greedy driver: re-walk the
  whole module under the root after every sweep that made a change;
* :func:`erase_dead_ops_sweep` — the old DCE: full re-walks until a walk
  erases nothing;
* :class:`LegacyCanonicalizePass` — the old canonicalization loop (bounded
  restart sweeps of fold/simplify + sweep DCE).

Their speed against the worklist engine is recorded in ``BENCH_2.json``.
"""

from __future__ import annotations

import warnings
from typing import Iterable, List

from repro.ir import IRError, Operation, Trait, has_trait
from repro.transforms.canonicalize import (
    _effects_are_unobservable,
    _erase_write_only_allocations,
    _simplify_identities,
    fold_operation,
)
from repro.transforms.pass_manager import CompileReport, FunctionPass
from repro.transforms.rewrite import (
    MAX_PATTERN_ITERATIONS,
    NonConvergenceWarning,
    PatternRewriter,
    RewritePattern,
)
from repro.dialects.func import FuncOp

_MAX_SWEEPS = 16


def apply_patterns_restart_sweep(root: Operation,
                                 patterns: Iterable[RewritePattern],
                                 max_iterations: int = MAX_PATTERN_ITERATIONS,
                                 on_nonconvergence: str = "warn") -> bool:
    """The old greedy driver: restart a full sweep after every change."""
    if on_nonconvergence not in ("warn", "error"):
        raise ValueError(
            f"on_nonconvergence must be 'warn' or 'error', "
            f"got {on_nonconvergence!r}")
    pattern_list: List[RewritePattern] = list(patterns)
    changed_any = False
    converged = False
    for _ in range(max_iterations):
        rewriter = PatternRewriter()
        sweep_changed = False
        for op in list(root.walk(include_self=False)):
            if op.parent is None:
                continue  # already erased during this sweep
            for pattern in pattern_list:
                if pattern.ROOT_OP is not None and op.name != pattern.ROOT_OP:
                    continue
                rewriter.set_insertion_point_before(op)
                try:
                    applied = pattern.match_and_rewrite(op, rewriter)
                except IRError:
                    applied = False
                if applied:
                    sweep_changed = True
                    break
        if not sweep_changed:
            converged = True
            break
        changed_any = True
    if not converged:
        names = ", ".join(sorted({type(p).__name__ for p in pattern_list}))
        message = (
            f"greedy pattern application on '{root.name}' did not converge "
            f"within {max_iterations} iterations; the IR may not be fully "
            f"normalized (patterns: {names})")
        if on_nonconvergence == "error":
            raise IRError(message)
        warnings.warn(message, NonConvergenceWarning, stacklevel=2)
    return changed_any


def _is_dead_in_sweep(op: Operation) -> bool:
    from repro.ir import is_side_effect_free

    if op.parent is None or has_trait(op, Trait.TERMINATOR):
        return False
    if has_trait(op, Trait.SYMBOL) or op.regions:
        return False
    if op.has_uses() or not op.results:
        return False
    return is_side_effect_free(op) or _effects_are_unobservable(op)


def erase_dead_ops_sweep(root: Operation) -> int:
    """The old DCE: keep re-walking the whole tree until nothing changes."""
    erased = 0
    changed = True
    while changed:
        changed = False
        for op in list(root.walk(include_self=False)):
            if not _is_dead_in_sweep(op):
                continue
            op.erase()
            erased += 1
            changed = True
        erased_allocs = len(_erase_write_only_allocations(root))
        if erased_allocs:
            erased += erased_allocs
            changed = True
    return erased


class LegacyCanonicalizePass(FunctionPass):
    """The old canonicalization: bounded restart sweeps + sweep DCE."""

    NAME = "canonicalize-legacy"

    def run_on_function(self, function: FuncOp, report: CompileReport) -> None:
        for _ in range(_MAX_SWEEPS):
            changed = False
            for op in list(function.walk(include_self=False)):
                if op.parent is None:
                    continue
                if fold_operation(op):
                    report.add_statistic(self.NAME, "ops_folded")
                    changed = True
                    continue
                if _simplify_identities(op):
                    report.add_statistic(self.NAME, "identities_simplified")
                    changed = True
            erased = erase_dead_ops_sweep(function)
            if erased:
                report.add_statistic(self.NAME, "dead_ops_erased", erased)
                changed = True
            if not changed:
                break

"""A warm-starting branch-and-bound MILP solver built on LP relaxations.

This is the pure-Python stand-in for CPLEX's MILP search.  It implements the
textbook algorithm the paper relies on ("standard branch and bound
algorithms", §III-B):

* best-bound node selection with a priority queue,
* branching on the most fractional integer variable,
* LP relaxations solved via :mod:`repro.milp.lp_backend`,
* incumbent tracking, and
* wall-clock time limits after which the best incumbent found so far is
  returned — exactly how SQPR uses its solver ("prematurely terminate the
  branch and bound algorithm after a given time interval and use the best
  solution that the method found").

Two reuse mechanisms speed up the search (both on by default):

* **Basis warm starts** — a child node differs from its parent by a single
  bound change, so its LP relaxation is re-solved starting from the
  parent's optimal :class:`~repro.milp.simplex.SimplexBasis` instead of
  from scratch (simplex engine only; scipy re-solves cold).
* **Incumbent seeding** — when the model carries a warm-start hint (see
  :meth:`Model.set_warm_start`; the SQPR planner passes the previous
  planning round's deployed placement), a feasible hint becomes the initial
  incumbent, so large parts of the tree are pruned before the first branch.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.milp.lp_backend import solve_lp
from repro.milp.model import Model
from repro.milp.result import SolveResult, SolveStatus
from repro.milp.simplex import SimplexBasis, SolverCounters
from repro.milp.standard_form import (
    StandardForm,
    round_integers,
    seed_incumbent,
    to_standard_form,
)
from repro.utils.timer import Deadline

_INT_TOL = 1e-6


@dataclass
class BnbOptions:
    """Tuning knobs for the branch-and-bound search."""

    time_limit: Optional[float] = None
    node_limit: int = 200_000
    relative_gap: float = 1e-6
    absolute_gap: float = 1e-9
    lp_engine: str = "auto"
    warm_start: bool = True  # parent-basis warm starts + incumbent seeding


class _Node:
    """A branch-and-bound node: variable bounds, parent bound, parent basis."""

    __slots__ = ("lower", "upper", "bound", "basis")

    def __init__(
        self,
        lower: np.ndarray,
        upper: np.ndarray,
        bound: float,
        basis: Optional[SimplexBasis] = None,
    ) -> None:
        self.lower = lower
        self.upper = upper
        self.bound = bound
        self.basis = basis


def _most_fractional(x: np.ndarray, integrality: np.ndarray) -> int:
    """Index of the integer variable whose value is most fractional, or -1."""
    best_index = -1
    best_score = _INT_TOL
    for i in np.nonzero(integrality > 0.5)[0]:
        frac = abs(x[i] - round(x[i]))
        score = 0.5 - abs(frac - 0.5)
        if score > best_score:
            best_score = score
            best_index = int(i)
    return best_index


def solve_branch_and_bound(model: Model, options: Optional[BnbOptions] = None) -> SolveResult:
    """Solve ``model`` with branch and bound and return the best incumbent."""
    options = options or BnbOptions()
    deadline = Deadline(options.time_limit)
    form = to_standard_form(model)
    result = _search(model, form, options, deadline)
    result.backend = "branch_and_bound"
    result.solve_time = deadline.elapsed()
    return result


def _search(
    model: Model, form: StandardForm, options: BnbOptions, deadline: Deadline
) -> SolveResult:
    c, a_ub, b_ub, a_eq, b_eq = form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq
    integrality = form.integrality
    # Summed over every node LP (the simplex engine reports per-solve
    # counters; scipy/dense report none and contribute nothing).
    counters = SolverCounters()

    def lp(lower: np.ndarray, upper: np.ndarray, warm: Optional[SimplexBasis] = None):
        solution = solve_lp(
            c,
            a_ub,
            b_ub,
            a_eq,
            b_eq,
            lower,
            upper,
            engine=options.lp_engine,
            warm_basis=warm if options.warm_start else None,
        )
        if solution.counters is not None:
            counters.add(solution.counters)
        return solution

    # The root relaxation resumes from the model's basis hint when one is
    # attached (the planner feeds back the previous solve's root basis, so a
    # perturbation re-solve starts with one dual-simplex walk instead of a
    # full primal phase 1).
    root = lp(form.lower, form.upper, warm=model.basis_hint)
    if root.status == "infeasible":
        return SolveResult(SolveStatus.INFEASIBLE, lp_counters=counters.to_dict())
    if root.status == "unbounded":
        return SolveResult(SolveStatus.UNBOUNDED, lp_counters=counters.to_dict())
    if not root.is_optimal:
        return SolveResult(SolveStatus.ERROR, lp_counters=counters.to_dict())
    root_basis = root.basis

    # Only the most recent solution keeps its basis *inverse* (so the next
    # node — usually a child of the node just solved — warm-starts without
    # refactorising).  Older bases are stripped to bound memory at one
    # m x m matrix regardless of heap size.
    hot_basis = root.basis

    def retire_hot(new_basis) -> None:
        nonlocal hot_basis
        if new_basis is None:
            return
        if hot_basis is not None and hot_basis is not new_basis:
            hot_basis.binv = None
        hot_basis = new_basis

    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = math.inf  # in minimisation space
    incumbent_source = "search"
    if options.warm_start:
        seeded = seed_incumbent(model, form)
        if seeded is not None:
            incumbent_x = seeded
            incumbent_obj = float(c @ seeded)
            incumbent_source = "start"
    best_bound = root.objective if root.objective is not None else -math.inf

    counter = itertools.count()
    heap: List[Tuple[float, int, _Node]] = []
    heapq.heappush(
        heap,
        (
            root.objective,
            next(counter),
            _Node(form.lower.copy(), form.upper.copy(), root.objective, root.basis),
        ),
    )
    nodes_processed = 0
    hit_limit = False
    gap_closed = False
    # A node LP that fails for numerical reasons (iteration limit, singular
    # refactorisation) silently drops its subtree; remember that so the
    # final incumbent is never over-claimed as proven OPTIMAL.
    subtree_lost = False

    while heap:
        if deadline.expired() or nodes_processed >= options.node_limit:
            hit_limit = True
            break
        bound, _, node = heapq.heappop(heap)
        best_bound = bound
        if incumbent_x is not None:
            gap = incumbent_obj - bound
            if gap <= options.absolute_gap or gap <= options.relative_gap * max(1.0, abs(incumbent_obj)):
                gap_closed = True
                break
        relaxation = lp(node.lower, node.upper, warm=node.basis)
        nodes_processed += 1
        retire_hot(relaxation.basis)
        if not relaxation.is_optimal:
            if relaxation.status != "infeasible":
                subtree_lost = True
            continue
        if relaxation.objective is None or relaxation.objective >= incumbent_obj - options.absolute_gap:
            continue
        x = relaxation.x
        branch_var = _most_fractional(x, integrality)
        if branch_var < 0:
            candidate = round_integers(x, integrality)
            obj = float(c @ candidate)
            if obj < incumbent_obj:
                incumbent_obj = obj
                incumbent_x = candidate
                incumbent_source = "search"
            continue
        value = x[branch_var]
        floor_val = math.floor(value + _INT_TOL)
        ceil_val = floor_val + 1
        # Down branch: upper bound <- floor.
        if floor_val >= node.lower[branch_var] - _INT_TOL:
            lower_d, upper_d = node.lower.copy(), node.upper.copy()
            upper_d[branch_var] = floor_val
            heapq.heappush(
                heap,
                (
                    relaxation.objective,
                    next(counter),
                    _Node(lower_d, upper_d, relaxation.objective, relaxation.basis),
                ),
            )
        # Up branch: lower bound <- ceil.
        if ceil_val <= node.upper[branch_var] + _INT_TOL:
            lower_u, upper_u = node.lower.copy(), node.upper.copy()
            lower_u[branch_var] = ceil_val
            heapq.heappush(
                heap,
                (
                    relaxation.objective,
                    next(counter),
                    _Node(lower_u, upper_u, relaxation.objective, relaxation.basis),
                ),
            )

    if incumbent_x is None:
        if hit_limit or subtree_lost:
            # Without a full tree walk there is no infeasibility proof.
            return SolveResult(
                SolveStatus.TIMEOUT, nodes=nodes_processed, lp_counters=counters.to_dict()
            )
        return SolveResult(
            SolveStatus.INFEASIBLE, nodes=nodes_processed, lp_counters=counters.to_dict()
        )

    # The incumbent is optimal when the search tree was exhausted or the
    # best remaining bound came within the configured gap of the incumbent —
    # unless a subtree was lost to an LP failure, in which case the proof
    # does not cover the whole tree.
    if not subtree_lost and (gap_closed or (not heap and not hit_limit)):
        status = SolveStatus.OPTIMAL
    else:
        status = SolveStatus.FEASIBLE
    values = form.assignment(incumbent_x)
    model_obj = form.objective_sign * incumbent_obj + form.objective_offset
    model_bound = form.objective_sign * best_bound + form.objective_offset
    return SolveResult(
        status=status,
        objective=model_obj,
        values=values,
        bound=model_bound,
        nodes=nodes_processed,
        lp_counters=counters.to_dict(),
        root_basis=root_basis,
        incumbent_source=incumbent_source,
    )

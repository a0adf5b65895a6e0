"""Exact solver: the paper's boolean ILP (Eqs. 8-14) and its LP relaxation."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.ilp.formulation import (
        ILPProblem as ILPProblem,
        build_problem as build_problem,
    )
    from repro.ilp.receding import (
        RecedingHorizonResult as RecedingHorizonResult,
        RecedingHorizonSolver as RecedingHorizonSolver,
    )
    from repro.ilp.relaxation import (
        RelaxationResult as RelaxationResult,
        solve_relaxation as solve_relaxation,
    )
    from repro.ilp.solver import (
        ILPResult as ILPResult,
        solve_ilp as solve_ilp,
        solve_problem as solve_problem,
    )

__getattr__, __dir__, __all__ = lazy_exports(globals())

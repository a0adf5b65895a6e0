"""Experiment harness: scenario configs, runners, and the per-figure
reproduction functions."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# This block is the export declaration: repro._lazy reads it at import.
if TYPE_CHECKING:
    from repro.experiments.config import (
        DEFAULT_SEEDS as DEFAULT_SEEDS,
        ScenarioConfig as ScenarioConfig,
    )
    from repro.experiments.figures import (
        ablation_initial_wake as ablation_initial_wake,
        ablation_sleep_policy as ablation_sleep_policy,
        ablation_zoo as ablation_zoo,
        fig2 as fig2,
        fig3 as fig3,
        fig4 as fig4,
        fig5 as fig5,
        fig6 as fig6,
        fig7 as fig7,
        fig8 as fig8,
        fig9 as fig9,
        format_table as format_table,
        ilp_gap as ilp_gap,
    )
    from repro.experiments.runner import (
        AveragedComparison as AveragedComparison,
        ComparisonResult as ComparisonResult,
        RunResult as RunResult,
        compare as compare,
        compare_averaged as compare_averaged,
        run_once as run_once,
    )
    from repro.experiments.tables import table1 as table1, table2 as table2

__getattr__, __dir__, __all__ = lazy_exports(globals())

"""Fiber lookup kept for the benchmark harness: every fiber is computed."""

from __future__ import annotations

from . import factor, models


# No code in the package calls this. perfbench/trace_child.py imports the
# module and wraps load_or_compute, so the stub stays until it does not.
def load_or_compute(
    desc: models.MonoidDescriptor,
    el,
    budget: int = factor.DEFAULT_BUDGET,
    cache_dir: str | None = None,
) -> factor.FactorSet:
    """``factor.factorizations(desc, el, budget)``; ``cache_dir`` is ignored."""
    return factor.factorizations(desc, el, budget)

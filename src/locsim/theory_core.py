"""Generic screen-then-correct composition.

The budget alpha is split into a screening part nu (used to build the
plausible target set) and an inference part alpha - nu (used for the
simultaneous correction over the plausible set).  This module only enforces
the budget contract; winner.PlausibleSet enforces the nesting contract, and
each concrete problem supplies its own collapsed closed-form margins.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BudgetSplit", "BudgetError", "compose"]


class BudgetError(ValueError):
    """Invalid (alpha, nu) budget split."""


@dataclass(frozen=True)
class BudgetSplit:
    """Error budget: nu for screening, alpha - nu for inference."""

    alpha: float
    nu: float

    def __post_init__(self):
        if not (0.0 < self.nu < self.alpha < 1.0):
            raise BudgetError(
                f"need 0 < nu < alpha < 1, got alpha={self.alpha}, nu={self.nu}"
            )

    @classmethod
    def default(cls, alpha: float) -> "BudgetSplit":
        """Default split: 10% of the budget on screening, 90% on inference."""
        return cls(alpha, 0.1 * alpha)

    @property
    def inference_level(self) -> float:
        return self.alpha - self.nu


def compose(screen, correct, budget: BudgetSplit):
    """Build an inference procedure from a screener and a nested corrector.

    ``screen(y, nu, rng)`` must return the PlausibleSet it screened, which
    contains the realized selection.  ``correct(y, indices, level, rng)``
    must produce simultaneous confidence regions at the given level and be
    nested: a larger index set can only widen the regions.  The composed
    procedure ``(y, rng) -> (intervals, plausible)`` screens at nu and
    corrects at alpha - nu; it adds no statistics of its own.
    """

    def procedure(y, rng):
        plausible = screen(y, budget.nu, rng.child(0))
        intervals = correct(y, plausible.indices, budget.inference_level, rng.child(1))
        return intervals, plausible

    return procedure

"""Shared test data: the standard schedule set of criteria 2 and 3."""

from dataclasses import dataclass

import pytest

from socialbayes.schedules import (
    GraphSchedule,
    make_periodic_schedule,
    make_random_schedule,
)


@dataclass(frozen=True)
class StandardCase:
    """One entry of the standard verification suite."""

    label: str
    schedule: GraphSchedule
    kappa: int


@pytest.fixture
def standard_cases() -> list[StandardCase]:
    """Periodic ring and seeded random schedules (horizon 1000) over an
    n x kappa grid, built afresh for each test."""
    cases = []
    for n in (2, 4, 8, 10):
        for kappa in (1, 3, 5):
            cases.append(StandardCase(
                f"periodic[n={n},kappa={kappa}]",
                make_periodic_schedule(n, kappa, "ring"), kappa))
            cases.append(StandardCase(
                f"random[n={n},kappa={kappa}]",
                make_random_schedule(n, kappa, 0.2, seed=7000 + 10 * n + kappa,
                                     horizon=1000), kappa))
    return cases

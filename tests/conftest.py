"""Shared test data: the standard schedule set of criteria 2 and 3, and
a float64-stack reference schedule."""

from dataclasses import dataclass

import numpy as np
import pytest

from socialbayes.schedules import (
    GraphSchedule,
    RandomSchedule,
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


class FloatStacks(GraphSchedule):
    """A random schedule's steps compiled as float64 0/1 stacks, in blocks
    sized for them (8 bytes an entry: 25 steps at n = 100), where the
    schedule's own blocks hold bool stacks.  Every kernel must give bitwise
    the same results on both, so casting a bool pattern to float64 where
    the arithmetic needs it changes no bit."""

    def __init__(self, schedule: RandomSchedule):
        super().__init__(schedule.n, schedule.horizon)
        self._schedule = schedule
        self._step_bytes = 8 * ((self.n + 1) ** 2 + self.n + 2)

    def edges_at(self, t):
        return self._schedule.edges_at(t)

    def _compile(self, start, stop):
        blk = self._schedule._compile(start, stop)
        stack = blk.adjacency.astype(np.float64)
        stack.flags.writeable = False
        return blk._replace(adjacency=stack)

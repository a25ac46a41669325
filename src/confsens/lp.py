"""Linear programs through SciPy's HiGHS solver.

A thin adapter over `scipy.optimize.linprog(method="highs")` (Huangfu &
Hall 2018) that keeps the package's small result type: a status string,
and the solution and objective value only when the status is optimal.
Variable bounds go to `linprog` as its own data, so a weight box costs
no constraint rows.  `scipy.optimize` is imported on the first solve,
not with the package: the default propensity balance row never reaches
an LP, and the command-line tools should not pay for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LpResult", "solve_lp"]

# linprog status codes that describe the program, not a solver failure
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
             bounds=(0, None)) -> LpResult:
    """Solve max c.x subject to A_ub x <= b_ub, A_eq x = b_eq and
    the variable bounds, given as `linprog` takes them: one (lo, hi) pair
    for every variable or one row per variable, None for no bound."""
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    if A_ub is None and A_eq is None:
        raise ValueError("no constraints")
    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                  b_eq=b_eq, bounds=bounds, method="highs")
    if res.status not in _STATUS:
        raise RuntimeError(f"LP solve failed: {res.message}")
    if res.status != 0:
        return LpResult(_STATUS[res.status], None, None)
    return LpResult("optimal", res.x, float(c @ res.x))

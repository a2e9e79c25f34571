"""Global rule application, trajectory evolution, space-time rendering."""
from __future__ import annotations

from dataclasses import dataclass

from .lattice import Configuration
from .rule import RuleTable

_WINDOW_MASK = 0x1FF


def default_budget(n: int, budget: int | None = None) -> int:
    """The step cap: ``budget``, at least 1, or 4n² (convergence stays near 1.5n)."""
    if budget is None:
        return 4 * n * n
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return budget


def step(rule: RuleTable, x: Configuration) -> Configuration:
    """One synchronous update: every cell reads its nine-cell window.

    The window slides one cell at a time, so each step costs O(n) lookups.
    Indices wrap modulo n; for n < 9 a cell may appear several times in
    one window, which is exactly the behaviour of the concatenated lift.
    """
    n = x.n
    bits = x.bits
    outputs = rule.outputs
    code = 0
    for j in range(-4, 5):
        code = (code << 1) | ((bits >> (j % n)) & 1)
    out = outputs[code]
    for i in range(1, n):
        code = ((code << 1) & _WINDOW_MASK) | ((bits >> ((i + 4) % n)) & 1)
        out |= outputs[code] << i
    return Configuration(n=n, bits=out)


@dataclass(frozen=True)
class Converged:
    """Reached a fixed point at step t0; stays there forever."""

    fixed_point: Configuration
    t0: int


@dataclass(frozen=True)
class Cycle:
    """The state at step ``entry`` recurs exactly after ``period`` steps.

    ``displacement`` is the rotation offset d of the earliest recurrence up
    to rotation: after ``displacement_steps`` further steps the entry state
    reappears shifted by d cells (d = 0, steps = period when the cycle has
    no drift).
    """

    entry: int
    period: int
    displacement: int
    displacement_steps: int


@dataclass(frozen=True)
class BudgetExceeded:
    """No fixed point or recurrence within the step budget."""

    steps: int


Outcome = Converged | Cycle | BudgetExceeded


def evolve(rule: RuleTable, x: Configuration, budget: int | None = None) -> Outcome:
    """Iterate the rule until a fixed point, a recurrence, or the budget.

    Every visited state is hashed, so any exact recurrence is caught the
    moment it happens. Rotation displacement is derived afterwards by
    scanning the cycle for rotations of its entry state.
    """
    budget = default_budget(x.n, budget)
    seen = {x: 0}
    cur = x
    for t in range(1, budget + 1):
        nxt = step(rule, cur)
        if nxt == cur:
            return Converged(fixed_point=cur, t0=t - 1)
        entry = seen.get(nxt)
        if entry is not None:
            period = t - entry
            steps, d = _cycle_displacement(list(seen)[entry:], period)
            return Cycle(entry=entry, period=period, displacement=d,
                         displacement_steps=steps)
        seen[nxt] = t
        cur = nxt
    return BudgetExceeded(steps=budget)


def _cycle_displacement(cycle: list[Configuration], period: int) -> tuple[int, int]:
    """Earliest step count at which the cycle revisits a rotation of its start."""
    base = str(cycle[0])
    doubled = base + base
    for steps in range(1, period):
        d = doubled.find(str(cycle[steps]))
        if 0 <= d < len(base):
            return steps, d
    return period, 0


@dataclass(frozen=True)
class SpaceTimeDiagram:
    """Row t is the configuration after t rule applications."""

    rows: tuple[Configuration, ...]

    @property
    def width(self) -> int:
        return self.rows[0].n

    @property
    def height(self) -> int:
        return len(self.rows)


def space_time(rule: RuleTable, x: Configuration, steps: int) -> SpaceTimeDiagram:
    rows = [x]
    for _ in range(steps):
        rows.append(step(rule, rows[-1]))
    return SpaceTimeDiagram(rows=tuple(rows))


def render_text(diagram: SpaceTimeDiagram) -> str:
    """One configuration per line, verbatim."""
    return "\n".join(str(row) for row in diagram.rows)


def render_pbm(diagram: SpaceTimeDiagram) -> str:
    """Plain PBM (P1); cell value 1 is rendered black."""
    lines = [f"P1\n{diagram.width} {diagram.height}"]
    for row in diagram.rows:
        lines.append(" ".join(str(row)))
    return "\n".join(lines) + "\n"


def outcome_json(outcome: Outcome) -> dict:
    if isinstance(outcome, Converged):
        return {
            "kind": "converged",
            "fixed_point": str(outcome.fixed_point),
            "t0": outcome.t0,
        }
    if isinstance(outcome, Cycle):
        return {
            "kind": "cycle",
            "entry": outcome.entry,
            "period": outcome.period,
            "displacement": outcome.displacement,
            "displacement_steps": outcome.displacement_steps,
        }
    return {"kind": "budget_exceeded", "steps": outcome.steps}


def trajectory_json(rule: RuleTable, diagram: SpaceTimeDiagram, outcome: Outcome) -> dict:
    return {
        "rule": rule.variant,
        "initial": str(diagram.rows[0]),
        "rows": [str(row) for row in diagram.rows],
        "outcome": outcome_json(outcome),
    }

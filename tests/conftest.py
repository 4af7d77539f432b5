"""Shared pytest plumbing.

The acceptance tests record one human-readable line per criterion; the
terminal-summary hook replays them after the run so the pass/fail ledger
is visible without -s. solve_cut_and_fixed and assert_cut_agrees hold
solve's grid cut to the run that never cuts, and logged_cuts lists the
cuts a block makes, for the solver, CLI and property tests alike.
sliced_band_extrema and sliced_halvings read the bands a halving drops by
slicing them one at a time, the reference for grid's band reducer.
"""

import contextlib
import logging

import numpy as np
import pytest

from mixheat import grid, solver
from mixheat.grid import _band_walk, _bands

_CRITERION_LINES = []


def record_criterion(line: str) -> None:
    _CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)


class _CutLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.cuts = []

    def emit(self, record):
        if record.getMessage().startswith("solve cut"):
            self.cuts.append(record.args[1:3])


@contextlib.contextmanager
def logged_cuts():
    """Yield a list that collects the (points, coarse points) of each grid
    cut solve logs inside the block."""
    handler = _CutLog()
    log = logging.getLogger("mixheat.solver")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield handler.cuts
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def sliced_band_extrema(g, values, reduce):
    """reduce (np.max or np.min) of half-lattice values over each band a
    halving of g drops, sliced band by band: from index c up on the last
    axis, and rows c to n - c of the leading one."""
    n = g.points
    return [reduce([reduce(values[..., c:]), reduce(values[c:n - c + 1])]) for c in _bands(g)]


def sliced_halvings(g, magnitude):
    """How often g may halve under a half spectrum whose moduli are
    `magnitude`, from its sliced band maxima."""
    return _band_walk(float(magnitude.flat[0]), sliced_band_extrema(g, magnitude, np.max))


def solve_cut_and_fixed(problem, schedule):
    """solve's run, and the same run kept on the problem's grid throughout
    (a _CUT_TOL below any spectrum's ratio, so no knot cuts)."""
    cut = solver.solve(problem, schedule)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "_CUT_TOL", -1.0)
        fixed = solver.solve(problem, schedule)
    return cut, fixed


def assert_cut_agrees(cut, fixed):
    """Mass and l2 to 1e-12 relative; absorbed, a sum of mass differences
    whose roundoff scales with the initial mass, to 1e-12 of it; linf,
    read after a cut from the coarse state's interpolant on the problem's
    grid, to 1e-9 relative; every snapshot, on the problem's grid, to
    1e-12 of its maximum."""
    a, b = cut.trace, fixed.trace
    assert np.array_equal(a.times, b.times)
    np.testing.assert_allclose(a.mass, b.mass, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(a.l2, b.l2, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(a.absorbed, b.absorbed, rtol=0.0,
                               atol=1e-12 * b.initial_mass)
    np.testing.assert_allclose(a.linf, b.linf, rtol=1e-9, atol=0.0)
    assert len(cut.snapshots) == len(fixed.snapshots)
    for s, f in zip(cut.snapshots, fixed.snapshots):
        assert s.grid == f.grid
        np.testing.assert_allclose(s.values, f.values, rtol=0.0,
                                   atol=1e-12 * f.values.max())

"""Golden-value and invariant tests for the grid censuses.

The golden numbers below were produced by this engine and cross-checked
against an independent prototype implementation; they pin the census
semantics (candidate SAT tests, reach radii, tie-breaking scan order) at
the two coarse steps that run quickly.  The refinement test checks the
defining conservativity property: lower censuses only grow and upper
censuses only shrink as the grid is refined.
"""

from __future__ import annotations

import math
import sys

import pytest

from knnlab._census import (
    census_H_minus,
    census_H_plus,
    census_L_minus,
    census_L_plus,
    validate_step,
)


def test_validate_step_guards():
    validate_step(0.004)
    validate_step(0.02)
    with pytest.raises(ValueError):
        validate_step(0.0)
    with pytest.raises(ValueError):
        validate_step(0.025)
    with pytest.raises(ValueError):
        validate_step(0.003)  # 1/s is not an integer


def test_outcome_area_is_count_times_square_step():
    out = census_L_plus(0.008)
    assert out.area == pytest.approx(out.count * 0.008 * 0.008, rel=1e-15)
    assert out.step == 0.008


GOLDEN_0008 = {
    "lplus": (0.320896, 5014, (0.5, 0.188)),
    "lminus": (0.337600, 5275, (0.492, -0.38)),
    "hplus": (0.162304, 2536, (0.5, 0.292)),
    "hminus": (0.106752, 1668, (0.5, -0.436)),
    "hminus_cover": (0.119424, 1866, (0.5, -0.436)),
}

GOLDEN_0004 = {
    "lplus": (0.333488, 20843, (0.498, 0.19)),
    "lminus": (0.347088, 21693, (0.498, -0.382)),
    "hplus": (0.139200, 8700, (0.498, 0.29)),
    "hminus": (0.098336, 6146, (0.498, -0.434)),
}


def _run(name: str, s: float, **kw):
    if name == "lplus":
        return census_L_plus(s, **kw)
    if name == "lminus":
        return census_L_minus(s, **kw)
    if name == "hplus":
        return census_H_plus(s, **kw)
    if name == "hplus_intersection":
        return census_H_plus(s, exclusion="intersection", **kw)
    if name == "hminus":
        return census_H_minus(s, **kw)
    if name == "hminus_cover":
        return census_H_minus(s, semantics="cover", **kw)
    raise KeyError(name)


@pytest.mark.parametrize("name", sorted(GOLDEN_0008))
def test_census_goldens_step_0008(name):
    area, count, witness = GOLDEN_0008[name]
    out = _run(name, 0.008)
    assert out.count == count
    assert out.area == pytest.approx(area, abs=1e-12)
    assert out.witness[0] == pytest.approx(witness[0], abs=1e-12)
    assert out.witness[1] == pytest.approx(witness[1], abs=1e-12)


@pytest.mark.parametrize("name", sorted(GOLDEN_0004))
def test_census_goldens_step_0004(name):
    area, count, witness = GOLDEN_0004[name]
    out = _run(name, 0.004)
    assert out.count == count
    assert out.area == pytest.approx(area, abs=1e-12)
    assert out.witness[0] == pytest.approx(witness[0], abs=1e-12)
    assert out.witness[1] == pytest.approx(witness[1], abs=1e-12)


def test_refinement_monotonicity():
    steps = (0.008, 0.004, 0.002)
    lplus = [census_L_plus(s).area for s in steps]
    lminus = [census_L_minus(s).area for s in steps]
    hplus = [census_H_plus(s).area for s in steps]
    hminus = [census_H_minus(s).area for s in steps]
    assert lplus == sorted(lplus)
    assert lminus == sorted(lminus)
    assert hplus == sorted(hplus, reverse=True)
    assert hminus == sorted(hminus, reverse=True)


@pytest.mark.parametrize("name", ["hminus", "hminus_cover", "hplus",
                                  "hplus_intersection", "lminus", "lplus"])
def test_census_independent_of_thread_count(name):
    reference = _run(name, 0.008, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the worker threads finely
    try:
        for threads in (None, 2, 4):
            assert _run(name, 0.008, threads=threads) == reference
    finally:
        sys.setswitchinterval(interval)


def test_threaded_progress_is_monotone_and_completes():
    seen = []
    out = census_L_minus(0.008, threads=2,
                         progress=lambda done, total: seen.append((done, total)))
    dones = [done for done, _ in seen]
    assert dones == sorted(dones)
    assert {total for _, total in seen} == {out.candidates}
    assert seen[-1] == (out.candidates, out.candidates)


def test_hminus_universal_is_tighter_than_cover():
    for s in (0.008, 0.004):
        assert (census_H_minus(s).area
                < census_H_minus(s, semantics="cover").area)


def test_hminus_rejects_unknown_semantics():
    with pytest.raises(ValueError):
        census_H_minus(0.008, semantics="optimistic")


def test_hplus_exclusion_variants_ordered():
    # Excluding by lens only (the historical reading) removes fewer tiles,
    # so its census can only be larger.
    either = census_H_plus(0.008).area
    lens = census_H_plus(0.008, exclusion="intersection").area
    assert lens >= either


def test_progress_callback_reports_completion():
    seen = []

    def progress(done, total):
        seen.append((done, total))

    census_L_plus(0.02, progress=progress)
    assert seen, "progress callback never invoked"
    done, total = seen[-1]
    assert done == total

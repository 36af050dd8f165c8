"""Golden-value and invariant tests for the grid censuses.

The golden numbers below were produced by this engine and cross-checked
against an independent prototype implementation; they pin the census
semantics (candidate SAT tests, reach radii, tie-breaking scan order) at
the two coarse steps that run quickly.  The refinement test checks the
defining conservativity property: lower censuses only grow and upper
censuses only shrink as the grid is refined.  The row intervals of each
family's masks are checked against the masks over the whole grid, and the
row kernel's count of every candidate against a direct per-candidate 2-D
window count of the same family spec.  The pruned scan is checked against
the kernel over every candidate, and the tile set of each sampled block
bound, at every level of the block hierarchy, against the tile sets of
the block's members.  The scan's dive must reach its first exact count in
one bound call per block level, and L+'s reach must equal a plain
60-step bisection bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from knnlab import _census
from knnlab.regions import KITE, WEDGE_B1, WEDGE_B2
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


def _run(name: str, s: float):
    if name == "lplus":
        return census_L_plus(s)
    if name == "lminus":
        return census_L_minus(s)
    if name == "hplus":
        return census_H_plus(s)
    if name == "hplus_intersection":
        return census_H_plus(s, exclusion="intersection")
    if name == "hminus":
        return census_H_minus(s)
    if name == "hminus_cover":
        return census_H_minus(s, semantics="cover")
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


def test_progress_is_monotone_and_completes():
    seen = []
    out = census_L_minus(0.008,
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


FAMILIES = {
    "lplus": _census._L_plus,
    "lminus": _census._L_minus,
    "hplus": lambda s: _census._H_plus(s, "either"),
    "hplus_intersection": lambda s: _census._H_plus(s, "intersection"),
    "hminus": lambda s: _census._H_minus(s, "universal"),
    "hminus_cover": lambda s: _census._H_minus(s, "cover"),
}


def _window(ci, cj, x, y, reach):
    """The window of columns and rows that a binary search on the tile
    centres finds for ``reach`` about ``(x, y)``, the squared distances
    from ``(x, y)`` to its tile centres, and its tiles inside the disk."""
    ia = np.searchsorted(ci, x - reach, side="left")
    ib = np.searchsorted(ci, x + reach, side="right") if reach > 0.0 else ia
    ja = np.searchsorted(cj, y - reach, side="left")
    jb = np.searchsorted(cj, y + reach, side="right")
    cols, rows = slice(ia, ib), slice(ja, jb)
    dx = ci[cols, None] - x
    dy = cj[None, rows] - y
    d2 = dx * dx + dy * dy
    return cols, rows, d2, d2 <= reach * reach


def _window_counts(s, family):
    """Reference count of every candidate: mask the candidate's whole 2-D
    window of tiles with the disk test and the family's ``keep`` test."""
    xs, ys = _census._candidate_centers(s, family.hull)
    ci = (np.arange(math.floor(-0.35 / s), math.ceil(1.35 / s)) + 0.5) * s
    cj = (np.arange(*family.rows) + 0.5) * s
    static, _ = family.tiles(ci[:, None], cj[None, :], s)
    reach = family.reach_of(xs, ys, s)
    counts = np.zeros(xs.size, dtype=np.int64)
    for t in range(xs.size):
        cols, rows, d2, disk = _window(ci, cj, xs[t], ys[t], reach[t])
        counts[t] = np.count_nonzero(disk
                                     & family.keep(d2, static[cols, rows]))
    return xs, ys, counts


def _full_counts(s, family):
    """The kernel over every candidate: the full-scan reference."""
    u = _census._universe(s, family)
    xs, ys = _census._candidate_centers(s, family.hull)
    counts, _ = _census._counts(u, xs, ys, family.reach_of(xs, ys, s),
                                np.full(xs.size, u.C))
    return xs, ys, counts


@pytest.mark.parametrize("step", [0.02, 0.01, 0.008, 0.005])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_row_kernel_counts_match_window_reference(name, step):
    family = FAMILIES[name](step)
    xs, ys, reference = _window_counts(step, family)
    got_xs, got_ys, counts = _full_counts(step, family)
    assert np.array_equal(got_xs, xs) and np.array_equal(got_ys, ys)
    assert np.array_equal(counts, reference)


def _untrusted_chords(monkeypatch):
    # Flag every chord untrusted (and empty it).
    chord = _census._ellipse_chord

    def untrusted(*args):
        ca, _, ok = chord(*args)
        return ca, ca, np.zeros_like(ok)

    monkeypatch.setattr(_census, "_ellipse_chord", untrusted)


ELLIPSE_FAMILIES = ["hplus", "hplus_intersection", "lminus", "lplus"]


@pytest.mark.parametrize("name", ELLIPSE_FAMILIES)
def test_untrusted_rows_are_counted_tile_by_tile(name, monkeypatch):
    # Each row with ellipse tiles is counted by the per-tile recount alone.
    _untrusted_chords(monkeypatch)
    family = FAMILIES[name](0.01)
    _, _, counts = _full_counts(0.01, family)
    assert np.array_equal(counts, _window_counts(0.01, family)[2])


@pytest.mark.parametrize("name", ELLIPSE_FAMILIES)
def test_untrusted_block_bounds_are_never_pruned(name, monkeypatch):
    reference = _run(name, 0.01)
    _untrusted_chords(monkeypatch)
    family = FAMILIES[name](0.01)
    u = _census._universe(0.01, family)
    xs, ys = _census._candidate_centers(0.01, family.hull)
    reach = family.reach_of(xs, ys, 0.01)
    # The candidates whose enclosing block has an infinite bound at every
    # level of the hierarchy.
    untrusted = np.ones(xs.size, dtype=bool)
    for side in _census._SIDES:
        owner, _, block = _census._blocks(u, family, xs, ys, reach, side)
        untrusted &= np.isinf(_census._bound(u, family, *block))[owner]
    assert untrusted.any()
    # Record the candidates counted exactly (the family's own focal sum).
    kernel, seen = _census._counts, []

    def spy(u, px, py, reach, C):
        if np.all(C == u.C):
            seen.extend(zip(px, py))
        return kernel(u, px, py, reach, C)

    monkeypatch.setattr(_census, "_counts", spy)
    out = _run(name, 0.01)
    assert out.counted == len(seen) == len(set(seen))
    assert {(xs[t], ys[t]) for t in np.flatnonzero(untrusted)} <= set(seen)
    assert (out.count, out.witness) == (reference.count, reference.witness)


def _keep_tiles(ci, cj, static, family, x, y, reach):
    """The universe tiles a candidate counts, by its window, disk and
    ``keep`` tests."""
    cols, rows, d2, disk = _window(ci, cj, x, y, reach)
    tiles = np.zeros((ci.size, cj.size), dtype=bool)
    tiles[cols, rows] = disk & family.keep(d2, static[cols, rows])
    return tiles


def _term_tiles(ci, cj, terms, x, y, reach, C):
    """The universe tiles a point counts by the family's terms with focal
    sum ``C``: positive terms' tiles less negative terms' tiles, each cut
    by the float test of its joining ellipse."""
    cols, rows, d2, disk = _window(ci, cj, x, y, reach)
    held = {1: np.zeros_like(disk), -1: np.zeros_like(disk)}
    for mask, sign, focus in terms:
        sel = mask[cols, rows] & disk
        if focus is not None:
            t = C - np.hypot(ci[cols, None] - _census._FOCI[focus][0],
                             cj[None, rows])
            sel &= (t > 0.0) & (d2 <= t * t)
        held[sign] |= sel
    assert not (held[-1] & ~held[1]).any()
    tiles = np.zeros((ci.size, cj.size), dtype=bool)
    tiles[cols, rows] = held[1] & ~held[-1]
    return tiles


@pytest.mark.parametrize("step", [0.02, 0.01, 0.008, 0.005, 0.004])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_block_bound_tiles_hold_for_every_member(name, step):
    # At every level of the block hierarchy, the tile set a block's bound
    # counts must lie inside every member's tile set (min families) or
    # hold every member's (max families).  A count check is weaker: a
    # bound can cover a member's count with the wrong tiles.
    family = FAMILIES[name](step)
    u = _census._universe(step, family)
    xs, ys = _census._candidate_centers(step, family.hull)
    reach = family.reach_of(xs, ys, step)
    static, terms = family.tiles(u.ci[:, None], u.cj[None, :], step)
    rng = np.random.default_rng(int(1 / step))
    for side in _census._SIDES:
        owner, _, (x0, y0, reach0, c0) = _census._blocks(u, family, xs, ys,
                                                         reach, side)
        bound = _census._bound(u, family, x0, y0, reach0, c0)
        finite = np.flatnonzero(np.isfinite(bound))
        # At step 0.02 one block of side 27 holds every candidate, and its
        # radius leaves it no finite bound.
        assert finite.size > bound.size // 2 or bound.size == 1
        for b in rng.choice(finite, size=min(5, finite.size),
                            replace=False):
            tiles = _term_tiles(u.ci, u.cj, terms, x0[b], y0[b], reach0[b],
                                c0[b])
            assert np.count_nonzero(tiles) == bound[b]
            for t in np.flatnonzero(owner == b):
                member = _keep_tiles(u.ci, u.cj, static, family, xs[t],
                                     ys[t], reach[t])
                if family.minimise:
                    assert not (tiles & ~member).any()
                else:
                    assert not (member & ~tiles).any()


@pytest.mark.parametrize("step", [0.008, 0.005, 0.004])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_pruned_scan_matches_the_full_kernel(name, step):
    family = FAMILIES[name](step)
    xs, ys, counts = _full_counts(step, family)
    t = int(np.argmin(counts) if family.minimise else np.argmax(counts))
    out = _run(name, step)
    assert out.count == counts[t]
    assert out.witness == (xs[t], ys[t])
    assert out.candidates == xs.size
    assert out.counted < out.candidates


@pytest.mark.parametrize("step", [0.01, 0.004, 1 / 256])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_scan_dives_to_its_first_exact_count(name, step, monkeypatch):
    # Until its first exact count the scan bounds one block per level of
    # the hierarchy, not one block per kernel call.
    family = FAMILIES[name](step)
    xs, ys, counts = _full_counts(step, family)
    t = int(np.argmin(counts) if family.minimise else np.argmax(counts))
    kernel, exact = _census._counts, []

    def spy(u, px, py, reach, C):
        exact.append(bool(np.all(C == u.C)))
        return kernel(u, px, py, reach, C)

    monkeypatch.setattr(_census, "_counts", spy)
    out = _run(name, step)
    assert exact.index(True) <= len(_census._SIDES) + 1
    assert out.count == counts[t]
    assert out.witness == (xs[t], ys[t])


def _plain_h_points(xs, ys, eps1):
    """``_h_points`` as 60 bisection steps on every candidate, with no
    early exit: the oracle for its bits."""
    target = 1.0 - eps1
    lo = np.full_like(xs, math.pi / 2)
    hi = np.full_like(xs, math.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        qx = 1.0 + np.cos(mid)
        qy = np.sin(mid)
        g = 2.0 * np.cos(mid / 2.0) + np.hypot(qx - xs, qy - ys) - target
        sel = g > 0.0
        lo = np.where(sel, mid, lo)
        hi = np.where(sel, hi, mid)
    phi1 = np.maximum(0.5 * (lo + hi), math.acos(-7.0 / 8.0))
    d1 = np.hypot(1.0 + np.cos(phi1) - xs, np.sin(phi1) - ys)
    lo = np.zeros_like(xs)
    hi = np.full_like(xs, math.pi / 2)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        qx = np.cos(mid)
        qy = np.sin(mid)
        g = 2.0 * np.sin(mid / 2.0) + np.hypot(qx - xs, qy - ys) - target
        sel = g > 0.0
        hi = np.where(sel, mid, hi)
        lo = np.where(sel, lo, mid)
    phi2 = np.minimum(0.5 * (lo + hi), math.acos(7.0 / 8.0))
    d2 = np.hypot(np.cos(phi2) - xs, np.sin(phi2) - ys)
    return d1, d2


def _hull_points(m, rng):
    """``m`` random points of the ``a1`` hull."""
    x0, y0 = np.min(_census.A1_QUAD, axis=0)
    x1, y1 = np.max(_census.A1_QUAD, axis=0)
    xs = rng.uniform(x0, x1, 20 * m)
    ys = rng.uniform(y0, y1, 20 * m)
    inside = _census._all(_census._inside_tests(_census.A1_QUAD), xs, ys, 0.0)
    return xs[inside][:m], ys[inside][:m]


@pytest.mark.parametrize("step", [0.02, 0.01, 0.004, 1 / 256, 0.002,
                                  "random"])
def test_h_points_are_the_plain_bisection_bit_for_bit(step):
    if step == "random":
        step = 1 / 256
        xs, ys = _hull_points(200, np.random.default_rng(12))
        assert xs.size == 200
    else:
        xs, ys = _census._candidate_centers(step, _census.A1_QUAD)
    eps1 = (math.sqrt(2.0) / 2.0) * step
    got = _census._h_points(xs, ys, eps1)
    for d, ref in zip(got, _plain_h_points(xs, ys, eps1)):
        assert np.array_equal(d.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("point", [(1.1, 0.1), (-0.1, 0.1), (3.0, 3.0)],
                         ids=["far-from-b1", "far-from-b2", "far-from-both"])
def test_h_points_reject_a_point_outside_the_bracket(point):
    # The bracket needs the point within 1 - eps1 of b1 (the circle about
    # b2) and of b2 (the circle about b1); each point misses one or both.
    xs, ys = _census._candidate_centers(0.02, _census.A1_QUAD)
    xs = np.append(xs, point[0])
    ys = np.append(ys, point[1])
    with pytest.raises(ValueError, match="bracket"):
        _census._h_points(xs, ys, (math.sqrt(2.0) / 2.0) * 0.02)


def _grid(s):
    i0 = math.floor(-0.35 / s)
    return i0, (np.arange(i0, math.ceil(1.35 / s)) + 0.5) * s


def test_disk_chord_is_the_exact_float_interval():
    # Rows of random candidates on the grid, half of them with the radius
    # planted exactly on a tile centre, where an analytic end can round
    # either way.
    s = 0.01
    i0, ci = _grid(s)
    rng = np.random.default_rng(4)
    m = 4000
    k = rng.integers(20, ci.size - 20, m)
    x = ci[k]
    dy = rng.uniform(-0.6, 0.6, m)
    dy2 = dy * dy
    q = np.clip(k + rng.integers(-40, 41, m), 0, ci.size - 1)
    dxq = ci[q] - x
    r2 = np.where(np.arange(m) % 2 == 0, dxq * dxq + dy2,
                  rng.uniform(0.0, 0.5, m))
    # The column range need not hold the candidate's own column k; the
    # kernel anchors on the range's column nearest to it.
    a = np.clip(k + rng.integers(-60, 10, m), 0, ci.size - 1)
    b = np.clip(a + rng.integers(1, 80, m), None, ci.size)
    lo, hi = _census._disk_chord(ci, x, dy2, r2, np.clip(k, a, b - 1), a, b,
                                 s, i0)
    for t in range(m):
        dx = ci[a[t]:b[t]] - x[t]
        inside = a[t] + np.flatnonzero(dx * dx + dy2[t] <= r2[t])
        if inside.size:
            assert (lo[t], hi[t]) == (inside[0], inside[-1] + 1)
        else:
            assert lo[t] == hi[t]


def _ellipse_rows(s, m, rng):
    """Random candidate rows: a candidate centre in the ``a1`` hull region,
    a row, a focus and a disk interval."""
    i0, ci = _grid(s)
    x = ci[rng.integers(np.searchsorted(ci, 0.42), np.searchsorted(ci, 0.58),
                        m)]
    ya = rng.uniform(0.0, 0.3, m)
    y = (rng.integers(-60, 60, m) + 0.5) * s
    bx = np.where(rng.random(m) < 0.5, 0.0, 1.0)
    lo = rng.integers(0, ci.size // 2, m)
    hi = lo + rng.integers(1, ci.size // 2, m)
    return i0, ci, x, y, y - ya, bx, lo, hi


def _float_ellipse(ci, x, y, dy, bx, C):
    """Tiles of a row that pass the families' float ellipse test."""
    t = C - np.hypot(ci - bx, y)
    dx = ci - x
    return (t > 0.0) & (dx * dx + dy * dy <= t * t)


def test_ellipse_chord_is_the_float_test_or_flagged():
    s = 0.01
    rng = np.random.default_rng(6)
    m = 3000
    i0, ci, x, y, dy, bx, lo, hi = _ellipse_rows(s, m, rng)
    cp = np.pad(ci, 2, mode="edge")
    C = _census._lens_sum(s)
    trusted = 0
    for e in (0.0, 1.0):
        sel = np.flatnonzero(bx == e)
        ca, cb, ok = _census._ellipse_chord(cp, x[sel], y[sel], dy[sel], e, C,
                                            lo[sel], hi[sel], s, i0)
        for r, t in enumerate(sel):
            if not ok[r]:
                continue
            trusted += 1
            inside = np.zeros(ci.size, dtype=bool)
            inside[ca[r]:cb[r]] = True
            test = _float_ellipse(ci, x[t], y[t], dy[t], e, C)
            assert np.array_equal(inside[lo[t]:hi[t]], test[lo[t]:hi[t]])
    assert trusted > 0.99 * m


def test_ellipse_chord_flags_a_tile_on_the_boundary():
    # Choose the focal sum so that one tile centre of the row lies on the
    # ellipse up to rounding: no margin can certify that row.
    s = 0.01
    rng = np.random.default_rng(7)
    m = 2000
    i0, ci, x, y, dy, bx, lo, hi = _ellipse_rows(s, m, rng)
    cp = np.pad(ci, 2, mode="edge")
    q = rng.integers(lo, hi)
    dx = ci[q] - x
    C = np.sqrt(dx * dx + dy * dy) + np.hypot(ci[q] - bx, y)
    sel = np.flatnonzero((C > 0.9) & (C < 1.0))
    assert sel.size > 100
    for e in (0.0, 1.0):
        part = sel[bx[sel] == e]
        _, _, ok = _census._ellipse_chord(cp, x[part], y[part], dy[part], e,
                                          C[part], lo[part], hi[part], s, i0)
        assert not ok.any()


@pytest.mark.parametrize("step", [0.02, 0.01, 0.008, 0.004, 0.002])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_interval_universe_is_the_full_grid_masks(name, step):
    # Each term's row intervals hold exactly the tiles of its mask over the
    # whole grid, row for row, and [first, last) spans every term tile.
    family = FAMILIES[name](step)
    u = _census._universe(step, family)
    _, terms = family.tiles(u.ci[:, None], u.cj[None, :], step)
    shape = (u.ci.size, u.cj.size)
    col = np.arange(u.ci.size)
    held = np.zeros(shape, dtype=bool)
    assert len(terms) == len(u.terms)
    for (mask, sign, focus), (starts, ends, sign2, focus2) in zip(terms,
                                                                  u.terms):
        assert (sign, focus) == (sign2, focus2)
        got = ((col >= starts[:, :, None])
               & (col < ends[:, :, None])).any(axis=0)
        assert np.array_equal(got, np.broadcast_to(mask, shape).T)
        held |= np.broadcast_to(mask, shape)
    rows = held.any(axis=0)
    assert np.array_equal(u.first[rows], np.argmax(held, axis=0)[rows])
    assert np.array_equal(u.last[rows],
                          u.ci.size - np.argmax(held[::-1], axis=0)[rows])
    assert (u.first[~rows] >= u.last[~rows]).all()


def test_counts_rejects_a_point_too_near_the_focus():
    # The rounding bound needs C - |a - b| >= 0.07; a focal sum of 0.5 at
    # a point about 0.54 from b1 misses it.
    u = _census._universe(0.01, FAMILIES["lplus"](0.01))
    x = u.ci[np.searchsorted(u.ci, 0.5)]
    with pytest.raises(ValueError, match="0.07"):
        _census._counts(u, np.array([x]), np.array([0.2]), np.array([0.3]),
                        np.array([0.5]))


def test_counts_rejects_a_point_off_the_column_centres():
    u = _census._universe(0.01, FAMILIES["lplus"](0.01))
    x = u.ci[np.searchsorted(u.ci, 0.5)] + 0.001
    with pytest.raises(ValueError, match="column centre"):
        _census._counts(u, np.array([x]), np.array([0.2]), np.array([0.3]),
                        np.array([u.C]))


def test_scan_rejects_an_ellipse_term_of_the_wrong_sign():
    # L+ counts its ellipse terms positively: as a max family its bounds
    # would not be conservative.
    family = FAMILIES["lplus"](0.02)._replace(minimise=False)
    with pytest.raises(ValueError, match="ellipse term"):
        _census._scan(0.02, family, None)


def test_hplus_tiles_reject_a_tile_in_both_exclusion_ellipses(monkeypatch):
    # With a focal sum of 1.5 both exclusion ellipses reach the tiles about
    # the crescents' common tip, (1/2, sqrt(3)/2).
    monkeypatch.setattr(_census, "_lens_sum", lambda s: 1.5)
    i0, ci = _grid(0.02)
    cj = (np.arange(0, 50) + 0.5) * 0.02
    with pytest.raises(RuntimeError, match="both crescents"):
        FAMILIES["hplus"](0.02).tiles(ci[:, None], cj[None, :], 0.02)


def test_wedge_and_kite_tile_tests_hold_on_the_shared_polygons():
    # The polygons are offset by 1e-12 to absorb the rounding of their
    # float membership tests.
    s = 0.01
    I, J = np.meshgrid(np.arange(-5, 105), np.arange(-95, 5), indexing="ij")
    CX, CY = (I.ravel() + 0.5) * s, (J.ravel() + 0.5) * s
    corners = [(CX + dx, CY + dy) for dx in (-s / 2.0, s / 2.0)
               for dy in (-s / 2.0, s / 2.0)]
    for tests, wedge in zip(_census._WEDGE_TESTS, (WEDGE_B1, WEDGE_B2)):
        inside = _census._all(tests, CX, CY, s)
        grown = wedge._offset(1e-12)
        assert inside.any()
        for x, y in corners:
            assert grown._contains(x[inside], y[inside]).all()
    miss = ~_census._all(_census._KITE_TESTS, CX, CY, s)
    shrunk = KITE._offset(-1e-12)
    assert miss.any() and not miss.all()
    for x, y in corners + [(CX, CY)]:
        assert not shrunk._contains(x[miss], y[miss]).any()

"""Tests for the closed-form constants, exponent maxima, and the
capture-ratio chain in :mod:`knnlab.bounds`.

Expected numbers are frozen from independent oracle computations
(closed-form evaluation, dense grid scans, and high-precision root
solving) and pinned to 12 significant digits; any drift indicates a
behavioural change in the derivations, not an acceptable refactoring.
The closed-form exponent maxima are also checked against a dense grid
scan of their objectives, written out here from the formulas.
"""

from __future__ import annotations

import decimal
import json
import math
from pathlib import Path

import numpy as np
import pytest

from knnlab import bounds
from knnlab.bounds import (
    ANNULUS_SCALE,
    CRESCENT_AREA,
    Certificate,
    ConditionNotMet,
    ModelConstants,
    capture_chain,
    cap_overflow_exponent,
    component_size_maximum,
    corner_exponent_coefficient,
    easy_connectivity_constant,
    edge_exponent_coefficient,
    far_point_exclusion_area,
    far_region_areas,
    iso_blowup_lower,
    make_certificate,
    model_constants,
    ring_occupancy_area,
    annulus_residual_area,
    solve_mu,
    solve_y_cap,
    threshold_suite,
    tile_density_maximum,
)


def approx12(x: float):
    """Match to 12 significant digits (the oracle freeze precision)."""
    return pytest.approx(x, rel=1e-12)


# ---------------------------------------------------------------------------
# model constants
# ---------------------------------------------------------------------------


def test_model_constants_closed_forms():
    mc = model_constants(1.0)
    assert mc.c_minus == approx12(math.exp(-2.0))
    assert mc.c_plus == approx12(8.0 * math.e)
    assert mc.r is None and mc.R is None


def test_model_constants_radii_at_intensity():
    mc = model_constants(1.0, n=math.e)  # log n = 1
    assert mc.r == approx12(math.sqrt(mc.c_minus / math.pi))
    assert mc.R == approx12(math.sqrt(mc.c_plus / math.pi))
    assert mc.separation == approx12(mc.r / 5.0)


def test_model_constants_d_floor():
    # d is at least the radius coefficients and at least one.
    mc = model_constants(1.0, c_prime=99.0)
    assert mc.d == 99.0
    mc = model_constants(1.0)
    assert mc.d == approx12(max(4.0 * math.sqrt(mc.c_plus / math.pi),
                                1.0 / (4.0 * math.sqrt(mc.c_minus / math.pi)),
                                1.0))


def test_model_constants_reject_nonpositive_c():
    with pytest.raises(ValueError):
        model_constants(0.0)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def test_crescent_area_value():
    assert CRESCENT_AREA == approx12(1.9132229549810362)


def test_easy_connectivity_constant():
    assert easy_connectivity_constant() == approx12(1.0292808331263532)


def test_corner_and_edge_exponent_coefficients():
    assert corner_exponent_coefficient() == approx12(0.3439517146983626)
    assert edge_exponent_coefficient() == approx12(0.5993973623888099)


def test_iso_blowup_lower_disk_case():
    # A set of area pi (unit disk) blown up by r has area at least
    # pi (1 + r)^2; the lower bound reports the gain.
    gain = iso_blowup_lower(math.pi, 0.5)
    assert gain == approx12(math.pi * (1.5 ** 2 - 1.0))


def test_solve_y_cap_roots():
    assert solve_y_cap(boundary=False) == approx12(18.30688191142413)
    assert solve_y_cap(boundary=True) == approx12(5.861119300224049)


# ---------------------------------------------------------------------------
# exponent maxima
# ---------------------------------------------------------------------------


def test_tile_density_interior_maximum_at_cap():
    arg, val = tile_density_maximum()
    assert val == approx12(-1.188449868532523)
    assert arg == bounds.TILE_AREA_CAP  # maximal admissible tile area


def test_tile_density_edge_maximum():
    arg, val = tile_density_maximum(boundary=True)
    assert val == approx12(-0.8155706374163155)


def test_component_size_interior_maximum():
    arg, val = component_size_maximum()
    assert val == approx12(-1.000276665056373)
    assert arg == pytest.approx(0.6073482832775055, abs=1e-6)


def test_component_size_edge_maximum():
    arg, val = component_size_maximum(boundary=True)
    assert val == approx12(-0.5931910771863859)
    assert arg == pytest.approx(0.6015502636509269, abs=1e-6)


def _tile_density_objective(A, c, boundary):
    """``c log(A / (A + blowup(A)))``, written out on an array of areas."""
    a, b = (0.5, 1.0) if boundary else (1.0, 2.0)
    r = bounds.R_HAT
    blow = a * math.pi * r * r + b * r * np.sqrt(math.pi * A)
    return c * np.log(A / (A + blow))


def _component_size_objective(A, c, boundary):
    """The two-region occupancy exponent, written out on an array of
    areas."""
    a, b = (0.5, 1.0) if boundary else (1.0, 2.0)
    r, s = bounds.R_HAT, bounds.SPLIT_FRACTION
    blow = a * math.pi * r * r + b * r * np.sqrt(math.pi * A)
    return c * (s * np.log(2.0 * A) + np.log(2.0 * CRESCENT_AREA)
                - (1.0 + s) * np.log(CRESCENT_AREA + A + blow))


@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "edge"])
@pytest.mark.parametrize("maximum, objective, caps", [
    (tile_density_maximum, _tile_density_objective,
     (bounds.TILE_AREA_CAP, bounds.TILE_AREA_CAP)),
    (component_size_maximum, _component_size_objective,
     (bounds.COMPONENT_AREA_CAP_INTERIOR, bounds.COMPONENT_AREA_CAP_EDGE)),
], ids=["tile-density", "component-size"])
def test_closed_form_maximum_beats_a_dense_grid(maximum, objective, caps,
                                                boundary):
    # The reference is a scan over a million equal intervals of (0, cap].
    hi = caps[boundary]
    xs = np.linspace(0.0, hi, 1_000_001)[1:]
    grid_step = hi / 1_000_000
    for c in (0.3, 0.5, 0.7209, 0.9684, 1.5, 3.0):
        arg, val = maximum(c, boundary)
        vals = objective(xs, c, boundary)
        best = int(np.argmax(vals))
        assert vals[best] <= val + 1e-12 * abs(val)
        assert abs(xs[best] - arg) <= grid_step


@pytest.mark.parametrize("maximum", [tile_density_maximum,
                                     component_size_maximum],
                         ids=["tile-density", "component-size"])
@pytest.mark.parametrize("c", [0.0, -1.0])
def test_exponent_maxima_reject_non_positive_c(maximum, c):
    with pytest.raises(ValueError):
        maximum(c)


def test_cap_overflow_exponents():
    assert cap_overflow_exponent() == approx12(-1.5822781701177868)
    assert cap_overflow_exponent(boundary=True) == approx12(-1.010692373664382)


# ---------------------------------------------------------------------------
# capture-ratio chain
# ---------------------------------------------------------------------------


def test_ring_and_annulus_areas():
    assert ring_occupancy_area() == approx12(0.16319865723573823)
    assert annulus_residual_area() == approx12(0.33720329983081276)
    assert far_point_exclusion_area() == approx12(3.4602660859674965)


def test_far_region_areas():
    far = far_region_areas()
    assert far["region"] == approx12(2.3047455131265338)
    assert far["overlap"] == approx12(0.6515343458055254)
    bx, by = far["beta"]
    # beta lies on both circles: radius lam about a=(0,0), radius 1 about
    # b=(1,0).
    assert math.hypot(bx, by) == approx12(ANNULUS_SCALE)
    assert math.hypot(bx - 1.0, by) == approx12(1.0)


def test_solve_mu_closed_form_branch():
    # a2 = 0 collapses to mu = S^2 / (4 a1 a3).
    mu = solve_mu(1.0, 0.0, 1.5, 0.25)
    total = 1.0 + 0.0 + 1.5 + 0.25
    assert mu == approx12(total * total / (4.0 * 1.0 * 1.5))


def test_solve_mu_root_branch_back_substitutes():
    a = (1.2, 0.4, 1.5, 2.0)
    mu = solve_mu(*a)
    total = sum(a)
    resid = mu * a[1] + math.sqrt(4.0 * mu * a[0] * a[2]) - total
    assert abs(resid) <= 1e-10 * total


def _mu_decimal(a1, a2, a3, a4):
    """``mu`` from the textbook root of ``a2 x^2 + 2 g x - total = 0``
    (``x = sqrt(mu)``, ``g = sqrt(a1 a3)``) in 50-digit arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a1, a2, a3, a4 = (decimal.Decimal(a) for a in (a1, a2, a3, a4))
        total = a1 + a2 + a3 + a4
        g = (a1 * a3).sqrt()
        x = total / (2 * g) if a2 == 0 else ((g * g + a2 * total).sqrt()
                                             - g) / a2
        return float(x * x)


def _capture_inputs(region, overlap):
    return (CRESCENT_AREA - overlap, overlap, region - overlap,
            math.pi * bounds.R_HAT * bounds.R_HAT)


@pytest.mark.parametrize("a", [
    pytest.param("exact", id="capture-chain-exact"),
    pytest.param((2.31, 0.6515), id="capture-chain-rounded"),
    pytest.param((1.3, 0.7, 1.3, 0.2), id="a3-equals-a1"),
    pytest.param((1.0, 0.0, 1.5, 0.25), id="a2-zero"),
    pytest.param((1.0, 1e8, 1.9, 3.0), id="large-a2"),
])
def test_solve_mu_matches_a_50_digit_solve(a):
    if a == "exact":
        far = far_region_areas()
        a = _capture_inputs(far["region"], far["overlap"])
    elif len(a) == 2:
        a = _capture_inputs(*a)
    assert solve_mu(*a) == pytest.approx(_mu_decimal(*a), rel=1e-14)


def test_solve_mu_preconditions():
    with pytest.raises(ValueError):
        solve_mu(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ConditionNotMet):
        solve_mu(1.0, 0.0, 2.5, 0.0)  # a3 >= 2 a1
    with pytest.raises(ConditionNotMet):
        solve_mu(1.0, 0.0, 0.5, 0.0)  # a3 < a1


def test_capture_chain_exact_and_rounded():
    chain = capture_chain()
    assert chain["mu"] == approx12(2.83289495897299)
    assert chain["margin"] == approx12(1.0083940895924068)
    assert chain["margin_floor"] == approx12(1.0000877357718965)
    rounded = capture_chain(use_rounded_areas=True)
    assert rounded["mu"] == approx12(2.831273280062955)
    assert rounded["mu"] > 2.8087 and chain["mu"] > 2.8087


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_comparator_semantics():
    assert make_certificate("x", 0.1, 1.0, 0.5, ">=").passed
    assert not make_certificate("x", 0.1, 0.5 + 1e-13, 0.5, ">=").passed
    assert make_certificate("x", 0.1, 0.2, 0.5, "<=").passed
    assert not make_certificate("x", 0.1, 0.5 - 1e-13, 0.5, "<=").passed
    assert make_certificate("x", 0.1, 0.55, 0.5, "~=").passed
    assert not make_certificate("x", 0.1, 0.65, 0.5, "~=").passed


def test_certificate_json_roundtrip(tmp_path):
    cert = make_certificate("demo", 0.004, 1.25, 1.0, ">=",
                            witness=(0.5, -0.25), config={"alpha": 2})
    path = tmp_path / "demo.json"
    cert.save(path)
    loaded = bounds.Certificate.load(path)
    assert loaded == cert
    payload = json.loads(path.read_text())
    assert set(payload) == {"name", "step", "computed", "target",
                            "comparator", "witness", "passed", "config_hash"}
    assert payload["passed"] is True


def test_certificate_config_hash_tracks_config():
    c1 = make_certificate("x", 0.1, 1.0, 0.5, ">=", config={"a": 1})
    c2 = make_certificate("x", 0.1, 1.0, 0.5, ">=", config={"a": 2})
    assert c1.config_hash != c2.config_hash


@pytest.fixture(scope="module")
def parts_at_coarse_step():
    s = 0.02
    return {"lplus": bounds.verify_L_plus(s),
            "lminus": bounds.verify_L_minus(s),
            "hplus": bounds.verify_H_plus(s),
            "hminus": bounds.verify_H_minus(s)}


@pytest.mark.parametrize("case", ["missing", "other-step", "hplus-reading",
                                  "hminus-cover"])
def test_crossing_ratio_rejects_a_component_it_does_not_rest_on(
        case, parts_at_coarse_step):
    s, parts = 0.02, dict(parts_at_coarse_step)
    if case == "missing":
        del parts["lminus"]
        match = "missing component certificate: lminus"
    elif case == "other-step":
        parts["lplus"] = bounds.verify_L_plus(0.01)
        match = "component certificate lplus was not computed at step 0.02"
    elif case == "hplus-reading":
        parts["hplus"] = bounds.verify_H_plus(s, exclusion="intersection")
        match = "hplus .*exclusion='either'"
    else:
        parts["hminus"] = bounds.verify_H_minus(s, semantics="cover")
        match = "hminus .*semantics='universal'"
    bounds.crossing_ratio(s, components=parts_at_coarse_step)
    with pytest.raises(ValueError, match=match):
        bounds.crossing_ratio(s, components=parts)


_COMMITTED = Path(__file__).resolve().parent.parent / "certificates"
_DEFAULT_READINGS = {"lplus": {}, "lminus": {},
                     "hplus": {"exclusion": "either"},
                     "hminus": {"semantics": "universal"}}


def test_committed_certificates_match_the_code():
    certs = {name: Certificate.load(_COMMITTED / ("%s_0.001.json" % name))
             for name in list(_DEFAULT_READINGS) + ["ratio"]}
    for name, cert in certs.items():
        assert cert.name == name and cert.step == 0.001
        assert cert.check() == cert.passed
    for name, reading in _DEFAULT_READINGS.items():
        assert certs[name].config_hash == bounds._certificate_hash(
            name, 0.001, *bounds.CENSUS_TARGETS[name],
            bounds._census_config(reading))
    ratio = bounds.crossing_ratio(
        0.001, components={name: certs[name] for name in _DEFAULT_READINGS})
    assert ratio.to_json() == (_COMMITTED / "ratio_0.001.json").read_text(
        encoding="utf-8")


def test_threshold_suite_all_pass_at_certified_coefficient():
    certs = threshold_suite()
    assert len(certs) == 23
    assert all(c.passed for c in certs)
    by_name = {c.name: c for c in certs}
    assert by_name["far-point-exponent"].computed == approx12(
        -1.0000552479116773)
    assert by_name["ring-occupancy-exponent"].computed == approx12(
        -2.0128266142283064)
    assert by_name["annulus-residual-exponent"].computed == approx12(
        -1.3280923005650054)
    assert by_name["residual-split-exponent"].computed == approx12(
        -1.002459142069833)


def test_threshold_suite_fails_below_threshold():
    # Dropping c weakens every exponent; well below the certified value
    # at least one link must fail.
    certs = threshold_suite(0.80)
    assert not all(c.passed for c in certs)

"""Certified numerical bounds for the crossing and connectivity thresholds.

This module is the verification engine of the package.  It provides

* closed-form model constants (edge-length coefficients, blow-up roots,
  exponent coefficients) evaluated at full double precision;
* the closed-form maxima of the exponents over area parameters;
* the root solve for the neighbour-capture ratio ``mu``;
* conservative grid certificates for the four crossing-frame area
  bounds (via :mod:`knnlab._census`), the crossing ratio derived from
  them, and the full connectivity-threshold certificate suite.

Every rigorous claim is emitted as a :class:`Certificate` — a
serialisable record holding the computed value, the target constant it
must beat, the comparison direction, and the extremal witness.  Strict
inequalities are slackened by an absolute guard of ``1e-12`` so that a
certificate never passes on rounding noise alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Mapping, Optional, Tuple

from . import _census
from .geom import disk_lens_area, disks_intersection_area

__all__ = [
    "CRESCENT_AREA",
    "R_HAT",
    "ANNULUS_SCALE",
    "SPLIT_FRACTION",
    "TILE_AREA_CAP",
    "COMPONENT_AREA_CAP_INTERIOR",
    "COMPONENT_AREA_CAP_EDGE",
    "RESIDUAL_SPLIT_AREA",
    "CONNECTIVITY_LOWER_C",
    "CONNECTIVITY_THRESHOLD",
    "CROSSING_THRESHOLD",
    "RATIO_TARGET",
    "CENSUS_TARGETS",
    "GUARD",
    "ConditionNotMet",
    "ModelConstants",
    "model_constants",
    "iso_blowup_lower",
    "solve_y_cap",
    "easy_connectivity_constant",
    "corner_exponent_coefficient",
    "edge_exponent_coefficient",
    "tile_density_maximum",
    "component_size_maximum",
    "cap_overflow_exponent",
    "solve_mu",
    "annulus_residual_area",
    "ring_occupancy_area",
    "far_point_exclusion_area",
    "far_region_areas",
    "capture_chain",
    "Certificate",
    "make_certificate",
    "verify_L_plus",
    "verify_L_minus",
    "verify_H_plus",
    "verify_H_minus",
    "crossing_ratio",
    "threshold_suite",
]

#: Area of the crescent ``D_a(rho) \ D_b(rho)`` at unit radius when the two
#: centres are one radius apart: ``pi/3 + sqrt(3)/2``.
CRESCENT_AREA = math.pi / 3.0 + math.sqrt(3.0) / 2.0

#: Conservative inner-disk radius (relative to ``rho``) used throughout the
#: blow-up chains: ``1 - 1e-4``.
R_HAT = 1.0 - 1e-4

#: Annulus scale factor of the far-point argument.
ANNULUS_SCALE = 1.0767

#: Pigeonhole split fraction for small-component point counts.
SPLIT_FRACTION = 0.309

#: Upper range of the tile-density maximisation (maximal near-tile area).
TILE_AREA_CAP = CRESCENT_AREA + math.pi / 1000.0

#: Working caps on the tile-set area for the component-size maximisation.
#: The interior working cap 11.7 is deliberately far below the true
#: blow-up root ``pi*r^2*(1+sqrt(2))^2`` (about 18.31); any cap at or
#: below the true root keeps the chain conservative.
COMPONENT_AREA_CAP_INTERIOR = 11.7
COMPONENT_AREA_CAP_EDGE = 5.86

#: Area of the residual region in the split fallback branch.
RESIDUAL_SPLIT_AREA = 1.73

#: Coefficient at which the small-component exponent chains are evaluated
#: (the best previously-known lower bound on the connectivity constant).
CONNECTIVITY_LOWER_C = 0.7209

#: Connectivity threshold certified by the full suite.
CONNECTIVITY_THRESHOLD = 0.9684

#: Crossing threshold derived from the area-ratio certificate.
CROSSING_THRESHOLD = 0.7102

#: Target for the crossing area ratio (occupied / total).
RATIO_TARGET = 0.2446

#: Target constants and comparison directions for the four area censuses.
CENSUS_TARGETS: Dict[str, Tuple[float, str]] = {
    "lplus": (0.3411, ">="),
    "lminus": (0.3564, ">="),
    "hplus": (0.1300, "<="),
    "hminus": (0.0958, "<="),
}

#: Absolute slack applied to every strict certificate comparison.
GUARD = 1e-12


class ConditionNotMet(ValueError):
    """A bound's applicability condition failed for the given inputs."""


# ---------------------------------------------------------------------------
# model constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConstants:
    """Closed-form constants of the model at neighbour count ``k = c log n``.

    ``c_minus`` and ``c_plus`` are the edge-length coefficients: with high
    probability every edge joins points within distance
    ``R = sqrt(c_plus log n / pi)`` and every pair within
    ``r = sqrt(c_minus log n / pi)`` in the same neighbourhood is joined.
    ``d`` scales the small-component diameter cutoff ``d sqrt(log n)``.
    """

    c: float
    c_minus: float
    c_plus: float
    d: float
    c_prime: float = 0.0
    n: Optional[float] = None
    r: Optional[float] = None
    R: Optional[float] = None

    @property
    def separation(self) -> Optional[float]:
        """Guaranteed separation ``r/5`` between distinct components."""
        return None if self.r is None else self.r / 5.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "separation": self.separation}


def model_constants(c: float, n: Optional[float] = None,
                    c_prime: float = 0.0) -> ModelConstants:
    """Evaluate the closed-form model constants at coefficient ``c``.

    Parameters
    ----------
    c : float
        Neighbour coefficient (``k = c log n``); must be positive and
        finite.
    n : float, optional
        Window area; when given, the absolute radii ``r`` and ``R`` are
        included (finite ``n > 1`` required so ``0 < log n < inf``).
    c_prime : float, optional
        Extra competitor in the diameter coefficient ``d`` (defaults to 0;
        the remaining terms dominate for all coefficients of interest);
        must be finite.
    """
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError("c must be positive and finite")
    if not math.isfinite(c_prime):
        raise ValueError("c_prime must be finite")
    c_minus = c * math.exp(-1.0 - 1.0 / c)
    c_plus = 4.0 * math.e * (1.0 + c)
    d = max(c_prime, 4.0 * math.sqrt(c_plus / math.pi),
            1.0 / (4.0 * math.sqrt(c_minus / math.pi)), 1.0)
    r = R = None
    if n is not None:
        if not (n > 1.0 and math.isfinite(n)):
            raise ValueError("n must exceed 1 and be finite")
        r = math.sqrt(c_minus * math.log(n) / math.pi)
        R = math.sqrt(c_plus * math.log(n) / math.pi)
    return ModelConstants(c=c, c_minus=c_minus, c_plus=c_plus, d=d,
                          c_prime=c_prime, n=n, r=r, R=R)


# ---------------------------------------------------------------------------
# probability-bound building blocks
# ---------------------------------------------------------------------------


def _blowup_coefficients(boundary: bool) -> Tuple[float, float]:
    """``(a, b)`` of ``blowup(A) = a pi r^2 + b r sqrt(pi A)``: ``(1, 2)``
    in the interior and ``(1/2, 1)`` against a straight window edge."""
    return (0.5, 1.0) if boundary else (1.0, 2.0)


def iso_blowup_lower(area_y: float, r: float, boundary: bool = False) -> float:
    """Isoperimetric lower bound on the area of the ``r``-blow-up ring of
    a set of area ``area_y``: ``pi r^2 + 2 r sqrt(pi area_y)`` in the
    interior, halved against a straight window edge.
    """
    if area_y < 0.0 or r <= 0.0:
        raise ValueError("area must be non-negative and r positive")
    a, b = _blowup_coefficients(boundary)
    return a * math.pi * r * r + b * r * math.sqrt(math.pi * area_y)


def solve_y_cap(boundary: bool, r: float = R_HAT) -> float:
    """Positive root of ``area = iso_blowup_lower(area, r, boundary)``,
    in closed form via the quadratic in ``sqrt(area)``.

    Above this root a tile set would outgrow its own blow-up ring, so it
    is the natural cap for the component-size maximisation.  Interior:
    ``pi r^2 (1+sqrt(2))^2``; boundary: ``pi r^2 (1+sqrt(3))^2 / 4``.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    if boundary:
        return math.pi * r * r * (1.0 + math.sqrt(3.0)) ** 2 / 4.0
    return math.pi * r * r * (1.0 + math.sqrt(2.0)) ** 2


def easy_connectivity_constant() -> float:
    """Coefficient above which the simple empty-crescent argument already
    forces connectivity: ``1 / log((8 pi + 3 sqrt 3)/(2 pi + 3 sqrt 3))``.
    """
    return 1.0 / math.log((8.0 * math.pi + 3.0 * math.sqrt(3.0))
                          / (2.0 * math.pi + 3.0 * math.sqrt(3.0)))


def corner_exponent_coefficient() -> float:
    """Per-``c`` exponent coefficient ruling out small components near a
    window corner: ``log((pi/4 + A)/A)`` with ``A`` the crescent area.
    """
    return math.log((math.pi / 4.0 + CRESCENT_AREA) / CRESCENT_AREA)


def edge_exponent_coefficient() -> float:
    """Per-``c`` exponent coefficient for components near a window edge:
    ``log((pi/2 + A)/A)``.
    """
    return math.log((math.pi / 2.0 + CRESCENT_AREA) / CRESCENT_AREA)


# ---------------------------------------------------------------------------
# exponent maxima
# ---------------------------------------------------------------------------


def tile_density_maximum(c: float = CONNECTIVITY_LOWER_C,
                         boundary: bool = False) -> Tuple[float, float]:
    """Maximum over the near-tile area ``A`` in ``(0, TILE_AREA_CAP]`` of
    the exponent that the tiles near a small component hold ``k`` points
    while their empty blow-up ring holds none:
    ``c * log(A / (A + blowup(A)))``.

    ``blowup(A) / A = a pi r^2 / A + b r sqrt(pi / A)`` falls as ``A``
    grows, so for ``c > 0`` the exponent rises with ``A`` and its maximum
    is at ``A = TILE_AREA_CAP``.  Returns ``(argmax, value)``.
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    A = TILE_AREA_CAP
    return A, c * math.log(A / (A + iso_blowup_lower(A, R_HAT, boundary)))


def component_size_maximum(c: float = CONNECTIVITY_LOWER_C,
                           boundary: bool = False) -> Tuple[float, float]:
    """Maximum over the tile-set area ``A`` in ``(0, cap]`` (the working
    cap) of the exponent that a small component keeps more than the split
    fraction of ``k`` points, the two-region occupancy bound with the
    crescent and the blow-up ring as competitors::

        c * (s log(2A) + log(2C) - (1 + s) log(C + A + blowup(A)))

    with ``s = SPLIT_FRACTION``, ``C = CRESCENT_AREA``, ``r = R_HAT`` and
    ``blowup(A) = a pi r^2 + b r sqrt(pi A)`` (:func:`iso_blowup_lower`).
    In ``x = sqrt(A)`` the last argument is
    ``C + a pi r^2 + x^2 + b r sqrt(pi) x``, and the derivative in ``x`` is
    ``2c (q - x^2 - p x) / (x (C + A + blowup(A)))`` with
    ``p = b (1 - s) / 2 * r sqrt(pi)`` and ``q = s (C + a pi r^2)``.  Both
    are positive, so for ``c > 0`` the exponent rises up to the positive
    root ``x* = 2q / (p + sqrt(p^2 + 4q))`` (the cancellation-free form)
    and falls after it.  The maximum is at ``A = min(x*^2, cap)``.
    Returns ``(argmax, value)``.
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    cap = COMPONENT_AREA_CAP_EDGE if boundary else COMPONENT_AREA_CAP_INTERIOR
    a, b = _blowup_coefficients(boundary)
    s, r, C = SPLIT_FRACTION, R_HAT, CRESCENT_AREA
    p = b * (1.0 - s) / 2.0 * r * math.sqrt(math.pi)
    q = s * (C + a * math.pi * r * r)
    A = min((2.0 * q / (p + math.sqrt(p * p + 4.0 * q))) ** 2, cap)
    return A, c * (s * math.log(2.0 * A) + math.log(2.0 * C)
                   - (1.0 + s)
                   * math.log(C + A + iso_blowup_lower(A, r, boundary)))


def cap_overflow_exponent(c: float = CONNECTIVITY_LOWER_C,
                          boundary: bool = False) -> float:
    """Exponent of the branch where the tile-set area exceeds its working
    cap: the crescent must then hold ``k`` points while the (huge)
    blow-up ring at the cap stays empty.
    """
    cap = COMPONENT_AREA_CAP_EDGE if boundary else COMPONENT_AREA_CAP_INTERIOR
    blow = iso_blowup_lower(cap, R_HAT, boundary)
    return c * math.log(CRESCENT_AREA / (CRESCENT_AREA + blow))


# ---------------------------------------------------------------------------
# the capture-ratio root solve and supporting areas
# ---------------------------------------------------------------------------


def solve_mu(a1: float, a2: float, a3: float, a4: float) -> float:
    """Solve ``mu*a2 + sqrt(4*mu*a1*a3) = a1+a2+a3+a4`` for ``mu > 0``.

    The left side is the guaranteed point count of the capture argument;
    the right side is the total area feeding it.  Applicability requires
    ``a1 <= a3 < 2*a1`` (raises :class:`ConditionNotMet` otherwise) and
    positive ``a1``, ``a3``.  With ``x = sqrt(mu)`` and
    ``g = sqrt(a1*a3)`` the equation is the quadratic
    ``a2*x**2 + 2*g*x - total = 0``, whose positive root is taken in the
    cancellation-free form ``x = total / (g + sqrt(g**2 + a2*total))``
    (which also covers ``a2 = 0``); the result is validated by
    back-substitution.
    """
    if a1 <= 0.0 or a3 <= 0.0 or a2 < 0.0 or a4 < 0.0:
        raise ValueError("need a1, a3 > 0 and a2, a4 >= 0")
    if not (a1 <= a3 < 2.0 * a1):
        raise ConditionNotMet(
            "capture argument requires a1 <= a3 < 2*a1")
    total = a1 + a2 + a3 + a4
    g = math.sqrt(a1 * a3)
    mu = (total / (g + math.sqrt(g * g + a2 * total))) ** 2
    resid = mu * a2 + math.sqrt(4.0 * mu * a1 * a3) - total
    if abs(resid) > 1e-8 * total:
        raise ArithmeticError("capture-ratio root failed back-substitution")
    return mu


def ring_occupancy_area(lam: float = ANNULUS_SCALE) -> float:
    """Area of the neighbour crescent that the ``lam``-annulus adds over
    the unit lens: ``lens(1, 1, lam) - lens(1, 1, 1)``.
    """
    return disk_lens_area(1.0, 1.0, lam) - disk_lens_area(1.0, 1.0, 1.0)


def annulus_residual_area(lam: float = ANNULUS_SCALE) -> float:
    """Area of the ``lam``-annulus outside both the unit disk and the
    neighbour crescent: ``pi lam^2 - pi - ring_occupancy_area(lam)``.
    """
    return math.pi * lam * lam - math.pi - ring_occupancy_area(lam)


def far_point_exclusion_area(lam: float = ANNULUS_SCALE,
                             r: float = R_HAT) -> float:
    """Area guaranteed point-free around a far annulus point:
    ``pi + annulus_residual_area(lam) - pi (lam - r)^2``.
    """
    return math.pi + annulus_residual_area(lam) - math.pi * (lam - r) ** 2


def far_region_areas(lam: float = ANNULUS_SCALE) -> Dict[str, float]:
    """Exact areas of the far-point capture construction at scale ``lam``.

    The far point ``beta`` sits on the intersection of the circle of
    radius ``lam`` about ``a = (0, 0)`` and the unit circle about
    ``b = (1, 0)`` — the extremal position.  Returns the area of the
    capture region (``region``), its overlap with the neighbour crescent
    (``overlap``), and the ``beta`` coordinates.
    """
    bx = lam * lam / 2.0
    by = math.sqrt(lam * lam - bx * bx)
    t_unit = disks_intersection_area(
        [(bx, by, lam), (1.0, 0.0, 1.0), (0.0, 0.0, 1.0)])
    t_lam = disks_intersection_area(
        [(bx, by, lam), (1.0, 0.0, 1.0), (0.0, 0.0, lam)])
    region = (math.pi * lam * lam - disk_lens_area(lam, lam, lam)
              - t_unit + t_lam)
    overlap = disk_lens_area(1.0, 1.0, lam) - t_unit
    return {"region": region, "overlap": overlap, "beta": (bx, by),
            "t_unit": t_unit, "t_lam": t_lam}


def capture_chain(c: float = CONNECTIVITY_THRESHOLD,
                  use_rounded_areas: bool = False) -> Dict[str, float]:
    """Evaluate the neighbour-capture ratio ``mu`` and its exponent margin.

    With ``use_rounded_areas`` the chain is run from the 4-decimal area
    constants (2.31 and 0.6515) instead of the exactly computed areas;
    both variants clear the 2.8087 floor.
    """
    areas = far_region_areas()
    if use_rounded_areas:
        region, overlap = 2.31, 0.6515
    else:
        region, overlap = areas["region"], areas["overlap"]
    a4 = math.pi * R_HAT * R_HAT
    mu = solve_mu(CRESCENT_AREA - overlap, overlap, region - overlap, a4)
    return {
        "region": areas["region"],
        "overlap": areas["overlap"],
        "mu": mu,
        "margin": c * math.log(mu),
        "margin_floor": c * math.log(2.8087),
    }


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A machine-checkable record of one rigorous bound.

    ``comparator`` is one of ``">="``, ``"<="`` (strict with the 1e-12
    guard) or ``"~="`` (agreement within ``step``, which then holds the
    tolerance instead of a grid step).  ``witness`` is the extremal
    location or derived scalar, or ``None``.
    """

    name: str
    step: float
    computed: float
    target: float
    comparator: str
    witness: object
    passed: bool
    config_hash: str

    def check(self) -> bool:
        """Recompute the pass verdict from the stored fields."""
        return _passes(self.computed, self.target, self.comparator, self.step)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        if isinstance(d["witness"], tuple):
            d["witness"] = list(d["witness"])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())

    @staticmethod
    def from_json_dict(d: Mapping) -> "Certificate":
        values = {f.name: d[f.name] for f in fields(Certificate)}
        if isinstance(values["witness"], list):
            values["witness"] = tuple(values["witness"])
        return Certificate(**values)

    @staticmethod
    def load(path) -> "Certificate":
        with open(path, "r", encoding="utf-8") as fh:
            return Certificate.from_json_dict(json.load(fh))


def _passes(computed: float, target: float, comparator: str,
            tolerance: float) -> bool:
    if comparator == ">=":
        return computed >= target + GUARD
    if comparator == "<=":
        return computed <= target - GUARD
    if comparator == "~=":
        return abs(computed - target) <= tolerance
    raise ValueError(f"unknown comparator: {comparator!r}")


def _certificate_hash(name: str, step: float, target: float,
                      comparator: str,
                      config: Optional[Mapping] = None) -> str:
    """The ``config_hash`` of a certificate built from these arguments."""
    cfg = {"name": name, "step": step, "target": target,
           "comparator": comparator}
    if config:
        cfg.update(config)
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def make_certificate(name: str, step: float, computed: float, target: float,
                     comparator: str, witness=None,
                     config: Optional[Mapping] = None) -> Certificate:
    """Build a certificate, deriving the verdict and the config hash."""
    return Certificate(name=name, step=step, computed=float(computed),
                       target=float(target), comparator=comparator,
                       witness=witness,
                       passed=_passes(float(computed), float(target),
                                      comparator, step),
                       config_hash=_certificate_hash(name, step, target,
                                                     comparator, config))


# ---------------------------------------------------------------------------
# the four census certificates
# ---------------------------------------------------------------------------


def _census_config(extra_config: Optional[Mapping] = None) -> dict:
    """The config a census certificate records beyond its name, step and
    target: the engine and the family's reading (``exclusion`` or
    ``semantics``)."""
    return {"engine": "grid-census", **(extra_config or {})}


def _census_certificate(name: str, outcome: _census.CensusOutcome,
                        extra_config: Optional[Mapping] = None) -> Certificate:
    target, comparator = CENSUS_TARGETS[name]
    return make_certificate(name=name, step=outcome.step,
                            computed=outcome.area, target=target,
                            comparator=comparator, witness=outcome.witness,
                            config=_census_config(extra_config))


def verify_L_plus(s: float, *, progress=None) -> Certificate:
    """Certified lower bound on the upper empty-region area (must clear
    0.3411)."""
    out = _census.census_L_plus(s, progress=progress)
    return _census_certificate("lplus", out)


def verify_L_minus(s: float, *, progress=None) -> Certificate:
    """Certified lower bound on the lower empty-region area (must clear
    0.3564)."""
    out = _census.census_L_minus(s, progress=progress)
    return _census_certificate("lminus", out)


def verify_H_plus(s: float, *, exclusion: str = "either",
                  progress=None) -> Certificate:
    """Certified upper bound on the upper occupied-region area (must stay
    below 0.1300).  See :func:`knnlab._census.census_H_plus` for the
    ``exclusion`` variants."""
    out = _census.census_H_plus(s, exclusion=exclusion, progress=progress)
    return _census_certificate("hplus", out, {"exclusion": exclusion})


def verify_H_minus(s: float, *, semantics: str = "universal",
                   progress=None) -> Certificate:
    """Certified upper bound on the lower occupied-region area (must stay
    below 0.0958).  See :func:`knnlab._census.census_H_minus` for the
    ``semantics`` variants."""
    out = _census.census_H_minus(s, semantics=semantics, progress=progress)
    return _census_certificate("hminus", out, {"semantics": semantics})


def crossing_ratio(s: float, components: Mapping[str, Certificate]
                   ) -> Certificate:
    """Certified bound on the occupied/total area ratio of a crossing
    frame, combining upper bounds for the occupied families with lower
    bounds for the empty families.

    ``components`` maps ``lplus``, ``lminus``, ``hplus`` and ``hminus`` to
    census certificates at step ``s``.  Each must carry the config hash
    its ``verify_*`` function records at that step under the committed
    readings: ``hplus`` under ``exclusion="either"`` (which the ratio
    certificate records) and ``hminus`` under ``semantics="universal"``;
    anything else raises :class:`ValueError`.  The certificate's
    ``witness`` carries the derived coefficient threshold
    ``-1 / log(ratio)`` (0 when the ratio degenerates to 0).
    """
    readings = {"lplus": {}, "lminus": {},
                "hplus": {"exclusion": "either"},
                "hminus": {"semantics": "universal"}}
    for key, reading in readings.items():
        if key not in components:
            raise ValueError(f"missing component certificate: {key}")
        expected = _certificate_hash(key, s, *CENSUS_TARGETS[key],
                                     _census_config(reading))
        if components[key].config_hash != expected:
            with_reading = "".join(f" with {name}={value!r}"
                                   for name, value in reading.items())
            raise ValueError(f"component certificate {key} was not "
                             f"computed at step {s}{with_reading}")
    h = components["hplus"].computed + components["hminus"].computed
    total = h + components["lplus"].computed + components["lminus"].computed
    ratio = 0.0 if total == 0.0 else h / total
    if ratio <= 0.0:
        c_threshold = 0.0
    elif ratio >= 1.0:
        c_threshold = math.inf
    else:
        c_threshold = -1.0 / math.log(ratio)
    return make_certificate(name="ratio", step=s, computed=ratio,
                            target=RATIO_TARGET, comparator="<=",
                            witness=c_threshold,
                            config=readings["hplus"])


# ---------------------------------------------------------------------------
# the connectivity-threshold certificate suite
# ---------------------------------------------------------------------------


def threshold_suite(c: float = CONNECTIVITY_THRESHOLD) -> List[Certificate]:
    """Evaluate every closed-form link of the connectivity chain at
    coefficient ``c`` and return one certificate per link.

    Includes the 4-decimal agreement checks for the closed-form
    constants, the four exponent maxima (interior links must
    clear -1, edge links -1/2), the far-point capture areas, and the
    capture-ratio margin.  All certificates pass at the certified
    threshold coefficient; lowering ``c`` shows which links fail first.
    """
    if c <= 0.0:
        raise ValueError("c must be positive")
    cfg = {"c": c}
    certs: List[Certificate] = []

    certs.append(make_certificate(
        "easy-connectivity-constant", 1e-4, easy_connectivity_constant(),
        1.0293, "~=", config=cfg))
    certs.append(make_certificate(
        "corner-exponent-coefficient", 1e-4, corner_exponent_coefficient(),
        0.3439, "~=", config=cfg))
    certs.append(make_certificate(
        "edge-exponent-coefficient", 1e-4, edge_exponent_coefficient(),
        0.5993, "~=", config=cfg))
    certs.append(make_certificate(
        "edge-tile-cap-root", 1e-3, solve_y_cap(boundary=True),
        5.861, "~=", config=cfg))
    # The interior working cap must not exceed the true blow-up root,
    # otherwise capping the maximisation range would be unsound.
    certs.append(make_certificate(
        "interior-tile-cap-root", 0.0, solve_y_cap(boundary=False),
        COMPONENT_AREA_CAP_INTERIOR, ">=", config=cfg))

    for boundary, floor in ((False, -1.0), (True, -0.5)):
        side = "edge" if boundary else "interior"
        arg, val = tile_density_maximum(c, boundary)
        certs.append(make_certificate(
            f"tile-density-{side}-exponent", 0.0, val, floor, "<=",
            witness=arg, config=cfg))
        arg, val = component_size_maximum(c, boundary)
        certs.append(make_certificate(
            f"component-size-{side}-exponent", 0.0, val, floor, "<=",
            witness=arg, config=cfg))
        certs.append(make_certificate(
            f"cap-overflow-{side}-exponent", 0.0,
            cap_overflow_exponent(c, boundary), -1.0, "<=", config=cfg))

    exclusion = far_point_exclusion_area()
    certs.append(make_certificate(
        "far-point-exclusion-area", 0.0, exclusion, 3.4602, ">=",
        config=cfg))
    certs.append(make_certificate(
        "far-point-exponent", 0.0,
        c * math.log(CRESCENT_AREA / (CRESCENT_AREA + exclusion)),
        -1.0, "<=", config=cfg))

    ring = ring_occupancy_area()
    a4 = math.pi * R_HAT * R_HAT
    certs.append(make_certificate(
        "ring-occupancy-area", 0.0, ring, 0.1632, "<=", config=cfg))
    certs.append(make_certificate(
        "ring-occupancy-exponent", 0.0,
        (1.0 - SPLIT_FRACTION) * c * math.log(ring / (ring + a4)),
        -1.0, "<=", config=cfg))
    lam = ANNULUS_SCALE
    certs.append(make_certificate(
        "annulus-residual-exponent", 0.0,
        (1.0 - SPLIT_FRACTION) * c * math.log(
            (math.pi * (lam * lam - 1.0))
            / (math.pi * (R_HAT * R_HAT + lam * lam - 1.0))),
        -1.0, "<=", config=cfg))
    certs.append(make_certificate(
        "residual-split-exponent", 0.0,
        c * math.log(RESIDUAL_SPLIT_AREA / (RESIDUAL_SPLIT_AREA + a4)),
        -1.0, "<=", config=cfg))

    far = far_region_areas()
    certs.append(make_certificate(
        "far-region-area", 0.0, far["region"], 2.31, "<=",
        witness=far["beta"], config=cfg))
    certs.append(make_certificate(
        "far-region-overlap", 1e-4, far["overlap"], 0.6515, "~=",
        witness=far["beta"], config=cfg))

    chain = capture_chain(c)
    chain_rounded = capture_chain(c, use_rounded_areas=True)
    certs.append(make_certificate(
        "neighbour-capture-ratio", 0.0, chain["mu"], 2.8087, ">=",
        config=cfg))
    certs.append(make_certificate(
        "neighbour-capture-ratio-rounded-areas", 0.0, chain_rounded["mu"],
        2.8087, ">=", config=cfg))
    certs.append(make_certificate(
        "capture-exponent-margin", 0.0, chain["margin"], 1.0, ">=",
        config=cfg))
    certs.append(make_certificate(
        "capture-exponent-margin-floor", 0.0, chain["margin_floor"], 1.0,
        ">=", config=cfg))
    return certs

"""Synthetic parks and ground-truth poaching processes.

Every pipeline stage is testable without real ranger data: a generated
park has smooth spatially-correlated features, a hidden per-cell attack
probability (logistic in a random linear function of the features), and a
saturating detection curve ``Pr[detected | attack, effort c] =
1 - exp(-rate * c)``. Sampled labels therefore carry exactly the one-sided
noise of the real problem: positives are reliable, negatives may just mean
nobody patrolled hard enough.

Named presets target reference dataset shapes: ``mfnp-like`` (~14.3%
positive labels), ``sws-like`` (~0.36% positives over >50k rows) and
``oneside-noise`` (moderate imbalance with strongly effort-dependent
detection, the regime where effort-aware ensembles pay off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ParkGrid, PatrolDataset, assemble_dataset


class SynthError(ValueError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class GroundTruth:
    """Hidden attack and detection process of a synthetic park."""

    attack_prob: np.ndarray   # (n_cells,) in [0, 1]
    detect_rate: np.ndarray   # (n_cells,) > 0, per-km detection rate
    seed: int

    def __post_init__(self):
        ap = np.asarray(self.attack_prob, dtype=float)
        dr = np.asarray(self.detect_rate, dtype=float)
        if np.any(ap < 0) or np.any(ap > 1):
            raise SynthError("attack_prob must lie in [0, 1]")
        if np.any(dr < 0):
            raise SynthError("detect_rate must be nonnegative")
        object.__setattr__(self, "attack_prob", ap)
        object.__setattr__(self, "detect_rate", dr)

    def detection_curve(self, effort: np.ndarray) -> np.ndarray:
        """Pr[observed | attacked, effort]; zero at zero effort, saturating."""
        return -np.expm1(-self.detect_rate * np.asarray(effort, dtype=float))

    def label_prob(self, effort: np.ndarray) -> np.ndarray:
        """Joint Pr[attacked and observed] per cell at the given effort."""
        return self.attack_prob * self.detection_curve(effort)

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "attack_prob": [float(v) for v in self.attack_prob],
            "detect_rate": [float(v) for v in self.detect_rate],
        }


def _smooth_field(width: int, height: int, rng: np.random.Generator, bumps: int = 8) -> np.ndarray:
    """Sum of random radial bumps over cell centers, standardized."""
    xs = (np.arange(width) + 0.5)[None, :]
    ys = (np.arange(height) + 0.5)[:, None]
    field = np.zeros((height, width))
    scale = max(width, height)
    for _ in range(bumps):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        radius = rng.uniform(0.1, 0.45) * scale
        amp = rng.uniform(-1.0, 1.0)
        d2 = (xs - cx) ** 2 + (ys - cy) ** 2
        field += amp * np.exp(-d2 / (2 * radius**2))
    flat = field.ravel()
    sd = flat.std()
    if sd > 0:
        flat = (flat - flat.mean()) / sd
    return flat


def generate_park(width: int, height: int, k: int, num_posts: int, seed: int) -> ParkGrid:
    """Random park with k smooth features and ``num_posts`` patrol posts."""
    if k < 1:
        raise SynthError("need at least one feature")
    if num_posts < 1:
        raise SynthError("planner needs at least one patrol post")
    n = width * height
    if num_posts > n:
        raise SynthError(f"num_posts={num_posts} exceeds {n} cells")
    rng = np.random.default_rng([seed, 0xB10C])
    feats = np.stack([_smooth_field(width, height, rng) for _ in range(k)], axis=1)
    posts = np.sort(rng.choice(n, size=num_posts, replace=False))
    return ParkGrid(
        width=width, height=height, features=feats,
        feature_names=tuple(f"f_{i + 1}" for i in range(k)),
        patrol_posts=tuple(int(p) for p in posts),
        mask=np.ones(n, dtype=bool),
    )


def make_ground_truth(
    grid: ParkGrid,
    seed: int,
    target_rate: float,
    effort_policy: np.ndarray,
    detect_rate_span: tuple[float, float] = (0.4, 1.6),
    attack_features: list[int] | None = None,
) -> GroundTruth:
    """Draw a ground truth tied to the park's features.

    ``attack_features`` restricts which feature columns drive the attack
    probability (all by default); a preset can keep them disjoint from the
    columns driving patrol effort so that historical-patrol bias is pure
    noise with respect to the attack pattern.

    The attack-probability intercept is calibrated by bisection so that,
    under ``effort_policy`` (the (T, n_cells) effort that sampling will
    use), the expected positive-label fraction over all (window, cell) rows
    equals ``target_rate``.
    """
    rng = np.random.default_rng([seed, 0x7287])
    cols = list(range(grid.num_features)) if attack_features is None else list(attack_features)
    w = rng.normal(size=len(cols))
    w /= max(np.linalg.norm(w), 1e-12)
    z = grid.features[:, cols] @ w * 2.5
    lo, hi = detect_rate_span
    lam = np.exp(np.log(lo) + (np.log(hi) - np.log(lo)) * rng.random(grid.n_cells))

    def rate_at(intercept: float) -> float:
        p = _sigmoid(z + intercept)
        det = -np.expm1(-lam[None, :] * effort_policy)
        return float((p[None, :] * det).mean())

    a, b = -30.0, 30.0
    if not (rate_at(a) <= target_rate <= rate_at(b)):
        raise SynthError("target rate unreachable under this policy")
    for _ in range(80):
        mid = 0.5 * (a + b)
        if rate_at(mid) < target_rate:
            a = mid
        else:
            b = mid
    return GroundTruth(attack_prob=_sigmoid(z + 0.5 * (a + b)), detect_rate=lam, seed=seed)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def sample_dataset(
    grid: ParkGrid,
    truth: GroundTruth,
    T: int,
    effort_policy: np.ndarray,
    seed: int,
) -> PatrolDataset:
    """Sample labels ~ Bernoulli(attack_prob * detection(effort)) per row;
    ``effort_policy`` is the (T, n_cells) effort in km."""
    rng = np.random.default_rng([seed, 0x5A9])
    effort = np.asarray(effort_policy, dtype=float)
    if effort.shape != (T, grid.n_cells):
        raise SynthError(f"effort policy must have shape ({T}, {grid.n_cells})")
    if np.any(effort < 0):
        raise SynthError("effort policy must be nonnegative")
    p = truth.label_prob(effort)
    labels = (rng.random((T, grid.n_cells)) < p).astype(np.int8)
    return assemble_dataset(grid, effort, labels)


def sample_attacks(truth: GroundTruth, T: int, seed: int) -> np.ndarray:
    """Oracle draw of true attack indicators (independent of detection)."""
    rng = np.random.default_rng([seed, 0xA77])
    return (rng.random((T, truth.attack_prob.shape[0])) < truth.attack_prob[None, :]).astype(np.int8)


def patchy_effort_policy(
    grid: ParkGrid,
    T: int,
    rng: np.random.Generator,
    mean_km: float = 2.0,
    patrolled_fraction: float = 0.65,
    accessibility_features: list[int] | None = None,
    coupling: float = 1.0,
) -> np.ndarray:
    """Patrol intensity with per-window noise and unpatrolled gaps.

    The persistent intensity field is either driven by the given feature
    columns (rangers go where the terrain lets them, so effort correlates
    with observable covariates) or by an independent smooth random field.
    Each window multiplies it by gamma noise and drops cells entirely with
    probability 1 - patrolled_fraction. The result is rescaled so mean
    effort over all rows equals mean_km.
    """
    if accessibility_features:
        acc = grid.features[:, accessibility_features] @ (
            1.0 / (1.0 + np.arange(len(accessibility_features))))
        sd = acc.std()
        acc = (acc - acc.mean()) / sd if sd > 0 else acc * 0.0
        base = np.exp(coupling * acc)
    else:
        base = np.exp(0.9 * _smooth_field(grid.width, grid.height, rng))
    noise = rng.gamma(shape=2.0, scale=0.5, size=(T, grid.n_cells))
    gaps = rng.random((T, grid.n_cells)) < patrolled_fraction
    effort = base[None, :] * noise * gaps
    m = effort.mean()
    if m > 0:
        effort *= mean_km / m
    return effort


@dataclass(frozen=True)
class SynthBundle:
    """A fully sampled synthetic scenario."""

    name: str
    grid: ParkGrid
    truth: GroundTruth
    effort: np.ndarray
    dataset: PatrolDataset


@dataclass(frozen=True)
class PresetSpec:
    width: int
    height: int
    k: int
    T: int
    positive_rate: float
    mean_effort_km: float
    patrolled_fraction: float
    detect_rate_span: tuple[float, float] = (0.4, 1.6)
    # Columns driving patrol accessibility vs attack risk. Disjoint groups
    # make historical-effort bias orthogonal to the true attack pattern,
    # the regime in which threshold filtering has something to correct.
    accessibility_features: tuple[int, ...] | None = None
    attack_features: tuple[int, ...] | None = None


_PRESETS = {
    "mfnp-like": PresetSpec(24, 20, 8, 12, 0.143, 1.75, 0.7),
    "sws-like": PresetSpec(48, 36, 8, 30, 0.0036, 3.96, 0.6,
                           accessibility_features=(0, 1),
                           attack_features=(2, 3, 4, 5, 6, 7)),
    "oneside-noise": PresetSpec(20, 20, 6, 12, 0.07, 2.0, 0.65,
                                detect_rate_span=(0.25, 0.9),
                                accessibility_features=(0, 1),
                                attack_features=(2, 3, 4, 5)),
    "oneside-noise-small": PresetSpec(12, 12, 5, 8, 0.08, 2.0, 0.65,
                                      detect_rate_span=(0.25, 0.9),
                                      accessibility_features=(0, 1),
                                      attack_features=(2, 3, 4)),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def generate_preset(name: str, seed: int) -> SynthBundle:
    """Build one of the documented dataset presets, deterministically."""
    if name not in _PRESETS:
        raise SynthError(f"unknown preset {name!r}; choose from {preset_names()}")
    spec = _PRESETS[name]
    grid = generate_park(spec.width, spec.height, k=spec.k, num_posts=2, seed=seed)
    policy_rng = np.random.default_rng([seed, 0xEFF])
    effort = patchy_effort_policy(
        grid, spec.T, policy_rng, mean_km=spec.mean_effort_km,
        patrolled_fraction=spec.patrolled_fraction,
        accessibility_features=list(spec.accessibility_features or ()) or None,
    )
    truth = make_ground_truth(
        grid, seed, target_rate=spec.positive_rate, effort_policy=effort,
        detect_rate_span=spec.detect_rate_span,
        attack_features=list(spec.attack_features) if spec.attack_features else None,
    )
    ds = sample_dataset(grid, truth, spec.T, effort, seed)
    return SynthBundle(name=name, grid=grid, truth=truth, effort=effort, dataset=ds)

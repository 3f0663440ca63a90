"""Training objectives with analytic gradients, plus a finite-difference oracle.

Three losses drive training. Each takes the encoder's rows as given: the
encoder emits unit rows and its backward pass removes the radial part of every
row gradient, so a dot product here is the cosine the paper trains on.

* global_infonce  -- contrastive alignment between page-global vectors and
  descriptor-global vectors over a batch (temperature-scaled, in-batch
  negatives, positives on the diagonal).
* local_align     -- each patch row is pulled toward its best-matching
  descriptor token row (negated sum of row-max dot products).
* retrieval_infonce -- InfoNCE over the in-batch MaxSim score grid.

Every loss returns a LossValue carrying d(loss)/d(input) for each matrix
input, keyed by parameter name, so finite_diff_check can verify any of them
coordinate-by-coordinate against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import _check_rows
from .errors import ConfigurationError

#: Default temperature for both contrastive losses.
DEFAULT_TAU = 0.02


@dataclass
class LossValue:
    """A scalar loss plus gradients shaped exactly like each named input."""

    value: float
    gradients: dict[str, np.ndarray] = field(default_factory=dict)
    #: Rows of the first input whose argmax was tied (subgradient points).
    tie_rows: tuple[int, ...] = ()


def _infonce(grid: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """InfoNCE over a square grid with positives on the diagonal.

    With logits grid/tau the loss is -(1/B) sum_i (l_ii - log sum_j exp(l_ij));
    returns (loss, d(loss)/d(grid)).
    """
    tau = float(tau)
    if not tau > 0:
        raise ConfigurationError(f"temperature must be positive, got {tau}")
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.shape[0] < 1:
        raise ConfigurationError(f"InfoNCE: expected a square score matrix, got {grid.shape}")
    b = grid.shape[0]
    logits = grid / tau
    m = np.max(logits, axis=1, keepdims=True)
    e = np.exp(logits - m)
    z = np.sum(e, axis=1, keepdims=True)
    lse = (m + np.log(z)).ravel()
    value = float(-np.mean(np.diag(logits) - lse))
    return value, -(np.eye(b) - e / z) / (b * tau)


def global_infonce(
    visual_globals: np.ndarray,
    descriptor_globals: np.ndarray,
    tau: float = DEFAULT_TAU,
) -> LossValue:
    """Contrastive loss between page globals and descriptor globals.

    InfoNCE over the grid visual_globals @ descriptor_globals.T: on the
    encoder's unit rows, s_ij is the cosine of page i and descriptor j.
    Gradients flow into both branches (both pass through the same trainable
    backbone).
    """
    gv = _check_rows("visual_globals", visual_globals)
    gd = _check_rows("descriptor_globals", descriptor_globals)
    if gv.shape != gd.shape:
        raise ConfigurationError(f"global_infonce: shapes {gv.shape} vs {gd.shape}")
    value, d_grid = _infonce(gv @ gd.T, tau)
    return LossValue(
        value=value,
        gradients={"visual_globals": d_grid @ gd, "descriptor_globals": d_grid.T @ gv},
    )


def local_align(
    patches: np.ndarray,
    descriptor_tokens: np.ndarray,
    tie_tol: float = 1e-9,
) -> LossValue:
    """Negated sum over patch rows of the max dot product against descriptor tokens.

    On the encoder's unit rows each dot product is a cosine. The gradient flows
    only through each row's argmax descriptor token; ties resolve to the
    lowest index (a subgradient) and the tied rows are reported via
    LossValue.tie_rows so verification can exclude them.
    """
    pm = _check_rows("patches", patches)
    em = _check_rows("descriptor_tokens", descriptor_tokens)
    if pm.shape[1] != em.shape[1]:
        raise ConfigurationError(f"local_align: dims {pm.shape[1]} vs {em.shape[1]}")

    grid = pm @ em.T
    best = np.argmax(grid, axis=1)
    value = float(-np.sum(grid[np.arange(pm.shape[0]), best]))

    ties: list[int] = []
    if grid.shape[1] > 1:
        sorted_vals = np.sort(grid, axis=1)
        margins = sorted_vals[:, -1] - sorted_vals[:, -2]
        ties = [int(k) for k in np.nonzero(margins < tie_tol)[0]]

    d_e = np.zeros_like(em)
    np.add.at(d_e, best, -pm)  # in patch-row order
    return LossValue(
        value=value,
        gradients={"patches": -em[best], "descriptor_tokens": d_e},
        tie_rows=tuple(ties),
    )


def retrieval_infonce(scores: np.ndarray, tau: float = DEFAULT_TAU) -> LossValue:
    """InfoNCE over a square in-batch score grid with positives on the diagonal.

    Returns gradients w.r.t. the raw scores; the trainer chains them into the
    embedding rows through the MaxSim argmax structure.
    """
    value, d_scores = _infonce(np.asarray(scores, dtype=np.float64), tau)
    return LossValue(value=value, gradients={"scores": d_scores})


def scale_loss(lv: LossValue, factor: float) -> LossValue:
    """Scale a loss and its gradients by a constant weight."""
    return LossValue(
        value=lv.value * factor,
        gradients={k: g * factor for k, g in lv.gradients.items()},
        tie_rows=lv.tie_rows,
    )


@dataclass
class FiniteDiffReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_rel_error: float
    n_checked: int
    n_excluded: int
    tolerance: float
    passed: bool
    worst: tuple[str, tuple, float, float] | None = None  # (input, index, analytic, numeric)


def local_align_tie_exclusion(
    patches: np.ndarray,
    descriptor_tokens: np.ndarray,
    tie_tol: float = 1e-9,
) -> dict[str, np.ndarray]:
    """Exclusion masks for finite_diff_check at local_align subgradient points.

    Marks every coordinate of a tied patch row and of all descriptor rows
    attaining its max (the finite difference is one-sided there).
    """
    lv = local_align(patches, descriptor_tokens, tie_tol=tie_tol)
    p = np.asarray(patches, dtype=np.float64)
    e = np.asarray(descriptor_tokens, dtype=np.float64)
    p_mask = np.zeros(p.shape, dtype=bool)
    e_mask = np.zeros(e.shape, dtype=bool)
    if lv.tie_rows:
        grid = p @ e.T
        for k in lv.tie_rows:
            p_mask[k, :] = True
            e_mask[grid[k] >= np.max(grid[k]) - tie_tol, :] = True
    return {"patches": p_mask, "descriptor_tokens": e_mask}


def finite_diff_check(
    loss_fn,
    inputs: dict[str, np.ndarray],
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    exclude: dict[str, np.ndarray] | None = None,
) -> FiniteDiffReport:
    """Compare loss_fn's analytic gradients against central finite differences.

    loss_fn is called as loss_fn(**inputs) and must return a LossValue whose
    gradient keys cover the input names. Every coordinate of every input is
    perturbed by +/- epsilon unless masked out via `exclude` (boolean masks
    keyed like inputs, used for known subgradient points). Relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6).
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ValueError(f"finite_diff_check: epsilon {epsilon} outside [1e-6, 1e-3]")
    exclude = exclude or {}
    base = loss_fn(**inputs)
    missing = set(inputs) - set(base.gradients)
    if missing:
        raise ConfigurationError(f"finite_diff_check: loss_fn returned no gradient for {sorted(missing)}")

    max_rel = 0.0
    n_checked = 0
    n_excluded = 0
    worst = None
    for name, arr in inputs.items():
        arr = np.asarray(arr, dtype=np.float64)
        analytic = base.gradients[name]
        mask = exclude.get(name)
        for idx in np.ndindex(arr.shape):
            if mask is not None and mask[idx]:
                n_excluded += 1
                continue
            bumped = {k: np.array(v, dtype=np.float64, copy=True) for k, v in inputs.items()}
            bumped[name][idx] += epsilon
            f_plus = loss_fn(**bumped).value
            bumped[name][idx] -= 2 * epsilon
            f_minus = loss_fn(**bumped).value
            numeric = (f_plus - f_minus) / (2 * epsilon)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = (name, idx, a, numeric)
    return FiniteDiffReport(
        max_rel_error=max_rel,
        n_checked=n_checked,
        n_excluded=n_excluded,
        tolerance=tolerance,
        passed=max_rel < tolerance,
        worst=worst,
    )

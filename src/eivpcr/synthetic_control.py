"""Robust synthetic controls on panel data.

The treated unit's counterfactual trajectory is estimated by regressing its
pre-treatment outcomes on the donor units' pre-treatment outcomes (the
error-in-variables PCR fit) and applying the learned weights to the donors'
post-treatment outcomes (the out-of-sample prediction).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MaskedMatrix, _rank, _singular_values, rescale
from .errors import BadParam, BadShape, TargetMissingPre
from .pcr import PredictionConfig, check_subspace_inclusion, fit, predict_detailed
from .rank_selection import _auto_rank
from .metrics import mean_squared_error, snr_report


@dataclass(frozen=True)
class PanelDataset:
    """Time-by-unit outcomes with a treated target and a pre/post split.

    Rows are time periods, columns are units. The first ``pre_periods``
    rows are the pre-treatment window; the target's entries there form the
    regression response and must be fully observed. Post-treatment target
    outcomes are never read (they are the treated observations, not the
    counterfactual), and missing donor cells are handled by rescaling.
    Unit names, when the table has them, are ``outcomes.col_labels``.
    """

    outcomes: MaskedMatrix
    target_col: int
    pre_periods: int

    def __post_init__(self):
        rows, cols = self.outcomes.rows, self.outcomes.cols
        n = _rank(self.pre_periods, "pre_periods")
        if n < 1 or rows - n < 1:
            raise BadShape(
                f"need >=1 pre and >=1 post periods, got pre={n} of {rows} rows"
            )
        if cols < 2:
            raise BadShape("need a target plus at least one donor unit")
        t = _rank(self.target_col, "target_col")
        if not 0 <= t < cols:
            raise BadParam(f"target_col={t} outside [0, {cols - 1}]")
        if not np.all(self.outcomes.mask[:n, t]):
            raise TargetMissingPre(
                "target unit has unobserved pre-treatment outcomes"
            )
        object.__setattr__(self, "pre_periods", n)
        object.__setattr__(self, "target_col", t)

    @property
    def n(self) -> int:
        return self.pre_periods

    @property
    def m(self) -> int:
        return self.outcomes.rows - self.pre_periods

    @property
    def p(self) -> int:
        return self.outcomes.cols - 1

    def _donor_block(self, row_slice) -> MaskedMatrix:
        keep = [j for j in range(self.outcomes.cols) if j != self.target_col]
        labels = self.outcomes.col_labels
        if labels is not None:
            labels = tuple(labels[j] for j in keep)
        return MaskedMatrix(
            values=self.outcomes.values[row_slice][:, keep],
            mask=self.outcomes.mask[row_slice][:, keep],
            col_labels=labels,
        )

    def donors_pre(self) -> MaskedMatrix:
        return self._donor_block(slice(None, self.n))

    def donors_post(self) -> MaskedMatrix:
        return self._donor_block(slice(self.n, None))

    def target_pre(self) -> np.ndarray:
        return np.array(self.outcomes.values[: self.n, self.target_col])


@dataclass(frozen=True, eq=False)
class CounterfactualResult:
    """Donor weights, estimated untreated trajectory, and diagnostics.

    Diagnostics carry rho_hat / rho_hat_prime / k / snr / snr_test /
    subspace_leakage / ell_effective. The snr figures substitute observed
    singular values for the unobservable signal spectrum, so they are
    empirical surrogates, not the theoretical quantities.
    """

    beta_hat: np.ndarray
    trajectory: np.ndarray
    diagnostics: dict


def fit_rsc(panel: PanelDataset, k="auto") -> CounterfactualResult:
    """Robust synthetic controls: PCR fit on the pre period, predict the post.

    The post block is denoised at rank min(k, m): the train-side k (a
    conservative upper bound for the unobservable post-period rank), cut
    to the m post periods so that panels with fewer post periods than k,
    one included, still predict. No clamping is applied. For another
    rank or a clamp, call :func:`fit` on ``panel.donors_pre()`` and
    ``panel.target_pre()``, then :func:`predict_detailed` on
    ``panel.donors_post()``.

    Parameters
    ----------
    panel : PanelDataset
    k : int or "auto"
        Retained rank for the donor pre block, a Python or numpy integer;
        "auto" picks the largest spectral gap, searched over
        [1, min(n, p) - 1], of the rescaled block's singular values
        (computed without vectors). When min(n, p) is 1 (one donor or one
        pre period) it picks k = 1, the only admissible rank.

    Notes
    -----
    ``diagnostics["subspace_leakage"]`` is :func:`check_subspace_inclusion`
    run on the row factors ``S_k V_k^T`` (k x p) and ``S_l V_l^T`` (l x p,
    l = ``ell_effective``), built from the ``singular_values`` and
    ``right_vectors`` of the model and of the denoised post block. They
    share singular values and right vectors with the rank-k and rank-l
    reconstructions ``U S V^T``, so the statistic is that of the
    reconstructions up to rounding, at a fraction of the cost.
    It is 0.0 when ``ell_effective`` is 0.
    """
    z_pre = panel.donors_pre()
    z_post = panel.donors_post()
    y = panel.target_pre()
    if isinstance(k, str):
        if k != "auto":
            raise BadParam(f"k must be an integer or 'auto', got {k!r}")
        k = _auto_rank(_singular_values(rescale(z_pre)[0]), min(panel.n, panel.p) - 1)
    model = fit(z_pre, y, k)
    pred = predict_detailed(model, z_post, PredictionConfig(ell=min(model.k, panel.m)))

    ell = pred.ell_effective
    # row factors S V^T: the spectra and rowspaces of the rank-k and rank-ell
    # reconstructions U S V^T in k and ell rows instead of n and m
    leakage = check_subspace_inclusion(
        model.singular_values[:, None] * model.right_vectors.T,
        pred.singular_values[:, None] * pred.right_vectors.T,
    )

    if ell >= 1:
        snr_test = snr_report(pred.singular_values[-1], pred.rho_hat_prime, panel.m, panel.p)
    else:
        snr_test = 0.0
    diagnostics = {
        "rho_hat": model.rho_hat,
        "rho_hat_prime": pred.rho_hat_prime,
        "k": model.k,
        "ell_effective": ell,
        "snr": snr_report(model.singular_values[-1], model.rho_hat, panel.n, panel.p),
        "snr_test": snr_test,
        "subspace_leakage": leakage,
    }
    return CounterfactualResult(
        beta_hat=model.beta_hat, trajectory=pred.y_hat, diagnostics=diagnostics
    )


def counterfactual_error(result: CounterfactualResult, truth) -> float:
    """Mean squared gap between the estimated trajectory and ground truth.

    Shares its implementation with the test prediction error used by the
    simulation lab, so the two agree bit for bit on identical vectors.
    """
    return mean_squared_error(result.trajectory, truth)

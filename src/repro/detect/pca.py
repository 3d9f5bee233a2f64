"""PCA subspace anomaly detection (Lakhina, Crovella, Diot [4]).

The commercial detector the paper integrates with (Guavus NetReflex) is
"based on a well-known anomaly detector using Principal Component
Analysis" — the subspace method: traffic feature timeseries form a
matrix whose dominant principal components span the *normal* subspace;
the squared norm of a bin's projection onto the residual subspace (the
squared prediction error, SPE) spikes under anomalies, with the
Q-statistic of Jackson & Mudholkar giving the detection threshold.

This module implements the bare subspace machinery on numpy arrays; the
:mod:`repro.detect.netreflex` wrapper feeds it traffic feature matrices
and turns alarmed bins into :class:`~repro.detect.base.Alarm` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.errors import DetectorError

__all__ = ["PCAModel", "fit_pca_model", "q_statistic_threshold"]


def _normal_quantile(alpha: float) -> float:
    """Upper ``alpha`` quantile of the standard normal distribution
    (the standard library's, so the threshold is the same number
    wherever the package is installed)."""
    if not 0 < alpha < 1:
        raise DetectorError(f"alpha must lie in (0, 1): {alpha!r}")
    return NormalDist().inv_cdf(1.0 - alpha)


def q_statistic_threshold(
    residual_eigenvalues: np.ndarray, alpha: float = 0.001
) -> float:
    """Jackson-Mudholkar Q-statistic threshold at false-alarm rate ``alpha``.

    ``residual_eigenvalues`` are the covariance eigenvalues of the
    residual (non-principal) subspace. Returns the SPE value above which
    a bin is declared anomalous.
    """
    lambdas = np.asarray(residual_eigenvalues, dtype=float)
    lambdas = lambdas[lambdas > 1e-12]
    if lambdas.size == 0:
        # Degenerate residual subspace: any non-zero SPE is anomalous.
        return 1e-12
    phi1 = float(np.sum(lambdas))
    phi2 = float(np.sum(lambdas**2))
    phi3 = float(np.sum(lambdas**3))
    h0 = 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2**2)
    if h0 <= 0:
        h0 = 1e-3
    c_alpha = _normal_quantile(alpha)
    term = (
        c_alpha * math.sqrt(2.0 * phi2 * h0**2) / phi1
        + 1.0
        + phi2 * h0 * (h0 - 1.0) / phi1**2
    )
    if term <= 0:
        return phi1
    return phi1 * term ** (1.0 / h0)


@dataclass
class PCAModel:
    """A fitted subspace model: standardisation + principal subspace."""

    mean: np.ndarray
    std: np.ndarray
    components: np.ndarray  # (n_features, k) principal directions
    eigenvalues: np.ndarray  # all covariance eigenvalues, descending
    n_components: int
    spe_threshold: float

    def standardize(self, matrix: np.ndarray) -> np.ndarray:
        """Apply the training z-score transform to ``matrix``."""
        data = np.asarray(matrix, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.mean.shape[0]:
            raise DetectorError(
                f"matrix with {data.shape} does not match model with "
                f"{self.mean.shape[0]} features"
            )
        return (data - self.mean) / self.std

    def spe(self, matrix: np.ndarray) -> np.ndarray:
        """Squared prediction error of each row of ``matrix``.

        The SPE is the squared norm of the row's projection onto the
        residual subspace.
        """
        z = self.standardize(matrix)
        principal = z @ self.components  # (rows, k)
        modelled = principal @ self.components.T
        residual = z - modelled
        return np.einsum("ij,ij->i", residual, residual)

    def anomalous_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Boolean mask of rows whose SPE exceeds the Q threshold."""
        return self.spe(matrix) > self.spe_threshold


def fit_pca_model(
    training: np.ndarray,
    variance_captured: float = 0.90,
    max_components: int | None = None,
    alpha: float = 0.001,
) -> PCAModel:
    """Fit the subspace model on a (bins × features) training matrix.

    The principal subspace keeps the smallest number of components whose
    cumulative captured variance reaches ``variance_captured`` (bounded
    by ``max_components``); the Q-statistic threshold is derived from the
    residual eigenvalues at false-alarm rate ``alpha``.
    """
    data = np.asarray(training, dtype=float)
    if data.ndim != 2:
        raise DetectorError("training matrix must be 2-D")
    rows, cols = data.shape
    if rows < 3:
        raise DetectorError(
            f"need at least 3 training bins, got {rows}"
        )
    if not 0 < variance_captured <= 1:
        raise DetectorError(
            f"variance_captured must lie in (0, 1]: {variance_captured!r}"
        )
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    z = (data - mean) / std

    # Covariance eigendecomposition via SVD of the centred matrix.
    _, singular_values, vt = np.linalg.svd(z, full_matrices=False)
    eigenvalues = singular_values**2 / max(1, rows - 1)
    total = float(np.sum(eigenvalues))
    if total <= 0:
        raise DetectorError("training matrix has zero variance")

    cumulative = np.cumsum(eigenvalues) / total
    k = int(np.searchsorted(cumulative, variance_captured) + 1)
    k = min(k, cols - 1 if cols > 1 else 1)  # keep a residual subspace
    if max_components is not None:
        if max_components < 1:
            raise DetectorError("max_components must be >= 1")
        k = min(k, max_components)

    components = vt[:k].T  # (features, k)
    residual_eigenvalues = eigenvalues[k:]
    threshold = q_statistic_threshold(residual_eigenvalues, alpha=alpha)
    return PCAModel(
        mean=mean,
        std=std,
        components=components,
        eigenvalues=eigenvalues,
        n_components=k,
        spe_threshold=threshold,
    )

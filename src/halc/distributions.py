"""Logit and probability algebra for contrastive decoding.

Logits are float vectors indexed by token id; -inf marks a masked token.
Probability vectors are nonnegative and sum to one. Every operation works
along the last axis, so one call handles a single vector or an (n, V) stack
of them, and a vector broadcasts against the rows of a stack. Called on
plain vectors, the divergences return floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

__all__ = [
    "PlausibilityMask",
    "softmax",
    "argmax_logit",
    "jsd",
    "total_variation",
    "contrast_logits",
    "plausibility_mask",
    "contrast_distribution",
    "window_softmax",
    "contrast_rows",
    "top_m_pairs",
    "argmax_token",
]


@dataclass(frozen=True)
class PlausibilityMask:
    """Token ids whose expert probability clears beta times the maximum."""

    allowed: frozenset[int]
    beta: float

    def __contains__(self, token_id: int) -> bool:
        return token_id in self.allowed


def _as_array(values, ndims: tuple[int, ...] = (1, 2)) -> np.ndarray:
    """The logits as a float array of an allowed rank with nonempty vectors."""
    try:
        arr = np.asarray(values, dtype=float)
    except ValueError as exc:
        raise InvalidInputError("logits must be numeric vectors of one length") from exc
    if arr.ndim not in ndims or arr.shape[-1] == 0:
        raise InvalidInputError("logits must be a nonempty 1-D vector or (n, V) stack")
    return arr


def _as_logits(values) -> tuple[np.ndarray, np.ndarray]:
    """The logits as a float array, and the maximum of each vector."""
    arr = _as_array(values)
    top = arr.max(axis=-1, keepdims=True)
    if not (top < np.inf).all():  # the maximum propagates NaN
        raise InvalidInputError("logits must be finite or -inf")
    return arr, top


def _softmax(arr: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax of each vector of a float array, rejecting
    NaN and +inf logits and vectors with every logit masked."""
    top = arr.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        if not (top < np.inf).all():  # the maximum propagates NaN
            raise InvalidInputError("logits must be finite or -inf")
        raise InvalidInputError("softmax of an all-masked logit vector")
    out = arr - top
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax(logits) -> np.ndarray:
    """Max-subtracted exponentiation and normalization of each logit
    vector; -inf maps to 0."""
    return _softmax(_as_array(logits))


def window_softmax(rows) -> tuple[np.ndarray, np.ndarray]:
    """The (n, V) float stack of n logit vectors and its row-wise softmax.

    The stack is checked once, with the checks and messages of softmax, and
    both arrays can then go to contrast_rows without being checked again.
    """
    logits = _as_array(rows, ndims=(2,))
    return logits, _softmax(logits)


def argmax_logit(logits) -> int:
    """Lowest token id among the maximal logits of one vector, rejected on
    exactly the inputs softmax rejects."""
    arr = _as_array(logits, ndims=(1,))
    # argmax returns the first NaN when there is one, so one look at the
    # winning entry rejects NaN, +inf and an all-masked vector.
    best = int(np.argmax(arr))
    top = arr[best]
    if not top < np.inf:
        raise InvalidInputError("logits must be finite or -inf")
    if top == -np.inf:
        raise InvalidInputError("softmax of an all-masked logit vector")
    return best


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.ndim == 0 or p.shape[-1:] != q.shape[-1:]:
        raise InvalidInputError("distributions must share a vocabulary size")
    if min(p.ndim, q.ndim) > 1 and p.shape != q.shape:
        raise InvalidInputError("distribution stacks must share a shape")
    return p, q


def _scalar_or_rows(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def jsd(p, q):
    """Base-2 Jensen-Shannon divergence; symmetric, 0 iff p == q, at most 1.

    Zero-probability terms follow the 0 * log(0 / x) := 0 continuity
    convention.
    """
    p, q = _check_pair(p, q)
    m = 0.5 * (p + q)
    # m > 0 wherever p > 0 or q > 0; the masked-out terms may divide 0 by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _scalar_or_rows(0.5 * _kl2(p, m) + 0.5 * _kl2(q, m))


def _kl2(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.where(p > 0, p * np.log2(p / m), 0.0).sum(axis=-1)


def total_variation(p, q):
    """Half the L1 distance between probability vectors."""
    p, q = _check_pair(p, q)
    return _scalar_or_rows(0.5 * np.abs(p - q).sum(axis=-1))


def contrast_logits(f_expert, f_amateur, alpha: float) -> np.ndarray:
    """Log-space contrast (1 + alpha) * f_expert - alpha * f_amateur.

    Entries masked (-inf) in the expert vector stay masked.
    """
    if alpha < 0:
        raise InvalidParameterError("amplification factor must be nonnegative")
    f_e, _ = _as_logits(f_expert)
    f_a, _ = _as_logits(f_amateur)
    if f_e.shape != f_a.shape:
        raise InvalidInputError("logit vectors must share a vocabulary size")
    masked = np.isneginf(f_e)
    with np.errstate(invalid="ignore"):
        out = (1.0 + alpha) * f_e - alpha * f_a
    out[masked] = -np.inf
    return out


def _plausible(p_expert, beta: float) -> np.ndarray:
    """Boolean adaptive plausibility mask: p >= beta * max(p) in each vector."""
    if not 0 < beta < 1:
        raise InvalidParameterError("plausibility threshold must lie in (0, 1)")
    p = np.asarray(p_expert, dtype=float)
    return p >= beta * p.max(axis=-1, keepdims=True)


def plausibility_mask(p_expert, beta: float) -> PlausibilityMask:
    """Adaptive plausibility set of one expert vector, as token ids."""
    allowed = frozenset(int(i) for i in np.flatnonzero(_plausible(p_expert, beta)))
    return PlausibilityMask(allowed=allowed, beta=beta)


def _masked_contrast(f_e: np.ndarray, f_a: np.ndarray, keep: np.ndarray, alpha: float) -> np.ndarray:
    """Softmax of the contrast logits on the kept tokens; the rest get 0.

    The caller has checked f_e and f_a, and keep excludes every token masked
    in f_e. The contrast is checked here: an amateur -inf under a kept token
    makes it +inf or NaN.
    """
    with np.errstate(invalid="ignore"):
        contrasted = np.where(keep, (1.0 + alpha) * f_e - alpha * f_a, -np.inf)
    return _softmax(contrasted)


def contrast_distribution(f_expert, f_amateur, alpha: float, beta: float) -> np.ndarray:
    """Masked contrastive distribution for each ordered FOV pair, one per
    row of the expert and amateur logits.

    The plausibility mask comes from the expert softmax; tokens outside it
    get exactly zero probability and the remainder renormalizes.
    """
    f_e = _as_array(f_expert)
    keep = _plausible(_softmax(f_e), beta) & (f_e > -np.inf)
    if alpha < 0:
        raise InvalidParameterError("amplification factor must be nonnegative")
    f_a, _ = _as_logits(f_amateur)
    if f_e.shape != f_a.shape:
        raise InvalidInputError("logit vectors must share a vocabulary size")
    return _masked_contrast(f_e, f_a, keep, alpha)


def contrast_rows(logits, probs, experts, amateurs, alpha: float, beta: float) -> np.ndarray:
    """contrast_distribution of the rows `experts` of a window stack against
    its rows `amateurs`, for a stack and its softmax from window_softmax.

    The plausibility mask of each window is built once from its row of
    probs, then indexed by expert.
    """
    if alpha < 0:
        raise InvalidParameterError("amplification factor must be nonnegative")
    keep = _plausible(probs, beta) & (logits > -np.inf)
    ends = np.array((experts, amateurs))
    f_e, f_a = logits[ends]
    return _masked_contrast(f_e, f_a, keep[ends[0]], alpha)


def top_m_pairs(dists, m: int) -> list[tuple[int, int]]:
    """Unordered index pairs ranked by JSD descending, lexicographic on ties.

    Returns the first min(m, n*(n-1)/2) pairs. Selection sees the full
    (unmasked) distributions; their JSDs come from one batched call.
    """
    if len(dists) < 2:
        raise InvalidInputError("need at least two distributions to pair")
    if m < 1:
        raise InvalidParameterError("pair buffer size must be at least 1")
    try:
        probs = np.asarray(dists, dtype=float)
    except ValueError as exc:
        raise InvalidInputError("distributions must share a vocabulary size") from exc
    first, second = np.array(list(combinations(range(len(probs)), 2))).T
    order = np.argsort(-jsd(probs[first], probs[second]), kind="stable")[:m]
    return [(int(first[k]), int(second[k])) for k in order]


def argmax_token(p):
    """Lowest token id among the maximal probabilities of each vector."""
    top = np.argmax(np.asarray(p, dtype=float), axis=-1)
    return int(top) if top.ndim == 0 else top

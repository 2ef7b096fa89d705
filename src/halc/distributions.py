"""Logit and probability algebra for contrastive decoding.

Logits are float vectors indexed by token id; -inf marks a masked token.
Probability vectors are nonnegative and sum to one. Every operation works
along the last axis, so one call handles a single vector or an (n, V) stack
of them, and a vector broadcasts against the rows of a stack. Called on
plain vectors, the divergences return floats.

The masked contrast is one softmax of the contrast with -inf off the
plausibility mask. For window rows it returns each row's most probable
token and that token's probability; when every mask keeps a single token,
as on most decode steps, it computes one contrast value per row, to check
it, and that token's probability is 1.0. The JSD computes its midpoint once
and each KL term in one temporary.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidParameterError

__all__ = [
    "softmax",
    "argmax_logit",
    "jsd",
    "total_variation",
    "contrast_distribution",
    "contrast_rows",
]


def _as_array(values, ndims: tuple[int, ...] = (1, 2)) -> np.ndarray:
    """The logits as a float array of an allowed rank with nonempty vectors."""
    try:
        arr = np.asarray(values, dtype=float)
    except ValueError as exc:
        raise InvalidInputError("logits must be numeric vectors of one length") from exc
    if arr.ndim not in ndims or arr.shape[-1] == 0:
        raise InvalidInputError("logits must be a nonempty 1-D vector or (n, V) stack")
    return arr


def _check_maxima(top: np.ndarray) -> None:
    """Reject the maxima of logit vectors that hold NaN or +inf logits, or
    mask every logit."""
    if not np.isfinite(top).all():
        if not (top < np.inf).all():  # the maximum propagates NaN
            raise InvalidInputError("logits must be finite or -inf")
        raise InvalidInputError("softmax of an all-masked logit vector")


def _softmax(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax of each vector of a float array, rejecting
    NaN and +inf logits and vectors with every logit masked; written to
    `out` (which may be arr) if given, as numpy's ufuncs do."""
    top = arr.max(axis=-1, keepdims=True)
    _check_maxima(top)
    out = np.subtract(arr, top, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax(logits) -> np.ndarray:
    """Max-subtracted exponentiation and normalization of each logit
    vector; -inf maps to 0."""
    return _softmax(_as_array(logits))


def argmax_logit(logits) -> int:
    """Lowest token id among the maximal logits of one vector, rejected on
    exactly the inputs softmax rejects."""
    arr = _as_array(logits, ndims=(1,))
    # argmax returns the first NaN when there is one, so one look at the
    # winning entry rejects NaN, +inf and an all-masked vector.
    best = int(arr.argmax())
    top = arr.item(best)
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
    convention. Rounding can take the divergence of nearly equal
    distributions below 0, so it is clamped at 0; NaN stays NaN.
    """
    p, q = _check_pair(p, q)
    mid = p + q
    mid *= 0.5
    # The midpoint is > 0 wherever p > 0 or q > 0; the zeroed terms may
    # divide 0 by 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        div = 0.5 * _kl2(p, mid) + 0.5 * _kl2(q, mid)
    return _scalar_or_rows(np.maximum(div, 0.0))  # maximum propagates NaN


def _kl2(p: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Base-2 KL divergence of p from the midpoint `mid` along the last
    axis, computed in one temporary; terms where p is not positive count 0.

    Two-token terms are summed column by column, as in total_variation,
    and summed again along the axis when a row is NaN.
    """
    terms = p / mid
    np.log2(terms, out=terms)
    terms *= p
    positive = p > 0
    if not positive.all():
        terms = np.where(positive, terms, 0.0)
    if terms.shape[-1] == 2:
        kl = terms[..., 0] + terms[..., 1]
        # A total of rows that are not NaN may still be NaN (inf - inf);
        # summing those again only costs time.
        if not np.isnan(kl.sum()):
            return kl
    return terms.sum(axis=-1)


def total_variation(p, q):
    """Half the L1 distance between probability vectors.

    Two-token vectors are summed column by column, |p0 - q0| + |p1 - q1|,
    the order numpy's sum over a 2-wide axis uses, without that reduction
    over a short axis, which numpy runs row by row. Where two NaNs meet,
    numpy's elementwise loops may keep either one, so when a row holds a
    NaN all rows are summed again by that reduction, which keeps the first.
    """
    p, q = _check_pair(p, q)
    if p.shape[-1] == 2:
        l1 = np.abs(p[..., 0] - q[..., 0])
        l1 += np.abs(p[..., 1] - q[..., 1])
        # The terms are >= 0, so the total is NaN iff some row is.
        if np.isnan(l1.sum()):
            l1 = np.abs(p - q).sum(axis=-1)
    else:
        l1 = np.abs(p - q).sum(axis=-1)
    l1 *= 0.5
    return _scalar_or_rows(l1)


def _plausible(p_expert, beta: float) -> np.ndarray:
    """Boolean adaptive plausibility mask: p >= beta * max(p) in each vector."""
    if not 0 < beta < 1:
        raise InvalidParameterError("plausibility threshold must lie in (0, 1)")
    p = np.asarray(p_expert, dtype=float)
    return p >= beta * p.max(axis=-1, keepdims=True)


def _contrast(f_e, f_a, alpha: float) -> np.ndarray:
    """The contrast (1 + alpha) * f_e - alpha * f_a, computed in place in the
    float arrays f_e and f_a, which the caller hands over; an overflow or
    inf - inf is left for the caller's check."""
    with np.errstate(over="ignore", invalid="ignore"):
        f_e *= 1.0 + alpha
        f_a *= alpha
        f_e -= f_a
    return f_e


def _masked_contrast(f_e, f_a, keep, alpha: float) -> np.ndarray:
    """Softmax of the _contrast of the checked float arrays f_e and f_a with
    -inf off the mask keep, computed in place in f_e. The softmax checks the
    contrast: an amateur -inf under a kept token makes it +inf or NaN. Off
    the mask, -inf replaces what inf - inf or an overflow left there.
    """
    _contrast(f_e, f_a, alpha)
    f_e[~keep] = -np.inf
    return _softmax(f_e, out=f_e)


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
    f_a = _as_array(f_amateur)
    if not (f_a.max(axis=-1) < np.inf).all():  # the maximum propagates NaN
        raise InvalidInputError("logits must be finite or -inf")
    if f_e.shape != f_a.shape:
        raise InvalidInputError("logit vectors must share a vocabulary size")
    return _masked_contrast(f_e.copy(), f_a.copy(), keep, alpha)


def contrast_rows(
    logits, probs, experts, amateurs, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """The most probable token (lowest id on ties) and its probability in
    contrast_distribution of each row `experts` of a checked window stack
    against its row `amateurs`, given the stack's softmax.

    `experts` and `amateurs` are row indices, best given as intp arrays.
    The plausibility mask of each window is built once from its row of
    probs, then indexed by expert. Each mask keeps its window's most
    probable token; when each keeps only that one, only that token's
    contrast is computed, to be checked, and its probability is 1.0, the
    softmax of a single finite value.

    Only a threshold beta * max(p) that underflows to 0 keeps a -inf
    logit (probability 0), and it keeps the whole row, so the -inf logits
    are masked off for the full contrast only.
    """
    if alpha < 0:
        raise InvalidParameterError("amplification factor must be nonnegative")
    keep = _plausible(probs, beta)
    experts = np.asarray(experts, dtype=np.intp)
    amateurs = np.asarray(amateurs, dtype=np.intp)
    if np.count_nonzero(keep) == len(keep):
        tokens = keep.argmax(axis=-1)[experts]
        top = _contrast(logits[experts, tokens], logits[amateurs, tokens], alpha)
        _check_maxima(top)
        return tokens, np.ones(len(tokens))
    keep &= logits > -np.inf
    dists = _masked_contrast(logits[experts], logits[amateurs], keep[experts], alpha)
    return dists.argmax(axis=-1), dists.max(axis=-1)

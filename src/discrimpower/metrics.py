"""Agreement metrics between ground-truth and candidate test outcomes.

Given the significant / non-significant pair partitions produced from
two qrel sets over the same runs, the candidate's errors split into

* false positives: pairs the candidate calls significant but the ground
  truth does not (Type I), and
* false negatives: pairs the ground truth calls significant but the
  candidate does not (Type II).

From the four confusion counts we derive precision and recall for both
the significant class (p1, r1) and the non-significant class (p2, r2),
balanced accuracy, and the Matthews correlation coefficient. Rates with
a zero denominator are returned as None rather than 0 so that reports
can distinguish "no evidence" from "all wrong".
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import ConfigurationError, ValidationError
from .measures import _union_judgments
from .significance import SignificanceSet
from .trec import Qrels


@dataclass(frozen=True)
class ConfusionCounts:
    """Pairwise outcome confusion between ground truth and candidate."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def significant_gt(self) -> int:
        return self.tp + self.fn

    @property
    def nonsignificant_gt(self) -> int:
        return self.tn + self.fp


def _error_class(sig_gt: np.ndarray, sig_cand: np.ndarray) -> np.ndarray:
    """The candidate's call on each pair, scored against the truth's: TN, FP, FN or TP."""
    return np.array(["TN", "FP", "FN", "TP"])[2 * sig_gt + sig_cand]


def confusion(gt: SignificanceSet, cand: SignificanceSet) -> ConfusionCounts:
    """Count tp/tn/fp/fn over the shared pair universe.

    Both sets must cover exactly the same system pairs; a mismatch means
    the two tests were not run on the same runs.
    """
    if gt.pairs != cand.pairs:
        gt_pairs, cand_pairs = set(gt.pairs), set(cand.pairs)
        raise ValidationError(
            "pair universes differ between ground truth and candidate: "
            f"only in ground truth {sorted(gt_pairs - cand_pairs)}, "
            f"only in candidate {sorted(cand_pairs - gt_pairs)}"
        )
    # Indexed as _error_class indexes its names.
    tn, fp, fn, tp = np.bincount(2 * gt.significant + cand.significant, minlength=4).tolist()
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num: int, denom: int) -> Optional[float]:
    if denom == 0:
        return None
    return num / denom


def sig_precision_recall(c: ConfusionCounts) -> tuple[Optional[float], Optional[float]]:
    """(precision, recall) for the significant class: ①P, ①R."""
    return _ratio(c.tp, c.tp + c.fp), _ratio(c.tp, c.tp + c.fn)


def nonsig_precision_recall(c: ConfusionCounts) -> tuple[Optional[float], Optional[float]]:
    """(precision, recall) for the non-significant class: ②P, ②R."""
    return _ratio(c.tn, c.tn + c.fn), _ratio(c.tn, c.tn + c.fp)


def balanced_accuracy(c: ConfusionCounts) -> Optional[float]:
    """Mean of the two recalls; None if either is undefined."""
    _, r1 = sig_precision_recall(c)
    _, r2 = nonsig_precision_recall(c)
    if r1 is None or r2 is None:
        return None
    return (r1 + r2) / 2


def mcc(c: ConfusionCounts) -> tuple[float, bool]:
    """Matthews correlation coefficient and a zero-denominator flag.

    The denominator product is computed in exact integer arithmetic; if
    any factor is zero the coefficient is reported as 0.0 with the flag
    set, following the usual convention.
    """
    denom_sq = (
        (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    )
    if denom_sq == 0:
        return 0.0, True
    num = c.tp * c.tn - c.fp * c.fn
    return num / math.sqrt(denom_sq), False


def sensitivity(ss: SignificanceSet) -> Optional[float]:
    """Fraction of all pairs the test calls significant."""
    if not ss.pairs:
        return None
    return int(np.count_nonzero(ss.significant)) / len(ss.pairs)


def delta_sensitivity(gt: SignificanceSet, cand: SignificanceSet) -> Optional[float]:
    """Absolute gap between the two sensitivities.

    Zero means the two tests flag the same number of pairs, which does
    not imply they flag the same pairs.
    """
    s_gt = sensitivity(gt)
    s_cand = sensitivity(cand)
    if s_gt is None or s_cand is None:
        return None
    return abs(s_cand - s_gt)


def cohen_kappa(
    gt: Qrels,
    cand: Qrels,
    threshold: int = 2,
) -> float:
    """Cohen's kappa over binarized labels on the judged pairs both sets share."""
    *_, (gt_grades, cand_grades), shared = _union_judgments(gt, cand)
    return _kappa(gt_grades, cand_grades, shared, threshold)[0]


def _kappa(gt: array, cand: array, shared: array, threshold: int) -> tuple[float, bool]:
    """Cohen's kappa and its degenerate flag over the keys ``shared`` marks.

    ``gt`` and ``cand`` are two ``array('q')`` grade vectors over the same
    keys and ``shared`` is an ``array('B')``, as ``measures._union_judgments``
    returns them. Grades are binarized as relevant when ``grade >=
    threshold``. When expected agreement is 1 (at least one rater gives a
    single constant label class combination making p_e degenerate), kappa
    is defined as 1.0 for perfect observed agreement and 0.0 otherwise;
    the flag marks that degenerate case.
    """
    shared = np.frombuffer(shared, dtype=bool)
    relevant_gt, relevant_cand = (np.frombuffer(grades, dtype=np.int64) >= threshold
                                  for grades in (gt, cand))
    # Python int counts: the order of the keys does not matter, and the
    # rates below are Python floats.
    n, both, pos_gt, pos_cand = (int(np.count_nonzero(shared & v)) for v in (
        True, relevant_gt == relevant_cand, relevant_gt, relevant_cand))
    if n == 0:
        raise ValidationError("no shared judged (topic, document) pairs")
    p_o, pos_gt, pos_cand = both / n, pos_gt / n, pos_cand / n
    p_e = pos_gt * pos_cand + (1 - pos_gt) * (1 - pos_cand)
    if p_e == 1.0:
        return (1.0 if p_o == 1.0 else 0.0), True
    return (p_o - p_e) / (1 - p_e), False


def kendall_tau(
    means_gt: Mapping[str, float],
    means_cand: Mapping[str, float],
) -> Optional[float]:
    """Kendall's tau-b between the two system orderings by mean score.

    Concordant/discordant pairs and tie corrections are counted in exact
    integer arithmetic, so boundary cases (identical or exactly reversed
    rankings) come out as exactly +/-1.0. If either ranking is one big
    tie the coefficient is undefined and None is returned.
    """
    if set(means_gt) != set(means_cand):
        raise ValidationError("system sets differ between the two mean-score maps")
    tags = sorted(means_gt)
    m = len(tags)
    if m < 2:
        raise ConfigurationError("rank correlation needs at least two systems")
    xs, ys = (np.array([means[t] for t in tags]) for means in (means_gt, means_cand))
    i, j = np.triu_indices(m, 1)
    # (x > y) - (x < y), so a NaN mean ties with every other.
    dx, dy = ((v[i] > v[j]).astype(int) - (v[i] < v[j]) for v in (xs, ys))
    concordant, discordant, ties_x, ties_y = (int(np.count_nonzero(d)) for d in (
        dx * dy > 0, dx * dy < 0, dx == 0, dy == 0))
    n0 = m * (m - 1) // 2
    denom_sq = (n0 - ties_x) * (n0 - ties_y)
    if denom_sq == 0:
        return None
    root = math.isqrt(denom_sq)
    denom = root if root * root == denom_sq else math.sqrt(denom_sq)
    return (concordant - discordant) / denom


@dataclass(frozen=True)
class DiscrimReport:
    """Full agreement report for one candidate qrel set."""

    p1: Optional[float]
    r1: Optional[float]
    p2: Optional[float]
    r2: Optional[float]
    bac: Optional[float]
    mcc: float
    kappa: float
    tau: Optional[float]
    sens_gt: Optional[float]
    sens_cand: Optional[float]
    delta_sens: Optional[float]
    counts: ConfusionCounts
    flags: tuple[str, ...] = ()


def full_report(
    gt_ss: SignificanceSet,
    cand_ss: SignificanceSet,
    gt_qrels: Qrels,
    cand_qrels: Qrels,
    means_gt: Mapping[str, float],
    means_cand: Mapping[str, float],
    kappa_threshold: int = 2,
) -> DiscrimReport:
    """Assemble every agreement metric into one record.

    Undefined rates stay None and are additionally named in ``flags`` so
    a flat CSV row can still signal them.
    """
    *_, (gt_grades, cand_grades), shared = _union_judgments(gt_qrels, cand_qrels)
    return _report(gt_ss, cand_ss, means_gt, means_cand,
                   _kappa(gt_grades, cand_grades, shared, kappa_threshold))


def _report(
    gt_ss: SignificanceSet,
    cand_ss: SignificanceSet,
    means_gt: Mapping[str, float],
    means_cand: Mapping[str, float],
    kappa_with_flag: tuple[float, bool],
) -> DiscrimReport:
    """``full_report`` with kappa and its degenerate flag already computed."""
    counts = confusion(gt_ss, cand_ss)
    p1, r1 = sig_precision_recall(counts)
    p2, r2 = nonsig_precision_recall(counts)
    bac = balanced_accuracy(counts)
    mcc_value, mcc_degenerate = mcc(counts)
    kappa, kappa_degenerate = kappa_with_flag
    tau = kendall_tau(means_gt, means_cand)

    flags = []
    for name, value in (("p1", p1), ("r1", r1), ("p2", p2), ("r2", r2), ("bac", bac)):
        if value is None:
            flags.append(f"{name}_undefined")
    if mcc_degenerate:
        flags.append("mcc_zero_denominator")
    if kappa_degenerate:
        flags.append("kappa_degenerate")
    if tau is None:
        flags.append("tau_undefined")

    return DiscrimReport(
        p1=p1,
        r1=r1,
        p2=p2,
        r2=r2,
        bac=bac,
        mcc=mcc_value,
        kappa=kappa,
        tau=tau,
        sens_gt=sensitivity(gt_ss),
        sens_cand=sensitivity(cand_ss),
        delta_sens=delta_sensitivity(gt_ss, cand_ss),
        counts=counts,
        flags=tuple(flags),
    )

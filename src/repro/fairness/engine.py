"""Vectorized batch fairness evaluation.

The scalar helpers in :mod:`repro.fairness.metrics` score one model on one
attribute at a time, rebuilding group masks and looping over groups in
Python.  Every layer of the reproduction — the search reward, the figures,
the baselines — funnels through them, so with the candidate-evaluation
engine parallelised the metric loop became the dominant serial cost per
episode.

:class:`EvaluationEngine` replaces the loop with a handful of array ops.
For a stacked predictions matrix ``(num_candidates, num_samples)`` and a
precomputed :class:`~repro.data.groups.GroupIndexBank` it computes, for
*all* candidates and *all* attributes at once:

* overall accuracy — one exact correctness sum per candidate;
* per-group accuracy — one matmul of the correctness matrix against the
  bank's one-hot membership matrix (all attributes share it);
* the paper's Eq. 1 L1 unfairness score and the max-min accuracy gap;
* Eq. 3 rewards (via :meth:`rewards` or
  :meth:`~repro.core.reward.MultiFairnessReward.compute_batch`).

All results are **bit-identical** to the scalar loop: correctness counts
are exact integers in float64, divisions happen in the same order, and the
per-attribute unfairness sum accumulates group deviations sequentially in
spec order exactly as the scalar ``sum()`` did.  Empty groups inherit the
overall accuracy (zero deviation), matching the scalar fallback.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.attributes import AttributeSpec
from ..data.groups import GroupIndexBank
from .metrics import FairnessEvaluation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.dataset import FairnessDataset


@dataclass
class BatchEvaluation:
    """Fairness metrics of a whole candidate batch, as aligned arrays.

    ``accuracy`` has shape ``(num_candidates,)``; ``group_accuracy`` maps
    each attribute to ``(num_candidates, num_groups)``; ``unfairness`` and
    ``gaps`` map each attribute to ``(num_candidates,)``.  Use
    :meth:`evaluation` / :meth:`evaluations` to materialise scalar
    :class:`~repro.fairness.metrics.FairnessEvaluation` objects with values
    bit-identical to the legacy per-model loop.
    """

    attributes: Tuple[str, ...]
    specs: Dict[str, AttributeSpec]
    accuracy: np.ndarray
    group_accuracy: Dict[str, np.ndarray] = field(default_factory=dict)
    unfairness: Dict[str, np.ndarray] = field(default_factory=dict)
    gaps: Dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.accuracy.shape[0])

    def __iter__(self) -> Iterator[FairnessEvaluation]:
        return (self.evaluation(i) for i in range(len(self)))

    def unfairness_matrix(self) -> np.ndarray:
        """Per-attribute unfairness stacked as ``(num_candidates, num_attributes)``."""
        return np.stack([self.unfairness[name] for name in self.attributes], axis=1)

    def multi_dimensional_unfairness(self) -> np.ndarray:
        """Equation 1 per candidate: the sum of per-attribute unfairness scores."""
        total = np.zeros(len(self), dtype=np.float64)
        for name in self.attributes:
            total = total + self.unfairness[name]
        return total

    def evaluation(self, index: int) -> FairnessEvaluation:
        """The ``index``-th candidate as a scalar :class:`FairnessEvaluation`."""
        group_accuracy: Dict[str, Dict[str, float]] = {}
        for name in self.attributes:
            groups = self.specs[name].groups
            row = self.group_accuracy[name][index]
            group_accuracy[name] = {group: float(row[g]) for g, group in enumerate(groups)}
        return FairnessEvaluation(
            accuracy=float(self.accuracy[index]),
            unfairness={name: float(self.unfairness[name][index]) for name in self.attributes},
            group_accuracy=group_accuracy,
            gaps={name: float(self.gaps[name][index]) for name in self.attributes},
        )

    def evaluations(self) -> List[FairnessEvaluation]:
        """All candidates as scalar evaluations (batch order preserved)."""
        return [self.evaluation(i) for i in range(len(self))]


#: Engines memoised per dataset object (weak keys: caching never extends a
#: dataset's lifetime), keyed by the attribute selection.
_DATASET_ENGINES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class EvaluationEngine:
    """Scores stacked candidate predictions against one fixed sample set."""

    def __init__(
        self,
        labels: np.ndarray,
        bank: GroupIndexBank,
        attributes: Optional[Sequence[str]] = None,
    ) -> None:
        labels = np.asarray(labels)  # repro-lint: disable=RL7 — dtype inspected before the int64 cast below
        if labels.dtype == np.object_ or np.issubdtype(labels.dtype, np.complexfloating):
            raise ValueError(f"labels must be integer-valued, got dtype {labels.dtype}")
        if np.issubdtype(labels.dtype, np.floating):
            if labels.size and not np.array_equal(labels, np.trunc(labels)):
                raise ValueError(
                    f"labels of dtype {labels.dtype} carry fractional values; "
                    "pass integer class labels (int32/int64) or integral floats"
                )
        self.labels = labels.astype(np.int64, copy=False)
        if self.labels.ndim != 1:
            raise ValueError("labels must be a 1-D array")
        if self.labels.shape[0] != bank.num_samples:
            raise ValueError(
                f"labels have {self.labels.shape[0]} samples but the bank indexes "
                f"{bank.num_samples}"
            )
        names = tuple(attributes) if attributes is not None else bank.attribute_names
        unknown = [name for name in names if name not in bank.specs]
        if unknown:
            raise ValueError(
                f"unknown attribute(s) {unknown}; bank has {list(bank.attribute_names)}"
            )
        # An empty selection is a legal accuracy-only evaluation (the scalar
        # path always supported ``attributes=[]``); the bank is kept whole
        # and simply never consulted.
        self.bank = bank.subset(names) if names and names != bank.attribute_names else bank
        self.attributes: Tuple[str, ...] = names

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(
        cls,
        dataset: "FairnessDataset",
        attributes: Optional[Sequence[str]] = None,
    ) -> "EvaluationEngine":
        """Engine over ``dataset`` (memoised per dataset and attributes).

        The underlying :class:`GroupIndexBank` is the dataset's cached bank,
        so repeated evaluations on the same partition — every controller
        batch of a search, every figure over the test split — share one set
        of membership matrices.
        """
        names = tuple(attributes) if attributes is not None else dataset.attributes.names
        per_dataset: Dict[Tuple, EvaluationEngine] = _DATASET_ENGINES.setdefault(
            dataset, {}
        )
        engine = per_dataset.get(names)
        if engine is None:
            for name in names:
                dataset.attributes[name]  # KeyError with the available names
            if names:
                engine = cls(dataset.labels, dataset.group_index_bank(names))
            else:  # accuracy-only evaluation over the dataset's full bank
                engine = cls(dataset.labels, dataset.group_index_bank(), attributes=())
            per_dataset[names] = engine
        return engine

    @classmethod
    def from_arrays(
        cls,
        labels: np.ndarray,
        group_ids: Mapping[str, np.ndarray],
        specs: Mapping[str, AttributeSpec],
    ) -> "EvaluationEngine":
        """Engine over raw arrays (the scalar wrappers' entry point)."""
        return cls(labels, GroupIndexBank(group_ids, specs))

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        return self.bank.num_samples

    def restrict(self, indices: np.ndarray) -> "EvaluationEngine":
        """Engine over the sample subset ``indices`` (bank slice memoised)."""
        indices = np.asarray(indices, dtype=np.int64)
        return EvaluationEngine(self.labels[indices], self.bank.slice(indices), self.attributes)

    # ------------------------------------------------------------------
    # Batched metrics
    # ------------------------------------------------------------------
    def _as_batch(self, predictions: np.ndarray) -> np.ndarray:
        """Normalise input to a hard-prediction matrix ``(C, num_samples)``.

        Accepts ``(num_samples,)`` hard predictions, a stacked
        ``(num_candidates, num_samples)`` matrix, or a probability/logit
        tensor ``(num_candidates, num_samples, num_classes)`` (argmaxed once
        for the whole batch).  Probability tensors may be any real float
        dtype (float32 serving outputs included); *hard* predictions must be
        integer-valued — a float matrix with fractional entries is almost
        certainly a probability tensor missing its class axis, and silently
        truncating it would corrupt every metric, so it is rejected.
        """
        array = np.asarray(predictions)  # repro-lint: disable=RL7 — dtype inspected below, argmax/int casts follow
        if array.dtype == np.object_ or np.issubdtype(array.dtype, np.complexfloating):
            raise ValueError(
                f"predictions must be real-valued arrays, got dtype {array.dtype}"
            )
        if array.ndim == 3:
            array = array.argmax(axis=-1)
        elif array.ndim == 1:
            array = array[None, :]
        if array.ndim != 2 or array.shape[1] != self.num_samples:
            raise ValueError(
                f"expected predictions of shape (num_candidates, {self.num_samples}), "
                f"got {np.asarray(predictions).shape}"  # repro-lint: disable=RL7 — shape probe for the error message, no numeric result
            )
        if np.issubdtype(array.dtype, np.floating):
            if array.size and not np.array_equal(array, np.trunc(array)):
                raise ValueError(
                    f"hard predictions of dtype {array.dtype} carry fractional "
                    "values; pass integer class labels, or a 3-D "
                    "(num_candidates, num_samples, num_classes) probability "
                    "tensor to be argmaxed"
                )
        return array.astype(np.int64, copy=False)

    def accuracies(self, predictions: np.ndarray) -> np.ndarray:
        """Overall accuracy per candidate, ``(num_candidates,)``."""
        batch = self._as_batch(predictions)
        if self.num_samples == 0:
            return np.zeros(batch.shape[0], dtype=np.float64)
        correct = (batch == self.labels[None, :]).astype(np.float64)
        return correct.sum(axis=1, dtype=np.float64) / self.num_samples

    def evaluate(self, predictions: np.ndarray) -> BatchEvaluation:
        """Score every candidate on every attribute in a handful of array ops."""
        batch = self._as_batch(predictions)
        num_candidates = batch.shape[0]
        correct = (batch == self.labels[None, :]).astype(np.float64)
        if self.num_samples:
            # Boolean sums are exact integer counts in float64, so this is
            # bitwise the scalar ``(preds == labels).mean()``.
            accuracy = correct.sum(axis=1, dtype=np.float64) / self.num_samples
        else:
            accuracy = np.zeros(num_candidates, dtype=np.float64)

        # One matmul yields every per-group correct count for every
        # candidate and attribute (columns are the bank's group blocks).
        if self.attributes:
            group_correct = np.matmul(correct, self.bank.membership)
        else:
            group_correct = None

        group_accuracy: Dict[str, np.ndarray] = {}
        unfairness: Dict[str, np.ndarray] = {}
        gaps: Dict[str, np.ndarray] = {}
        for name in self.attributes:
            block = self.bank.slices[name]
            counts = self.bank.counts[block]
            present = counts > 0
            safe_counts = np.where(present, counts, 1.0)
            per_group = group_correct[:, block] / safe_counts[None, :]
            # Empty groups inherit the overall accuracy: zero deviation,
            # exactly the scalar fallback.
            per_group = np.where(present[None, :], per_group, accuracy[:, None])
            group_accuracy[name] = per_group

            # Sequential accumulation over groups in spec order keeps the
            # floating-point addition order of the scalar ``sum()``.
            deviation = np.zeros(num_candidates, dtype=np.float64)
            for g in range(per_group.shape[1]):
                deviation = deviation + np.abs(per_group[:, g] - accuracy)
            unfairness[name] = deviation
            gaps[name] = per_group.max(axis=1) - per_group.min(axis=1)

        return BatchEvaluation(
            attributes=self.attributes,
            specs={name: self.bank.specs[name] for name in self.attributes},
            accuracy=accuracy,
            group_accuracy=group_accuracy,
            unfairness=unfairness,
            gaps=gaps,
        )

    def rewards(
        self,
        batch: BatchEvaluation,
        attributes: Optional[Sequence[str]] = None,
        epsilon: float = 1e-6,
    ) -> np.ndarray:
        """Equation 3 per candidate: ``sum_k A / max(U_{a_k}, epsilon)``.

        Mirrors :meth:`FairnessEvaluation.reward` (same default epsilon,
        same sequential accumulation order over attributes).
        """
        names = tuple(attributes) if attributes is not None else batch.attributes
        unknown = [name for name in names if name not in batch.unfairness]
        if unknown:
            raise ValueError(
                f"unknown attribute(s) {unknown}; batch has {list(batch.attributes)}"
            )
        totals = np.zeros(len(batch), dtype=np.float64)
        for name in names:
            totals = totals + batch.accuracy / np.maximum(batch.unfairness[name], epsilon)
        return totals

    def __repr__(self) -> str:
        return (
            f"EvaluationEngine(n={self.num_samples}, "
            f"attributes={list(self.attributes)})"
        )

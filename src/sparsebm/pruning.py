"""Redundancy-pruning baseline: repeatedly drop each hidden unit's weakest
connections by weight magnitude and retrain with the mask enforced, until a
per-unit connection budget is reached."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .replicated_softmax import RsModel, load_rs_model, save_rs_model
from .sbm import SbmModel, SbmStructure, TrainConfig, sbm_fit
from .util import check_int, rng_from

_PRUNE_CD_STREAM = 23


@dataclass
class PruneConfig:
    """Settings for prune_and_retrain.

    target_per_unit is the final number of surviving connections per hidden
    unit; prune_fraction is the share of remaining prunable connections
    removed per iteration; each iteration retrains for
    retrain_epochs_per_iter epochs under the mask using the train settings.
    """

    target_per_unit: int
    prune_fraction: float = 0.2
    retrain_epochs_per_iter: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_int("target_per_unit", self.target_per_unit, 1)
        check_int("retrain_epochs_per_iter", self.retrain_epochs_per_iter, 1)
        if not 0.0 < self.prune_fraction < 1.0:
            raise ValueError("prune_fraction must lie in (0, 1)")


@dataclass
class PruneResult:
    model: SbmModel  # tree-less, over the structure of mask
    mask: np.ndarray
    iterations: list  # (iteration, per_unit_count, epochs_this_iteration)
    total_epochs: int


def prune_step(model: SbmModel, mask: np.ndarray, keep_per_unit: int):
    """Keep each unit's keep_per_unit largest-magnitude surviving weights.

    Ties break toward the lower visible index. Returns (model, mask): the
    model lives on the tree-less structure of the new mask, with pruned
    weights set to exactly zero; inputs are not modified.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != model.W.shape:
        raise ValueError("mask shape does not match W")
    if keep_per_unit < 1:
        raise ValueError("keep_per_unit must be at least 1")
    counts = mask.sum(axis=1)
    if np.any(counts < keep_per_unit):
        worst = int(counts.min())
        raise ValueError(
            f"keep_per_unit={keep_per_unit} exceeds the smallest surviving"
            f" count {worst}"
        )
    new_mask = np.zeros_like(mask)
    for j in range(model.n_hidden):
        surviving = np.nonzero(mask[j])[0]
        magnitude = np.abs(model.W[j, surviving])
        order = np.lexsort((surviving, -magnitude))
        new_mask[j, surviving[order[:keep_per_unit]]] = True
    pruned = SbmModel(SbmStructure.from_mask(new_mask, []),
                      np.where(new_mask, model.W, 0.0), (), model.a.copy(), model.b.copy())
    return pruned, new_mask


def prune_and_retrain(model: SbmModel, corpus: Corpus, config: PruneConfig) -> PruneResult:
    """Iterate prune_step and masked retraining down to the target budget.

    Pruning starts from the model's own structure, so an already pruned
    model only loses connections. Each iteration keeps
    ceil((1 - prune_fraction) * current) connections per unit, floored at
    the target, then retrains under the mask. The returned log records
    (iteration, per-unit count, epochs) per round.
    """
    mask = model.structure.mask()
    current = int(mask.sum(axis=1).min())
    if config.target_per_unit > current:
        raise ValueError(
            f"target_per_unit={config.target_per_unit} exceeds the model's"
            f" smallest per-unit connection count {current}"
        )
    work = model.copy()
    iterations = []
    total_epochs = 0
    rng = rng_from(config.train.seed, _PRUNE_CD_STREAM)
    iteration = 0
    while current > config.target_per_unit:
        iteration += 1
        keep = max(
            config.target_per_unit,
            math.ceil((1.0 - config.prune_fraction) * current),
        )
        if keep >= current:  # guard against a fraction too small to progress
            keep = current - 1
        work, mask = prune_step(work, mask, keep)
        current = keep
        work = sbm_fit(work, corpus, config.train, config.retrain_epochs_per_iter,
                       rng, epoch_offset=total_epochs)
        total_epochs += config.retrain_epochs_per_iter
        iterations.append((iteration, current, config.retrain_epochs_per_iter))
    return PruneResult(model=work, mask=mask, iterations=iterations, total_epochs=total_epochs)


def save_iteration_log(result: PruneResult, path) -> None:
    """TSV log: iter, per_unit_count, epochs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter\tper_unit_count\tepochs\n")
        for it, count, epochs in result.iterations:
            fh.write(f"{it}\t{count}\t{epochs}\n")


def save_pruned_rs(model: SbmModel, mask: np.ndarray, path) -> None:
    """save_rs_model of the model's parameters on the tree-less structure of mask."""
    structure = SbmStructure.from_mask(mask, [])
    save_rs_model(SbmModel(structure, model.W, (), model.a, model.b), path)


def load_pruned_rs(path):
    """(model, mask) of load_rs_model; mask is None for a dense RsModel."""
    model = load_rs_model(path)
    return model, None if isinstance(model, RsModel) else model.structure.mask().copy()

"""Sparse Boltzmann machines for bag-of-words text.

Replicated Softmax baselines, tree-coupled sparse models with exact hidden
inference, structure learning from conditional mutual information, a
magnitude-pruning baseline, and AIS-based held-out evaluation.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusSplit,
    Document,
    load_uci_bow,
    minibatches,
    save_uci_bow,
    select_vocab,
    split_corpus,
)
from .errors import FileFormatError, SparsebmError, StructureError
from .evaluation import (
    AisEstimate,
    AisSchedule,
    EmbeddingTable,
    ais_log_z,
    default_schedule,
    exact_log_prob,
    exact_log_z,
    interpretability_model,
    interpretability_unit,
    load_embeddings,
    perplexity,
)
from .pruning import PruneConfig, PruneResult, prune_and_retrain, prune_step
from .replicated_softmax import (
    RsModel,
    TrainConfig,
    load_rs_model,
    rs_cd_step,
    rs_energy,
    rs_hidden_conditional,
    rs_sample_visible,
    rs_train,
    save_rs_model,
)
from .sbm import (
    SbmModel,
    SbmStructure,
    TreePosterior,
    apply_mask,
    load_sbm_model,
    load_structure,
    sbm_cd_step,
    sbm_energy,
    sbm_gibbs_hidden_conditional,
    sbm_train,
    sbm_tree_marginals,
    save_sbm_model,
    save_structure,
)
from .structure import (
    CmiTable,
    Skeleton,
    build_cmi_table,
    build_skeleton,
    estimate_cmi,
    load_skeleton,
    save_skeleton,
    sbm_sfc,
)

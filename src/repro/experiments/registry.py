"""Factory for the experiment harness's imputer lineup.

Maps algorithm names (as they appear in the paper's figures) to
configured imputers.  Two profiles exist: ``"fast"`` shrinks epochs and
dimensions so the full benchmark grid runs on the numpy substrate in
minutes; ``"paper"`` uses the paper's settings (300 epochs, width 64/128).
EXPERIMENTS.md records which profile produced each reported number.
"""

from __future__ import annotations

from ..baselines import (
    AimNetImputer,
    DenoisingAutoencoderImputer,
    GainImputer,
    VaeImputer,
    DataWigImputer,
    EmbdiMcImputer,
    FdRepairImputer,
    FunForestImputer,
    GnnMcImputer,
    KnnImputer,
    LinkPredictionImputer,
    MiceImputer,
    MissForestImputer,
    ModeMeanImputer,
    TurlImputer,
)
from ..core import GrimpConfig, GrimpImputer
from ..fd import FunctionalDependency
from ..imputation import Imputer

__all__ = ["make_imputer", "ALGORITHMS", "FIGURE8_ALGORITHMS",
           "ABLATION_ALGORITHMS"]

#: The Figure 8/9 lineup: GRIMP variants plus the paper's baselines.
FIGURE8_ALGORITHMS = ("grimp-ft", "grimp-e", "holo", "misf", "turl",
                      "dwig", "embdi-mc")

#: The Figure 10 ablation lineup.
ABLATION_ALGORITHMS = ("grimp-mt", "gnn-mc", "embdi-mc")


def _grimp_config(profile: str, seed: int, **overrides) -> GrimpConfig:
    if profile == "paper":
        base = dict(feature_dim=32, gnn_dim=64, merge_dim=64, epochs=300,
                    patience=10, lr=5e-3, seed=seed)
    else:
        base = dict(feature_dim=16, gnn_dim=24, merge_dim=32, epochs=80,
                    patience=8, lr=1e-2, seed=seed)
    base.update(overrides)
    return GrimpConfig(**base)


def make_imputer(name: str, profile: str = "fast",
                 fds: tuple[FunctionalDependency, ...] = (),
                 seed: int = 0, dtype: str | None = None,
                 batch_size: int | None = None,
                 fanout: int | None = None) -> Imputer:
    """Build a configured imputer by its experiment name.

    Parameters
    ----------
    name:
        One of: ``grimp-ft``, ``grimp-e``, ``grimp-mt`` (alias of
        grimp-ft), ``grimp-linear``, ``grimp-fd`` (weak-diagonal+FD),
        ``holo``, ``misf``, ``funf``, ``fd-repair``, ``turl``, ``dwig``,
        ``embdi-mc``, ``gnn-mc``, ``mice``, ``knn``, ``mode``,
        ``link-pred``, ``dae``, ``gain``, ``vae``.
    profile:
        ``"fast"`` or ``"paper"``.
    fds:
        Functional dependencies for the FD-aware algorithms.
    dtype:
        Training dtype override (``"float32"``/``"float64"``); only the
        GRIMP variants accept it — checkpoints record the dtype a model
        was trained with, so serving reproduces its numerics exactly.
    batch_size / fanout:
        Minibatch/neighbor-sampling knobs (:mod:`repro.sampling`);
        GRIMP variants only.  ``fanout`` requires ``batch_size``; see
        :class:`~repro.core.GrimpConfig`.
    """
    if profile not in ("fast", "paper"):
        raise ValueError(f"unknown profile {profile!r}")
    if dtype is not None and not name.startswith("grimp"):
        raise ValueError(f"dtype only applies to grimp-* algorithms, "
                         f"not {name!r}")
    if (batch_size is not None or fanout is not None) and \
            not name.startswith("grimp"):
        raise ValueError(f"batch_size/fanout only apply to grimp-* "
                         f"algorithms, not {name!r}")
    fast = profile == "fast"
    embdi_kwargs = {"epochs": 1, "walks_per_node": 2} if fast \
        else {"epochs": 3, "walks_per_node": 5}
    grimp_overrides = {} if dtype is None else {"dtype": dtype}
    if batch_size is not None:
        grimp_overrides["batch_size"] = batch_size
    if fanout is not None:
        grimp_overrides["fanout"] = fanout

    if name in ("grimp-ft", "grimp-mt"):
        return GrimpImputer(_grimp_config(profile, seed, **grimp_overrides))
    if name == "grimp-e":
        return GrimpImputer(_grimp_config(profile, seed,
                                          feature_strategy="embdi",
                                          embdi_kwargs=embdi_kwargs,
                                          **grimp_overrides))
    if name == "grimp-linear":
        return GrimpImputer(_grimp_config(profile, seed, task_kind="linear",
                                          **grimp_overrides))
    if name == "grimp-fd":
        return GrimpImputer(_grimp_config(profile, seed,
                                          k_strategy="weak_diagonal_fd",
                                          fds=tuple(fds),
                                          **grimp_overrides))
    if name == "holo":
        return AimNetImputer(dim=12 if fast else 32,
                             epochs=30 if fast else 200, seed=seed)
    if name == "misf":
        return MissForestImputer(n_trees=6 if fast else 20,
                                 max_iterations=2 if fast else 5, seed=seed)
    if name == "funf":
        return FunForestImputer(tuple(fds), n_trees=6 if fast else 20,
                                max_iterations=2 if fast else 5, seed=seed)
    if name == "fd-repair":
        return FdRepairImputer(tuple(fds))
    if name == "turl":
        return TurlImputer(dim=12 if fast else 32,
                           epochs=20 if fast else 120, seed=seed)
    if name == "dwig":
        return DataWigImputer(string_buckets=16 if fast else 64,
                              hidden_dim=16 if fast else 64,
                              epochs=25 if fast else 150, seed=seed)
    if name == "embdi-mc":
        return EmbdiMcImputer(dim=12 if fast else 32,
                              epochs=25 if fast else 150,
                              embdi_kwargs=embdi_kwargs, seed=seed)
    if name == "gnn-mc":
        return GnnMcImputer(feature_dim=8 if fast else 32,
                            gnn_dim=12 if fast else 64,
                            epochs=20 if fast else 150, seed=seed)
    if name == "mice":
        return MiceImputer(max_iterations=3 if fast else 10)
    if name == "knn":
        return KnnImputer(k=5)
    if name == "mode":
        return ModeMeanImputer()
    if name == "dae":
        return DenoisingAutoencoderImputer(hidden_dim=32 if fast else 128,
                                           epochs=40 if fast else 200,
                                           seed=seed)
    if name == "gain":
        return GainImputer(hidden_dim=24 if fast else 64,
                           epochs=60 if fast else 300, seed=seed)
    if name == "vae":
        return VaeImputer(hidden_dim=32 if fast else 96,
                          epochs=80 if fast else 400, seed=seed)
    if name == "link-pred":
        return LinkPredictionImputer(dim=8 if fast else 32,
                                     epochs=15 if fast else 100, seed=seed)
    raise ValueError(f"unknown algorithm {name!r}")


#: Every algorithm name accepted by :func:`make_imputer`.
ALGORITHMS = ("grimp-ft", "grimp-e", "grimp-mt", "grimp-linear", "grimp-fd",
              "holo", "misf", "funf", "fd-repair", "turl", "dwig",
              "embdi-mc", "gnn-mc", "mice", "knn", "mode", "link-pred", "dae",
              "gain", "vae")

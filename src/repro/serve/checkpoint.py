"""Versioned checkpoints for fitted GRIMP imputers.

A checkpoint is a *directory* (conventionally named ``*.ckpt``) holding
two files:

* ``manifest.json`` — format marker + version, the full
  :class:`~repro.core.GrimpConfig`, the table schema, categorical
  vocabularies, normalizer statistics, and the graph's cell-node index
  (tagged values, so strings/floats/ints/bools round-trip exactly).
* ``arrays.npz`` — every model parameter (``param/<dotted name>``), the
  trained node features, and the cached message-passing plan's forward
  CSR operators (``adj/<i>/...``).

Restoring rebuilds the exact inference state: the model skeleton is
reconstructed from the manifest (constant tensors such as attention
``K`` matrices are deterministic functions of the config), cast to the
training dtype, and loaded with the saved parameters; the adjacency
operators are adopted as-is.  A reloaded imputer therefore produces
**byte-identical** imputations for the same new rows — the property the
round-trip tests assert.

The manifest's ``format`` field distinguishes checkpoints from the
experiment-results JSON of :mod:`repro.experiments.persistence`; both
loaders detect the other's files and point the caller at the right API.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .. import __version__
from ..core.config import GrimpConfig
from ..core.model import GrimpModel, fd_related_columns
from ..core.trainer import FittedArtifacts, GrimpImputer
from ..data import NumericNormalizer, TableEncoder
from ..fd import FunctionalDependency
from ..gnn import MessagePassingPlan, PlannedOperator
from ..graph.builder import TableGraph
from ..graph.heterograph import CELL, RID, HeteroGraph

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint",
           "load_imputer", "checkpoint_bundle", "imputer_from_bundle",
           "CHECKPOINT_FORMAT", "CHECKPOINT_VERSION"]

#: Format marker written into every checkpoint manifest.
CHECKPOINT_FORMAT = "repro-grimp-checkpoint"

#: Current (and only) supported checkpoint format version.
CHECKPOINT_VERSION = 1

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"


class CheckpointError(ValueError):
    """A checkpoint could not be read: wrong format, wrong version, or a
    structurally broken directory."""


# ----------------------------------------------------------------------
# Tagged JSON values: cell values and vocabulary entries may be strings,
# floats, ints, or bools; a one-letter tag preserves the exact Python
# type through JSON (floats survive via repr round-tripping).
# ----------------------------------------------------------------------
def _tag(value) -> list:
    if isinstance(value, bool):
        return ["b", bool(value)]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, (int, np.integer)):
        return ["i", int(value)]
    if isinstance(value, (float, np.floating)):
        return ["f", float(value)]
    raise TypeError(f"cannot checkpoint value of type {type(value).__name__}")


def _untag(tagged: list):
    kind, value = tagged
    if kind == "b":
        return bool(value)
    if kind == "s":
        return str(value)
    if kind == "i":
        return int(value)
    if kind == "f":
        return float(value)
    raise CheckpointError(f"unknown value tag {kind!r}")


def _config_to_json(config: GrimpConfig) -> dict:
    payload = {field.name: getattr(config, field.name)
               for field in fields(GrimpConfig)}
    payload["fds"] = [[list(fd.lhs), fd.rhs] for fd in config.fds]
    payload["embdi_kwargs"] = dict(config.embdi_kwargs)
    return payload


#: Config keys older version-1 manifests may carry for options that no
#: longer exist; loading drops them.
_RETIRED_CONFIG_KEYS = frozenset({"mp_plan"})


def _config_from_json(payload: dict) -> GrimpConfig:
    kwargs = {key: value for key, value in payload.items()
              if key not in _RETIRED_CONFIG_KEYS}
    known = {field.name for field in fields(GrimpConfig)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown key(s) "
                              f"{', '.join(map(repr, unknown))}")
    kwargs["fds"] = tuple(
        FunctionalDependency(lhs=tuple(lhs), rhs=rhs)
        for lhs, rhs in payload.get("fds", ()))
    kwargs["embdi_kwargs"] = dict(payload.get("embdi_kwargs", {}))
    return GrimpConfig(**kwargs)


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def checkpoint_bundle(imputer: GrimpImputer
                      ) -> tuple[dict, dict[str, np.ndarray]]:
    """The checkpoint of a fitted imputer as in-memory pieces.

    Returns ``(manifest, arrays)`` — exactly what :func:`save_checkpoint`
    writes to disk, without touching the filesystem;
    :func:`imputer_from_bundle` rebuilds the imputer from them.
    """
    artifacts = getattr(imputer, "_artifacts", None)
    if artifacts is None:
        raise RuntimeError("impute() must run before save_checkpoint(); "
                           "an unfitted imputer has nothing to persist")

    model = artifacts.model
    table_graph = artifacts.table_graph
    config = imputer.config

    arrays: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"param/{name}"] = value
    arrays["features"] = np.asarray(artifacts.feature_tensor.data)
    arrays["rid_nodes"] = np.asarray(table_graph.rid_nodes, dtype=np.int64)

    edge_types = list(artifacts.adjacencies)
    for position, edge_type in enumerate(edge_types):
        operator = artifacts.adjacencies[edge_type]
        for key, value in operator.to_arrays().items():
            arrays[f"adj/{position}/{key}"] = value

    # Attention tasks need an attribute-vector matrix of the right shape
    # at reconstruction; values are overwritten by the parameter load.
    q_shapes = [tuple(value.shape) for name, value in arrays.items()
                if name.startswith("param/tasks.") and name.endswith(".q")]
    attribute_shape = q_shapes[0] if q_shapes \
        else (len(model.columns), config.feature_dim)

    vocabularies = {
        column: [_tag(value) for value in encoder.values]
        for column, encoder in artifacts.encoders.encoders.items()
    }
    cell_nodes = [[column, _tag(value), int(node)]
                  for (column, value), node
                  in table_graph.cell_nodes.items()]

    manifest = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "repro_version": __version__,
        "dtype": config.dtype,
        "config": _config_to_json(config),
        "columns": list(artifacts.columns),
        "kinds": dict(artifacts.kinds),
        "gnn_edge_types": list(model.gnn_edge_types),
        "adjacency_edge_types": edge_types,
        "train_features": bool(hasattr(model, "node_features")),
        "attribute_shape": list(attribute_shape),
        "fd_related": {column: list(indices) for column, indices
                       in fd_related_columns(config.fds,
                                             artifacts.columns).items()},
        "vocabularies": vocabularies,
        "normalizer": {"means": dict(artifacts.normalizer.means),
                       "stds": dict(artifacts.normalizer.stds)},
        "graph": {
            "n_nodes": int(table_graph.graph.n_nodes),
            "cell_nodes": cell_nodes,
            "columns": list(table_graph.columns),
        },
    }
    return manifest, arrays


def save_checkpoint(imputer: GrimpImputer, path) -> Path:
    """Write a fitted :class:`GrimpImputer` to a checkpoint directory.

    ``path`` is created (parents included) and overwritten if it already
    holds a checkpoint.  Returns the checkpoint path.
    """
    manifest, arrays = checkpoint_bundle(imputer)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.savez(path / _ARRAYS, **arrays)
    (path / _MANIFEST).write_text(json.dumps(manifest, indent=1,
                                             allow_nan=True))
    return path


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _read_manifest(path: Path) -> dict:
    manifest_path = path / _MANIFEST
    if not path.is_dir() or not manifest_path.is_file():
        raise CheckpointError(
            f"{path} is not a checkpoint directory (expected "
            f"{_MANIFEST} + {_ARRAYS}); save one with "
            f"GrimpImputer.save_checkpoint()")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise CheckpointError(f"{manifest_path} is not valid JSON: "
                              f"{error}") from error
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{manifest_path} is not a manifest object")
    marker = manifest.get("format")
    if marker == "repro-experiment-results":
        raise CheckpointError(
            f"{manifest_path} holds experiment results, not a model "
            f"checkpoint; load it with repro.experiments.load_results()")
    if marker != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{manifest_path} has format {marker!r}, "
                              f"expected {CHECKPOINT_FORMAT!r}")
    version = manifest.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in "
            f"{manifest_path}; this build reads version "
            f"{CHECKPOINT_VERSION} only")
    return manifest


def _rebuild_graph(manifest: dict, rid_nodes: np.ndarray) -> TableGraph:
    """Reconstruct the table graph's node index (edge lists are not
    stored — inference uses the serialized adjacency operators)."""
    info = manifest["graph"]
    n_nodes = int(info["n_nodes"])
    labels: list[tuple | None] = [None] * n_nodes
    for row, node in enumerate(rid_nodes.tolist()):
        labels[node] = (RID, (RID, row))
    cell_index: dict[tuple, int] = {}
    for column, tagged, node in info["cell_nodes"]:
        value = _untag(tagged)
        labels[int(node)] = (CELL, (CELL, column, value))
        cell_index[(column, value)] = int(node)
    graph = HeteroGraph()
    for node, entry in enumerate(labels):
        if entry is None:
            raise CheckpointError(f"checkpoint graph is missing a label "
                                  f"for node {node}")
        kind, label = entry
        graph.add_node(kind, label)
    return TableGraph(graph=graph, rid_nodes=rid_nodes.tolist(),
                      cell_nodes=cell_index,
                      columns=list(info["columns"]))


def load_checkpoint(path) -> dict:
    """Read a checkpoint into its raw pieces (manifest + arrays).

    Most callers want :func:`load_imputer`; this lower-level entry point
    exists for tooling that inspects checkpoints without instantiating
    a model.
    """
    path = Path(path)
    manifest = _read_manifest(path)
    arrays_path = path / _ARRAYS
    if not arrays_path.is_file():
        raise CheckpointError(f"{path} is missing {_ARRAYS}")
    with np.load(arrays_path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    return {"manifest": manifest, "arrays": arrays, "path": path}


def load_imputer(path) -> GrimpImputer:
    """Restore a fitted :class:`GrimpImputer` from a checkpoint.

    The returned imputer's :meth:`~GrimpImputer.impute_new_rows` is
    byte-identical to the saved instance's: the model parameters,
    constant tensors, node features, adjacency operators, vocabularies,
    and normalizer statistics all round-trip exactly.
    """
    bundle = load_checkpoint(path)
    return imputer_from_bundle(bundle["manifest"], bundle["arrays"])


def imputer_from_bundle(manifest: dict, arrays: dict) -> GrimpImputer:
    """Rebuild a fitted imputer from :func:`checkpoint_bundle` pieces.

    The adjacency CSR components and the graph's row-node ids are
    adopted as-is, zero-copy; the node-feature matrix is copied, since
    the parameter load writes trained features in place.
    """
    config = _config_from_json(manifest["config"])
    dtype = np.dtype(manifest["dtype"])
    columns = list(manifest["columns"])
    kinds = dict(manifest["kinds"])

    vocabularies = {column: [_untag(value) for value in values]
                    for column, values in manifest["vocabularies"].items()}
    encoders = TableEncoder.from_vocabularies(vocabularies)
    cardinalities = {column: len(values)
                     for column, values in vocabularies.items()}

    attribute_vectors = np.zeros(tuple(manifest["attribute_shape"]))
    fd_related = {column: list(indices) for column, indices
                  in manifest.get("fd_related", {}).items()}

    model = GrimpModel(columns, kinds, cardinalities, attribute_vectors,
                       config, rng=np.random.default_rng(config.seed),
                       fd_related=fd_related,
                       gnn_edge_types=list(manifest["gnn_edge_types"]))

    feature_tensor = model.attach_features(arrays["features"].copy(),
                                           dtype)

    state = {name[len("param/"):]: value for name, value in arrays.items()
             if name.startswith("param/")}
    model.load_state_dict(state)
    model.eval()

    edge_types = list(manifest["adjacency_edge_types"])
    operators = {}
    for position, edge_type in enumerate(edge_types):
        operators[edge_type] = PlannedOperator.from_arrays({
            key: arrays[f"adj/{position}/{key}"]
            for key in ("data", "indices", "indptr", "shape")})
    adjacencies = MessagePassingPlan.from_operators(operators, dtype=dtype)

    rid_nodes = arrays["rid_nodes"]
    table_graph = _rebuild_graph(manifest, rid_nodes)

    normalizer = NumericNormalizer()
    normalizer.means = {column: float(value) for column, value
                        in manifest["normalizer"]["means"].items()}
    normalizer.stds = {column: float(value) for column, value
                       in manifest["normalizer"]["stds"].items()}
    normalizer._fitted = True

    imputer = GrimpImputer(config)
    imputer.model_ = model
    imputer._artifacts = FittedArtifacts(
        model=model, table_graph=table_graph, adjacencies=adjacencies,
        feature_tensor=feature_tensor, encoders=encoders,
        normalizer=normalizer, columns=columns, kinds=kinds)
    return imputer

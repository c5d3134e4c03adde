"""Save/load fitted models to a single ``.npz`` file.

The attack setting assumes the adversary holds the released model for a
long accumulation window ("in a week or a month, as long as the vertical
FL model is unchanged", §V) — so models must round-trip through storage.
The format is one numpy ``.npz`` archive with a JSON metadata entry and
the parameter arrays; no pickling, so archives are safe to load from
untrusted collaborators.

Supported: :class:`LogisticRegression`, :class:`MLPClassifier`,
:class:`DecisionTreeClassifier`, :class:`RandomForestClassifier`,
:class:`RandomForestDistiller` (surrogate only; its teacher is not
persisted).

This archive is the one model codec. The module also registers the SGD
and Adam checkpoint codecs, which carry an optimizer's trajectory state
into GRNA's training snapshots and into ``save_model(optimizer=...)``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.checkpoint.codec import CHECKPOINTS, StateCodec, codec_for
from repro.exceptions import CheckpointError, ValidationError
from repro.models.distill import RandomForestDistiller
from repro.models.forest import RandomForestClassifier
from repro.models.logistic import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.models.tree import DecisionTreeClassifier, TreeStructure, _Node
from repro.nn.layers import mlp
from repro.nn.optim import SGD, Adam, Optimizer

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Per-model encoders: model -> (meta dict, array dict)
# ----------------------------------------------------------------------
def _encode_logistic(model: LogisticRegression) -> tuple[dict, dict]:
    model._check_fitted()
    meta = {
        "n_features": model.n_features_,
        "n_classes": model.n_classes_,
        "binary": model.n_classes_ == 2,
    }
    arrays = {
        "coef": np.asarray(model.coef_),
        "intercept": np.atleast_1d(np.asarray(model.intercept_, dtype=np.float64)),
    }
    return meta, arrays


def _decode_logistic(meta: dict, arrays: dict) -> LogisticRegression:
    model = LogisticRegression()
    intercept = arrays["intercept"]
    if meta["binary"]:
        model.set_parameters(arrays["coef"], float(intercept[0]))
    else:
        model.set_parameters(arrays["coef"], intercept)
    return model


def _structure_arrays(structure: TreeStructure, prefix: str) -> dict:
    return {
        f"{prefix}exists": structure.exists,
        f"{prefix}is_leaf": structure.is_leaf,
        f"{prefix}feature": structure.feature,
        f"{prefix}threshold": structure.threshold,
        f"{prefix}leaf_label": structure.leaf_label,
    }


def _structure_from_arrays(arrays: dict, prefix: str) -> TreeStructure:
    exists = arrays[f"{prefix}exists"]
    n_nodes = int(exists.shape[0])
    depth = int(np.log2(n_nodes + 1)) - 1
    return TreeStructure(
        depth=depth,
        n_nodes=n_nodes,
        exists=exists.astype(bool),
        is_leaf=arrays[f"{prefix}is_leaf"].astype(bool),
        feature=arrays[f"{prefix}feature"].astype(np.int64),
        threshold=arrays[f"{prefix}threshold"].astype(np.float64),
        leaf_label=arrays[f"{prefix}leaf_label"].astype(np.int64),
    )


def _rebuild_node(structure: TreeStructure, index: int, depth: int) -> _Node:
    if structure.is_leaf[index]:
        return _Node(
            label=int(structure.leaf_label[index]), n_samples=0, depth=depth
        )
    node = _Node(label=0, n_samples=0, depth=depth)
    node.feature = int(structure.feature[index])
    node.threshold = float(structure.threshold[index])
    node.left = _rebuild_node(structure, 2 * index + 1, depth + 1)
    node.right = _rebuild_node(structure, 2 * index + 2, depth + 1)
    return node


def _encode_tree(model: DecisionTreeClassifier) -> tuple[dict, dict]:
    model._check_fitted()
    meta = {
        "n_features": model.n_features_,
        "n_classes": model.n_classes_,
        "max_depth": model.max_depth,
        "criterion": model.criterion,
    }
    return meta, _structure_arrays(model.tree_structure(), "tree_")


def _fill_tree(tree: DecisionTreeClassifier, meta: dict, arrays: dict, prefix: str):
    tree.n_features_ = meta["n_features"]
    tree.n_classes_ = meta["n_classes"]
    tree.root_ = _rebuild_node(_structure_from_arrays(arrays, prefix), 0, 0)
    return tree


def _decode_tree(meta: dict, arrays: dict) -> DecisionTreeClassifier:
    model = DecisionTreeClassifier(max_depth=meta["max_depth"], criterion=meta["criterion"])
    return _fill_tree(model, meta, arrays, "tree_")


def _encode_forest(model: RandomForestClassifier) -> tuple[dict, dict]:
    model._check_fitted()
    meta = {
        "n_features": model.n_features_,
        "n_classes": model.n_classes_,
        "n_trees": len(model.trees_),
        "max_depth": model.max_depth,
        "criterion": model.criterion,
    }
    arrays: dict = {}
    for i, structure in enumerate(model.tree_structures()):
        arrays.update(_structure_arrays(structure, f"tree{i}_"))
    return meta, arrays


def _decode_forest(meta: dict, arrays: dict) -> RandomForestClassifier:
    model = RandomForestClassifier(
        n_trees=meta["n_trees"], max_depth=meta["max_depth"], criterion=meta["criterion"]
    )
    model.n_features_ = meta["n_features"]
    model.n_classes_ = meta["n_classes"]
    model.trees_ = [
        _fill_tree(DecisionTreeClassifier(max_depth=meta["max_depth"]), meta, arrays, f"tree{i}_")
        for i in range(meta["n_trees"])
    ]
    return model


def _encode_mlp(model: MLPClassifier) -> tuple[dict, dict]:
    model._check_fitted()
    meta = {
        "n_features": model.n_features_,
        "n_classes": model.n_classes_,
        "hidden_sizes": list(model.hidden_sizes),
        "dropout": model.dropout,
    }
    arrays = {f"param_{k}": v for k, v in model.network_.state_dict().items()}
    return meta, arrays


def _fill_network(model, meta: dict, arrays: dict, **layers):
    model.n_features_ = meta["n_features"]
    model.n_classes_ = meta["n_classes"]
    sizes = [meta["n_features"], *meta["hidden_sizes"], meta["n_classes"]]
    model.network_ = mlp(sizes, activation="relu", rng=0, **layers)
    state = {k[len("param_"):]: v for k, v in arrays.items() if k.startswith("param_")}
    model.network_.load_state_dict(state)
    return model


def _decode_mlp(meta: dict, arrays: dict) -> MLPClassifier:
    model = MLPClassifier(hidden_sizes=tuple(meta["hidden_sizes"]), dropout=meta["dropout"])
    _fill_network(model, meta, arrays, dropout=meta["dropout"]).network_.eval()
    return model


def _encode_distiller(model: RandomForestDistiller) -> tuple[dict, dict]:
    if model.network_ is None:
        raise ValidationError("distiller has no surrogate network; distill first")
    meta = {
        "n_features": model.n_features_,
        "n_classes": model.n_classes_,
        "hidden_sizes": list(model.hidden_sizes),
    }
    arrays = {f"param_{k}": v for k, v in model.network_.state_dict().items()}
    return meta, arrays


def _decode_distiller(meta: dict, arrays: dict) -> RandomForestDistiller:
    model = RandomForestDistiller(hidden_sizes=tuple(meta["hidden_sizes"]))
    return _fill_network(model, meta, arrays)


_CODECS = {
    "LogisticRegression": (LogisticRegression, _encode_logistic, _decode_logistic),
    "DecisionTreeClassifier": (DecisionTreeClassifier, _encode_tree, _decode_tree),
    "RandomForestClassifier": (RandomForestClassifier, _encode_forest, _decode_forest),
    "MLPClassifier": (MLPClassifier, _encode_mlp, _decode_mlp),
    "RandomForestDistiller": (RandomForestDistiller, _encode_distiller, _decode_distiller),
}


# ----------------------------------------------------------------------
# Optimizer checkpoint codecs
# ----------------------------------------------------------------------
# Registered in repro.checkpoint.CHECKPOINTS on models-package import;
# GRNA's training checkpoints and ``save_model(optimizer=...)`` use them.
# They capture the state that makes a resumed training trajectory
# bit-identical: Adam's first/second moments and step counter, SGD's
# momentum velocities. Scratch buffers are deliberately *not* captured:
# every step fully overwrites them via ``out=``, so freshly constructed
# buffers reproduce the same bytes. A fitted model travels as a
# ``save_model`` archive, not as a snapshot fragment.


def _check_param_shapes(optimizer, arrays: dict, names: "list[str]") -> None:
    """Refuse optimizer state whose shapes do not match the live params."""
    if len(names) != len(optimizer.params):
        raise CheckpointError(
            f"optimizer state holds {len(names)} parameter buffers but the "
            f"optimizer has {len(optimizer.params)} parameters"
        )
    for name, p in zip(names, optimizer.params):
        if arrays[name].shape != p.data.shape:
            raise CheckpointError(
                f"optimizer buffer {name!r} has shape {arrays[name].shape}, "
                f"parameter expects {p.data.shape}"
            )


@CHECKPOINTS.register("optimizer/sgd")
class SGDCodec(StateCodec):
    """Snapshot :class:`SGD` momentum state (velocities)."""

    kind = "optimizer/sgd"
    target = SGD
    state_fields = ("_velocity",)

    def capture(self, obj) -> tuple[dict, dict]:
        meta = {"n_params": len(obj._velocity)}
        arrays = {f"velocity_{i}": v.copy() for i, v in enumerate(obj._velocity)}
        return meta, arrays

    def restore(self, obj, meta: dict, arrays: dict) -> None:
        names = [f"velocity_{i}" for i in range(meta["n_params"])]
        _check_param_shapes(obj, arrays, names)
        obj._velocity = [np.ascontiguousarray(arrays[name]) for name in names]


@CHECKPOINTS.register("optimizer/adam")
class AdamCodec(StateCodec):
    """Snapshot :class:`Adam` moments and step counter."""

    kind = "optimizer/adam"
    target = Adam
    state_fields = ("_m", "_v", "_t")

    def capture(self, obj) -> tuple[dict, dict]:
        meta = {"t": obj._t, "n_params": len(obj._m)}
        arrays: dict = {}
        for i, (m, v) in enumerate(zip(obj._m, obj._v)):
            arrays[f"m_{i}"] = m.copy()
            arrays[f"v_{i}"] = v.copy()
        return meta, arrays

    def restore(self, obj, meta: dict, arrays: dict) -> None:
        m_names = [f"m_{i}" for i in range(meta["n_params"])]
        v_names = [f"v_{i}" for i in range(meta["n_params"])]
        _check_param_shapes(obj, arrays, m_names)
        _check_param_shapes(obj, arrays, v_names)
        obj._m = [np.ascontiguousarray(arrays[name]) for name in m_names]
        obj._v = [np.ascontiguousarray(arrays[name]) for name in v_names]
        obj._t = int(meta["t"])


def save_model(model, path: "str | Path", *, optimizer: "Optimizer | None" = None) -> Path:
    """Serialize a fitted model to ``path`` (``.npz`` appended if missing).

    With ``optimizer`` given, its resumable state (Adam moments and step
    counter, SGD velocities) is stored in the same archive under
    ``opt_``-prefixed arrays plus an ``__optimizer__`` metadata entry,
    recoverable via :func:`load_optimizer_state` — so a training loop
    can round-trip model *and* optimizer through one file and continue
    on a bit-identical trajectory.
    """
    for kind, (cls, encode, _decode) in _CODECS.items():
        if type(model) is cls:
            meta, arrays = encode(model)
            meta = {"format_version": FORMAT_VERSION, "kind": kind, **meta}
            if optimizer is not None:
                opt_codec = codec_for(optimizer)
                if opt_codec is None:
                    raise ValidationError(
                        f"no checkpoint codec for optimizer "
                        f"{type(optimizer).__name__}"
                    )
                opt_meta, opt_arrays = opt_codec.capture(optimizer)
                meta["__optimizer__"] = {"kind": opt_codec.kind, "meta": opt_meta}
                arrays.update({f"opt_{k}": v for k, v in opt_arrays.items()})
            path = Path(path)
            if path.suffix != ".npz":
                path = path.with_suffix(path.suffix + ".npz")
            np.savez(path, __meta__=np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ), **arrays)
            return path
    raise ValidationError(
        f"cannot serialize {type(model).__name__}; supported: {sorted(_CODECS)}"
    )


def _read_archive(path: "str | Path", prefix: str = "") -> tuple[Path, dict, dict]:
    """``(path, meta, arrays)`` of an archive, arrays named ``prefix...`` only."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such model file: {path}")
    with np.load(path) as archive:
        if "__meta__" not in archive:
            raise ValidationError(f"{path} is not a repro model archive")
        meta = json.loads(bytes(archive["__meta__"].tobytes()).decode("utf-8"))
        arrays = {
            k: archive[k] for k in archive.files if k != "__meta__" and k.startswith(prefix)
        }
    return path, meta, arrays


def load_model(path: "str | Path"):
    """Load a model previously written by :func:`save_model`."""
    path, meta, arrays = _read_archive(path)
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported model format version {meta.get('format_version')!r}"
        )
    kind = meta.get("kind")
    if kind not in _CODECS:
        raise ValidationError(f"unknown model kind {kind!r} in {path}")
    _cls, _encode, decode = _CODECS[kind]
    return decode(meta, arrays)


def load_optimizer_state(path: "str | Path", optimizer: Optimizer) -> Optimizer:
    """Reinstate optimizer state saved by :func:`save_model` onto ``optimizer``.

    The optimizer must already be constructed over the (restored)
    model's parameters with the same hyperparameters; this loads only
    the trajectory state. Raises
    :class:`~repro.exceptions.CheckpointError` when the archive holds no
    optimizer state, the optimizer kind differs, or buffer shapes do not
    match the live parameters.
    """
    path, meta, arrays = _read_archive(path, "opt_")
    opt_info = meta.get("__optimizer__")
    if opt_info is None:
        raise CheckpointError(f"{path} holds no optimizer state")
    codec = codec_for(optimizer)
    if codec is None or codec.kind != opt_info["kind"]:
        raise CheckpointError(
            f"{path} holds {opt_info['kind']!r} state but got a "
            f"{type(optimizer).__name__} optimizer"
        )
    codec.restore(
        optimizer, opt_info["meta"], {k[len("opt_"):]: v for k, v in arrays.items()}
    )
    return optimizer

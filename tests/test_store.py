"""Model persistence: versioned JSON payloads and loss-history CSVs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from busflux.errors import ParseError
from busflux.features import FeatureMatrix
from busflux.models.boosting import gbt_fit
from busflux.models.config import MODEL_ARCHS, CartParams, GbtParams, TrainConfig
from busflux.models.linear import lr_fit
from busflux.models.mlp import ARCH_DNN, ARCH_WNN, TrainHistory, mlp_init, mlp_train
from busflux.models.store import load_model, read_history_csv, save_model, write_history_csv
from busflux.models.tree import cart_fit
from busflux.schema import from_dict, to_dict


def matrix(seed=0, n=80, d=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = X @ np.array([1.0, -0.5, 2.0, 0.0]) + 0.05 * rng.standard_normal(n)
    return FeatureMatrix.from_arrays(X, y)


def small_cfg(**kw):
    base = dict(
        epochs=3,
        batch_size=16,
        learning_rate=1e-2,
        seed=11,
        wnn_hidden=(8,),
        dnn_hidden=(8, 4),
    )
    base.update(kw)
    return TrainConfig(**base)


def one_of_each():
    m = matrix()
    cfg = small_cfg()
    wnn, _ = mlp_train(mlp_init(ARCH_WNN, 4, cfg.seed, cfg=cfg), m, m, cfg)
    dnn, _ = mlp_train(mlp_init(ARCH_DNN, 4, cfg.seed, cfg=cfg), m, m, cfg)
    return {
        "lr": lr_fit(m),
        "wnn": wnn,
        "dnn": dnn,
        "cart": cart_fit(m, CartParams(max_depth=3, min_leaf=2)),
        "gbt": gbt_fit(m, GbtParams(n_trees=10)),
    }


# ── model JSON round trips ───────────────────────────────────────────────


@pytest.mark.parametrize("arch", ["lr", "wnn", "dnn", "cart", "gbt"])
def test_round_trip_preserves_predictions(arch, tmp_path):
    model = one_of_each()[arch]
    dest = tmp_path / f"{arch}.model.json"
    save_model(model, dest)
    back = load_model(dest)
    probe = np.random.default_rng(99).standard_normal((25, 4))
    assert np.array_equal(back.predict(probe), model.predict(probe))


@pytest.mark.parametrize("arch", ["lr", "wnn", "dnn", "cart", "gbt"])
def test_round_trip_preserves_column_metadata(arch, tmp_path):
    model = one_of_each()[arch]
    dest = tmp_path / f"{arch}.model.json"
    save_model(model, dest)
    back = load_model(dest)
    expected = tuple(model.columns) if model.columns is not None else None
    got = tuple(back.columns) if back.columns is not None else None
    assert got == expected


def test_model_file_is_compact_json(tmp_path):
    dest = tmp_path / "cart.model.json"
    save_model(cart_fit(matrix(), CartParams(max_depth=3, min_leaf=2)), dest)
    text = dest.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_payload_schema_and_determinism(tmp_path):
    model = one_of_each()["wnn"]
    cfg = small_cfg()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, a, config=cfg)
    save_model(model, b, config=cfg)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert set(payload) == {
        "format_version",
        "arch",
        "columns",
        "parameters",
        "config",
        "seed",
    }
    assert payload["format_version"] == 2
    assert payload["arch"] == "wnn"
    assert payload["config"] == to_dict(cfg)
    assert payload["seed"] == model.seed


def test_config_round_trips_through_payload(tmp_path):
    cfg = small_cfg(learning_rate=0.25, gbt=GbtParams(n_trees=3, depth=2, shrinkage=0.5))
    dest = tmp_path / "m.json"
    save_model(one_of_each()["lr"], dest, config=cfg)
    stored = json.loads(dest.read_text())["config"]
    assert from_dict(TrainConfig, stored, TrainConfig()) == cfg


def test_unsupported_format_version_is_rejected(tmp_path):
    dest = tmp_path / "m.json"
    save_model(one_of_each()["lr"], dest)
    payload = json.loads(dest.read_text())
    payload["format_version"] = 999
    dest.write_text(json.dumps(payload))
    with pytest.raises(ParseError):
        load_model(dest)


TREE_CORRUPTIONS = {
    "right child loops back": lambda t: t["right"].__setitem__(0, 0),
    "right child past the end": lambda t: t["right"].__setitem__(0, len(t["right"])),
    "feature out of range": lambda t: t["feature"].__setitem__(0, t["n_features"]),
    "array one short": lambda t: t["value"].pop(),
}


@pytest.mark.parametrize("corruption", sorted(TREE_CORRUPTIONS))
def test_corrupt_tree_arrays_are_rejected_on_load(tmp_path, corruption):
    dest = tmp_path / "cart.json"
    save_model(cart_fit(matrix(), CartParams(max_depth=3, min_leaf=2)), dest)
    payload = json.loads(dest.read_text())
    assert payload["parameters"]["feature"][0] != -1
    TREE_CORRUPTIONS[corruption](payload["parameters"])
    dest.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="not one preorder tree"):
        load_model(dest)


def test_unknown_arch_is_rejected(tmp_path):
    # An MLP's arch is "wnn" or "dnn"; "custom" names none.
    dest = tmp_path / "m.json"
    save_model(one_of_each()["dnn"], dest)
    for arch in ("svm", "custom"):
        payload = json.loads(dest.read_text())
        payload["arch"] = arch
        dest.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_model(dest)


@pytest.mark.parametrize("arch, other", [(ARCH_WNN, ARCH_DNN), (ARCH_DNN, ARCH_WNN)])
def test_an_mlp_whose_parameters_name_another_arch_is_rejected(tmp_path, arch, other):
    path = tmp_path / "model.json"
    save_model(one_of_each()[arch], path)
    payload = json.loads(path.read_text())
    payload["parameters"]["arch"] = other
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=f"arch '{arch}', but parameters.arch '{other}'"):
        load_model(path)


def test_save_rejects_foreign_objects(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "m.json")


@pytest.mark.parametrize("arch", ["lr", "wnn", "dnn", "cart", "gbt"])
def test_columns_of_another_width_are_rejected_on_load(tmp_path, arch):
    # A file whose columns do not name one input per model feature would
    # predict from misaligned inputs, or fail deep inside predict.
    dest = tmp_path / f"{arch}.json"
    save_model(one_of_each()[arch], dest)
    payload = json.loads(dest.read_text())
    for columns in (payload["columns"][:-1], [*payload["columns"], "extra"]):
        dest.write_text(json.dumps({**payload, "columns": columns}))
        with pytest.raises(ParseError, match=f"{dest}: columns has {len(columns)} names"):
            load_model(dest)


def test_every_arch_loads_as_its_own_class_with_its_columns(tmp_path):
    # MODEL_ARCHS is also `train --model`'s list of choices.
    models = one_of_each()
    assert tuple(models) == MODEL_ARCHS
    for arch, model in models.items():
        dest = tmp_path / f"{arch}.json"
        save_model(model, dest)
        back = load_model(dest)
        assert (type(back), back.arch, back.n_features) == (type(model), arch, 4)
        assert back.columns == ("x0", "x1", "x2", "x3")


# ── training-history CSVs ────────────────────────────────────────────────


def history():
    return TrainHistory(
        train_mse=[4.0, 2.0, 1.5, 1.25],
        val_mse=[5.0, 2.5, 2.25, 2.4],
        best_epoch=2,
    )


def test_history_header_and_one_based_epochs(tmp_path):
    dest = tmp_path / "h.csv"
    write_history_csv(history(), dest)
    lines = dest.read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "3", "4"]


def test_history_round_trip_recovers_best_epoch(tmp_path):
    dest = tmp_path / "h.csv"
    write_history_csv(history(), dest)
    back = read_history_csv(dest)
    assert back.train_mse == history().train_mse
    assert back.val_mse == history().val_mse
    assert back.best_epoch == 2  # argmin of the validation curve


def test_history_values_survive_bit_exact(tmp_path):
    h = TrainHistory(train_mse=[1 / 3, 2 / 7], val_mse=[0.1 + 0.2, 1e-17])
    dest = tmp_path / "h.csv"
    write_history_csv(h, dest)
    back = read_history_csv(dest)
    assert back.train_mse == h.train_mse  # repr round-trip, not approx
    assert back.val_mse == h.val_mse


def test_history_rejects_unknown_header(tmp_path):
    dest = tmp_path / "h.csv"
    dest.write_text("step,loss\n1,0.5\n")
    with pytest.raises(ParseError):
        read_history_csv(dest)


def test_trained_history_round_trips(tmp_path):
    m = matrix()
    cfg = small_cfg(epochs=5)
    _, hist = mlp_train(mlp_init(ARCH_WNN, 4, cfg.seed, cfg=cfg), m, m, cfg)
    dest = tmp_path / "h.csv"
    write_history_csv(hist, dest)
    back = read_history_csv(dest)
    assert back.train_mse == hist.train_mse
    assert back.val_mse == hist.val_mse
    assert back.best_epoch == hist.best_epoch

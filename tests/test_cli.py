"""End-to-end command-line tests: full pipeline, determinism, exit codes."""

import argparse
import math
import re
import shutil
import struct
import tempfile
import warnings
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobkit import cli
from lobkit import io as lio
from lobkit.cli import (
    _labeled,
    _load_model,
    _load_split,
    _model_arrays,
    build_parser,
    main,
)
from lobkit.metrics import (
    LossConfig,
    cross_entropy,
    evaluate_classification,
    l_all,
    l_reg,
    logit_classes,
    masked_mse,
)
from lobkit.models import (
    HEAD_KINDS,
    REPORT_BLOCK,
    LinearAutoencoder,
    TaskHead,
)
from lobkit.preprocess import (
    balance_classes,
    mask_for_imputation,
    masked_input,
)
from tests.test_metrics import mae, mse, price_volume_losses, wmse

FAST_TRAIN = [
    "--epochs", "2", "--step", "50", "--latent", "16", "--batch-size", "16",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> build -> preprocess once; commands share this directory."""
    root = tmp_path_factory.mktemp("pipeline")
    flow = root / "flow.csv"
    series = root / "series.bin"
    data = root / "data"
    assert main(["generate", "--profile", "sz000001", "--seed", "3",
                 "--out", str(flow)]) == 0
    assert main(["build", "--flow", str(flow), "--out", str(series)]) == 0
    assert main(["preprocess", "--series", str(series),
                 "--out", str(data)]) == 0
    return root


def test_generate_writes_replayable_flow(pipeline):
    stream = lio.read_flow(pipeline / "flow.csv")
    assert stream.profile == "sz000001" and stream.seed == 3
    assert len(stream.orders) > 1000


def test_build_outputs_full_day_series_with_metadata(pipeline):
    series = lio.load_tensor(pipeline / "series.bin")
    assert series.shape == (4740, 40)
    meta = lio.read_kv(pipeline / "series.meta.txt")["series"]
    assert meta["snapshots"] == "4740"
    assert meta["blocks"] == "0:2400,2400:4740"
    assert meta["flow_sha256"] == lio.file_sha256(pipeline / "flow.csv")


def test_preprocess_outputs_split_and_stats(pipeline):
    data = pipeline / "data"
    train = lio.load_tensor(data / "train_series.bin")
    test = lio.load_tensor(data / "test_series.bin")
    assert train.shape == (3792, 40) and test.shape == (948, 40)
    labels = lio.load_tensor(data / "train_labels.bin")
    assert labels.shape == (3792,)
    finite = labels[np.isfinite(labels)]
    assert set(np.unique(finite)) <= {-1.0, 0.0, 1.0}
    norm = lio.read_kv(data / "norm_stats.txt")["norm"]
    assert norm["scheme"] == "global" and norm["scope"] == "train"


def test_train_and_evaluate_each_task(pipeline, tmp_path):
    data = str(pipeline / "data")
    for task, step in [
        ("reconstruction", "50"),
        ("prediction", "10"),  # denser windows so every class is present
        ("imputation", "50"),
    ]:
        run = tmp_path / f"run_{task}"
        assert main(["train", "--data", data, "--task", task,
                     "--out", str(run), "--epochs", "2", "--step", step,
                     "--latent", "16", "--batch-size", "16"]) == 0
        ckpt = run / "checkpoint.bin"
        assert ckpt.exists() and (run / "trace.txt").exists()
        out = tmp_path / f"eval_{task}"
        assert main(["evaluate", "--data", data, "--checkpoint", str(ckpt),
                     "--step", "50", "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        if task == "prediction":
            assert "macro_recall=" in report and "ce=" in report
        else:
            assert "l_all=" in report
        if task == "imputation":
            assert "masked_mse=" in report


def test_transfer_writes_head_delta_and_recalls(pipeline, tmp_path):
    data = str(pipeline / "data")
    run = tmp_path / "pred"
    assert main(["train", "--data", data, "--task", "prediction",
                 "--out", str(run), "--epochs", "2", "--step", "10",
                 "--latent", "16", "--batch-size", "16"]) == 0
    out = tmp_path / "xfer"
    assert main(["transfer", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", data, "--budget", "5", "--step", "10",
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "macro_recall_before=" in report and "macro_recall_after=" in report
    delta = lio.load_checkpoint(out / "head_delta.bin")
    assert "head.W" in delta and "enc.W" not in delta


def test_transfer_holds_no_copy_of_the_encoder(pipeline, tmp_path):
    """transfer checks the frozen encoder against digests, so at the
    default width (enc.W is nearly all of the checkpoint) its peak stays
    near the checkpoint's size; one copy of the encoder would double it."""
    import tracemalloc

    data = str(pipeline / "data")
    run = tmp_path / "pred"
    assert main(["train", "--data", data, "--task", "prediction",
                 "--out", str(run), "--epochs", "1", "--step", "50"]) == 0
    ckpt = run / "checkpoint.bin"
    tracemalloc.start()
    try:
        assert main(["transfer", "--checkpoint", str(ckpt), "--data", data,
                     "--budget", "5", "--step", "50",
                     "--out", str(tmp_path / "xfer")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ckpt.stat().st_size


def _whole_split_report(data, ckpt, seed=0, mask_ratio=0.2):
    """evaluate's report.txt for the test split at --step 1, computed the
    reference way: one encode and one head pass over the whole split, then
    a loop over its windows."""
    model, head, T, _ = _load_model(ckpt)
    windows = _load_split(data, "test", T, 1)[0]
    if head.kind == "prediction":
        usable = _labeled(windows)
        X = usable.data()
        logits = head.forward(model.encode(X.reshape(len(X), -1)))
        stats = evaluate_classification(logit_classes(logits), usable.labels)
        items = [("count", len(usable)),
                 ("ce", float(np.mean(cross_entropy(logits, usable.labels))))]
        items += [(k, stats[k])
                  for k in ("accuracy", "macro_precision", "macro_recall")]
        items += [(f"{k}[{c}]", stats[f"{k}[{c}]"])
                  for c in (-1, 0, 1) for k in ("precision", "recall")]
    else:
        X = windows.data()
        masks = (None if head.kind == "reconstruction"
                 else mask_for_imputation(len(X), T, mask_ratio, seed))
        X_in = X if masks is None else masked_input(X, masks)
        R = model.encode(X_in.reshape(len(X), -1))
        Xh = head.forward(R).reshape(X.shape)
        cfg = LossConfig()
        sums = dict.fromkeys(("mse", "mae", "wmse", "l_price", "l_volume",
                              "l_reg", "l_all"), 0.0)
        for x, xh in zip(X, Xh):
            sums["mse"] += mse(x, xh)
            sums["mae"] += mae(x, xh)
            sums["wmse"] += wmse(x, xh, cfg.weights)
            lp, lv = price_volume_losses(x, xh)
            sums["l_price"] += lp
            sums["l_volume"] += lv
            sums["l_reg"] += l_reg(xh)
            sums["l_all"] += l_all(x, xh, cfg)
        items = [("count", len(X))] + [(k, v / len(X))
                                       for k, v in sums.items()]
        if masks is not None:
            items.append(("masked_mse", float(np.mean(
                [masked_mse(x, xh, m) for x, xh, m in zip(X, Xh, masks)]))))
    return dict(items)


def _whole_split_transfer(data, ckpt, xfer, budget):
    """transfer's report.txt at --step 1, each recall from one forward pass
    over the whole labeled test split, before and after the head delta."""
    model, head, T, _ = _load_model(ckpt)
    usable = _labeled(_load_split(data, "test", T, 1)[0])
    X = usable.data().reshape(len(usable), -1)
    before = evaluate_classification(
        logit_classes(head.forward(model.encode(X))), usable.labels)
    delta = lio.load_checkpoint(xfer / "head_delta.bin")
    head.params.update({k: delta[k] for k in ("head.W", "head.b")})
    after = evaluate_classification(
        logit_classes(head.forward(model.encode(X))), usable.labels)
    return {"budget": budget} | {
        f"macro_{k}_{when}": stats[f"macro_{k}"]
        for k in ("recall", "precision")
        for when, stats in (("before", before), ("after", after))}


def _report_values(path):
    return dict(part.split("=", 1) for part in path.read_text().split())


@pytest.mark.parametrize("latent", ["256", "8"])
def test_blocked_scoring_equals_whole_split_oracle(pipeline, tmp_path, latent):
    """evaluate and transfer score 849 test windows (14 blocks) as one pass
    over the whole split does. At the default latent every value is
    identical. At latent 8, OpenBLAS encodes the short last block with its
    small-matrix kernel and the whole split without it, so a value such as
    l_reg may differ in its last digit."""
    data = pipeline / "data"
    for task, step in [("reconstruction", "50"), ("prediction", "10"),
                       ("imputation", "50")]:
        run, out = tmp_path / f"run_{task}", tmp_path / f"eval_{task}"
        assert main(["train", "--data", str(data), "--task", task,
                     "--out", str(run), "--epochs", "1", "--step", step,
                     "--latent", latent, "--relu"]) == 0
        assert main(["evaluate", "--data", str(data), "--checkpoint",
                     str(run / "checkpoint.bin"), "--step", "1",
                     "--out", str(out)]) == 0
        want = _whole_split_report(data, run / "checkpoint.bin")
        got = _report_values(out / "report.txt")
        assert int(got["count"]) in (844, 849)
        assert_values_match(got, want, exact=latent == "256")
    xfer = tmp_path / "xfer"
    assert main(["transfer", "--checkpoint",
                 str(tmp_path / "run_prediction" / "checkpoint.bin"),
                 "--data", str(data), "--budget", "3", "--step", "1",
                 "--out", str(xfer)]) == 0
    want = _whole_split_transfer(data, tmp_path / "run_prediction"
                                 / "checkpoint.bin", xfer, 3)
    assert_values_match(_report_values(xfer / "report.txt"), want,
                        exact=latent == "256")


def blocked_scoring_oracle(model, head, windows):
    """The trend labels of the windows as transfer scored them before it
    encoded its test split once: the argmax of the head's logits over each
    REPORT_BLOCK-window slice's encodings, a lone last window alone."""
    X = windows.data().reshape(len(windows), -1)
    return logit_classes(np.concatenate(
        [head.forward(model.encode(X[i:i + REPORT_BLOCK]))
         for i in range(0, len(X), REPORT_BLOCK)]))


def transfer_inputs(root, n_test, T, levels, latent, relu):
    """A preprocessed directory whose test split holds n_test labeled
    windows at --step 1, and an untrained prediction checkpoint for it."""
    rng = np.random.default_rng(n_test)
    data = root / "data"
    data.mkdir()
    meta = {"levels": levels}
    for split, rows in (("train", 300), ("test", n_test + T - 1)):
        lio.save_tensor(data / f"{split}_series.bin",
                        rng.normal(size=(rows, 4 * levels)))
        lio.save_tensor(data / f"{split}_labels.bin",
                        rng.integers(-1, 2, size=rows).astype(float))
        meta[f"{split}_blocks"] = f"0:{rows}"
    lio.write_kv(data / "meta.txt", {"preprocess": meta})
    model = LinearAutoencoder(input_dim=T * 4 * levels, latent=latent,
                              relu=relu, seed=0)
    head = TaskHead("prediction", latent=latent, seed=1)
    ckpt = root / "checkpoint.bin"
    lio.save_checkpoint(ckpt, _model_arrays(model, head, T, levels))
    return data, ckpt


@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("n_test", [128, 129, 140])  # N % 64: 0, 1, 12
@pytest.mark.parametrize("T, levels, latent", [(100, 10, 256), (2, 1, 4)],
                         ids=["4000x256", "8x4"])
def test_transfer_labels_equal_the_blocked_scoring_oracle(
        tmp_path, monkeypatch, T, levels, latent, n_test, relu):
    """transfer scores its head before and after the fit on one encoding of
    the test split: its labels are the oracle's, and every train and test
    window goes through the encoder exactly once."""
    import lobkit.cli

    data, ckpt = transfer_inputs(tmp_path, n_test, T, levels, latent, relu)
    labels, encoded = [], []
    score, encode = lobkit.cli.predict_labels, LinearAutoencoder.encode
    monkeypatch.setattr(lobkit.cli, "predict_labels", lambda head, latents:
                        labels.append(score(head, latents)) or labels[-1])
    monkeypatch.setattr(LinearAutoencoder, "encode", lambda self, x:
                        encoded.append(len(x)) or encode(self, x))
    xfer = tmp_path / "xfer"
    assert main(["transfer", "--checkpoint", str(ckpt), "--data", str(data),
                 "--budget", "3", "--batch-size", "16", "--step", "1",
                 "--out", str(xfer)]) == 0
    train_windows = _load_split(data, "train", T, 1, labeled=True)[0]
    n_train = len(balance_classes(train_windows.labels, 0))
    assert sum(encoded) == n_train + n_test

    model, head, _, _ = _load_model(ckpt)
    usable = _load_split(data, "test", T, 1, labeled=True)[0]
    assert len(usable) == n_test and len(labels) == 2
    assert np.array_equal(labels[0], blocked_scoring_oracle(model, head,
                                                            usable))
    delta = lio.load_checkpoint(xfer / "head_delta.bin")
    head.params.update({k: delta[k] for k in ("head.W", "head.b")})
    assert np.array_equal(labels[1], blocked_scoring_oracle(model, head,
                                                            usable))


def assert_values_match(got, want, exact):
    assert list(got) == list(want)
    for key, value in want.items():
        if exact or not isinstance(value, float):
            assert got[key] == repr(value), key
        else:
            assert float(got[key]) == pytest.approx(value, rel=1e-12), key


def test_pipeline_reruns_are_byte_identical(pipeline, tmp_path):
    # same command, same inputs, fresh output locations with the same names
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        assert main(["generate", "--profile", "sz000001", "--seed", "3",
                     "--out", str(d / "flow.csv")]) == 0
        assert main(["build", "--flow", str(d / "flow.csv"),
                     "--out", str(d / "series.bin")]) == 0
        assert main(["preprocess", "--series", str(d / "series.bin"),
                     "--out", str(d / "data")]) == 0
        assert main(["train", "--data", str(d / "data"), "--task",
                     "reconstruction", "--out", str(d / "run")]
                    + FAST_TRAIN) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    for rel in (
        "flow.csv", "series.bin", "series.meta.txt",
        "data/train_series.bin", "data/test_series.bin",
        "data/train_labels.bin", "data/test_labels.bin",
        "data/norm_stats.txt", "data/meta.txt",
        "run/checkpoint.bin", "run/trace.txt", "run/config.txt",
    ):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_config_names_a_data_dir_given_as_dot(pipeline, tmp_path,
                                             monkeypatch):
    """config.txt names an input by its absolute path, so `--data .` run
    inside the data directory records that directory's name."""
    monkeypatch.chdir(pipeline / "data")
    assert main(["train", "--data", ".", "--task", "prediction",
                 "--out", str(tmp_path / "run"), "--epochs", "1",
                 "--step", "50", "--latent", "4"]) == 0
    config = lio.read_kv(tmp_path / "run/config.txt")["train"]
    assert config["data"] == "data"


def test_lobkit_out_env_var_roots_relative_paths(tmp_path, monkeypatch):
    """LOBKIT_OUT roots every relative path a command reads or writes, each
    input (--flow, --series, --data, --checkpoint) as well as --out,
    wherever the command runs from."""
    root = tmp_path / "root"
    monkeypatch.setenv("LOBKIT_OUT", str(root))
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--profile", "sz300147", "--seed", "1",
                 "--out", "flow.csv"]) == 0
    assert (root / "flow.csv").exists()
    assert main(["build", "--flow", "flow.csv", "--out", "series.bin"]) == 0
    meta = lio.read_kv(root / "series.meta.txt")["series"]
    assert meta["flow_sha256"] == lio.file_sha256(root / "flow.csv")
    assert lio.load_tensor(root / "series.bin").shape == (4740, 40)
    assert main(["preprocess", "--series", "series.bin",
                 "--out", "data"]) == 0
    assert lio.read_kv(root / "data/meta.txt")["preprocess"][
        "series_sha256"] == lio.file_sha256(root / "series.bin")
    small = ["--epochs", "1", "--step", "10"]
    assert main(["train", "--data", "data", "--task", "prediction",
                 "--window", "10", "--latent", "4", *small,
                 "--out", "run"]) == 0
    assert main(["evaluate", "--data", "data", "--checkpoint",
                 "run/checkpoint.bin", "--step", "10", "--out", "eval"]) == 0
    assert main(["transfer", "--checkpoint", "run/checkpoint.bin",
                 "--data", "data", "--budget", "5", *small,
                 "--out", "xfer"]) == 0
    assert (root / "xfer/head_delta.bin").is_file()
    # config.txt records the input paths by file name only
    ckpt_sha256 = lio.file_sha256(root / "run/checkpoint.bin")
    for command, run in (("train", "run"), ("evaluate", "eval"),
                         ("transfer", "xfer")):
        config = lio.read_kv(root / run / "config.txt")[command]
        assert config["data"] == "data", command
        if command != "train":
            assert config["checkpoint"] == "checkpoint.bin"
            assert config["checkpoint_sha256"] == ckpt_sha256
    assert sorted(p.name for p in tmp_path.iterdir()) == ["root"]


# --------------------------------------------------------------- exit codes

def test_missing_input_file_is_io_error(tmp_path):
    assert main(["build", "--flow", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "s.bin")]) == 3


def test_malformed_series_is_validation_error(tmp_path):
    bad = tmp_path / "series.bin"
    bad.write_bytes(b"garbage bytes")
    assert main(["preprocess", "--series", str(bad),
                 "--out", str(tmp_path / "d")]) == 2


def test_unknown_profile_is_rejected_by_the_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--profile", "sz999999",
              "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2


def test_build_out_of_order_flow_exits_2_at_the_line(tmp_path, capsys):
    flow = tmp_path / "flow.csv"
    head = ("# profile = sz000001\n"
            "34140000000000,1,bid,limit,1000,5,\n"
            "34140000000000,2,ask,limit,1001,5,\n")
    flow.write_text(head + "1,3,bid,limit,999,5,\n")
    assert main(["build", "--flow", str(flow),
                 "--out", str(tmp_path / "series.bin")]) == 2
    err = capsys.readouterr().err
    assert f"at byte {len(head)} (field timestamp)" in err


@pytest.mark.parametrize("line", [
    "# tick_size = nan", "# tick_size = inf", "# tick_size = abc",
    "# tick_size = 0", "# tick_size = -0.01", "# seed = x",
])
def test_build_bad_flow_header_exits_2_at_the_line(pipeline, tmp_path,
                                                   capsys, line):
    text = (pipeline / "flow.csv").read_text()
    key = line.split()[1]
    good = next(g for g in text.splitlines() if g.startswith(f"# {key} ="))
    flow = tmp_path / "flow.csv"
    flow.write_text(text.replace(good, line))
    assert main(["build", "--flow", str(flow),
                 "--out", str(tmp_path / "series.bin")]) == 2
    err = capsys.readouterr().err
    assert f"at byte {text.index(good)} (field {key})" in err


def test_build_reused_order_id_exits_2_at_the_line(pipeline, tmp_path, capsys):
    """A later limit order takes the id of a market order."""
    lines = (pipeline / "flow.csv").read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if ",market," in line)
    j = next(j for j in range(i + 1, len(lines)) if ",limit," in lines[j])
    fields = lines[j].split(",")
    fields[1] = lines[i].split(",")[1]
    lines[j] = ",".join(fields)
    flow = tmp_path / "flow.csv"
    flow.write_text("".join(lines))
    assert main(["build", "--flow", str(flow),
                 "--out", str(tmp_path / "series.bin")]) == 2
    err = capsys.readouterr().err
    assert f"at byte {len(''.join(lines[:j]))} (field id)" in err


def _limit_flow(path, tick, orders):
    """A flow of limit orders, all before 09:30; each order is (side,
    "price_ticks,volume"). Returns the byte offset of each order's line."""
    lines = [f"# profile = sz000001\n# tick_size = {tick}\n"]
    lines += [f"34140000000000,{i},{side},limit,{pv},\n"
              for i, (side, pv) in enumerate(orders, 1)]
    path.write_text("".join(lines))
    return np.cumsum([len(x) for x in lines])[:-1].tolist()


@pytest.mark.parametrize("tick, bid, ask, bad, field", [
    ("1e307", "100,5", "200,5", 0, "price_ticks"),  # 100 * 1e307
    ("0.01", "100,5", f"{10**400},5", 1, "price_ticks"),
    ("0.01", f"100,{10**400}", "200,5", 0, "volume"),
], ids=["tick_size", "price_ticks", "volume"])
def test_build_value_with_no_finite_float_exits_2_at_its_line(
        tmp_path, capsys, tick, bid, ask, bad, field):
    """The bad value is on line bad of a two-order flow: bid, then ask."""
    flow = tmp_path / "flow.csv"
    offsets = _limit_flow(flow, tick, [("bid", bid), ("ask", ask)])
    assert main(["build", "--flow", str(flow),
                 "--out", str(tmp_path / "series.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has no finite float" in err
    assert f"at byte {offsets[bad]} (field {field})" in err


_MAX_VOLUME = int(np.finfo(float).max)  # the largest a flow line may carry


@pytest.mark.parametrize("tick, orders, message", [
    # two bids of the largest volume share a level: their sum has no float
    ("0.01", [("bid", f"100,{_MAX_VOLUME}"), ("bid", f"100,{_MAX_VOLUME}"),
              ("ask", "200,5")],
     "a volume at grid point 34200000000000 has no finite float"),
    # the ask side padded to 10 levels, one tick at a time, past 17 ticks
    ("1e307", [("bid", "16,5"), ("ask", "17,5")],
     "ask price 26 * tick_size 1e+307 has no finite float"),
], ids=["summed_volume", "ask_padding"])
def test_build_row_value_with_no_finite_float_exits_2(tmp_path, capsys, tick,
                                                      orders, message):
    """Each line is in range; only a value of the snapshot row is not."""
    flow = tmp_path / "flow.csv"
    _limit_flow(flow, tick, orders)
    assert main(["build", "--flow", str(flow),
                 "--out", str(tmp_path / "series.bin")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("levels", ["0", "-3"])
def test_build_rejects_levels_below_one(pipeline, tmp_path, capsys, levels):
    assert main(["build", "--flow", str(pipeline / "flow.csv"),
                 "--levels", levels,
                 "--out", str(tmp_path / "series.bin")]) == 2
    assert "levels must be >= 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_prediction_checkpoint(pipeline, tmp_path_factory):
    run = tmp_path_factory.mktemp("tiny_pred")
    assert main(["train", "--data", str(pipeline / "data"),
                 "--task", "prediction", "--out", str(run), "--epochs", "1",
                 "--window", "10", "--step", "10", "--latent", "4"]) == 0
    return run / "checkpoint.bin"


def test_loaded_checkpoint_draws_no_random_init(
        pipeline, tiny_prediction_checkpoint, tmp_path, monkeypatch):
    """evaluate and transfer build the model and head from the checkpoint's
    arrays: with the random init disabled they write the same files."""
    import lobkit.models

    data, ckpt = str(pipeline / "data"), str(tiny_prediction_checkpoint)

    def run(root):
        assert main(["evaluate", "--data", data, "--checkpoint", ckpt,
                     "--step", "10", "--out", str(root / "eval")]) == 0
        assert main(["transfer", "--checkpoint", ckpt, "--data", data,
                     "--budget", "5", "--step", "10",
                     "--out", str(root / "xfer")]) == 0
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    want = run(tmp_path / "a")

    def no_init(*args):
        raise AssertionError("a random init was drawn")

    monkeypatch.setattr(lobkit.models, "_init", no_init)
    got = run(tmp_path / "b")
    assert len(got) == 5 and got == want


@pytest.mark.parametrize("command,flag,value,message", [
    ("train", "--window", "0", "window must be >= 1, got 0"),
    ("train", "--window", "-2", "window must be >= 1, got -2"),
    ("train", "--step", "0", "step must be >= 1, got 0"),
    ("train", "--latent", "0", "latent must be >= 1, got 0"),
    ("train", "--batch-size", "0", "batch_size must be >= 1, got 0"),
    ("evaluate", "--step", "0", "step must be >= 1, got 0"),
    ("transfer", "--step", "0", "step must be >= 1, got 0"),
    ("transfer", "--batch-size", "0", "batch_size must be >= 1, got 0"),
    ("transfer", "--budget", "-3", "budget must be >= 0, got -3"),
    ("train", "--epochs", "0", "epochs must be >= 1, got 0"),
    ("train", "--lr", "-1", "lr must be finite and > 0, got -1.0"),
    ("train", "--lr", "nan", "lr must be finite and > 0, got nan"),
    ("transfer", "--lr", "inf", "lr must be finite and > 0, got inf"),
    ("train", "--clip-norm", "-1",
     "clip_norm must be finite and > 0, got -1.0"),
    ("train", "--lam", "nan", "lam must be finite and >= 0, got nan"),
    ("evaluate", "--lam", "nan", "lam must be finite and >= 0, got nan"),
    ("evaluate", "--alpha", "1.5", "alpha must be in [0, 1], got 1.5"),
    ("train", "--mask-ratio", "5",
     "argument --mask-ratio: must be in (0, 1), got 5.0"),
    ("evaluate", "--mask-ratio", "nan",
     "argument --mask-ratio: must be in (0, 1), got nan"),
    ("train", "--mask-ratio", "abc",
     "argument --mask-ratio: invalid float value: 'abc'"),
    ("evaluate", "--seed", "1.5", "argument --seed: invalid int value: '1.5'"),
    ("preprocess", "--horizon", "0", "horizon must be >= 1, got 0"),
    ("preprocess", "--delta", "nan", "delta must be finite and >= 0, got nan"),
    ("generate", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("train", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("evaluate", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("transfer", "--seed", "-2", "argument --seed: must be >= 0, got -2"),
    ("build", "--day", "-5", "argument --day: must be >= 0, got -5"),
])
def test_training_flags_out_of_range_exit_2_naming_them(
        pipeline, tiny_prediction_checkpoint, tmp_path, capsys,
        command, flag, value, message):
    data, ckpt = str(pipeline / "data"), str(tiny_prediction_checkpoint)
    out = tmp_path / "out"
    argv = {
        "generate": ["generate", "--profile", "sz000001"],
        "build": ["build", "--flow", str(pipeline / "flow.csv")],
        "preprocess": ["preprocess", "--series", str(pipeline / "series.bin")],
        "train": ["train", "--data", data, "--task", "prediction",
                  "--epochs", "1", "--window", "10", "--step", "10",
                  "--latent", "4"],
        "evaluate": ["evaluate", "--data", data, "--checkpoint", ckpt,
                     "--step", "10"],
        "transfer": ["transfer", "--checkpoint", ckpt, "--data", data,
                     "--budget", "5", "--step", "10"],
    }[command]
    try:
        code = main(argv + ["--out", str(out), flag, value])
    except SystemExit as exc:  # rejected by the parser itself
        code = exc.code
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_a_builtin_error_inside_a_command_escapes_main(tmp_path, monkeypatch,
                                                       error):
    """Exit 2 is for lobkit's own errors: a builtin one raised inside a
    command is a bug, and shows as a traceback."""
    def broken(*args):
        raise error("a bug")

    monkeypatch.setattr(cli, "generate_day", broken)
    with pytest.raises(error, match="a bug"):
        main(["generate", "--profile", "sz000001",
              "--out", str(tmp_path / "flow.csv")])


def _actions(command):
    """The command's flags by option string, in parser order."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a for a in sub.choices[command]._actions
            if a.dest != "help"}


def _recorded(path):
    """The keys a run wrote: the flow header, or a sidecar's one section."""
    if path.suffix == ".csv":
        return dict(line[2:].split(" = ", 1)
                    for line in path.read_text().splitlines()
                    if line.startswith("# "))
    (section,) = lio.read_kv(path).values()
    return section


# every subcommand's options in parser order (config.txt's key order), each
# with its default; None where the option is required
PARSER_OPTIONS = {
    "generate": [("--profile", None), ("--seed", 0), ("--out", None)],
    "build": [("--flow", None), ("--levels", 10), ("--day", 0),
              ("--out", None)],
    "preprocess": [("--series", None), ("--scheme", "global"),
                   ("--scope", "train"), ("--horizon", 5),
                   ("--delta", 0.001), ("--out", None)],
    "train": [("--data", None), ("--task", None), ("--epochs", 100),
              ("--batch-size", 64), ("--lr", 0.001), ("--seed", 0),
              ("--window", 100), ("--step", 1), ("--latent", 256),
              ("--relu", False), ("--mask-ratio", 0.2),
              ("--clip-norm", None), ("--alpha", 0.5), ("--lam", 1.0),
              ("--weights", "inverse-level"), ("--out", None)],
    "evaluate": [("--data", None), ("--checkpoint", None),
                 ("--split", "test"), ("--seed", 0), ("--step", 1),
                 ("--mask-ratio", 0.2), ("--alpha", 0.5), ("--lam", 1.0),
                 ("--weights", "inverse-level"), ("--out", None)],
    "transfer": [("--checkpoint", None), ("--data", None),
                 ("--budget", 100), ("--epochs", 100), ("--batch-size", 64),
                 ("--lr", 0.001), ("--seed", 0), ("--step", 1),
                 ("--out", None)],
}


def test_parser_options_and_defaults_are_pinned():
    """A new, moved or removed option, or a changed default (including one
    read from TrainConfig, LossConfig or LabelConfig), fails here."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(PARSER_OPTIONS)
    for command, options in PARSER_OPTIONS.items():
        got = [(flag, a.default) for flag, a in _actions(command).items()]
        # repr tells 100 from 100.0 and 0.001 from 0.0010000000000000002
        assert list(map(repr, got)) == list(map(repr, options)), command
    assert sum(map(len, PARSER_OPTIONS.values())) == 48


def test_every_flag_is_recorded(pipeline, tmp_path):
    data, run = pipeline / "data", tmp_path / "train"
    ckpt = run / "checkpoint.bin"
    # flag -> (value given, file it is recorded in, key, value recorded);
    # generate, build and preprocess keep their golden-pinned keys
    pinned = {
        "generate": {
            "--profile": ("sz300147", "flow.csv", "profile", "sz300147"),
            "--seed": ("4", "flow.csv", "seed", "4"),
        },
        "build": {
            "--flow": (str(tmp_path / "flow.csv"), "series.meta.txt",
                       "flow_file", "flow.csv"),
            "--levels": ("5", "series.meta.txt", "levels", "5"),
            "--day": ("2", "series.meta.txt", "day", "2"),
        },
        "preprocess": {
            "--series": (str(tmp_path / "series.bin"), "data/meta.txt",
                         "series_file", "series.bin"),
            "--scheme": ("feature", "data/meta.txt", "scheme", "feature"),
            "--scope": ("all", "data/meta.txt", "scope", "all"),
            "--horizon": ("3", "data/meta.txt", "label_horizon", "3"),
            "--delta": ("0.002", "data/meta.txt", "label_delta", "0.002"),
        },
    }
    outs = {"generate": "flow.csv", "build": "series.bin",
            "preprocess": "data"}
    # flag -> (value given, value recorded in config.txt under its dest)
    configs = {
        "train": {
            "--data": (str(data), "data"),
            "--task": ("prediction", "prediction"),
            "--epochs": ("1", "1"), "--batch-size": ("16", "16"),
            "--lr": ("0.002", "0.002"), "--seed": ("1", "1"),
            "--window": ("10", "10"), "--step": ("10", "10"),
            "--latent": ("4", "4"), "--relu": (None, "True"),
            "--mask-ratio": ("0.3", "0.3"), "--clip-norm": ("1.5", "1.5"),
            "--alpha": ("0.25", "0.25"), "--lam": ("0.5", "0.5"),
            "--weights": ("uniform", "uniform"),
        },
        "evaluate": {
            "--data": (str(data), "data"),
            "--checkpoint": (str(ckpt), "checkpoint.bin"),
            "--split": ("train", "train"), "--seed": ("1", "1"),
            "--step": ("10", "10"), "--mask-ratio": ("0.3", "0.3"),
            "--alpha": ("0.25", "0.25"), "--lam": ("0.5", "0.5"),
            "--weights": ("uniform", "uniform"),
        },
        "transfer": {
            "--checkpoint": (str(ckpt), "checkpoint.bin"),
            "--data": (str(data), "data"),
            "--budget": ("5", "5"), "--epochs": ("2", "2"),
            "--batch-size": ("16", "16"), "--lr": ("0.002", "0.002"),
            "--seed": ("1", "1"), "--step": ("10", "10"),
        },
    }
    for command, flags in [*pinned.items(), *configs.items()]:
        actions = _actions(command)
        assert list(flags) == [f for f in actions if f != "--out"], command
        out = tmp_path / outs.get(command, command)
        argv = [command, "--out", str(out)]
        for flag, (value, *_) in flags.items():
            argv += [flag] if value is None else [flag, value]
        args = build_parser().parse_args(argv)
        for flag in flags:
            action = actions[flag]
            assert getattr(args, action.dest) != action.default, flag
        assert main(argv) == 0, command
        if command in pinned:
            for flag, (_, name, key, value) in flags.items():
                assert _recorded(tmp_path / name)[key] == value, flag
            continue
        expected = {actions[f].dest: value for f, (_, value) in flags.items()}
        if "--checkpoint" in flags:
            expected["checkpoint_sha256"] = lio.file_sha256(ckpt)
        config = lio.read_kv(out / "config.txt")[command]
        assert list(config.items()) == list(expected.items()), command


def test_evaluate_split_shorter_than_window_exits_2_naming_it(
        pipeline, tmp_path, capsys):
    data = str(pipeline / "data")
    run = tmp_path / "run"
    assert main(["train", "--data", data, "--task", "reconstruction",
                 "--out", str(run), "--epochs", "1", "--window", "1000",
                 "--step", "200", "--latent", "4"]) == 0
    assert main(["evaluate", "--data", data,
                 "--checkpoint", str(run / "checkpoint.bin"),
                 "--out", str(tmp_path / "eval")]) == 2
    assert ("error: test split has 948 rows, fewer than the window T=1000"
            in capsys.readouterr().err)


def test_split_without_a_scorable_window_exits_2_naming_it(
        pipeline, tiny_prediction_checkpoint, tmp_path, capsys):
    """Labels that reach 940 rows ahead leave no labeled 10-row window in
    the 948-row test split; 3000-row windows fit in no train block."""
    data = tmp_path / "data"
    assert main(["preprocess", "--series", str(pipeline / "series.bin"),
                 "--horizon", "940", "--out", str(data)]) == 0
    assert main(["evaluate", "--data", str(data),
                 "--checkpoint", str(tiny_prediction_checkpoint),
                 "--out", str(tmp_path / "eval")]) == 2
    assert ("error: test split has no labeled window of T=10 inside a "
            "session block" in capsys.readouterr().err)
    assert main(["train", "--data", str(data), "--task", "reconstruction",
                 "--window", "3000", "--out", str(tmp_path / "run")]) == 2
    assert ("error: train split has no window of T=3000 inside a session "
            "block" in capsys.readouterr().err)


def _set_entry(meta_path, key, value):
    """Rewrite the key = value line of a meta sidecar, or delete it if value
    is None."""
    lines = meta_path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines)
             if line.startswith(f"{key} = "))
    lines[i] = "" if value is None else f"{key} = {value}\n"
    meta_path.write_text("".join(lines))


@pytest.mark.parametrize("levels", [20, 5])
def test_preprocess_levels_that_disagree_with_the_series_exit_2(
        pipeline, tmp_path, capsys, levels):
    """series.meta.txt's levels must match series.bin's 40 columns, in
    either direction."""
    for name in ("series.bin", "series.meta.txt"):
        shutil.copy(pipeline / name, tmp_path / name)
    _set_entry(tmp_path / "series.meta.txt", "levels", levels)
    out = tmp_path / "data"
    assert main(["preprocess", "--series", str(tmp_path / "series.bin"),
                 "--out", str(out)]) == 2
    assert (f"error: series.meta.txt: levels = {levels} needs {4 * levels} "
            "columns, but series.bin has shape (4740, 40)"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["global", "feature"])
@pytest.mark.parametrize("col,value,group", [
    (10, 1e300, "the volume columns"),  # best bid volume: its square overflows
    (0, 1e300, "the price columns"),  # best bid price
])
def test_series_that_fits_a_non_finite_sigma_exits_2_naming_it(
        pipeline, tmp_path, capsys, scheme, col, value, group):
    """A finite value whose square leaves the float range makes a sigma
    non-finite: preprocess exits 2 naming the group (global) or the column
    (feature), with no NumPy warning, and writes nothing."""
    shutil.copy(pipeline / "series.meta.txt", tmp_path / "series.meta.txt")
    rows = lio.load_tensor(pipeline / "series.bin")
    rows[7, col] = value
    lio.save_tensor(tmp_path / "series.bin", rows)
    out = tmp_path / "data"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["preprocess", "--series", str(tmp_path / "series.bin"),
                     "--scheme", scheme, "--out", str(out)]) == 2
    name = group if scheme == "global" else f"column {col}"
    assert capsys.readouterr().err.startswith(
        f"error: {name} fit a non-finite mean or sigma: mu = ")
    assert not out.exists()


@pytest.mark.parametrize("defect", ["labels", "levels"])
@pytest.mark.parametrize("command", ["train-reconstruction",
                                     "train-prediction", "evaluate",
                                     "transfer"])
def test_split_that_disagrees_with_its_series_exits_2_naming_it(
        pipeline, tiny_prediction_checkpoint, tmp_path, capsys, command,
        defect):
    """Labels cut to 100 entries, or meta.txt levels = 20 over the 40-column
    series: the command exits 2 naming the file, before it trains or
    scores."""
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    # evaluate reads only the test split; transfer reads train, then test
    split = ("train" if command.startswith("train")
             or (command, defect) == ("transfer", "levels") else "test")
    rows = {"train": 3792, "test": 948}[split]
    if defect == "labels":
        path = data / f"{split}_labels.bin"
        lio.save_tensor(path, lio.load_tensor(path)[:100])
        message = (f"error: {split}_labels.bin has shape (100,), but "
                   f"{split}_series.bin has {rows} rows")
    else:
        _set_entry(data / "meta.txt", "levels", 20)
        message = ("error: meta.txt: levels = 20 needs 80 columns, but "
                   f"{split}_series.bin has shape ({rows}, 40)")
    ckpt = str(tiny_prediction_checkpoint)
    argv = {
        "train": ["train", "--data", str(data), "--task",
                  command.partition("-")[2], "--epochs", "1",
                  "--window", "10", "--step", "10", "--latent", "4"],
        "evaluate": ["evaluate", "--data", str(data), "--checkpoint", ckpt,
                     "--step", "10"],
        "transfer": ["transfer", "--checkpoint", ckpt, "--data", str(data),
                     "--budget", "5", "--step", "10"],
    }[command.partition("-")[0]]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [2.0, -2.0, 0.5, math.inf])
@pytest.mark.parametrize("command", ["train", "evaluate", "transfer"])
def test_label_outside_the_trend_classes_exits_2_at_its_byte(
        pipeline, tiny_prediction_checkpoint, tmp_path, capsys, command,
        value):
    """A label that is neither NaN nor -1, 0 or 1, in the row that the
    first 10-row window scores, exits 2 naming the file, the row, the value
    and its byte offset, before anything is trained or scored."""
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    split = "test" if command == "evaluate" else "train"
    path = data / f"{split}_labels.bin"
    labels = lio.load_tensor(path)
    assert labels[9] in (-1, 0, 1)
    labels[9] = value
    lio.save_tensor(path, labels)
    ckpt = str(tiny_prediction_checkpoint)
    argv = {
        "train": ["train", "--data", str(data), "--task", "prediction",
                  "--epochs", "1", "--window", "10", "--step", "10",
                  "--latent", "4"],
        "evaluate": ["evaluate", "--data", str(data), "--checkpoint", ckpt,
                     "--step", "10"],
        "transfer": ["transfer", "--checkpoint", ckpt, "--data", str(data),
                     "--budget", "5", "--step", "10"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert (f"error: {split}_labels.bin: row 9 holds {value!r}, not a trend "
            "label -1, 0, 1 or NaN at byte 88" in capsys.readouterr().err)
    assert not out.exists()


@pytest.fixture(scope="module")
def sidecars(pipeline, tmp_path_factory):
    """Copies of the pipeline's series and data directory whose sidecars a
    test rewrites, and a pristine copy of each sidecar's text."""
    root = tmp_path_factory.mktemp("sidecars")
    for name in ("series.bin", "series.meta.txt"):
        shutil.copy(pipeline / name, root / name)
    shutil.copytree(pipeline / "data", root / "data")
    return root, {name: (root / name).read_text()
                  for name in ("series.meta.txt", "data/meta.txt")}


def _sidecar_run(root, name, key, ckpt):
    """The command that reads key from the sidecar name under root."""
    if name == "series.meta.txt":
        return ["preprocess", "--series", str(root / "series.bin"),
                "--out", str(root / "out")]
    if key == "test_blocks":
        return ["evaluate", "--data", str(root / "data"), "--checkpoint",
                str(ckpt), "--step", "10", "--out", str(root / "out")]
    return ["train", "--data", str(root / "data"), "--task",
            "reconstruction", "--epochs", "1", "--window", "10", "--step",
            "10", "--latent", "4", "--out", str(root / "out")]


@pytest.mark.parametrize("name,key,value,message", [
    ("data/meta.txt", "train_blocks", "0:2400,2400:9999",
     "meta.txt: train_blocks = 0:2400,2400:9999 must be ordered, disjoint "
     "blocks a:b of whole numbers with 0 <= a < b <= 3792 "
     "(the rows of train_series.bin)"),
    ("data/meta.txt", "train_blocks", "-3000:2400,2400:3792",
     "meta.txt: train_blocks = -3000:2400,2400:3792 must be ordered, "
     "disjoint blocks a:b of whole numbers with 0 <= a < b <= 3792"),
    ("data/meta.txt", "test_blocks", "0:500,400:948",
     "meta.txt: test_blocks = 0:500,400:948 must be ordered, disjoint "
     "blocks a:b of whole numbers with 0 <= a < b <= 948 "
     "(the rows of test_series.bin)"),
    ("series.meta.txt", "blocks", "0:2400,2400:4741",
     "series.meta.txt: blocks = 0:2400,2400:4741 must be ordered, disjoint "
     "blocks a:b of whole numbers with 0 <= a < b <= 4740 "
     "(the rows of series.bin)"),
    ("series.meta.txt", "blocks", "0:2400,2400:x",
     "series.meta.txt: blocks = 0:2400,2400:x must be ordered, disjoint "
     "blocks a:b of whole numbers"),
    ("series.meta.txt", "levels", "ten",
     "series.meta.txt: levels = ten is not a whole number"),
    ("data/meta.txt", "levels", "1.5",
     "meta.txt: levels = 1.5 is not a whole number"),
    ("series.meta.txt", "instrument", None,
     "series.meta.txt: [series] has no instrument"),
    ("series.meta.txt", "day", None, "series.meta.txt: [series] has no day"),
    ("series.meta.txt", "blocks", None,
     "series.meta.txt: [series] has no blocks"),
    ("data/meta.txt", "train_blocks", None,
     "meta.txt: [preprocess] has no train_blocks"),
    ("data/meta.txt", "levels", None, "meta.txt: [preprocess] has no levels"),
])
def test_sidecar_faults_exit_2_naming_the_file_and_key(
        sidecars, tiny_prediction_checkpoint, capsys, name, key, value,
        message):
    """Session blocks that leave their split, start before the previous
    block's end or are not a:b, a levels that is not a whole number, and a
    missing key are each rejected before a command writes anything."""
    root, pristine = sidecars
    try:
        _set_entry(root / name, key, value)
        argv = _sidecar_run(root, name, key, tiny_prediction_checkpoint)
        assert main(argv) == 2
    finally:
        (root / name).write_text(pristine[name])
    assert f"error: {message}" in capsys.readouterr().err
    assert not (root / "out").exists()


def test_sidecar_without_its_section_exits_2_naming_the_file(
        sidecars, capsys):
    root, pristine = sidecars
    try:
        (root / "series.meta.txt").write_text(
            pristine["series.meta.txt"].replace("[series]", "[other]"))
        assert main(_sidecar_run(root, "series.meta.txt", None, None)) == 2
    finally:
        (root / "series.meta.txt").write_text(pristine["series.meta.txt"])
    assert ("error: series.meta.txt: [series] has no levels"
            in capsys.readouterr().err)


_FUZZED = [("series.meta.txt", key)
           for key in ("levels", "blocks", "instrument", "day")]
_FUZZED += [("data/meta.txt", key)
            for key in ("levels", "train_blocks", "test_blocks")]
_BLOCKS = st.lists(st.tuples(st.integers(-5000, 5000),
                             st.integers(-5000, 5000)),
                   min_size=1, max_size=3).map(
    lambda blocks: ",".join(f"{a}:{b}" for a, b in blocks))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FUZZED),
       st.none() | st.text("-0123456789:,x ", max_size=12) | _BLOCKS)
def test_fuzzed_sidecar_value_exits_0_or_2(
        sidecars, tiny_prediction_checkpoint, target, value):
    """One value that preprocess, train or evaluate reads from a sidecar,
    replaced or its line deleted: the command succeeds or exits 2."""
    root, pristine = sidecars
    name, key = target
    try:
        _set_entry(root / name, key, value)
        assert main(_sidecar_run(root, name, key,
                                 tiny_prediction_checkpoint)) in (0, 2)
    finally:
        (root / name).write_text(pristine[name])


@pytest.fixture(scope="module")
def levels20(pipeline, tmp_path_factory):
    """The pipeline's flow built at 20 levels (80 columns) and preprocessed."""
    root = tmp_path_factory.mktemp("levels20")
    assert main(["build", "--flow", str(pipeline / "flow.csv"),
                 "--levels", "20", "--out", str(root / "series.bin")]) == 0
    assert main(["preprocess", "--series", str(root / "series.bin"),
                 "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("weights", ["inverse-level", "uniform"])
@pytest.mark.parametrize("task", ["reconstruction", "imputation"])
def test_train_and_evaluate_on_a_20_level_day(levels20, tmp_path, task,
                                              weights):
    """The loss weights span all 80 columns of a 20-level day."""
    run = tmp_path / "run"
    assert main(["train", "--data", str(levels20), "--task", task,
                 "--weights", weights, "--out", str(run), "--epochs", "1",
                 "--step", "50", "--latent", "4"]) == 0
    assert main(["evaluate", "--data", str(levels20),
                 "--checkpoint", str(run / "checkpoint.bin"),
                 "--weights", weights, "--step", "50",
                 "--out", str(tmp_path / "eval")]) == 0
    assert "wmse=" in (tmp_path / "eval" / "report.txt").read_text()


@pytest.mark.parametrize("command", ["evaluate", "transfer"])
def test_checkpoint_of_another_level_count_exits_2_naming_both(
        levels20, tiny_prediction_checkpoint, tmp_path, capsys, command):
    """A 10-level checkpoint on a 20-level data directory is rejected
    before it scores, naming both files and both level counts."""
    ckpt, data = str(tiny_prediction_checkpoint), str(levels20)
    argv = {
        "evaluate": ["evaluate", "--data", data, "--checkpoint", ckpt],
        "transfer": ["transfer", "--checkpoint", ckpt, "--data", data,
                     "--budget", "5"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--step", "10", "--out", str(out)]) == 2
    assert ("error: checkpoint.bin has meta.levels = 10, but data/meta.txt "
            "has levels = 20") in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_imputation_checkpoint(pipeline, tmp_path_factory):
    run = tmp_path_factory.mktemp("tiny_imp")
    assert main(["train", "--data", str(pipeline / "data"),
                 "--task", "imputation", "--out", str(run), "--epochs", "1",
                 "--window", "10", "--step", "10", "--latent", "16"]) == 0
    return run / "checkpoint.bin"


@pytest.mark.parametrize("key,value,field", [
    ("meta.head_kind", 7.0, "meta.head_kind"),
    ("meta.T", np.nan, "meta.T"),
    ("meta.latent", 8.0, "enc.W"),
    ("meta.T", 50.0, "meta.input_dim"),
    ("meta.levels", None, "meta.levels"),
    ("meta.relu", 0.5, "meta.relu"),
    ("enc.b", None, "enc.b"),
])
def test_checkpoint_with_bad_metadata_exits_2_naming_the_field(
        pipeline, tiny_imputation_checkpoint, tmp_path, capsys, key, value,
        field):
    """A meta.* entry that is missing, not a whole number in range, or that
    disagrees with the array shapes exits 2 naming the file and the field;
    None removes the entry."""
    arrays = lio.load_checkpoint(tiny_imputation_checkpoint)
    if value is None:
        del arrays[key]
    else:
        arrays[key] = np.array(value)
    bad = tmp_path / "checkpoint.bin"
    lio.save_checkpoint(bad, arrays)
    assert main(["evaluate", "--data", str(pipeline / "data"),
                 "--checkpoint", str(bad), "--step", "10",
                 "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: checkpoint.bin: ")
    assert f"(field {field})" in err


@pytest.mark.parametrize("rename,drop,field,message", [
    ({"head.W": "head.V"}, (), "head.V",
     "head.V is not read by the prediction task"),
    ({}, ("head.W", "head.b"), "head.W", "head.W is missing"),
    ({}, ("meta.head_kind",), "meta.head_kind", "missing meta.head_kind"),
], ids=["renamed-head", "kind-without-head", "head-without-kind"])
def test_checkpoint_arrays_its_kind_does_not_read_exit_2(
        pipeline, tiny_prediction_checkpoint, tmp_path, capsys, rename, drop,
        field, message):
    """meta.head_kind decides the kind, and every array must be one that
    kind reads: a renamed head.W or a head kind without its head exits 2
    naming the array, and a head without its kind exits 2 naming
    meta.head_kind; none loads as another task."""
    arrays = lio.load_checkpoint(tiny_prediction_checkpoint)
    arrays = {rename.get(k, k): v for k, v in arrays.items() if k not in drop}
    bad = tmp_path / "checkpoint.bin"
    lio.save_checkpoint(bad, arrays)
    out = tmp_path / "eval"
    assert main(["evaluate", "--data", str(pipeline / "data"),
                 "--checkpoint", str(bad), "--step", "10",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint.bin: {message}")
    assert f"(field {field})" in err
    assert not out.exists()


@pytest.mark.parametrize("task", HEAD_KINDS)
def test_checkpoint_holds_the_encoder_and_one_head(pipeline, tmp_path, task):
    """At the default sizes every task writes enc.*, head.* and meta.*
    only, with its kind in meta.head_kind: a prediction checkpoint holds
    no decoder, so it is about half a reconstruction or imputation one."""
    run = tmp_path / "run"
    assert main(["train", "--data", str(pipeline / "data"), "--task", task,
                 "--epochs", "1", "--step", "50", "--out", str(run)]) == 0
    arrays = lio.load_checkpoint(run / "checkpoint.bin")
    assert set(arrays) == {
        "enc.W", "enc.b", "head.W", "head.b", "meta.relu", "meta.input_dim",
        "meta.latent", "meta.T", "meta.levels", "meta.head_kind"}
    assert arrays["meta.head_kind"] == HEAD_KINDS.index(task)
    size = (run / "checkpoint.bin").stat().st_size
    assert size < (8.3e6 if task == "prediction" else 16.5e6)
    assert arrays["head.W"].shape == (256, 3 if task == "prediction" else 4000)


@pytest.mark.parametrize("task, message, field", [
    ("prediction", "dec.W is not read by the prediction task", "dec.W"),
    ("reconstruction", "missing meta.head_kind", "meta.head_kind"),
])
def test_old_format_checkpoint_exits_2_naming_the_field(
        pipeline, tmp_path, capsys, task, message, field):
    """Checkpoints of the earlier format: a head checkpoint that carries
    the untrained decoder dec.*, and a reconstruction one whose decoder is
    dec.* with no meta.head_kind. Neither loads."""
    data = str(pipeline / "data")
    run = tmp_path / "run"
    assert main(["train", "--data", data, "--task", task, "--epochs", "1",
                 "--window", "10", "--step", "10", "--latent", "4",
                 "--out", str(run)]) == 0
    arrays = lio.load_checkpoint(run / "checkpoint.bin")
    if task == "prediction":
        arrays.update({"dec.W": np.zeros((4, 400)), "dec.b": np.zeros(400)})
    else:
        del arrays["meta.head_kind"]
        arrays["dec.W"], arrays["dec.b"] = (arrays.pop("head.W"),
                                            arrays.pop("head.b"))
    bad = tmp_path / "checkpoint.bin"
    lio.save_checkpoint(bad, arrays)
    out = tmp_path / "eval"
    assert main(["evaluate", "--data", data, "--checkpoint", str(bad),
                 "--step", "10", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint.bin: {message}")
    assert f"(field {field})" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, row, col", [
    ("series.bin", 4700, 3),  # a test row: --scope train fits nothing on it
    ("train_series.bin", 9, 22),
    ("test_series.bin", 9, 31),
])
def test_non_finite_series_exits_2_at_its_byte(
        pipeline, tiny_prediction_checkpoint, tmp_path, capsys, name, row,
        col, value):
    """A NaN or inf in a day series or in a split's series exits 2 naming
    the file, the row and the column at the element's byte, before
    preprocess writes, train trains or evaluate scores."""
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    for sidecar in ("series.bin", "series.meta.txt"):
        shutil.copy(pipeline / sidecar, tmp_path / sidecar)
    path = tmp_path / name if name == "series.bin" else data / name
    rows = lio.load_tensor(path)
    rows[row, col] = value
    lio.save_tensor(path, rows)
    out = tmp_path / "out"
    argv = {
        "series.bin": ["preprocess", "--series", str(path), "--scope",
                       "train"],
        "train_series.bin": ["train", "--data", str(data), "--task",
                             "reconstruction", "--epochs", "1", "--window",
                             "10", "--step", "10", "--latent", "4"],
        "test_series.bin": ["evaluate", "--data", str(data), "--checkpoint",
                            str(tiny_prediction_checkpoint), "--step", "10"],
    }[name]
    assert main(argv + ["--out", str(out)]) == 2
    offset = lio.element_offset(2, row * rows.shape[1] + col)
    assert (f"error: {name}: row {row}, column {col} holds {value!r}, not a "
            f"finite value at byte {offset}" in capsys.readouterr().err)
    assert not out.exists()


def _checkpoint_element_offset(arrays: dict, key: str, i: int) -> int:
    """The byte of element i of arrays[key] in the checkpoint that
    save_checkpoint writes: a 12-byte header, then per array in name order
    a <H name length, the name, a <B ndim, the <u4 dims and the payload."""
    offset = 12
    for name in sorted(arrays):
        offset += 2 + len(name.encode()) + 1 + 4 * arrays[name].ndim
        if name == key:
            return offset + 8 * i
        offset += 8 * arrays[name].size
    raise KeyError(key)


def _planted_at(path: Path, err: str, value: float) -> int:
    """The byte offset err reports, after checking that the 8 bytes there
    in path are value's."""
    offset = int(re.search(r" at byte (\d+)", err).group(1))
    assert path.read_bytes()[offset:offset + 8] == struct.pack("<d", value)
    return offset


@pytest.mark.parametrize("key, index, value", [
    ("enc.W", (0, 0), math.nan),
    ("head.b", (2,), -math.inf),
])
@pytest.mark.parametrize("command", ["evaluate", "transfer"])
def test_non_finite_checkpoint_exits_2_naming_the_array(
        pipeline, tiny_prediction_checkpoint, tmp_path, capsys, command, key,
        index, value):
    """A NaN or inf in any checkpoint array exits 2 naming the array, the
    element and its byte, before evaluate scores or transfer fits."""
    arrays = lio.load_checkpoint(tiny_prediction_checkpoint)
    arrays[key][index] = value
    bad = tmp_path / "checkpoint.bin"
    lio.save_checkpoint(bad, arrays)
    data = str(pipeline / "data")
    argv = {
        "evaluate": ["evaluate", "--data", data, "--checkpoint", str(bad)],
        "transfer": ["transfer", "--checkpoint", str(bad), "--data", data,
                     "--budget", "5"],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--step", "10", "--out", str(out)]) == 2
    at = ", ".join(map(str, index))
    offset = _checkpoint_element_offset(
        arrays, key, np.ravel_multi_index(index, arrays[key].shape))
    err = capsys.readouterr().err
    assert (f"error: checkpoint.bin: {key}[{at}] holds {value!r}, not a "
            f"finite value at byte {offset} (field {key})" in err)
    assert _planted_at(bad, err, value) == offset
    assert not out.exists()


def test_non_finite_default_checkpoint_element_exits_2_at_its_byte(
        pipeline, tmp_path, capsys):
    """At the default sizes (T=100, 10 levels, latent 256) enc.W is the
    first array, its payload starts at byte 28, and enc.W[3, 5] is element
    3 * 256 + 5 = 773 of it: byte 28 + 8 * 773 = 6212."""
    model = LinearAutoencoder(input_dim=4000, latent=256, seed=0)
    head = TaskHead("prediction", latent=256, seed=1)
    arrays = _model_arrays(model, head, 100, 10)
    arrays["enc.W"][3, 5] = math.nan
    bad = tmp_path / "checkpoint.bin"
    lio.save_checkpoint(bad, arrays)
    assert main(["evaluate", "--data", str(pipeline / "data"),
                 "--checkpoint", str(bad),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert ("error: checkpoint.bin: enc.W[3, 5] holds nan, not a finite "
            "value at byte 6212 (field enc.W)" in err)
    assert _planted_at(bad, err, math.nan) == 6212


@settings(max_examples=12, deadline=None)
@given(target=st.sampled_from(["series.bin", "train_series.bin",
                               "test_series.bin", "checkpoint.bin"]),
       pick=st.integers(min_value=0), element=st.integers(min_value=0),
       value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_value_at_a_random_element_exits_2_at_its_byte(
        pipeline, tiny_prediction_checkpoint, target, pick, element, value):
    """NaN, inf or -inf at any element of a day series (preprocess), a
    split's series (train, evaluate) or any checkpoint array (evaluate)
    exits 2 at that element's byte, and the 8 bytes there are the value."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data"
        shutil.copytree(pipeline / "data", data)
        ckpt = root / "checkpoint.bin"
        shutil.copy(tiny_prediction_checkpoint, ckpt)
        for sidecar in ("series.bin", "series.meta.txt"):
            shutil.copy(pipeline / sidecar, root / sidecar)
        if target == "checkpoint.bin":
            path = ckpt
            arrays = lio.load_checkpoint(path)
            key = sorted(arrays)[pick % len(arrays)]
            i = element % arrays[key].size
            arrays[key].flat[i] = value
            lio.save_checkpoint(path, arrays)
            offset = _checkpoint_element_offset(arrays, key, i)
        else:
            path = root / target if target == "series.bin" else data / target
            rows = lio.load_tensor(path)
            i = element % rows.size
            rows.flat[i] = value
            lio.save_tensor(path, rows)
            offset = lio.element_offset(2, i)
        argv = {
            "series.bin": ["preprocess", "--series", str(path)],
            "train_series.bin": ["train", "--data", str(data), "--task",
                                 "reconstruction", "--epochs", "1",
                                 "--window", "10", "--step", "10",
                                 "--latent", "4"],
        }.get(target, ["evaluate", "--data", str(data), "--checkpoint",
                       str(ckpt), "--step", "10"])
        with redirect_stderr(StringIO()) as err:
            assert main(argv + ["--out", str(root / "out")]) == 2
        assert _planted_at(path, err.getvalue(), value) == offset
        assert not (root / "out").exists()


def test_mask_ratio_that_masks_no_step_exits_2_naming_it(
        pipeline, tiny_imputation_checkpoint, tmp_path, capsys):
    """int(0.05 * 10) masks no step of a 10-row window, in train and in
    evaluate of an imputation checkpoint."""
    data = str(pipeline / "data")
    message = "error: mask ratio 0.05 masks no step of a window of T=10"
    assert main(["train", "--data", data, "--task", "imputation",
                 "--epochs", "1", "--window", "10", "--step", "10",
                 "--latent", "4", "--mask-ratio", "0.05",
                 "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert main(["evaluate", "--data", data,
                 "--checkpoint", str(tiny_imputation_checkpoint),
                 "--step", "10", "--mask-ratio", "0.05",
                 "--out", str(tmp_path / "eval")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "eval").exists()


def test_transfer_that_moves_the_encoder_raises(
        pipeline, tiny_prediction_checkpoint, tmp_path, monkeypatch):
    """The frozen-encoder check is an explicit raise, so it holds under
    python -O too; an internal fault, not an input one, so no exit 2."""
    fit = cli.finetune_frozen

    def nudging_fit(model, *args, **kwargs):
        trace = fit(model, *args, **kwargs)
        model.params["enc.W"][0, 0] += 1e-9
        return trace

    monkeypatch.setattr(cli, "finetune_frozen", nudging_fit)
    with pytest.raises(RuntimeError, match="changed enc.W"):
        main(["transfer", "--checkpoint", str(tiny_prediction_checkpoint),
              "--data", str(pipeline / "data"), "--budget", "5",
              "--step", "10", "--out", str(tmp_path / "xfer")])


def test_divergent_training_is_numeric_abort(pipeline, tmp_path):
    assert main(["train", "--data", str(pipeline / "data"),
                 "--task", "reconstruction", "--out", str(tmp_path / "run"),
                 "--epochs", "3", "--step", "50", "--latent", "16",
                 "--lr", "1e200"]) == 4


def _checkpoint_offsets(raw):
    """Byte offsets inside a checkpoint's headers, and one inside each
    array's payload."""
    header, payload = list(range(12)), []
    pos = 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        (namelen,) = struct.unpack_from("<H", raw, pos)
        ndim = raw[pos + 2 + namelen]
        end = pos + 3 + namelen + 4 * ndim
        n = math.prod(struct.unpack_from(f"<{ndim}I", raw, end - 4 * ndim))
        header += range(pos, end)
        payload.append(end + 4 * n)
        pos = end + 8 * n
    return header, payload


def test_truncated_binaries_exit_2_with_byte_offset(pipeline, tmp_path, capsys):
    series = (pipeline / "series.bin").read_bytes()
    bad = tmp_path / "series.bin"
    for cut in [*range(20), 20, 20 + 8 * 1000 + 3, len(series) - 1]:
        bad.write_bytes(series[:cut])
        assert main(["preprocess", "--series", str(bad),
                     "--out", str(tmp_path / "d")]) == 2, cut
        assert "at byte" in capsys.readouterr().err, cut

    data = str(pipeline / "data")
    assert main(["train", "--data", data, "--task", "prediction",
                 "--out", str(tmp_path / "run")] + FAST_TRAIN) == 0
    ckpt = (tmp_path / "run" / "checkpoint.bin").read_bytes()
    header, payload = _checkpoint_offsets(ckpt)
    assert header[-1] < len(ckpt) and len(payload) == 10
    bad = tmp_path / "checkpoint.bin"
    for cut in header + payload + [len(ckpt) - 1]:
        bad.write_bytes(ckpt[:cut])
        assert main(["evaluate", "--data", data, "--checkpoint", str(bad),
                     "--out", str(tmp_path / "eval")]) == 2, cut
        assert "at byte" in capsys.readouterr().err, cut


@pytest.fixture(scope="module")
def corruptible(pipeline, tiny_prediction_checkpoint, tmp_path_factory):
    """A directory for corrupted inputs, and the pristine bytes of a short
    flow (the pipeline's first 300 lines), its series.bin and the tiny
    prediction checkpoint."""
    root = tmp_path_factory.mktemp("corrupt")
    shutil.copy(pipeline / "series.meta.txt", root / "series.meta.txt")
    flow = (pipeline / "flow.csv").read_bytes().splitlines(True)
    return root, {
        "flow.csv": b"".join(flow[:300]),
        "series.bin": (pipeline / "series.bin").read_bytes(),
        "checkpoint.bin": tiny_prediction_checkpoint.read_bytes(),
    }


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["flow.csv", "series.bin", "checkpoint.bin"]),
       at=st.integers(0, 63) | st.integers(min_value=0),
       flip=st.integers(0, 255))
def test_corrupted_input_exits_0_2_or_3(corruptible, pipeline, name, at,
                                        flip):
    """A short flow, a day series or a checkpoint with one byte flipped
    (flip > 0) or cut off from that byte on (flip 0), read by build,
    preprocess or evaluate: the command exits 0, 2 or 3 and lets no other
    exception escape."""
    root, pristine = corruptible
    raw = bytearray(pristine[name])
    at %= len(raw)
    if flip:
        raw[at] ^= flip
    else:
        del raw[at:]
    path, out = root / name, str(root / "out")
    path.write_bytes(bytes(raw))
    argv = {
        "flow.csv": ["build", "--flow", str(path),
                     "--out", str(root / "out" / "series.bin")],
        "series.bin": ["preprocess", "--series", str(path), "--out", out],
        "checkpoint.bin": ["evaluate", "--data", str(pipeline / "data"),
                           "--checkpoint", str(path), "--step", "10",
                           "--out", out],
    }[name]
    assert main(argv) in (0, 2, 3)

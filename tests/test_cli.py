"""Command-line interface, exercised in-process through main()."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmgc import cli, filters, trainer
from mmgc.cli import _build_parser, _synth_config, _train_config, main
from mmgc.data import read_feature_matrix, save_dataset
from mmgc.datagen import ModalitySpec, SynthConfig
from mmgc.trainer import TrainConfig

from helpers import random_graph

GEN_CONFIG = """\
n = 40
k = 3
p_in = 0.4
p_out = 0.02
seed = 5
outlier_rate = 0.05
modality.text.dim = 6
modality.text.noise_sigma = 1.0
modality.image.dim = 4
"""

FAST_TRAIN = ["--epochs", "2", "--hidden-dim", "8", "--walk-len", "3"]


# the historic flag spellings; every other TrainConfig field is --field-name
HISTORIC_FLAGS = {"t_layers": "--t", "walk_length": "--walk-len"}


def _other_value(value):
    """A value of the same type that differs from a field's default."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 2
    return value * 2.5 + 0.125


def _expect_failure(argv, capsys, match=""):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert match in err
    return err


# ---------------------------------------------------------------- generate

def test_generate_writes_dataset(tmp_path, capsys):
    config = tmp_path / "synth.txt"
    config.write_text(GEN_CONFIG)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0

    for name in ("manifest.txt", "edges.txt", "labels.txt",
                 "text.features.bin", "image.features.bin"):
        assert (out / name).exists(), name

    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"manifest {out / 'manifest.txt'}"
    assert lines[1] == "nodes 40"
    assert lines[2].startswith("edges ")

    spikes = (out / "text.spikes.csv").read_text().splitlines()
    assert spikes[0] == "row,col"
    r, c = map(int, spikes[1].split(","))
    assert 0 <= r < 40 and 0 <= c < 6


def test_generate_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "synth.txt"
    config.write_text(GEN_CONFIG + "bogus = 1\n")
    _expect_failure(
        ["generate", "--config", str(config), "--out", str(tmp_path / "d")],
        capsys, match="bogus",
    )


@pytest.mark.parametrize("raw", ["nan", "inf"])
@pytest.mark.parametrize("option", ["signal_strength", "noise_sigma"])
def test_generate_rejects_non_finite_modality_scale(option, raw, tmp_path, capsys):
    config = tmp_path / "gen.txt"
    config.write_text(GEN_CONFIG + f"modality.image.{option} = {raw}\n")
    _expect_failure(
        ["generate", "--config", str(config), "--out", str(tmp_path / "d")],
        capsys, match=option,
    )
    assert not (tmp_path / "d").exists()


def test_generate_accepts_every_synth_option(tmp_path):
    # every scalar of SynthConfig and every attribute of ModalitySpec is a
    # config key; the file sets each one, the optional ones off their defaults
    spec = ModalitySpec("text", 7, signal_strength=1.5, noise_sigma=0.25)
    expected = SynthConfig(n=40, k=3, p_in=0.4, p_out=0.02, modalities=[spec],
                           outlier_rate=0.05, cross_modal_correlation=0.5, seed=9)
    lines = [f"{f.name} = {getattr(expected, f.name)}"
             for f in dataclasses.fields(SynthConfig) if f.name != "modalities"]
    lines += [f"modality.text.{f.name} = {getattr(spec, f.name)}"
              for f in dataclasses.fields(ModalitySpec) if f.name != "name"]
    config = tmp_path / "synth.txt"
    config.write_text("\n".join(lines) + "\n")
    assert _synth_config(config) == expected
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d")]) == 0


def test_generate_requires_modalities(tmp_path, capsys):
    config = tmp_path / "synth.txt"
    config.write_text("n = 10\nk = 2\np_in = 0.5\np_out = 0.1\n")
    _expect_failure(
        ["generate", "--config", str(config), "--out", str(tmp_path / "d")],
        capsys, match="modalities",
    )


# ---------------------------------------------------------------- diagnose

def test_diagnose_reports_json(dataset_dir, capsys):
    assert main(["diagnose", "--data", str(dataset_dir),
                 "--tau", "2.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tau"] == 2.5
    assert len(report["cross_modal"]) == 1
    pair = report["cross_modal"][0]
    assert sorted(pair["modalities"]) == ["image", "text"]
    assert 0.0 <= pair["distance_correlation"] <= 1.0
    assert report["average_distance_correlation"] == pair["distance_correlation"]
    assert set(report["outliers"]) == {"image", "text"}
    assert report["outliers"]["text"]["tau"] == 2.5


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "0"])
def test_diagnose_rejects_non_finite_tau(tau, dataset_dir, capsys, monkeypatch):
    # rejected before any work: a distance correlation would fail this test
    monkeypatch.setattr(cli, "distance_correlation", None)
    _expect_failure(["diagnose", "--data", str(dataset_dir), f"--tau={tau}"],
                    capsys, match="tau must be finite and positive")


def test_diagnose_missing_manifest(tmp_path, capsys):
    _expect_failure(["diagnose", "--data", str(tmp_path / "nope.txt")], capsys)


# ----------------------------------------------------------------- cluster

def test_cluster_malformed_edges_names_the_line(dataset_dir, tmp_path, capsys):
    edges = dataset_dir.parent / "edges.txt"
    edges.write_text("0 1\n0 1 2\n", encoding="utf-8")
    argv = ["cluster", "--data", str(dataset_dir), *FAST_TRAIN, "--out", str(tmp_path / "run")]
    err = _expect_failure(argv, capsys)
    assert err == f"error: {edges}:2: expected 'u v', got '0 1 2'\n"


@pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999"])
def test_cluster_label_out_of_int64_range_names_the_line(label, dataset_dir, tmp_path,
                                                         capsys):
    labels = dataset_dir.parent / "labels.txt"
    labels.write_text(f"0\n{label}\n", encoding="utf-8")
    argv = ["cluster", "--data", str(dataset_dir), *FAST_TRAIN, "--out", str(tmp_path / "run")]
    err = _expect_failure(argv, capsys)
    assert err == f"error: {labels}:2: label out of int64 range\n"


def test_cluster_end_to_end(dataset_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["cluster", "--data", str(dataset_dir),
                 "--out", str(out), *FAST_TRAIN])
    assert code == 0

    lines = (out / "assignments.csv").read_text().splitlines()
    assert lines[0] == "node_id,cluster"
    assert len(lines) == 25  # header + 24 nodes
    ids = [int(l.split(",")[1]) for l in lines[1:]]
    assert set(ids) == {0, 1, 2}  # manifest records clusters = 3

    metrics = json.loads((out / "metrics.json").read_text())
    assert list(metrics) == ["acc", "nmi", "f1", "ari", "cs"]
    for name in ("acc", "nmi", "f1", "cs"):
        assert 0.0 <= metrics[name] <= 1.0
    assert -0.5 <= metrics["ari"] <= 1.0  # adjusted index may dip negative

    assert len((out / "epochs.jsonl").read_text().splitlines()) == 2
    w = read_feature_matrix(out / "projection_text.bin")
    assert w.shape == (6, 8) and w.dtype == np.float32

    stdout = capsys.readouterr().out
    assert any(l.startswith("acc ") and l.endswith("%") for l in stdout.splitlines())


def test_cluster_warns_when_training_diverges(dataset_dir, tmp_path, capsys):
    code = main(["cluster", "--data", str(dataset_dir), "--out", str(tmp_path / "run"),
                 *FAST_TRAIN, "--lr", "1e200"])
    assert code == 0
    assert "warning: training diverged at epoch 0" in capsys.readouterr().err


def test_cluster_k_precedence(dataset_dir, tmp_path):
    # every cluster is refilled when it empties, so exactly k ids appear
    config = tmp_path / "train.txt"
    config.write_text("clusters = 2\nepochs = 2\nhidden_dim = 8\nwalk_length = 3\n")

    def run(extra, out):
        assert main(["cluster", "--data", str(dataset_dir),
                     "--out", str(tmp_path / out), "--config", str(config),
                     *extra]) == 0
        lines = (tmp_path / out / "assignments.csv").read_text().splitlines()[1:]
        return {int(l.split(",")[1]) for l in lines}

    assert run([], "from_config") == {0, 1}          # config beats manifest
    assert run(["--k", "4"], "from_flag") == {0, 1, 2, 3}  # flag beats config


def test_cluster_flag_overrides_config_scalar(dataset_dir, tmp_path):
    config = tmp_path / "train.txt"
    config.write_text("epochs = 1\nhidden_dim = 8\nwalk_length = 3\n")
    out = tmp_path / "run"
    assert main(["cluster", "--data", str(dataset_dir),
                 "--out", str(out), "--config", str(config),
                 "--epochs", "3"]) == 0
    assert len((out / "epochs.jsonl").read_text().splitlines()) == 3


def test_cluster_without_labels_skips_metrics(small_graph, tmp_path, capsys):
    unlabeled = type(small_graph)(
        edges=small_graph.edges, modalities=small_graph.modalities, labels=None
    )
    manifest = save_dataset(unlabeled, tmp_path / "data")
    out = tmp_path / "run"
    assert main(["cluster", "--data", str(manifest), "--out", str(out),
                 "--k", "3", *FAST_TRAIN]) == 0
    assert "skipping metrics" in capsys.readouterr().out
    assert not (out / "metrics.json").exists()
    assert (out / "assignments.csv").exists()


def test_cluster_requires_some_k(small_graph, tmp_path, capsys):
    unlabeled = type(small_graph)(
        edges=small_graph.edges, modalities=small_graph.modalities, labels=None
    )
    manifest = save_dataset(unlabeled, tmp_path / "data")  # no clusters entry
    _expect_failure(
        ["cluster", "--data", str(manifest), "--out", str(tmp_path / "run"),
         *FAST_TRAIN],
        capsys, match="cluster count",
    )


def test_cluster_runs_deterministically(dataset_dir, tmp_path):
    argv = ["cluster", "--data", str(dataset_dir),
            "--seed", "3", *FAST_TRAIN]
    assert main(argv + ["--out", str(tmp_path / "a"), "--threads", "1"]) == 0
    assert main(argv + ["--out", str(tmp_path / "b"), "--threads", "8"]) == 0
    a = (tmp_path / "a" / "assignments.csv").read_bytes()
    b = (tmp_path / "b" / "assignments.csv").read_bytes()
    assert a == b


def test_cluster_accepts_ablation_flags(dataset_dir, tmp_path):
    out = tmp_path / "run"
    assert main(["cluster", "--data", str(dataset_dir),
                 "--out", str(out), "--no-fdd", "--no-hps", *FAST_TRAIN]) == 0


def test_cluster_config_boolean_flags(dataset_dir, tmp_path, capsys):
    config = tmp_path / "train.txt"
    config.write_text("no_fdd = true\nepochs = 1\nhidden_dim = 8\nwalk_length = 3\n")
    out = tmp_path / "run"
    assert main(["cluster", "--data", str(dataset_dir),
                 "--out", str(out), "--config", str(config)]) == 0
    capsys.readouterr()  # the first run's output, a BLAS note among it

    config.write_text("no_fdd = maybe\n")
    _expect_failure(
        ["cluster", "--data", str(dataset_dir),
         "--out", str(out), "--config", str(config)],
        capsys, match="boolean",
    )


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
def test_cluster_flag_and_config_key_agree(field, tmp_path):
    # every TrainConfig field is both a cluster flag and a config-file key,
    # and the two give the same TrainConfig
    value = _other_value(getattr(TrainConfig(), field))
    expected = dataclasses.replace(TrainConfig(), **{field: value})
    assert expected != TrainConfig()
    parser = _build_parser()
    base = ["cluster", "--data", "unused", "--out", "unused"]

    flag = HISTORIC_FLAGS.get(field, "--" + field.replace("_", "-"))
    by_flag = [flag] if isinstance(value, bool) else [flag, str(value)]
    cfg, _ = _train_config(parser.parse_args(base + by_flag))
    assert cfg == expected

    config = tmp_path / "train.txt"
    config.write_text(f"{field} = {value}\n")
    cfg, _ = _train_config(parser.parse_args(base + ["--config", str(config)]))
    assert cfg == expected


@pytest.mark.parametrize("key, value", [("negatives_per_node", "4"), ("mms_negatives", "8")])
def test_cluster_refuses_removed_options(key, value, dataset_dir, tmp_path, capsys):
    # the walk draws walk_length negatives and the impostor cap is a constant
    argv = ["cluster", "--data", str(dataset_dir), "--out", str(tmp_path / "run"),
            *FAST_TRAIN]
    config = tmp_path / "train.txt"
    config.write_text(f"{key} = {value}\n")
    _expect_failure([*argv, "--config", str(config)], capsys,
                    match=f"unknown config key {key!r}")
    flag = "--" + key.replace("_", "-")
    _expect_unrecognized([*argv, flag, value], capsys, flag)
    assert not (tmp_path / "run").exists()  # refused before --out is created


def _bad_option(field, raw, no_fdd=False):
    suffix = "-no_fdd" if no_fdd else ""
    return pytest.param(field, raw, no_fdd, id=f"{field}-{raw}{suffix}")


@pytest.mark.parametrize(
    "field, raw, no_fdd",
    [
        _bad_option("alpha", "nan"),
        _bad_option("alpha", "-inf"),
        _bad_option("beta", "inf"),
        _bad_option("beta", "nan"),
        _bad_option("lr", "nan"),
        _bad_option("lr", "inf"),
        _bad_option("delta", "nan"),
        _bad_option("delta", "-inf"),
        _bad_option("weight_decay", "nan"),
        _bad_option("weight_decay", "inf"),
        _bad_option("weight_decay", "-1"),
        # no_fdd turns the feature filter off but does not excuse a bad value
        _bad_option("alpha", "nan", no_fdd=True),
        _bad_option("beta", "nan", no_fdd=True),
        _bad_option("beta", "-1", no_fdd=True),
        _bad_option("seed", "-1"),
    ],
)
def test_cluster_rejects_non_finite_or_negative_option(field, raw, no_fdd, dataset_dir,
                                                       tmp_path, capsys):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: float(raw)}, no_fdd=no_fdd).validate()
    flag = "--" + field.replace("_", "-")
    err = _expect_failure(
        ["cluster", "--data", str(dataset_dir), "--out", str(tmp_path / "run"),
         *FAST_TRAIN, f"{flag}={raw}", *(["--no-fdd"] if no_fdd else [])],
        capsys, match=field,
    )
    assert "non-finite" not in err  # the option is named, not a later symptom
    assert not (tmp_path / "run").exists()  # rejected before --out is created


@pytest.mark.parametrize("k_flag, config", [
    (["--k", "0"], None),
    (["--k", "25"], None),  # the dataset has 24 nodes
    ([], "clusters = 0\n"),
], ids=["k-0", "k-above-n", "config-clusters-0"])
def test_cluster_rejects_cluster_count_out_of_range(k_flag, config, dataset_dir,
                                                    tmp_path, capsys):
    argv = ["cluster", "--data", str(dataset_dir), "--out", str(tmp_path / "run"),
            *FAST_TRAIN, *k_flag]
    if config is not None:
        (tmp_path / "train.txt").write_text(config)
        argv += ["--config", str(tmp_path / "train.txt")]
    _expect_failure(argv, capsys, match="cluster count")
    assert not (tmp_path / "run").exists()  # rejected before --out is created


@pytest.mark.parametrize("command, line, key", [
    ("cluster", "epochs = x", "epochs"),
    ("cluster", "clusters = four", "clusters"),
    ("generate", "n = 3e2", "n"),
    ("generate", "modality.image.dim = 2.5", "modality.image.dim"),
], ids=["train-key", "clusters", "synth-scalar", "modality-dim"])
def test_config_value_that_does_not_parse_names_its_key(command, line, key, dataset_dir,
                                                        tmp_path, capsys):
    config = tmp_path / "config.txt"
    if command == "cluster":
        config.write_text(line + "\n")
        argv = ["cluster", "--data", str(dataset_dir), *FAST_TRAIN]
    else:
        # the line replaces the key's own line of the valid config
        lines = [l for l in GEN_CONFIG.splitlines() if not l.startswith(key + " =")]
        config.write_text("\n".join(lines + [line]) + "\n")
        argv = ["generate"]
    argv += ["--config", str(config), "--out", str(tmp_path / "run")]
    err = _expect_failure(argv, capsys, match=f"{key} must parse as")
    assert repr(line.split(" = ")[1]) in err
    assert not (tmp_path / "run").exists()  # rejected before --out is created


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["cluster", "generate"])
def test_rejects_non_positive_threads(command, threads, dataset_dir, tmp_path, capsys):
    if command == "cluster":
        argv = ["cluster", "--data", str(dataset_dir), *FAST_TRAIN]
    else:
        (tmp_path / "gen.txt").write_text(GEN_CONFIG)
        argv = ["generate", "--config", str(tmp_path / "gen.txt")]
    argv += ["--out", str(tmp_path / "run"), "--threads", threads]
    if command == "cluster":
        _expect_failure(argv, capsys, match="--threads")
    else:  # generate has no thread budget, so argparse refuses the flag
        _expect_unrecognized(argv, capsys, "--threads")
    assert not (tmp_path / "run").exists()  # rejected before --out is created


def _expect_unrecognized(argv, capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["diagnose", "spectra", "gradcheck"])
def test_subcommand_refuses_threads(command, dataset_dir, capsys):
    # only cluster takes a thread budget
    _expect_unrecognized([command, "--data", str(dataset_dir), "--threads", "2"],
                         capsys, "--threads")


@pytest.mark.parametrize("env, pinned", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": " 1"}, True),
    ({"OPENBLAS_NUM_THREADS": ""}, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
    ({"MKL_NUM_THREADS": "2"}, False),
])
def test_blas_pinned_reads_the_thread_variables(env, pinned, monkeypatch):
    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.blas_pinned() == pinned


@pytest.mark.parametrize("threads, pinned, note", [
    ("2", None, True),
    ("2", "OMP_NUM_THREADS", False),
    ("2", "MKL_NUM_THREADS", False),
    ("1", None, False),
])
def test_cluster_notes_blas_contention(threads, pinned, note, dataset_dir, tmp_path,
                                       capsys, monkeypatch):
    for name in cli.BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    if pinned:
        monkeypatch.setenv(pinned, "1")
    assert main(["cluster", "--data", str(dataset_dir), "--out", str(tmp_path / "run"),
                 "--threads", threads, *FAST_TRAIN]) == 0
    err = capsys.readouterr().err
    assert ("OPENBLAS_NUM_THREADS=1" in err) == note
    assert err.count("note:") == int(note)


# ----------------------------------------------------------------- spectra

def test_spectra_reports_and_files(dataset_dir, tmp_path, capsys):
    out = tmp_path / "spectra_out"
    assert main(["spectra", "--data", str(dataset_dir),
                 "--out", str(out)]) == 0
    csv_lines = (out / "spectra.csv").read_text().splitlines()
    assert csv_lines[0] == "lambda,response_exact,response_truncated,error"
    assert len(csv_lines) > 1

    report = json.loads((out / "spectra.json").read_text())
    assert report["passed"] is True
    assert all(report["checks"].values())

    stdout = capsys.readouterr().out
    assert "energy_identity: pass" in stdout
    assert "FAIL" not in stdout


def test_spectra_filters_once(dataset_dir, tmp_path, monkeypatch):
    calls = []
    real = filters.dual_filter

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # trainer imports dual_filter by name; filters calls its own global
    monkeypatch.setattr(trainer, "dual_filter", counting)
    monkeypatch.setattr(filters, "dual_filter", counting)
    assert main(["spectra", "--data", str(dataset_dir), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def _count_setup_calls(monkeypatch, names):
    """Wrap each named trainer global to count its calls; the cli module is
    wrapped too, so a normalization of its own would also be counted."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(trainer, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counting)
        monkeypatch.setattr(cli, name, counting, raising=False)
    return calls


def test_spectra_normalizes_adjacency_once(dataset_dir, tmp_path, monkeypatch):
    calls = _count_setup_calls(monkeypatch, ["normalize_adjacency"])
    assert main(["spectra", "--data", str(dataset_dir), "--out", str(tmp_path)]) == 0
    assert calls == {"normalize_adjacency": 1}


def test_spectra_rejects_graph_above_dense_limit_before_work(tmp_path, capsys,
                                                             monkeypatch):
    n = filters._DENSE_LIMIT + 1
    manifest = save_dataset(random_graph(n, (3, 2), seed=1, p=0.002), tmp_path / "ds")
    calls = _count_setup_calls(
        monkeypatch, ["normalize_adjacency", "filter_attributes", "dual_filter"]
    )
    _expect_failure(["spectra", "--data", str(manifest), "--out", str(tmp_path / "out")],
                    capsys, match=f"limited to n <= {filters._DENSE_LIMIT}")
    assert set(calls.values()) == {0}
    assert not (tmp_path / "out").exists()


def test_spectra_rejects_t_max_below_one(dataset_dir, tmp_path, capsys, monkeypatch):
    calls = _count_setup_calls(
        monkeypatch, ["normalize_adjacency", "filter_attributes", "dual_filter"]
    )
    _expect_failure(["spectra", "--data", str(dataset_dir), "--t-max", "0",
                     "--out", str(tmp_path / "spectra_out")], capsys, match="t_max")
    assert set(calls.values()) == {0}
    assert not (tmp_path / "spectra_out").exists()


# --------------------------------------------------------------- gradcheck

def test_gradcheck_passes(dataset_dir, capsys):
    assert main(["gradcheck", "--data", str(dataset_dir),
                 "--n-cap", "12"]) == 0
    stdout = capsys.readouterr().out
    assert "loss gradients" in stdout
    assert "end-to-end step gradient" in stdout
    assert "FAIL" not in stdout
    assert "max_rel_error=" in stdout


@pytest.mark.parametrize("k", ["0", "-1", "13", "999"])
def test_gradcheck_rejects_cluster_count_outside_subgraph(k, dataset_dir, capsys,
                                                          monkeypatch):
    # rejected before any work: a gradient check would fail this test
    monkeypatch.setattr("mmgc.cli.loss_gradient_checks", None)
    _expect_failure(["gradcheck", "--data", str(dataset_dir), "--n-cap", "12", "--k", k],
                    capsys, match="cluster count must lie in [1, 12]")


@pytest.mark.parametrize("command", ["gradcheck", "spectra"])
def test_rejects_negative_seed(command, dataset_dir, capsys):
    _expect_failure([command, "--data", str(dataset_dir), "--seed=-1"], capsys,
                    match="seed")


# ------------------------------------------------------------------ process

# the subprocesses import mmgc from this checkout, however pytest found it
_SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "mmgc.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=_SRC_ENV,
    )
    assert proc.returncode == 0
    for sub in ("generate", "diagnose", "cluster", "spectra", "gradcheck"):
        assert sub in proc.stdout


def test_python_m_mmgc_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "mmgc", "--help"],
        capture_output=True, text=True, timeout=60, env=_SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cluster" in proc.stdout


# a fit and its NMI/ARI load numpy and scipy.sparse only; ACC and the
# distance correlation load scipy.optimize and scipy.spatial on first call
_IMPORT_CONTRACT = """
import sys, tempfile
import numpy as np
from mmgc import cli, data, diagnostics, filters, kmeans, losses, metrics, trainer
from mmgc.datagen import ModalitySpec, SynthConfig, generate

def loaded():
    heavy = ("scipy.optimize", "scipy.spatial", "scipy.linalg")
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules if m.startswith(heavy)})

synth = SynthConfig(n=200, k=4, p_in=0.25, p_out=0.025, seed=3,
                    modalities=[ModalitySpec("text", 12), ModalitySpec("image", 8)])
with tempfile.TemporaryDirectory() as tmp:
    graph, _ = data.load_dataset(generate(synth, tmp).manifest)
result = trainer.fit(graph, synth.k, trainer.TrainConfig(epochs=2), threads=1)
a = result.clustering.assignments
scores = [metrics.nmi(graph.labels, a), metrics.ari(graph.labels, a)]
assert loaded() == [], loaded()
x, y = (m.x.astype(np.float64) for m in graph.modalities)
scores += [metrics.accuracy(graph.labels, a), diagnostics.distance_correlation(x, y)]
assert np.isfinite(scores).all(), scores
assert loaded() == ["scipy.linalg", "scipy.optimize", "scipy.spatial"], loaded()
"""


def test_training_process_loads_no_optimize_spatial_or_linalg():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CONTRACT],
        capture_output=True, text=True, timeout=120, env=_SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr


# importing mmgc defers numpy.f2py and numpy.testing: scipy.sparse's
# ``from numpy import *`` binds them without running them, and no fit reads
# them; one of these modules in sys.modules means a package ran
_DEFERRED = ("numpy.f2py.crackfortran", "numpy.testing._private.utils",
             "charset_normalizer", "unittest")

_DEFERRAL_CONTRACT = f"""
import sys, tempfile
import numpy as np
from mmgc import data, metrics, trainer
from mmgc.datagen import ModalitySpec, SynthConfig, generate

def ran():
    return [m for m in {_DEFERRED!r} if m in sys.modules]

synth = SynthConfig(n=200, k=4, p_in=0.25, p_out=0.025, seed=3,
                    modalities=[ModalitySpec("text", 12), ModalitySpec("image", 8)])
with tempfile.TemporaryDirectory() as tmp:
    graph, _ = data.load_dataset(generate(synth, tmp).manifest)
result = trainer.fit(graph, synth.k, trainer.TrainConfig(epochs=2), threads=2)
a = result.clustering.assignments
scores = [metrics.nmi(graph.labels, a), metrics.ari(graph.labels, a)]
assert np.isfinite(scores).all(), scores
assert ran() == [], ran()
np.testing.assert_allclose(1.0, 1.0)
assert "numpy.testing._private.utils" in sys.modules
import numpy.f2py
assert callable(numpy.f2py.run_main)
assert "numpy.f2py.crackfortran" in sys.modules
"""


def test_training_process_defers_f2py_and_testing_until_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", _DEFERRAL_CONTRACT],
        capture_output=True, text=True, timeout=120, env=_SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr


def test_numpy_packages_imported_before_mmgc_stay_as_they_were():
    """A host that imported numpy.testing and numpy.f2py first keeps those
    fully run modules: importing mmgc and scipy.sparse replaces neither."""
    script = """
import sys
import numpy.f2py, numpy.testing
before = {name: sys.modules[name] for name in ("numpy.f2py", "numpy.testing")}
import numpy
from mmgc import data, trainer
for name, module in before.items():
    assert sys.modules[name] is module, name
    assert getattr(numpy, name.split(".")[1]) is module, name
assert "numpy.testing._private.utils" in sys.modules
assert "numpy.f2py.crackfortran" in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=_SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_help_loads_no_optimize_spatial_or_linalg():
    script = f"""
import runpy, sys
sys.argv = ["mmgc", "--help"]
try:
    runpy.run_module("mmgc", run_name="__main__")
except SystemExit:
    pass
heavy = ("scipy.optimize", "scipy.spatial", "scipy.linalg")
print(sorted({{m for m in sys.modules if m.startswith(heavy)}}
             | {{m for m in {_DEFERRED!r} if m in sys.modules}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env=_SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cluster" in proc.stdout
    assert proc.stdout.rstrip().endswith("[]"), proc.stdout


def test_package_binds_no_names():
    """Each routine is imported from its module: ``import mmgc`` alone
    binds no function, class or submodule."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mmgc; print(sorted(n for n in vars(mmgc) if not n.startswith('__')))"],
        capture_output=True, text=True, timeout=60, env=_SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

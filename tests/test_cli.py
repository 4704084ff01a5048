"""End-to-end command line flows and their exit codes."""

import argparse
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import f

import ordibench
from ordibench import cli
from ordibench.cli import build_parser, main
from ordibench.data import SynthSpec, load_dataset
from ordibench.harness import LeakageParams
from ordibench.methods import FAMILIES
from ordibench.splitting import audit_split, load_split
from ordibench.stats import critical_difference
from ordibench.training import TrainConfig


def run_cli(*argv):
    return main([str(a) for a in argv])


def make_dataset(tmp_path, name="d.csv", seed=7, identities=30):
    out = tmp_path / name
    code = run_cli("synth", "--identities", identities, "--per-identity", 4,
                   "--dim", 8, "--age-min", 20, "--age-max", 40,
                   "--sigma-id", 1.5, "--sigma-obs", 0.4,
                   "--seed", seed, "-o", out)
    assert code == 0
    return out


def test_synth_writes_expected_rows(tmp_path, capsys):
    out = make_dataset(tmp_path, identities=50)
    lines = out.read_text().splitlines()
    assert len(lines) == 201  # header + 50*4
    tab = load_dataset(out)
    assert len(tab.identities()) == 50


def test_synth_reruns_byte_identical(tmp_path):
    a = make_dataset(tmp_path, name="a.csv")
    b = make_dataset(tmp_path, name="b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_zero_identities(tmp_path, capsys):
    code = run_cli("synth", "--identities", 0, "-o", tmp_path / "x.csv")
    assert code == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("argv", [
    ("synth", "--identities", 3, "--sigma-id", "nan", "--seed", 4),
    ("leakage-demo", "--sigma-obs", "nan", "--seeds", 1, "--epochs", 1),
], ids=["synth", "leakage-demo"])
def test_a_nan_noise_scale_is_a_usage_error(tmp_path, capsys, argv):
    out = ["-o", tmp_path / "x.csv"] if argv[0] == "synth" else ["--out-dir", tmp_path / "out"]
    assert run_cli(*argv, *out) == 2
    assert capsys.readouterr().err.splitlines() == ["error: noise scales must be finite"]
    assert not list(tmp_path.iterdir())


def test_split_writes_series(tmp_path):
    data = make_dataset(tmp_path)
    out_dir = tmp_path / "splits"
    code = run_cli("split", data, "--mode", "se", "--n", 3,
                   "--base-seed", 1, "--out-dir", out_dir)
    assert code == 0
    files = sorted(out_dir.glob("split_*.json"))
    assert len(files) == 3
    tab = load_dataset(data)
    split = load_split(files[0])
    assert len(split) == len(tab)
    assert audit_split(tab, split).is_subject_exclusive


@pytest.mark.parametrize("flag, value, message", [
    ("--n", 0, "n_splits must be >= 1"),
    ("--mode", "xx", "unknown mode 'xx'; use se or rs"),
    ("--fractions", "0.5,0.5,0.5", "fractions must sum to 1"),
])
def test_split_flags_follow_the_split_config_rules_exit_2(tmp_path, capsys, flag, value, message):
    """The split flags are checked as a config's split section is, by
    SplitConfig, before any file is written."""
    data = make_dataset(tmp_path)
    out_dir = tmp_path / "splits"
    assert run_cli("split", data, flag, value, "--out-dir", out_dir) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


# A value other than its default for each option of synth and split, but
# for the ones that name where the output goes. An option not listed here
# fails the test below, so a flag that changes nothing cannot come back.
OTHER_VALUES = {
    "synth": {"--identities": 40, "--per-identity": 3, "--dim": 8, "--age-min": 25,
              "--age-max": 50, "--sigma-id": 1.0, "--sigma-obs": 1.0, "--seed": 1},
    "split": {"--mode": "rs", "--fractions": "0.5,0.25,0.25", "--n": 2, "--base-seed": 1},
}


@pytest.mark.parametrize("command", sorted(OTHER_VALUES))
def test_every_synth_and_split_flag_changes_what_is_written(tmp_path, command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [a for a in sub.choices[command]._actions
               if a.option_strings and not {"-o", "--out-dir", "-h"} & set(a.option_strings)]
    dataset = make_dataset(tmp_path)

    def written(*argv) -> bytes:
        out = tmp_path / f"out{len(list(tmp_path.glob('out*')))}"
        if command == "synth":
            assert run_cli("synth", *argv, "-o", out) == 0
            return out.read_bytes()
        assert run_cli("split", dataset, *argv, "--out-dir", out) == 0
        return b"".join(path.read_bytes() for path in sorted(out.iterdir()))

    default = written()
    for option in options:
        flag = option.option_strings[-1]
        assert flag in OTHER_VALUES[command], f"{command} {flag} has no other value listed"
        value = OTHER_VALUES[command][flag]
        assert str(value) != str(option.default), flag
        assert written(flag, value) != default, f"{command} {flag} {value} changed nothing"


def test_split_missing_dataset_errors(tmp_path, capsys):
    code = run_cli("split", tmp_path / "ghost.csv", "--out-dir", tmp_path)
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_audit_exit_codes(tmp_path, capsys):
    data = make_dataset(tmp_path)
    se_dir = tmp_path / "se"
    rs_dir = tmp_path / "rs"
    assert run_cli("split", data, "--mode", "se", "--n", 1,
                   "--out-dir", se_dir) == 0
    assert run_cli("split", data, "--mode", "rs", "--n", 1,
                   "--out-dir", rs_dir) == 0
    capsys.readouterr()

    assert run_cli("audit", se_dir / "split_00.json", data) == 0
    clean = capsys.readouterr().out
    assert "overlap" in clean

    assert run_cli("audit", rs_dir / "split_00.json", data) == 1
    leaky = capsys.readouterr().out
    assert "overlap" in leaky


def test_audit_random_mode_leaks_most_seeds(tmp_path):
    data = make_dataset(tmp_path)
    hits = 0
    for seed in range(5):
        d = tmp_path / f"rs{seed}"
        assert run_cli("split", data, "--mode", "rs", "--n", 1,
                       "--base-seed", seed, "--out-dir", d) == 0
        if run_cli("audit", d / "split_00.json", data) == 1:
            hits += 1
    assert hits >= 4


def test_audit_json_flag(tmp_path, capsys):
    data = make_dataset(tmp_path)
    assert run_cli("split", data, "--mode", "se", "--n", 1,
                   "--out-dir", tmp_path / "s") == 0
    capsys.readouterr()
    assert run_cli("audit", tmp_path / "s" / "split_00.json", data, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_bin_deviation"] >= 0
    assert payload["fold_sizes"]["train"] > 0


def test_audit_unknown_ids_exit_2(tmp_path, capsys):
    data = make_dataset(tmp_path)
    assert run_cli("split", data, "--mode", "se", "--n", 1,
                   "--out-dir", tmp_path / "s") == 0
    p = tmp_path / "s" / "split_00.json"
    payload = json.loads(p.read_text())
    payload["test"][0] = "ghost"
    p.write_text(json.dumps(payload))
    assert run_cli("audit", p, data) == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("edit, named", [
    (lambda payload: 5, "must be a JSON object"),
    (lambda payload: " ".join(payload), "must be a JSON object"),
    (lambda payload: {**payload, "fractions": 0.5}, "'fractions' must be a list of 3 finite numbers"),
    (lambda payload: {**payload, "seed": None}, "'seed' must be an integer"),
    (lambda payload: {**payload, "train": payload["train"][0]}, "'train' must be a list of strings"),
    (lambda payload: {**payload, "val": payload["val"] + payload["test"], "test": []}, "fold 'test' is empty"),
    (lambda payload: {**payload, "val": payload["val"] + payload["test"][:1]}, "'val' and 'test'"),
], ids=["number", "string", "fractions", "seed", "fold_string", "empty_fold", "overlap"])
def test_audit_split_file_of_the_wrong_type_exit_2(tmp_path, capsys, edit, named):
    """Exit 2 with one error: line that names the split file and the fault."""
    data = make_dataset(tmp_path)
    assert run_cli("split", data, "--mode", "se", "--n", 1,
                   "--out-dir", tmp_path / "s") == 0
    p = tmp_path / "s" / "split_00.json"
    p.write_text(json.dumps(edit(json.loads(p.read_text()))))
    capsys.readouterr()
    assert run_cli("audit", p, data) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}") and named in err


def write_run_config(tmp_path, out_dir="runs", n_splits=2, epochs=5):
    cfg = {
        "datasets": [{
            "name": "synthA",
            "synth": {"n_identities": 30, "samples_per_identity": 4,
                      "dimension": 8, "age_range": [20, 40],
                      "sigma_id": 1.5, "sigma_obs": 0.4, "seed": 5},
        }],
        "methods": [{"family": "cross-entropy"}, {"family": "sord"}],
        "split": {"mode": "se", "n_splits": n_splits,
                  "fractions": [0.6, 0.2, 0.2], "base_seed": 0},
        "train": {"epochs": epochs, "seed": 0, "hidden_dims": [16]},
        "output_dir": out_dir,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def test_run_then_compare_pipeline(tmp_path, capsys):
    cfg = write_run_config(tmp_path)
    assert run_cli("run", cfg) == 0
    out = tmp_path / "runs"
    records = (out / "run_records.csv").read_text().splitlines()
    assert len(records) == 5  # header + 2 methods x 2 splits
    capsys.readouterr()

    assert run_cli("compare", out / "mae_splits.csv", "--alpha", 0.05) == 0
    shown = capsys.readouterr().out
    assert "avg_rank" in shown
    assert "null hypothesis" in shown.lower()
    assert (out / "rank_report.txt").exists()
    assert (out / "rank_report.json").exists()


def test_run_rerun_byte_identical(tmp_path):
    cfg = write_run_config(tmp_path)
    assert run_cli("run", cfg) == 0
    first = (tmp_path / "runs" / "run_records.csv").read_bytes()
    assert run_cli("run", cfg, "--output-dir", tmp_path / "again") == 0
    second = (tmp_path / "again" / "run_records.csv").read_bytes()
    assert first == second


def test_run_reports_failures_with_exit_1(tmp_path, capsys):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    payload["train"]["learning_rate"] = 1e200
    cfg_path.write_text(json.dumps(payload))
    code = run_cli("run", cfg_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "FAILED" in err


def test_run_rejects_a_name_that_breaks_the_csv_outputs(tmp_path, capsys):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    payload["methods"][0]["name"] = "ce,soft"
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_rejects_a_dataset_name_with_an_arrow(tmp_path, capsys):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    first = payload["datasets"][0]
    payload["datasets"] = [{**first, "name": n} for n in ("a", "b", "a->b")]
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'->'" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("section, key", [
    ("split", "n_split"), ("dataset", "pathh"), ("synth", "n_identity"),
    ("train", "epoch"), ("train", "adam_eps"), ("method", "alfa"),
])
def test_run_rejects_an_unknown_config_key_exit_2(tmp_path, capsys, section, key):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    target = {"split": payload["split"], "dataset": payload["datasets"][0],
              "synth": payload["datasets"][0]["synth"], "train": payload["train"],
              "method": payload["methods"][1]}[section]
    target[key] = 1
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("section", ["split", "train"])
def test_run_refuses_a_null_section_exit_2(tmp_path, capsys, section):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    payload[section] = None
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    assert capsys.readouterr().err.startswith(f"error: config key {section!r}")
    assert not (tmp_path / "runs").exists()


def test_run_rejects_bad_fractions_before_writing(tmp_path, capsys):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    payload["split"]["fractions"] = [0.5, 0.5]
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("config", "output_dir", "", "output_dir must be set"),
    ("dataset", "name", "", "datasets[0]: dataset entry needs a name"),
    ("synth", "n_identities", 0, "datasets[0].synth: n_identities must be >= 1"),
    ("method", "alpha", -1.0, "methods[1]: alpha must be positive"),
    ("method", "sigma", 2.0, "methods[1]: family 'sord' does not read sigma"),
    ("split", "n_splits", 0, "split: n_splits must be >= 1"),
    ("train", "epochs", 0, "train: epochs must be >= 1"),
], ids=["config", "dataset", "synth", "method", "method_unread", "split", "train"])
def test_run_names_the_path_of_a_value_out_of_range_exit_2(tmp_path, capsys, section, key,
                                                            value, message):
    """A section's own range check is prefixed with the section's path in the
    config; a top-level refusal stays as it is."""
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    {"config": payload, "dataset": payload["datasets"][0], "synth": payload["datasets"][0]["synth"],
     "method": payload["methods"][1], "split": payload["split"],
     "train": payload["train"]}[section][key] = value
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("section, key, value", [
    ("synth", "n_identities", "20"), ("split", "fractions", 0.5),
])
def test_run_names_a_value_of_the_wrong_type_exit_2(tmp_path, capsys, section, key, value):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    {"split": payload["split"], "synth": payload["datasets"][0]["synth"]}[section][key] = value
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{section} key {key!r}" in err
    assert not (tmp_path / "runs").exists()


def test_run_missing_dataset_file_exit_2_without_output(tmp_path, capsys):
    cfg_path = write_run_config(tmp_path)
    payload = json.loads(cfg_path.read_text())
    payload["datasets"].append({"name": "a", "path": "missing.csv"})
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 2
    assert "missing.csv" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_missing_config_exit_2(tmp_path, capsys):
    assert run_cli("run", tmp_path / "none.json") == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_run_rejects_bad_jobs_exit_2(tmp_path, capsys, jobs):
    cfg = write_run_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("run", cfg, "--jobs", jobs)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_compare_forced_matrix_reports_chi2(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text(
        "dataset,a,b,c\n"
        "d0,1.0,2.0,3.0\n"
        "d1,1.1,2.1,3.1\n"
        "d2,0.9,1.9,2.9\n"
        "d3,1.2,2.2,3.2\n"
    )
    assert run_cli("compare", matrix) == 0
    out = capsys.readouterr().out
    assert "chi2_F=8.0" in out



def test_compare_out_writes_the_text_report_and_its_json_twin(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text("dataset,a,b\nd0,1.0,2.0\nd1,1.1,2.1\nd2,2.2,1.2\n")
    assert run_cli("compare", matrix, "--out", tmp_path / "r.txt") == 0
    assert (tmp_path / "r.txt").read_text().startswith("# N=3 k=2")
    assert json.loads((tmp_path / "r.json").read_text())["n_datasets"] == 3
    capsys.readouterr()
    # r.json would be its own twin: refused before anything is written
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("compare", matrix, "--out", out / "r.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON twin" in err
    assert not any(out.iterdir())


IMPORT_GUARD = """
import sys
import types
import ordibench, ordibench.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"importing ordibench loaded {loaded}"
assert "ordibench.alignment" not in sys.modules, "importing ordibench loaded its alignment"
names = [k for k, v in vars(ordibench).items()
         if not k.startswith("_") and not isinstance(v, types.ModuleType)]
assert not names, f"the package root re-exports {names}"
code = ordibench.cli.main(["compare", sys.argv[1]])
assert "scipy.stats" not in sys.modules, "compare imported scipy.stats"
sys.exit(code)
"""


def test_import_loads_no_scipy_and_compare_still_works(tmp_path):
    """Only the rank statistics load scipy, from inside the functions that use it,
    and compare never loads scipy.stats: that import takes about 0.6 s and
    lifts a compare process's peak memory from about 55 to 100 MB. A fresh
    interpreter, because other tests import scipy.stats into this one. The
    package root is a namespace: it re-exports no name, and importing the
    pipeline does not load alignment, which no pipeline path calls."""
    matrix = tmp_path / "m.csv"
    # Rankings that disagree, so the p-value comes from the F distribution.
    matrix.write_text("dataset,a,b,c\nd0,1.0,2.0,3.0\nd1,1.1,2.1,3.1\n"
                      "d2,1.9,0.9,2.9\nd3,1.2,3.2,2.2\n")
    src = Path(ordibench.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(matrix)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "chi2_F=4.5" in proc.stdout
    report = json.loads((tmp_path / "rank_report.json").read_text())
    assert report["iman_davenport_f"] == pytest.approx(27 / 7, rel=1e-12)
    assert report["p_value"] == pytest.approx(f.sf(27 / 7, 2, 6), rel=1e-9)


def test_run_then_compare_ranks_eleven_methods(tmp_path, capsys):
    """The nine families plus two named variants: more methods than the classic
    Nemenyi table holds, so the CD comes from the computed quantile."""
    cfg_path = write_run_config(tmp_path, epochs=2)
    payload = json.loads(cfg_path.read_text())
    payload["methods"] = [{"family": fam} for fam in FAMILIES] + [
        {"family": "sord", "alpha": 2.0, "name": "sord-wide"},
        {"family": "dldl", "sigma": 2.0, "name": "dldl-wide"},
    ]
    cfg_path.write_text(json.dumps(payload))
    assert run_cli("run", cfg_path) == 0
    matrix = tmp_path / "runs" / "mae_splits.csv"
    assert run_cli("compare", matrix) == 0
    report = json.loads((tmp_path / "runs" / "rank_report.json").read_text())
    assert report["n_methods"] == 11 and report["n_datasets"] == 2
    assert report["cd"] == critical_difference(11, 2)
    assert (tmp_path / "runs" / "rank_report.txt").exists()
    capsys.readouterr()
    assert run_cli("compare", matrix, "--alpha", 1.5) == 2
    assert "alpha must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(ordibench.__path__)))
def test_every_exported_name_exists(name):
    """A name left in an __all__ after its definition is gone breaks `import *`."""
    module = importlib.import_module(f"ordibench.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"ordibench.{name}.__all__ names missing {missing}"


def test_compare_all_tied_keeps_null(tmp_path, capsys):
    matrix = tmp_path / "m.csv"
    matrix.write_text(
        "dataset,a,b\nd0,1.0,1.0\nd1,2.0,2.0\nd2,3.0,3.0\n"
    )
    assert run_cli("compare", matrix) == 0
    out = capsys.readouterr().out
    assert "p=1.0" in out
    assert "not rejected" in out.lower()


def test_leakage_demo_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "leak"
    code = run_cli("leakage-demo", "--seeds", 2, "--identities", 20,
                   "--per-identity", 4, "--dim", 8, "--epochs", 4,
                   "--out-dir", out_dir)
    assert code == 0
    text = (out_dir / "leakage_report.txt").read_text()
    assert "gap" in text
    payload = json.loads((out_dir / "leakage_report.json").read_text())
    assert len(payload["gaps"]) == 2
    shown = capsys.readouterr().out
    assert "seed" in shown


def test_a_diverged_leakage_seed_is_one_error_line_and_exit_1(capsys):
    """Features of 1e38 overflow float32, so the first split trained fails;
    the demo stops with an error line that names its seed and split mode,
    the analysis-level exit a failed cell of run gets, and no traceback."""
    code = run_cli("leakage-demo", "--sigma-obs", "1e38", "--seeds", 1, "--epochs", 2)
    assert code == 1
    seed = LeakageParams().synth.seed
    assert capsys.readouterr().err.splitlines() == [
        f"error: seed {seed}, random split: training diverged at epoch 1"]


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit):
        run_cli("frobnicate")
    assert capsys.readouterr().err.strip()


def capture_leakage_params(monkeypatch) -> list:
    """Swap cli.leakage_demo for a stub that records the params it is given."""
    seen = []

    class Report:
        def to_text(self):
            return ""

    def stub(params):
        seen.append(params)
        return Report()

    monkeypatch.setattr(cli, "leakage_demo", stub)
    return seen


def test_leakage_demo_without_flags_passes_the_default_params(monkeypatch, capsys):
    seen = capture_leakage_params(monkeypatch)
    assert run_cli("leakage-demo") == 0
    assert seen == [LeakageParams()]


def test_leakage_demo_flags_map_onto_the_nested_params(monkeypatch, capsys):
    seen = capture_leakage_params(monkeypatch)
    assert run_cli("leakage-demo", "--seeds", 2, "--base-seed", 7, "--identities", 30,
                   "--per-identity", 3, "--dim", 8, "--sigma-id", 1.5,
                   "--sigma-obs", 0.3, "--epochs", 5) == 0
    synth = SynthSpec(30, 3, 8, (20, 60), sigma_id=1.5, sigma_obs=0.3, seed=7)
    train = TrainConfig(epochs=5, seed=7)
    assert seen == [LeakageParams(synth=synth, train=train, n_seeds=2)]

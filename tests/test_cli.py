"""CLI pipelines: ingestion, subcommands, artifacts, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lrboot import cli
from lrboot import simlab as sl
from lrboot.errors import AllRowsDropped, MissingColumn, ParseError, UsageError


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture()
def binary_csv(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, 200)
    from scipy.stats import norm

    y = (rng.random(200) < norm.cdf(0.3 + 0.8 * x)).astype(int)
    path = tmp_path / "data.csv"
    _write_csv(path, ["y", "x"], [[int(a), repr(float(b))] for a, b in zip(y, x)])
    return path


def test_ingest_standardizes_continuous(tmp_path):
    path = tmp_path / "tiny.csv"
    _write_csv(path, ["resp", "a"], [["0", "1"], ["1", "2"], ["0", "3"]])
    ds, info = cli.ingest(path, "resp", ["a"], set())
    # population-sd standardization: mean 2, sd sqrt(2/3)
    assert np.allclose(ds.X[:, 0], (np.array([1.0, 2, 3]) - 2) / np.std([1.0, 2, 3]))
    assert abs(ds.X[:, 0].mean()) < 1e-12 and abs(ds.X[:, 0].std() - 1) < 1e-12
    assert info.n_rows_dropped == 0


def test_ingest_missing_column_named(tmp_path):
    path = tmp_path / "tiny.csv"
    _write_csv(path, ["resp", "a"], [["0", "1"], ["1", "2"]])
    with pytest.raises(MissingColumn) as err:
        cli.ingest(path, "resp", ["b"], set())
    assert "'b'" in str(err.value)


def test_ingest_parse_error_located(tmp_path):
    path = tmp_path / "tiny.csv"
    _write_csv(path, ["resp", "a"], [["0", "1"], ["1", "oops"], ["1", "3"]])
    with pytest.raises(ParseError) as err:
        cli.ingest(path, "resp", ["a"], set())
    assert "row 3" in str(err.value) and "'a'" in str(err.value)


@pytest.mark.parametrize(
    "text, where",
    [
        ("y,x\n1,NA\n0,oops\n1,2\n", "row 3, column 'x'"),
        ("y,x\nNA,1\n0,2\nbad,3\n", "row 4, column 'y'"),
        ("y,x\n1,2\n\n0,oops\n", "row 4, column 'x'"),
    ],
    ids=["continuous-after-dropped", "response-after-dropped", "after-blank-line"],
)
def test_ingest_parse_error_names_the_row_in_the_file(tmp_path, text, where):
    # a dropped row or a blank line above the bad cell does not shift its number
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        cli.ingest(path, "y", ["x"], set())
    assert where in str(err.value)


def test_ingest_short_row_is_a_located_parse_error(tmp_path, capsys):
    path = tmp_path / "short.csv"
    _write_csv(path, ["y", "x"], [["1", "0.5"], ["0"], ["1", "2.0"]])
    with pytest.raises(ParseError) as err:
        cli.ingest(path, "y", ["x"], set())
    assert "row 3" in str(err.value)
    assert cli.main(["fit", "--input", str(path), "--response", "y", "--predictors", "x"]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_ingest_listwise_deletion_and_all_dropped(tmp_path):
    path = tmp_path / "tiny.csv"
    _write_csv(
        path,
        ["resp", "a"],
        [["0", "1"], ["", "2"], ["1", "NA"], ["1", "4"], ["0", "5"]],
    )
    ds, info = cli.ingest(path, "resp", ["a"], set())
    assert ds.n == 3 and info.n_rows_dropped == 2

    path2 = tmp_path / "allmiss.csv"
    _write_csv(path2, ["resp", "a"], [["", "1"], ["0", "NaN"]])
    with pytest.raises(AllRowsDropped):
        cli.ingest(path2, "resp", ["a"], set())


def test_ingest_categorical_encoding(tmp_path):
    path = tmp_path / "cat.csv"
    _write_csv(
        path,
        ["resp", "sex", "port"],
        [
            ["1", "male", "S"],
            ["0", "female", "C"],
            ["1", "male", "Q"],
            ["0", "female", "S"],
            ["1", "male", "C"],
        ],
    )
    ds, info = cli.ingest(path, "resp", ["sex", "port"], {"sex", "port"})
    # binary categorical keeps its name; multi-level gets name=level
    assert ds.column_names == ("sex", "port=Q", "port=S")
    assert ds.column_meta == ("categorical", "categorical", "categorical")
    assert np.array_equal(ds.X_raw[:, 0], [1, 0, 1, 0, 1])
    assert info.categorical_levels["port"] == ["C", "Q", "S"]


def test_emit_ingest_round_trip(tmp_path, binary_csv):
    ds, _ = cli.ingest(binary_csv, "y", ["x"], set())
    out = tmp_path / "emitted.csv"
    cli.emit_csv(ds, "y", out)
    ds2, _ = cli.ingest(out, "y", ["x"], set())
    assert np.array_equal(ds.y, ds2.y)
    assert np.array_equal(ds.X_raw, ds2.X_raw)
    assert np.array_equal(ds.X, ds2.X)


def test_parse_terms_forms():
    terms = cli.parse_terms("a,b^2,a*b,exp(a)", ("a", "b"))
    kinds = [t.kind for t in terms]
    assert kinds == ["raw", "power", "interaction", "exp"]
    with pytest.raises(MissingColumn):
        cli.parse_terms("zzz", ("a", "b"))
    with pytest.raises(UsageError):
        cli.parse_terms("a^x", ("a", "b"))


def test_term_names_round_trip():
    cols = ("a", "b=x")
    terms = cli.parse_terms("a,b=x^3,a*b=x,exp(b=x)", cols)
    assert [t.kind for t in terms] == ["raw", "power", "interaction", "exp"]
    assert cli.parse_terms(",".join(t.name(cols) for t in terms), cols) == terms
    assert cli.base_names_of("a,b=x^3,a*b=x,exp(b=x)") == ["a", "b"]


def test_fit_command_writes_payload(tmp_path, binary_csv):
    out = tmp_path / "fit.json"
    code = cli.main(
        [
            "fit",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--family", "binomial",
            "--link", "probit",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert set(payload["coefficients"]) == {"intercept", "x"}
    assert "coefficients_raw_scale" in payload
    assert payload["provenance"]["tool"] == "lrboot"
    assert payload["provenance"]["version"]


def test_bootstrap_command_json_and_csv(tmp_path, binary_csv):
    out = tmp_path / "boot.json"
    code = cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", "lrb-surrogate",
            "--l", "8",
            "--B", "40",
            "--seed", "7",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["se_hat"]) == 2
    assert "replicates" not in payload  # omitted without --keep-replicates

    out_csv = tmp_path / "boot.csv"
    code = cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", "lrb-sbs",
            "--l", "8",
            "--B", "40",
            "--seed", "7",
            "--format", "csv",
            "--output", str(out_csv),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert [r["coefficient"] for r in rows] == ["intercept", "x"]
    assert {"se_hat", "ci_per_lo", "p_two_sided"} <= set(rows[0])


def test_bootstrap_auto_l_embeds_trace(tmp_path, binary_csv):
    out = tmp_path / "auto.json"
    code = cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", "lrb-surrogate",
            "--l", "auto",
            "--B", "30",
            "--seed", "3",
            "--threads", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    trace = payload["size_selection"]
    assert trace["final_l"] >= 2
    assert payload["provenance"]["l"] == trace["final_l"]


@pytest.mark.parametrize(
    "method_args",
    [["LRB-surrogate"], ["local_response", "--residual", "surrogate"]],
)
def test_bootstrap_auto_l_reads_normalized_method_token(tmp_path, binary_csv, method_args):
    out = tmp_path / "auto.json"
    code = cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", *method_args,
            "--l", "auto",
            "--B", "20",
            "--seed", "3",
            "--threads", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["provenance"]["l"] == payload["size_selection"]["final_l"] >= 2


def test_bootstrap_auto_l_tunes_the_method_it_runs(tmp_path, binary_csv):
    # a named residual wins over --residual for the size search as for the run
    from lrboot.neighborhood import select_size

    out = tmp_path / "auto.json"
    code = cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", "lrb-surrogate",
            "--residual", "pearson",
            "--l", "auto",
            "--B", "20",
            "--seed", "3",
            "--threads", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    ds, spec, _ = cli._load_dataset(
        cli._build_parser().parse_args(
            ["bootstrap", "--input", str(binary_csv), "--response", "y", "--predictors", "x"]
        )
    )
    trace = select_size(ds, spec, "surrogate", seed=3, n_threads=1)
    assert payload["size_selection"] == json.loads(json.dumps(cli._json_data(trace)))
    assert payload["provenance"]["residual_kind"] == "surrogate"


_SPELLINGS = [
    # (token, --residual, l) -> (kind, residual_kind, l)
    (("LRB-surrogate", "pearson", 8), ("lrb", "surrogate", 8)),
    ((" lrb-sbs ", None, 5), ("lrb", "sbs", 5)),
    (("lrb", "surrogate", 8), ("lrb", "surrogate", 8)),
    (("Lrb", "pearson", 6), ("lrb", "pearson", 6)),
    (("classical-pearson", "sbs", 8), ("classical_residual", "pearson", None)),
    (("classical", "surrogate", 8), ("classical_residual", "surrogate", None)),
    (("local_response", "surrogate", 8), ("local_response", None, 8)),
    (("Local-Response", None, 3), ("local_response", None, 3)),
    (("parametric", "surrogate", 8), ("parametric", None, None)),
    (("pairwise", None, 8), ("pairwise", None, None)),
    (("WILD", None, None), ("wild", None, None)),
    (("multiplier", "pearson", 4), ("multiplier", None, None)),
]


@pytest.mark.parametrize("given, expected", _SPELLINGS)
def test_method_tokens_parse(given, expected):
    from lrboot.bootstrap import BootstrapMethod

    token, residual, l = given
    assert BootstrapMethod.parse(token, residual, l) == BootstrapMethod(*expected)


def test_method_labels_parse_back():
    from lrboot.bootstrap import BootstrapMethod

    methods = [
        BootstrapMethod.lrb("surrogate", 7),
        BootstrapMethod.local_response(4),
        BootstrapMethod.classical_residual("sbs"),
        BootstrapMethod.parametric(),
        BootstrapMethod.pairwise(),
        BootstrapMethod.wild(),
        BootstrapMethod.multiplier(),
    ]
    assert len({m.kind for m in methods}) == 7
    for m in methods:
        assert BootstrapMethod.parse(m.label, l=m.l) == m


def test_local_methods_reject_a_missing_size():
    from lrboot.bootstrap import BootstrapMethod
    from lrboot.errors import InvalidSize

    with pytest.raises(InvalidSize):
        BootstrapMethod.lrb("surrogate", None)
    with pytest.raises(InvalidSize):
        BootstrapMethod.local_response(None)


def test_select_l_command(tmp_path, binary_csv):
    out = tmp_path / "trace.json"
    code = cli.main(
        [
            "select-l",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--residual", "surrogate",
            "--grid", "2,4,8",
            "--K", "3",
            "--B-inner", "30",
            "--seed", "5",
            "--output", str(out),
        ]
    )
    assert code == 0
    trace = json.loads(out.read_text())
    assert len(trace["subsample_se"]) == 3
    assert trace["per_iteration"]


def test_select_model_command(tmp_path, binary_csv, capsys):
    out = tmp_path / "sel.json"
    code = cli.main(
        [
            "select-model",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--model", "lin=binomial:probit:x",
            "--model", "quad=binomial:probit:x,x^2",
            "--criterion", "L",
            "--method", "lrb-surrogate",
            "--l", "8",
            "--B", "40",
            "--seed", "2",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload["labels"]) == {"lin", "quad"}
    assert sorted(payload["ranks"]) == [1, 2]


def test_select_model_split_half(tmp_path, binary_csv):
    out = tmp_path / "sel.json"
    code = cli.main(
        [
            "select-model",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--model", "lin=binomial:probit:x",
            "--model", "quad=binomial:probit:x,x^2",
            "--method", "lrb-surrogate",
            "--l", "8",
            "--B", "30",
            "--seed", "2",
            "--split-half",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["holdout_rows"]) == 100  # half of 200 held out


def test_simulate_command(tmp_path):
    out = tmp_path / "table.csv"
    code = cli.main(
        [
            "simulate",
            "--scenario", "GaussianCheck",
            "--methods", "lrb-raw,parametric",
            "--n", "150",
            "--B", "25",
            "--reps", "4",
            "--truth-reps", "150",
            "--seed", "3",
            "--output", str(out),
        ]
    )
    assert code == 0
    reader = csv.DictReader(out.open())
    assert reader.fieldnames == [
        "scenario", "n", "B", "replications", "target", "method", "ci_type",
        "level", "coverage", "width", "width_se", "mean_se_hat", "psi",
        "se_ratio", "seed",
    ]
    rows = list(reader)
    assert {r["method"] for r in rows} == {"lrb-raw", "parametric"}
    assert all(float(r["se_ratio"]) > 0 for r in rows)
    assert all(r["seed"] == "3" for r in rows)


def test_byte_identical_reruns_across_threads(tmp_path, binary_csv):
    # 163 rows a block at n=200: B=600 makes four blocks, the last one short
    def run_once(out, threads):
        code = cli.main(
            [
                "bootstrap",
                "--input", str(binary_csv),
                "--response", "y",
                "--predictors", "x",
                "--method", "lrb-surrogate",
                "--l", "8",
                "--B", "600",
                "--seed", "7",
                "--threads", str(threads),
                "--keep-replicates",
                "--output", str(out),
            ]
        )
        assert code == 0
        return out.read_bytes()

    a = run_once(tmp_path / "a.json", 1)
    b = run_once(tmp_path / "b.json", 4)
    c = run_once(tmp_path / "c.json", 1)
    assert a == b == c


# -- the JSON text of hand-built results ------------------------------------------

_ARTIFACT_CSV = "y,x\n1,0.5\n0,NA\n1,-1.25\n0,2.0\n1,0.75\n2,-0.5\n"
_DATA = ["--input", "data.csv", "--response", "y", "--predictors", "x"]
_ARTIFACT_CALLS = {
    "fit": ["fit", *_DATA, "--ordinal-categories", "3"],
    "bootstrap": ["bootstrap", *_DATA, "--method", "lrb-surrogate", "--l", "5", "--B", "4"],
    "bootstrap-auto-keep": [
        "bootstrap", *_DATA, "--method", "lrb-surrogate", "--l", "auto", "--B", "4",
        "--seed", "3", "--keep-replicates",
    ],
    "select-l": ["select-l", *_DATA, "--residual", "surrogate", "--grid", "2,4", "--K", "2"],
    "select-model": [
        "select-model", *_DATA, "--model", "lin=binomial:probit:x",
        "--model", "quad=binomial:probit:x,x^2", "--method", "lrb-surrogate", "--l", "5",
        "--B", "4", "--split-half",
    ],
}


def _patch_hand_built_results(monkeypatch):
    """Put a hand-built result in place of each command's computation, so
    the artifact depends on the converter and the writer alone, not on a fit."""
    from lrboot.bootstrap import BootstrapOutcome
    from lrboot.data import build_design
    from lrboot.glm import FitResult
    from lrboot.neighborhood import SizeSelectionTrace
    from lrboot.selection import SelectionReport

    trace = SizeSelectionTrace(
        grid=(2, 4), K=2, m=4, B_inner=20, delta=0.5, seed=3,
        subsample_se=np.array([[0.25, 0.1 + 0.2], [1e-17, 2.5]]),
        per_iteration=[
            {"l_hat": 2, "psi_hat": np.float64(0.3125), "mse": np.array([0.01, np.nan]),
             "chosen_grid": 4, "l_next": 5},
            {"l_hat": 5, "psi_hat": np.float64(-0.0), "mse": np.array([2e-5, 3.0]),
             "chosen_grid": 2, "l_next": 5},
        ],
        final_l=5, converged=True, target_coef=1,
    )
    outcome = BootstrapOutcome(
        replicates=np.array([[0.5, -1.25], [0.75, -1.0], [0.625, -0.875]]),
        se_hat=np.array([0.1, 1 / 3]),
        n_failed=1,
        estimate=np.array([0.6, -1.1]),
        coef_names=("intercept", "x"),
        alpha=0.1,
        provenance={"method": "lrb", "residual_kind": "surrogate", "l": 5, "B": 4,
                    "alpha": 0.1, "seed": 3, "first_slope": 1},
    )
    report = SelectionReport(
        criterion="L", labels=("lin", "quad"), values=np.array([0.75, 0.5]),
        ranks=np.array([2, 1], dtype=np.int64), chosen="quad",
        provenance={"method": "lrb-surrogate", "l": 5, "B": 4, "seed": 3},
    )

    def fit(ds, spec):
        return FitResult(
            beta_hat=np.array([0.8]), alpha_hat=np.array([-0.5, 0.25]), mu_hat=None,
            var_hat=None, loglik=np.float64(-4.125), iterations=4, converged=True,
            grad_norm=np.float64(3e-10), spec=spec, design=build_design(ds, spec),
        )

    monkeypatch.setattr(cli, "__version__", "0.0.0+test")
    monkeypatch.setattr(cli, "fit_qmle", fit)
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: outcome)
    monkeypatch.setattr(cli, "select_size", lambda *args, **kwargs: trace)
    monkeypatch.setattr(cli, "rank_models", lambda *args, **kwargs: report)


@pytest.mark.parametrize("name", list(_ARTIFACT_CALLS))
def test_artifact_text_of_hand_built_results(name, tmp_path, monkeypatch):
    # each file holds the command's artifact text for these results; no value
    # in it comes from a fit, so another BLAS cannot move it
    _patch_hand_built_results(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(_ARTIFACT_CSV)
    assert cli.main([*_ARTIFACT_CALLS[name], "--output", "out.json"]) == 0
    pinned = Path(__file__).parent / "pinned_artifacts" / f"{name}.json"
    assert (tmp_path / "out.json").read_text() == pinned.read_text()


def test_config_file_merge_and_flag_override(tmp_path, binary_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# bootstrap defaults\n"
        f"input={binary_csv}\n"
        "response=y\n"
        "predictors=x\n"
        "method=lrb-surrogate\n"
        "l=8\n"
        "B=40\n"
        "seed=11\n"
    )
    out1 = tmp_path / "o1.json"
    assert cli.main(["bootstrap", "--config", str(cfg), "--output", str(out1)]) == 0
    p1 = json.loads(out1.read_text())
    assert p1["provenance"]["seed"] == 11
    # command-line flag overrides the config value
    out2 = tmp_path / "o2.json"
    assert (
        cli.main(
            ["bootstrap", "--config", str(cfg), "--seed", "12", "--output", str(out2)]
        )
        == 0
    )
    assert json.loads(out2.read_text())["provenance"]["seed"] == 12
    # so does the --flag=value spelling
    out3 = tmp_path / "o3.json"
    assert (
        cli.main(["bootstrap", "--config", str(cfg), "--seed=12", "--output", str(out3)])
        == 0
    )
    assert json.loads(out3.read_text())["provenance"]["seed"] == 12


def test_fit_command_ordinal(tmp_path):
    rng = np.random.default_rng(21)
    x = rng.uniform(-1.5, 1.5, 150)
    z = x + rng.standard_normal(150)
    y = 1 + (z[:, None] > np.array([[-0.6, 0.6]])).sum(axis=1)
    path = tmp_path / "ord.csv"
    _write_csv(path, ["grade", "x"], [[int(a), repr(float(b))] for a, b in zip(y, x)])
    out = tmp_path / "fit.json"
    code = cli.main(
        [
            "fit",
            "--input", str(path),
            "--response", "grade",
            "--predictors", "x",
            "--ordinal-categories", "3",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["cutpoints"]) == 2
    assert payload["cutpoints"][0] < payload["cutpoints"][1]


def test_threads_env_fallback(monkeypatch, binary_csv, tmp_path):
    monkeypatch.setenv("LRB_THREADS", "2")
    out = tmp_path / "o.json"
    code = cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", "lrb-surrogate",
            "--l", "6",
            "--B", "20",
            "--output", str(out),
        ]
    )
    assert code == 0
    monkeypatch.setenv("LRB_THREADS", "oops")
    assert cli.main(["bootstrap", "--input", str(binary_csv), "--response", "y",
                     "--predictors", "x", "--method", "lrb-surrogate",
                     "--l", "6", "--B", "20"]) == 1  # usage error


def test_exit_codes(tmp_path, binary_csv):
    # usage error: unknown subcommand
    assert cli.main(["frobnicate"]) == 1
    # usage error: missing required data flags
    assert cli.main(["fit"]) == 1
    # usage error: a neighborhood size that is not an integer
    data = ["--input", str(binary_csv), "--response", "y", "--predictors", "x"]
    assert cli.main(["bootstrap", *data, "--l", "ten", "--B", "10"]) == 1
    assert cli.main(
        ["select-model", *data, "--model", "a=binomial:probit:x",
         "--model", "b=binomial:probit:x,x^2", "--l", "ten", "--B", "10"]
    ) == 1
    assert cli.main(["simulate", "--scenario", "GaussianCheck", "--n", "60",
                     "--truth-reps", "100", "--l", "ten"]) == 1
    # usage error: an unknown method token, or a bare lrb without --residual
    assert cli.main(["bootstrap", *data, "--method", "bogus", "--l", "5", "--B", "10"]) == 1
    assert cli.main(["bootstrap", *data, "--method", "lrb", "--l", "5", "--B", "10"]) == 1
    # usage error: list and fraction flags that do not convert, before any work
    assert cli.main(["select-l", *data, "--residual", "surrogate", "--grid", "2,four"]) == 1
    assert cli.main(["simulate", "--scenario", "GaussianCheck", "--n", "60",
                     "--truth-reps", "100", "--levels", "0.9,x"]) == 1
    assert cli.main(["simulate", "--scenario", "GaussianCheck", "--n", "60",
                     "--truth-reps", "100", "--levels", "1.5"]) == 1
    assert cli.main(["bootstrap", *data, "--method", "parametric", "--B", "10",
                     "--alpha", "2"]) == 1
    # usage error: an empty list, on the command line or from a config file
    assert cli.main(["select-l", *data, "--residual", "surrogate", "--grid", ""]) == 1
    assert cli.main(["simulate", "--scenario", "GaussianCheck", "--n", "60",
                     "--truth-reps", "100", "--levels", ""]) == 1
    empty_cfg = tmp_path / "empty.cfg"
    empty_cfg.write_text("grid = ,\n")
    assert cli.main(["select-l", *data, "--residual", "surrogate",
                     "--config", str(empty_cfg)]) == 1
    # computational error: fewer than two replicates, before any fit
    assert cli.main(["bootstrap", *data, "--method", "parametric", "--B", "0"]) == 2
    assert cli.main(["simulate", "--scenario", "GaussianCheck", "--n", "60",
                     "--truth-reps", "100", "--B", "0"]) == 2
    # computational error: data that fail validation (a non-finite cell, one row)
    inf_csv = tmp_path / "inf.csv"
    _write_csv(inf_csv, ["y", "x"], [["0", "1.0"], ["1", "inf"], ["1", "2.0"]])
    assert cli.main(["fit", "--input", str(inf_csv), "--response", "y",
                     "--predictors", "x"]) == 2
    one_csv = tmp_path / "one.csv"
    _write_csv(one_csv, ["y", "x"], [["1", "0.5"]])
    assert cli.main(["fit", "--input", str(one_csv), "--response", "y",
                     "--predictors", "x"]) == 2
    # computational error: unknown residual kind for the family
    code = cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", "lrb-raw",
            "--l", "5",
            "--B", "10",
        ]
    )
    assert code == 2


@pytest.mark.parametrize("B", ["0", "1"])
def test_too_few_replicates_fail_before_any_work(B, binary_csv, monkeypatch, capsys):
    # the size search and the pseudo-truth fits would run for seconds first
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --B")

    monkeypatch.setattr(cli, "select_size", no_work)
    monkeypatch.setattr(cli, "pseudo_truth", no_work)
    data = ["--input", str(binary_csv), "--response", "y", "--predictors", "x"]
    assert cli.main(["bootstrap", *data, "--method", "lrb-surrogate", "--l", "auto",
                     "--B", B]) == 2
    assert cli.main(["simulate", "--scenario", "GaussianCheck", "--n", "60",
                     "--truth-reps", "100", "--B", B]) == 2
    assert capsys.readouterr().err.count("TooFewReplicates") == 2


def test_simulate_checks_its_flags_before_the_pseudo_truth(monkeypatch, capsys):
    # at n=200 the 2000 default pseudo-truth fits would run before any check
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking the flags")

    monkeypatch.setattr(cli, "pseudo_truth", no_work)
    sim = ["simulate", "--scenario", "SC1_probit", "--n", "200", "--B", "10"]
    assert cli.main([*sim, "--reps", "0"]) == 2
    assert "InvalidSize" in capsys.readouterr().err
    assert cli.main([*sim, "--methods", "lrb-surrogate,bogus"]) == 1
    assert cli.main([*sim, "--l", "ten"]) == 1
    # too few pseudo-truth redraws: refused before the covariates are drawn
    monkeypatch.setattr(cli, "pseudo_truth", sl.pseudo_truth)
    monkeypatch.setattr(sl, "_frame", no_work)
    assert cli.main([*sim, "--truth-reps", "50"]) == 2
    assert "InvalidSize" in capsys.readouterr().err


def test_error_stream_carries_module_error_name(tmp_path, binary_csv, capsys):
    cli.main(
        [
            "bootstrap",
            "--input", str(binary_csv),
            "--response", "y",
            "--predictors", "x",
            "--method", "lrb-raw",
            "--l", "5",
            "--B", "10",
        ]
    )
    err = capsys.readouterr().err
    assert "IncompatibleResidual" in err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a cold `import lrboot.cli`; only the KS check
    # needs it. scipy.spatial is loaded by the first neighbor build. Refit
    # workers are forked with os.fork, so lrboot imports no pool module;
    # numpy.testing, which scipy.special loads, imports concurrent.futures
    # itself, so the probe records which lrboot modules import one
    probe = (
        "import builtins, sys\n"
        "real, pools = builtins.__import__, set()\n"
        "def watch(name, globals=None, *args):\n"
        "    importer = (globals or {}).get('__name__') or ''\n"
        "    if name.split('.')[0] in ('concurrent', 'multiprocessing') and "
        "importer.startswith('lrboot'):\n"
        "        pools.add(importer)\n"
        "    return real(name, globals, *args)\n"
        "builtins.__import__ = watch\n"
        "import lrboot.cli\n"
        "print([m in sys.modules for m in ('scipy.stats', 'scipy.spatial', "
        "'multiprocessing')], sorted(pools))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "[False, False, False] []"

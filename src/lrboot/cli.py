"""Command-line front end: CSV ingestion and the fit / bootstrap / select-l /
select-model / simulate pipelines with machine-readable, re-runnable outputs.

Method tokens are read by `BootstrapMethod.parse`, the owner of their grammar.
A bad or empty `--grid` or `--levels` list, or a bad `--alpha`, is a usage
error before any work, as argparse checks them.

One converter, `_json_data`, turns every result into the data of the JSON
artifacts (a dataclass's fields, tuples as lists, numpy values through
`tolist()`, nothing rounded), and one writer, `_write_json`, adds the
effective configuration, seed, tool version and dropped-row count, and
writes sorted, indented text ending in a newline. The CSV tables carry
less: the `simulate` CSV has the seed as its last column but no version
column yet, and the `bootstrap --format csv` summary has neither. No
artifact holds anything volatile, so identical invocations produce
byte-identical files regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .bootstrap import BootstrapMethod, require_replicates, run
from .data import Dataset, ModelSpec, Term, back_transform, make_dataset
from .errors import (
    AllRowsDropped,
    InvalidSize,
    LrbootError,
    MissingColumn,
    ParseError,
    UsageError,
)
from .glm import fit_qmle
from .neighborhood import default_size, select_size
from .rng import substream
from .selection import CandidateSet, rank_models
from .simlab import (
    default_neighborhood_size,
    get_scenario,
    pseudo_truth,
    report_to_csv,
    run_experiment,
)

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


# ---------------------------------------------------------------------------
# ingestion


@dataclass
class IngestInfo:
    n_rows_read: int
    n_rows_dropped: int
    columns: tuple
    categorical_levels: dict


def _read_csv(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            # each non-empty row with its row number in the file, the header's 1
            rows = [(line, row) for line, row in enumerate(reader, start=2) if row]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return [h.strip() for h in header], rows


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in _MISSING_TOKENS


def ingest(
    path,
    response: str,
    base_columns: list,
    categorical: set,
):
    """Load a CSV into a Dataset: continuous columns standardized, categorical
    tokens dummy-encoded (first level by sort order is the reference), rows
    with any missing cell dropped and counted."""
    header, rows = _read_csv(path)
    for name in [response, *base_columns]:
        if name not in header:
            raise MissingColumn(f"column {name!r} not in header {header}")
    idx = {name: header.index(name) for name in [response, *base_columns]}

    width = max(idx.values()) + 1
    kept, dropped = [], 0
    for line, row in rows:
        if len(row) < width:
            raise ParseError(
                f"{path}: row {line} has {len(row)} of the header's {len(header)} cells"
            )
        if any(_is_missing(row[idx[name]]) for name in idx):
            dropped += 1
            continue
        kept.append((line, row))
    if not kept:
        raise AllRowsDropped(f"{path}: every row had missing cells")

    def parse_float(cell, line, name):
        try:
            return float(cell)
        except ValueError as exc:
            raise ParseError(
                f"{path}: row {line}, column {name!r}: cannot parse {cell!r}"
            ) from exc

    y = np.array([parse_float(row[idx[response]], line, response) for line, row in kept])

    cols, names, meta = [], [], []
    levels_map = {}
    for name in base_columns:
        raw_cells = [row[idx[name]].strip() for _, row in kept]
        if name in categorical:
            levels = sorted(set(raw_cells))
            levels_map[name] = levels
            if len(levels) < 2:
                raise ParseError(f"categorical column {name!r} has one level")
            for level in levels[1:]:
                cols.append(np.array([1.0 if c == level else 0.0 for c in raw_cells]))
                names.append(name if len(levels) == 2 else f"{name}={level}")
                meta.append("categorical")
        else:
            cols.append(
                np.array([parse_float(c, line, name) for c, (line, _) in zip(raw_cells, kept)])
            )
            names.append(name)
            meta.append("continuous")
    ds = make_dataset(y, np.column_stack(cols), column_meta=meta, column_names=names)
    info = IngestInfo(
        n_rows_read=len(rows),
        n_rows_dropped=dropped,
        columns=tuple(names),
        categorical_levels=levels_map,
    )
    return ds, info


def emit_csv(ds: Dataset, response_name: str, path) -> None:
    """Write the raw covariates and response back out (round-trips ingest)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([response_name, *ds.column_names])
        for i in range(ds.n):
            w.writerow([repr(float(ds.y[i]))] + [repr(float(v)) for v in ds.X_raw[i]])


# ---------------------------------------------------------------------------
# term parsing


def _term_tokens(spec_str: str):
    """Yield (kind, column names, power) for each term in 'a,b^2,a*b,exp(a)'."""
    for token in [t.strip() for t in spec_str.split(",") if t.strip()]:
        kind, names, power = "raw", [token], "1"
        if token.startswith("exp(") and token.endswith(")"):
            kind, names = "exp", [token[4:-1]]
        elif "*" in token:
            kind, names = "interaction", token.split("*", 1)
        elif "^" in token:
            kind, (name, power) = "power", token.rsplit("^", 1)
            names = [name]
        try:
            power = int(power)
        except ValueError as exc:
            raise UsageError(f"bad power in term {token!r}") from exc
        yield kind, [name.strip() for name in names], power


def parse_terms(spec_str: str, column_names) -> tuple:
    """Parse 'x1,x2^2,x1*x2,exp(x1)' into Term tuples against encoded names."""
    lookup = {name: j for j, name in enumerate(column_names)}

    def col_of(name):
        if name not in lookup:
            raise MissingColumn(
                f"predictor {name!r} is not an encoded column; have {list(lookup)}"
            )
        return lookup[name]

    terms = []
    for kind, names, power in _term_tokens(spec_str):
        cols = [col_of(name) for name in names]
        terms.append(Term(kind, cols[0], power=power, col2=cols[1] if len(cols) > 1 else -1))
    if not terms:
        raise UsageError("empty predictor specification")
    return tuple(terms)


def base_names_of(spec_str: str) -> list:
    """Base CSV columns mentioned by a term string (before encoding)."""
    seen = []
    for _, names, _ in _term_tokens(spec_str):
        for name in names:
            base = name.split("=", 1)[0]
            if base not in seen:
                seen.append(base)
    return seen


# ---------------------------------------------------------------------------
# flag values


def _size_flag(args) -> int | None:
    """--l as an integer, or None when it is not given."""
    try:
        return None if args.l is None else int(args.l)
    except ValueError as exc:
        raise UsageError(f"--l must be an integer, got {args.l!r}") from exc


def _fraction(text: str) -> float:
    """argparse type: a number strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise ValueError(text)
    return value


def _entries(text: str, convert) -> tuple:
    return tuple(convert(v) for v in text.split(",") if v.strip())


def _comma_list(convert):
    """argparse type: a comma list of one or more `convert` values. The flag
    keeps its text, which artifacts echo; `_entries` reads the values."""

    def comma_list(text: str) -> str:
        if not _entries(text, convert):
            raise ValueError(text)
        return text

    return comma_list


# ---------------------------------------------------------------------------
# config file


def load_config(path) -> dict:
    """key=value lines, # comments."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\nvalid flags: {self.format_usage().strip()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lrboot", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p, data=True):
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if data:
            p.add_argument("--input", help="CSV file with a header row")
            p.add_argument("--response", help="response column name")
            p.add_argument(
                "--predictors",
                help="comma list of terms: name, name^k, a*b, exp(name)",
            )
            p.add_argument(
                "--categorical", default="", help="comma list of categorical columns"
            )
            p.add_argument("--family", default="binomial")
            p.add_argument("--link", default="probit")
            p.add_argument("--no-intercept", action="store_true")
            p.add_argument(
                "--ordinal-categories", type=int, default=0, help="J for ordinal"
            )

    p_fit = sub.add_parser("fit", help="QMLE fit")
    common(p_fit)

    p_boot = sub.add_parser("bootstrap", help="bootstrap SE/CI/p-values")
    common(p_boot)
    p_boot.add_argument("--method", default="lrb")
    p_boot.add_argument("--residual", default=None)
    p_boot.add_argument("--l", default="auto", help="neighborhood size or 'auto'")
    p_boot.add_argument("--B", type=int, default=500)
    p_boot.add_argument("--alpha", type=_fraction, default=0.05)
    p_boot.add_argument("--keep-replicates", action="store_true")

    p_sel_l = sub.add_parser("select-l", help="neighborhood-size selection")
    common(p_sel_l)
    p_sel_l.add_argument("--residual", default=None)
    p_sel_l.add_argument("--grid", type=_comma_list(int), default="2,4,6,8,10,12,14,16")
    p_sel_l.add_argument("--K", type=int, default=20)
    p_sel_l.add_argument("--m", type=int, default=None)
    p_sel_l.add_argument("--B-inner", type=int, default=200)
    p_sel_l.add_argument("--delta", type=float, default=0.5)

    p_sel_m = sub.add_parser("select-model", help="bootstrap model selection")
    common(p_sel_m)
    p_sel_m.add_argument(
        "--model",
        action="append",
        default=None,
        help="label=family:link:terms (repeatable)",
    )
    p_sel_m.add_argument("--criterion", choices=("L", "Gamma"), default="L")
    p_sel_m.add_argument("--method", default="lrb")
    p_sel_m.add_argument("--residual", default=None)
    p_sel_m.add_argument("--l", default=None)
    p_sel_m.add_argument("--B", type=int, default=500)
    p_sel_m.add_argument("--split-half", action="store_true")

    p_sim = sub.add_parser("simulate", help="scenario experiments")
    common(p_sim, data=False)
    p_sim.add_argument("--scenario", required=False)
    p_sim.add_argument("--methods", default="lrb-surrogate,parametric")
    p_sim.add_argument("--residual", default=None)
    p_sim.add_argument("--l", default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--B", type=int, default=200)
    p_sim.add_argument("--reps", type=int, default=50)
    p_sim.add_argument("--truth-reps", type=int, default=2000)
    p_sim.add_argument("--levels", type=_comma_list(_fraction), default="0.95,0.90,0.75")
    p_sim.add_argument(
        "--scenario-param", action="append", default=None, help="name=value"
    )
    return parser


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("LRB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise UsageError(f"LRB_THREADS={env!r} is not an integer") from exc
    return os.cpu_count() or 1


def _provenance(args) -> dict:
    # threads and output location never change the numbers, so they stay out
    # of the echo and artifacts stay byte-identical across thread counts
    skip = ("config", "output", "threads")
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in skip and v is not None and not k.startswith("_")
    }
    return {"tool": "lrboot", "version": __version__, "command": args.command, "config": cfg}


def _load_dataset(args):
    for flag in ("input", "response", "predictors"):
        if getattr(args, flag, None) is None:
            raise UsageError(f"--{flag} is required for this command")
    categorical = {c.strip() for c in args.categorical.split(",") if c.strip()}
    base = base_names_of(args.predictors)
    ds, info = ingest(args.input, args.response, base, categorical)
    terms = parse_terms(args.predictors, ds.column_names)
    ordinal = args.ordinal_categories and args.ordinal_categories >= 3
    spec = ModelSpec(
        family="ordinal" if ordinal else args.family,
        link=args.link,
        predictor_terms=terms,
        include_intercept=not args.no_intercept and not ordinal,
        n_categories=args.ordinal_categories if ordinal else 0,
    )
    return ds, spec, info


def _json_data(result):
    """The JSON data of a result: a dataclass as a dict of its fields, a
    tuple as a list, numpy arrays and scalars through `tolist()`, every value
    as it is, nothing rounded or reordered."""
    if is_dataclass(result):
        result = {f.name: getattr(result, f.name) for f in fields(result)}
    if isinstance(result, dict):
        return {key: _json_data(value) for key, value in result.items()}
    if isinstance(result, (list, tuple)):
        return [_json_data(value) for value in result]
    if isinstance(result, (np.ndarray, np.generic)):
        return result.tolist()
    return result


def _write_json(args, info, data: dict) -> None:
    """Write a command's JSON artifact to --output, or to stdout: `data`
    (from `_json_data`) with the command's provenance merged into its own
    and the count of dropped rows; keys sorted, indented by 2, with a
    trailing newline."""
    data.setdefault("provenance", {}).update(_provenance(args))
    data["n_rows_dropped"] = info.n_rows_dropped
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)


def _cmd_fit(args) -> int:
    ds, spec, info = _load_dataset(args)
    fit = fit_qmle(ds, spec)
    raw = back_transform(fit.beta_hat, fit.design)
    payload = {
        "coefficients": dict(zip(fit.coef_names, fit.coef)),
        "coefficients_raw_scale": dict(zip(fit.design.coef_names, raw)),
        "loglik": fit.loglik,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
        "converged": fit.converged,
    }
    if fit.alpha_hat is not None:
        payload["cutpoints"] = fit.alpha_hat
    _write_json(args, info, _json_data(payload))
    return 0


def _cmd_bootstrap(args) -> int:
    # before the data, the size search or any fit
    require_replicates(args.B)
    ds, spec, info = _load_dataset(args)
    n_threads = _threads(args)
    trace = None
    auto = str(args.l).lower() == "auto"
    method = BootstrapMethod.parse(args.method, args.residual, None if auto else _size_flag(args))
    if auto and method.is_local:
        # tune l with the residual kind the run will resample
        kind = method.residual_kind or args.residual
        if kind is None:
            raise UsageError("--l auto needs a residual kind")
        trace = select_size(ds, spec, kind, seed=args.seed, n_threads=n_threads)
        method = replace(method, l=trace.final_l)
    out = run(
        ds, spec, method, B=args.B, alpha=args.alpha, seed=args.seed,
        n_threads=n_threads,
    )
    if args.format == "csv":
        path = args.output or "bootstrap.csv"
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(out.summary_rows()[0]))
            w.writeheader()
            for row in out.summary_rows():
                w.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
        return 0
    payload = _json_data(out)
    del payload["responses"]  # the command keeps no recreated responses
    if not args.keep_replicates:
        del payload["replicates"]
    payload["ci_normal"] = _json_data(out.ci_normal)
    payload["ci_percentile"] = _json_data(out.ci_percentile)
    if trace is not None:
        payload["size_selection"] = _json_data(trace)
    _write_json(args, info, payload)
    return 0


def _cmd_select_l(args) -> int:
    ds, spec, info = _load_dataset(args)
    if args.residual is None:
        raise UsageError("--residual is required for select-l")
    grid = _entries(args.grid, int)
    trace = select_size(
        ds,
        spec,
        args.residual,
        grid=grid,
        K=args.K,
        m=args.m,
        B_inner=args.B_inner,
        delta=args.delta,
        seed=args.seed,
        n_threads=_threads(args),
    )
    _write_json(args, info, _json_data(trace))
    return 0


def _parse_model_spec(token: str, column_names) -> ModelSpec:
    if "=" not in token:
        raise UsageError(f"--model needs label=family:link:terms, got {token!r}")
    label, rest = token.split("=", 1)
    parts = rest.split(":")
    if len(parts) != 3:
        raise UsageError(f"--model needs label=family:link:terms, got {token!r}")
    family, link, terms_str = parts
    return ModelSpec(
        family=family.strip(),
        link=link.strip(),
        predictor_terms=parse_terms(terms_str, column_names),
        label=label.strip(),
    )


def _cmd_select_model(args) -> int:
    ds, spec, info = _load_dataset(args)
    if not args.model or len(args.model) < 2:
        raise UsageError("need at least two --model entries")
    models = tuple(_parse_model_spec(tok, ds.column_names) for tok in args.model)
    holdout = None
    if args.split_half:
        perm = substream(args.seed, "split-half").permutation(ds.n)
        half = ds.n // 2
        select_rows = np.sort(perm[:half])
        holdout = np.sort(perm[half:])
        ds = ds.with_rows(select_rows)
    l = _size_flag(args)
    if l is None:
        l = default_size(ds.n)
    method = BootstrapMethod.parse(args.method, args.residual, l)
    cands = CandidateSet(models, ds, method, B=args.B)
    report = rank_models(cands, args.criterion, seed=args.seed, n_threads=_threads(args))
    if args.format == "csv" or args.output is None:
        print(report.to_table())
    if args.output:
        payload = _json_data(report)
        if holdout is not None:
            payload["holdout_rows"] = _json_data(holdout + 1)
        _write_json(args, info, payload)
    return 0


def _cmd_simulate(args) -> int:
    # before the pseudo-truth fits
    require_replicates(args.B)
    if not args.scenario:
        raise UsageError("--scenario is required for simulate")
    params = {}
    for tok in args.scenario_param or []:
        if "=" not in tok:
            raise UsageError(f"--scenario-param needs name=value, got {tok!r}")
        k, v = tok.split("=", 1)
        try:
            params[k.strip()] = json.loads(v)
        except json.JSONDecodeError:
            params[k.strip()] = v.strip()
    n_threads = _threads(args)
    if args.reps < 1:
        raise InvalidSize(f"--reps must be at least 1, got {args.reps}")
    l = _size_flag(args)
    if l is None:
        l = default_neighborhood_size(
            args.scenario, args.n or get_scenario(args.scenario).default_n
        )
    methods = [BootstrapMethod.parse(tok, args.residual, l) for tok in args.methods.split(",")]
    levels = _entries(args.levels, float)
    truth = pseudo_truth(
        args.scenario, n=args.n, reps=args.truth_reps, seed=args.seed,
        params=params or None, n_threads=n_threads,
    )
    report = run_experiment(
        methods,
        truth,
        B=args.B,
        replications=args.reps,
        levels=levels,
        seed=args.seed,
        n_threads=n_threads,
    )
    path = args.output or "simulate.csv"
    report_to_csv(report, path, extra={"seed": args.seed})
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "bootstrap": _cmd_bootstrap,
    "select-l": _cmd_select_l,
    "select-model": _cmd_select_model,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(
                f"missing subcommand; choose one of {', '.join(_COMMANDS)}"
            )
        if getattr(args, "config", None):
            # config entries go in as flags ahead of the command line's, so
            # argparse checks and converts them and a flag given again wins
            given = vars(args)
            flags = []
            for key, value in load_config(args.config).items():
                if key not in given:
                    raise UsageError(f"unknown config key {key!r}")
                flag = "--" + key.replace("_", "-")
                if not isinstance(given[key], bool):
                    flags.append(f"{flag}={value}")
                elif value.lower() in ("1", "true", "yes", "on"):
                    flags.append(flag)  # store-true flags take yes/no
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *flags, *argv[at:]])
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LrbootError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

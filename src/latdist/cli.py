"""Command-line front end.

Subcommands: budget, tradeoff, hull, quantize, dequantize, simulate, stats.
Each option is declared once, as an argparse flag with its default; an
option that must be given has the ``_REQUIRED`` default. A JSON config file
(``--config``) is read as flags placed before the explicit ones, so explicit
flags win and a file value is parsed and checked as the flag's text would
be. Each handler returns its document, and ``main`` writes it once, to
stdout or ``--output``. Every document embeds the parsed options, as a
comment line in CSV or a sibling object in JSON, so a run is reproducible
from its artifact alone. Exit codes: 0 success, 2 usage error, 3 infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .budget import BudgetFn, Scheme
from .channel import ChannelFamily, ChannelSpec, db_to_linear
from .errors import LatdistError, NoFeasibleN
from .ingest import data_lines, load_dataset, top_mass_curve
from .optimizer import sweep_beta_s, sweep_beta_t
from .simulator import ErrorModel, SimConfig, simulate_end_to_end

_REQUIRED = object()
# Parsed attributes that are not options of the run, so not echoed.
_PLUMBING = ("command", "handler", "config", "output")

CSV_COLUMNS = (
    "beta_t",
    "beta_s",
    "J_bits",
    "epsilon_target",
    "n",
    "latency_ms",
    "feasible",
    "hull_member",
)


class UsageError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def parse_value_list(spec: str) -> list[float]:
    """Parse "0.1", "0.1,0.2", "lin:a:b:n" or "log:a:b:n" into values."""
    spec = spec.strip()
    if spec.startswith(("lin:", "log:")):
        kind, rest = spec.split(":", 1)
        parts = rest.split(":")
        if len(parts) != 3:
            raise UsageError(f"range spec needs start:stop:count, got {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise UsageError(f"range count must be >= 1, got {count}")
        fn = np.linspace if kind == "lin" else np.geomspace
        return [float(x) for x in fn(start, stop, count)]
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse value list {spec!r}: {exc}") from exc


def _options(args: argparse.Namespace) -> dict:
    """The options of the run, as its output echoes them."""
    return {key: value for key, value in vars(args).items() if key not in _PLUMBING}


def _config_flags(path: str, known: dict) -> list[str]:
    """The flags a JSON config file stands for.

    true is a bare switch, false and null set nothing, a list is a comma
    list, and any other value is the flag's text.
    """
    try:
        file_cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise UsageError(f"config file must hold a JSON object: {path}")
    unknown = set(file_cfg) - set(known)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in file_cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif isinstance(value, list):
            flags.append(f"{flag}={','.join(map(str, value))}")
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return flags


def _channel_spec(cfg: dict) -> ChannelSpec:
    return ChannelSpec(
        family=ChannelFamily(cfg["channel"]),
        gamma0=db_to_linear(cfg["gamma0_db"]),
        bandwidth0_hz=cfg["b0_hz"],
        bandwidth_hz=cfg["b_hz"],
        coherence=cfg["coherence"],
    )


def _budget_fn(cfg: dict) -> BudgetFn:
    return BudgetFn(cfg["scheme"], cfg["k"], cfg["k_top"], cfg["delta"])


def _document(cfg: dict, header: tuple[str, ...], rows: list, payload: dict) -> str:
    """The run's artifact in its format: header and rows in CSV, or payload in JSON."""
    if cfg["format"] == "json":
        return json.dumps({"config": cfg, **payload}, sort_keys=True) + "\n"
    lines = [f"# config = {json.dumps(cfg, sort_keys=True)}", ",".join(header)]
    lines += (",".join(map(_fmt, row)) for row in rows)
    return "\n".join(lines) + "\n"


def cmd_budget(cfg: dict) -> str:
    uq, lq, slq = (BudgetFn(s, cfg["k"], cfg["k_top"], cfg["delta"]) for s in Scheme)
    grid = parse_value_list(cfg["beta_s"])
    if not grid:
        raise UsageError("empty beta_s grid")
    rows = []
    for bs in grid:
        ell_slq = j_slq = None
        if bs > slq.lower_edge:  # the sparse coder is defined only above its tail mass
            ell_slq, j_slq = slq.ell(bs), slq.bits_int(bs)
        rows.append((bs, uq.bits_real(bs), lq.bits_int(bs), j_slq, lq.ell(bs), ell_slq))
    header = ("beta_s", "J_uq_bits", "J_lq_bits", "J_slq_bits", "ell_lq", "ell_slq")
    return _document(cfg, header, rows, {"rows": [dict(zip(header, row)) for row in rows]})


def _run_sweep(cfg: dict, sweep, beta_t, *, with_best: bool) -> str:
    """Run ``sweep`` at beta_t on the config's coder and channel; its rows as a document."""
    cfg["beta_t"] = beta_t
    curve = sweep(
        beta_t,
        _budget_fn(cfg),
        _channel_spec(cfg),
        grid_points=cfg["grid_points"],
        grid_mode=cfg["grid_mode"],
        eps_cap=cfg["eps_cap"],
        refine=cfg["refine"],
    )
    columns = (
        curve.beta_t, curve.beta_s, curve.j_bits, curve.eps_target, curve.n,
        curve.latency_s * 1e3, curve.feasible, curve.hull_member, curve.latency_s,
    )
    # The CSV columns, then latency_s for JSON, as Python scalars.
    rows = list(zip(*(column.tolist() for column in columns)))
    objs = [dict(zip(CSV_COLUMNS + ("latency_s",), row)) for row in rows]
    payload = {"rows": objs, "best": objs[curve.best_index]} if with_best else {"rows": objs}
    return _document(cfg, CSV_COLUMNS, [row[:-1] for row in rows], payload)


def cmd_tradeoff(cfg: dict) -> str:
    betas = parse_value_list(cfg["beta_t"])
    if len(betas) != 1:
        raise UsageError("tradeoff sweeps a single beta_t; give one value")
    return _run_sweep(cfg, sweep_beta_s, betas[0], with_best=True)


def cmd_hull(cfg: dict) -> str:
    betas = parse_value_list(cfg["beta_t"])
    if not betas:
        raise UsageError("empty beta_t list")
    return _run_sweep(cfg, sweep_beta_t, betas, with_best=False)


def _coder(cfg: dict):
    """The config's coder; ell or bits_per_entry, if not given, is filled in from it."""
    if Scheme(cfg["scheme"]) is Scheme.UQ:
        key, need = "bits_per_entry", "uniform coder needs --bits-per-entry"
    else:
        key, need = "ell", "lattice coders need --ell"
    if cfg[key] is None and cfg["beta_s"] is None:
        raise UsageError(f"{need} or --beta-s")
    coder = _budget_fn(cfg).coder(cfg["beta_s"], cfg[key])
    cfg[key] = getattr(coder, key)
    return coder


def cmd_quantize(cfg: dict) -> str:
    coder = _coder(cfg)
    ds = load_dataset(cfg.pop("input"))
    if ds.k != cfg["k"]:
        raise UsageError(f"dataset dimension {ds.k} does not match --k {cfg['k']}")
    payloads = [coder.to_bytes(v).hex() for v in ds.vectors]
    return _document(cfg, ("payload_hex",), [(p,) for p in payloads], {"payloads": payloads})


def cmd_dequantize(cfg: dict) -> str:
    coder = _coder(cfg)
    path = cfg.pop("input")
    vectors = []
    with open(path) as lines:
        for lineno, line in data_lines(lines):
            if line == "payload_hex":
                continue
            try:
                data = bytes.fromhex(line)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: invalid payload line {line!r}: {exc}") from exc
            try:
                vectors.append(coder.from_bytes(data).values.tolist())
            except LatdistError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
    header = tuple(f"p{i}" for i in range(cfg["k"]))
    return _document(cfg, header, vectors, {"vectors": vectors})


def cmd_simulate(cfg: dict) -> str:
    if Scheme(cfg["scheme"]) is not Scheme.SLQ:
        cfg["delta"] = 0.0
    return simulate_end_to_end(SimConfig(**cfg)).to_json() + "\n"


def cmd_stats(cfg: dict) -> str:
    ds = load_dataset(cfg.pop("input"))
    k_tops = range(1, ds.k + 1)
    if cfg["k_top"] is not None:
        if cfg["k_top"] not in k_tops:
            raise UsageError(f"k_top values must lie in [1, {ds.k}]")
        k_tops = [cfg["k_top"]]
    curve = top_mass_curve(ds)
    rec = curve.recommend(cfg["delta_target"])
    violation = curve.violation_fraction(rec.k_top, cfg["delta_target"])
    cfg.update(dataset_label=ds.source_label, k=ds.k, n_vectors=len(ds))
    summary = {
        "recommended_k_top": rec.k_top,
        "recommended_delta_avg": rec.delta_avg,
        "satisfied": rec.satisfied,
        "tail_violation_fraction": violation,
    }
    at = np.subtract(k_tops, 1)  # the curve's row of each reported k_top
    curves = {
        "k_top": list(k_tops),
        "avg_top_mass": curve.avg_top_mass[at].tolist(),
        "delta_avg": curve.delta_avg[at].tolist(),
    }
    rows = list(zip(curves["k_top"], curves["delta_avg"]))
    # In CSV the summary follows the rows as comment lines.
    rows += [(f"# {key} = {_fmt(value)}",) for key, value in summary.items()]
    return _document(cfg, ("k_top", "delta_avg"), rows, {**curves, **summary})


def _add_common(sub: argparse.ArgumentParser, *, formats: bool = True):
    sub.add_argument("--config", help="JSON file of options; explicit flags override it")
    if formats:
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
    sub.add_argument("--output", help="write to this path instead of stdout")


def _add_coder(sub: argparse.ArgumentParser, *, scheme: bool = True):
    if scheme:
        sub.add_argument("--scheme", choices=[s.value for s in Scheme], default=_REQUIRED,
                         help="source coder")
    sub.add_argument("-k", "--k", type=int, default=_REQUIRED, help="number of classes")
    sub.add_argument("--k-top", type=int, help="entries kept by the sparse coder")
    sub.add_argument("--delta", type=float, default=1e-5,
                     help="assumed discarded tail mass (default 1e-5)")


def _add_coder_settings(sub: argparse.ArgumentParser):
    sub.add_argument("--ell", type=int, help="lattice denominator override")
    sub.add_argument("--bits-per-entry", type=int, help="uniform coder width override")


def _add_channel(sub: argparse.ArgumentParser):
    sub.add_argument("--channel", choices=[f.value for f in ChannelFamily], default="awgn",
                     help="channel family (default awgn)")
    sub.add_argument("--gamma0-db", type=float, default=_REQUIRED, help="reference SNR in dB")
    sub.add_argument("--b0-hz", type=float, default=10000.0,
                     help="reference bandwidth in Hz (default 10 kHz)")
    sub.add_argument("--b-hz", type=float, default=_REQUIRED, help="operating bandwidth in Hz")
    sub.add_argument("--coherence", type=int, help="fading coherence interval in channel uses")


def _add_sweep(sub: argparse.ArgumentParser):
    sub.add_argument("--beta-t", default=_REQUIRED,
                     help="total distortion budget(s): value, comma list, lin:a:b:n, or log:a:b:n")
    sub.add_argument("--grid-points", type=int, default=1000, help="beta_s grid size (default 1000)")
    sub.add_argument("--grid-mode", choices=("uniform", "log"), default="uniform")
    sub.add_argument("--eps-cap", type=float, default=0.5,
                     help="cap on the decoding error target (default 0.5)")
    sub.add_argument("--refine", action="store_true", help="shrink the AWGN n by exact integer search")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdist",
        description="Quantize probability vectors and plan minimum-latency transmission "
        "over noisy channels under a total variation budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No prefix matching, so that a partial flag such as --k cannot land on --k-top.
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("budget", help="bit budgets of all three coders over a beta_s grid")
    _add_coder(p, scheme=False)
    p.add_argument("--beta-s", default="log:0.001:0.5:50",
                   help="beta_s grid (default log:0.001:0.5:50)")
    _add_common(p)
    p.set_defaults(handler=cmd_budget, k_top=_REQUIRED)

    p = add("tradeoff", help="latency vs source distortion at one total budget")
    _add_coder(p)
    _add_channel(p)
    _add_sweep(p)
    _add_common(p)
    p.set_defaults(handler=cmd_tradeoff)

    p = add("hull", help="minimum latency per total budget with its lower convex hull")
    _add_coder(p)
    _add_channel(p)
    _add_sweep(p)
    _add_common(p)
    p.set_defaults(handler=cmd_hull)

    for name, handler in (("quantize", cmd_quantize), ("dequantize", cmd_dequantize)):
        p = add(
            name,
            help=f"{name} vectors; coder parameters come from flags or --beta-s budgets",
        )
        _add_coder(p)
        p.add_argument("--beta-s", type=float, help="design source distortion")
        _add_coder_settings(p)
        p.add_argument("--input", default=_REQUIRED,
                       help="vectors (quantize) or payload hex lines (dequantize)")
        _add_common(p)
        p.set_defaults(handler=handler)

    p = add("simulate", help="Monte Carlo check of the end-to-end distortion bound")
    _add_coder(p)
    p.add_argument("--beta-s", type=float, default=_REQUIRED, help="design source distortion")
    p.add_argument("--eps-target", type=float, default=_REQUIRED, help="decoding error probability")
    _add_coder_settings(p)
    p.add_argument("--trials", type=int, default=10000, help="number of trials (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--error-model", choices=[m.value for m in ErrorModel], default="uniform")
    p.add_argument("--source-tail-mass", type=float,
                   help="tail mass bound for generated sparse inputs (default: delta)")
    _add_common(p, formats=False)
    p.set_defaults(handler=cmd_simulate)

    p = add("stats", help="top-mass curve of a dataset and a recommended k_top")
    p.add_argument("--input", default=_REQUIRED, help="dataset path (jsonl or delimited rows)")
    p.add_argument("--delta-target", type=float, default=0.01,
                   help="average tail mass to stay under (default 0.01)")
    p.add_argument("--k-top", type=int, help="report this k_top only")
    _add_common(p)
    p.set_defaults(handler=cmd_stats)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's flags go right after the command, so explicit flags win.
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, _options(args))
            try:
                args = parser.parse_args(argv[:at] + flags + argv[at:])
            except SystemExit:  # the explicit flags parsed alone: the file's value is refused
                print(f"error: the value comes from config file {args.config}", file=sys.stderr)
                raise
        cfg = _options(args)
        missing = [key for key, value in cfg.items() if value is _REQUIRED]
        if missing:
            raise UsageError(f"missing required option --{missing[0].replace('_', '-')}")
        text = args.handler(cfg)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    except NoFeasibleN as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (UsageError, LatdistError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: budget, tradeoff, hull, quantize, dequantize, simulate, stats.
Flags may also be supplied through a JSON config file; explicit flags win.
Every output embeds the fully resolved configuration, as comment lines in
CSV or a sibling object in JSON, so a run is reproducible from its
artifact alone. Exit codes: 0 success, 2 usage error, 3 infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .budget import BudgetFn, Scheme, budget_lq, budget_slq, budget_uq, uq_bits_per_entry
from .channel import ChannelFamily, ChannelSpec, db_to_linear
from .errors import LatdistError, NoFeasibleN
from .ingest import (
    load_dataset,
    recommend_ktop,
    tail_violation_fraction,
    top_mass_curve,
)
from .optimizer import sweep_beta_s, sweep_beta_t
from .quantizers import (
    SLQEncoding,
    UQEncoding,
    lq_decode,
    lq_encode,
    lq_from_payload,
    lq_payload,
    slq_decode,
    slq_encode,
    uq_decode,
    uq_encode,
)
from .simulator import ErrorModel, SimConfig, simulate_end_to_end

_REQUIRED = object()

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
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    return str(x)


def parse_value_list(spec) -> list[float]:
    """Parse "0.1", "0.1,0.2", "lin:a:b:n", "log:a:b:n", or a list into values."""
    if isinstance(spec, (list, tuple)):
        return [float(x) for x in spec]
    if isinstance(spec, (int, float)):
        return [float(spec)]
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


def _resolve(args: argparse.Namespace, schema: dict) -> dict:
    """Merge defaults, the optional config file, and explicit flags."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        unknown = set(file_cfg) - set(schema)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, default in schema.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            out[key] = file_cfg[key]
        elif default is _REQUIRED:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
        else:
            out[key] = default
    return out


def _channel_spec(cfg: dict) -> ChannelSpec:
    family = ChannelFamily(cfg["channel"])
    coherence = cfg.get("coherence")
    return ChannelSpec(
        family=family,
        gamma0=db_to_linear(float(cfg["gamma0_db"])),
        bandwidth0_hz=float(cfg["b0_hz"]),
        bandwidth_hz=float(cfg["b_hz"]),
        coherence=int(coherence) if coherence is not None else None,
    )


def _budget_fn(cfg: dict) -> BudgetFn:
    scheme = Scheme(cfg["scheme"])
    k_top = cfg.get("k_top")
    return BudgetFn(
        scheme,
        int(cfg["k"]),
        int(k_top) if k_top is not None else None,
        float(cfg.get("delta", 0.0)) if scheme is Scheme.SLQ else 0.0,
    )


def _write(args, text: str):
    out = getattr(args, "output", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_document(cfg: dict, header: tuple[str, ...], rows: list[tuple]) -> str:
    lines = [f"# config = {json.dumps(cfg, sort_keys=True)}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_document(cfg: dict, payload: dict) -> str:
    return json.dumps({"config": cfg, **payload}, sort_keys=True) + "\n"


def cmd_budget(args) -> int:
    cfg = _resolve(
        args,
        {
            "k": _REQUIRED,
            "k_top": _REQUIRED,
            "delta": 1e-5,
            "beta_s": "log:0.001:0.5:50",
            "format": "csv",
        },
    )
    k, k_top, delta = int(cfg["k"]), int(cfg["k_top"]), float(cfg["delta"])
    grid = parse_value_list(cfg["beta_s"])
    if not grid:
        raise UsageError("empty beta_s grid")
    rows = []
    for bs in grid:
        j_uq = budget_uq(k, bs)
        ell_lq, j_lq = budget_lq(k, bs)
        if bs > delta:
            ell_slq, j_slq = budget_slq(k, k_top, delta, bs)
        else:
            ell_slq, j_slq = None, None
        rows.append((bs, j_uq, j_lq, j_slq, ell_lq, ell_slq))
    header = ("beta_s", "J_uq_bits", "J_lq_bits", "J_slq_bits", "ell_lq", "ell_slq")
    if cfg["format"] == "json":
        objs = [dict(zip(header, row)) for row in rows]
        _write(args, _json_document(cfg, {"rows": objs}))
    else:
        _write(args, _csv_document(cfg, header, rows))
    return 0


_SWEEP_SCHEMA = {
    "scheme": _REQUIRED,
    "k": _REQUIRED,
    "k_top": None,
    "delta": 1e-5,
    "channel": "awgn",
    "gamma0_db": _REQUIRED,
    "b0_hz": 10000.0,
    "b_hz": _REQUIRED,
    "coherence": None,
    "beta_t": _REQUIRED,
    "grid_points": 1000,
    "grid_mode": "uniform",
    "eps_cap": 0.5,
    "refine": False,
    "format": "csv",
}


def _run_sweep(args, cfg: dict, sweep, beta_t, *, with_best: bool) -> int:
    """Run ``sweep`` at beta_t on the config's coder and channel; write its rows."""
    cfg["beta_t"] = beta_t
    curve = sweep(
        beta_t,
        _budget_fn(cfg),
        _channel_spec(cfg),
        grid_points=int(cfg["grid_points"]),
        grid_mode=str(cfg["grid_mode"]),
        eps_cap=float(cfg["eps_cap"]),
        refine=bool(cfg["refine"]),
    )
    columns = (
        curve.beta_t, curve.beta_s, curve.j_bits, curve.eps_target, curve.n,
        curve.latency_s * 1e3, curve.feasible, curve.hull_member, curve.latency_s,
    )
    # The CSV columns, then latency_s for JSON, as Python scalars.
    rows = list(zip(*(column.tolist() for column in columns)))
    if cfg["format"] == "json":
        objs = [dict(zip(CSV_COLUMNS + ("latency_s",), row)) for row in rows]
        payload = {"rows": objs, "best": objs[curve.best_index]} if with_best else {"rows": objs}
        _write(args, _json_document(cfg, payload))
    else:
        _write(args, _csv_document(cfg, CSV_COLUMNS, [row[:-1] for row in rows]))
    return 0


def cmd_tradeoff(args) -> int:
    cfg = _resolve(args, _SWEEP_SCHEMA)
    betas = parse_value_list(cfg["beta_t"])
    if len(betas) != 1:
        raise UsageError("tradeoff sweeps a single beta_t; give one value")
    return _run_sweep(args, cfg, sweep_beta_s, betas[0], with_best=True)


def cmd_hull(args) -> int:
    cfg = _resolve(args, _SWEEP_SCHEMA)
    betas = parse_value_list(cfg["beta_t"])
    if not betas:
        raise UsageError("empty beta_t list")
    return _run_sweep(args, cfg, sweep_beta_t, betas, with_best=False)


_CODEC_SCHEMA = {
    "scheme": _REQUIRED,
    "k": _REQUIRED,
    "k_top": None,
    "delta": 1e-5,
    "beta_s": None,
    "ell": None,
    "bits_per_entry": None,
    "input": _REQUIRED,
    "format": "csv",
}


def _resolve_coder_params(cfg: dict) -> dict:
    """Fill in ell or bits_per_entry from the budget at beta_s when not given."""
    scheme = Scheme(cfg["scheme"])
    k = int(cfg["k"])
    out = dict(cfg)
    if scheme is Scheme.UQ:
        if out.get("bits_per_entry") is None:
            if out.get("beta_s") is None:
                raise UsageError("uniform coder needs --bits-per-entry or --beta-s")
            out["bits_per_entry"] = uq_bits_per_entry(k, float(out["beta_s"]))
        out["bits_per_entry"] = int(out["bits_per_entry"])
        return out
    if out.get("ell") is None:
        if out.get("beta_s") is None:
            raise UsageError("lattice coders need --ell or --beta-s")
        if scheme is Scheme.LQ:
            out["ell"] = budget_lq(k, float(out["beta_s"]))[0]
        else:
            if out.get("k_top") is None:
                raise UsageError("sparse coder needs --k-top")
            out["ell"] = budget_slq(
                k, int(out["k_top"]), float(out["delta"]), float(out["beta_s"])
            )[0]
    out["ell"] = int(out["ell"])
    if scheme is Scheme.SLQ and out.get("k_top") is None:
        raise UsageError("sparse coder needs --k-top")
    return out


def cmd_quantize(args) -> int:
    cfg = _resolve_coder_params(_resolve(args, _CODEC_SCHEMA))
    scheme = Scheme(cfg["scheme"])
    ds = load_dataset(cfg["input"])
    if ds.k != int(cfg["k"]):
        raise UsageError(f"dataset dimension {ds.k} does not match --k {cfg['k']}")
    payloads = []
    for v in ds.vectors:
        if scheme is Scheme.UQ:
            data = uq_encode(v, cfg["bits_per_entry"]).to_bytes()
        elif scheme is Scheme.LQ:
            data = lq_payload(lq_encode(v, cfg["ell"]))
        else:
            data = slq_encode(v, int(cfg["k_top"]), cfg["ell"]).to_bytes()
        payloads.append(data.hex())
    cfg.pop("input", None)
    if cfg["format"] == "json":
        _write(args, _json_document(cfg, {"payloads": payloads}))
    else:
        _write(args, _csv_document(cfg, ("payload_hex",), [(p,) for p in payloads]))
    return 0


def cmd_dequantize(args) -> int:
    cfg = _resolve_coder_params(_resolve(args, _CODEC_SCHEMA))
    scheme = Scheme(cfg["scheme"])
    k = int(cfg["k"])
    lines = Path(cfg["input"]).read_text().splitlines()
    payloads = [
        ln.strip()
        for ln in lines
        if ln.strip() and not ln.startswith("#") and ln.strip() != "payload_hex"
    ]
    vectors = []
    for hexline in payloads:
        try:
            data = bytes.fromhex(hexline)
        except ValueError as exc:
            raise UsageError(f"invalid payload line {hexline!r}: {exc}") from exc
        if scheme is Scheme.UQ:
            vec = uq_decode(UQEncoding.from_bytes(data, k, cfg["bits_per_entry"]))
        elif scheme is Scheme.LQ:
            vec = lq_decode(lq_from_payload(data, k, cfg["ell"]))
        else:
            vec = slq_decode(
                SLQEncoding.from_bytes(data, k, int(cfg["k_top"]), cfg["ell"])
            )
        vectors.append([float(x) for x in vec.values])
    cfg.pop("input", None)
    if cfg["format"] == "json":
        _write(args, _json_document(cfg, {"vectors": vectors}))
    else:
        header = tuple(f"p{i}" for i in range(k))
        _write(args, _csv_document(cfg, header, [tuple(v) for v in vectors]))
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve(
        args,
        {
            "scheme": _REQUIRED,
            "k": _REQUIRED,
            "k_top": None,
            "delta": 1e-5,
            "beta_s": _REQUIRED,
            "eps_target": _REQUIRED,
            "ell": None,
            "bits_per_entry": None,
            "trials": 10000,
            "seed": 0,
            "error_model": "uniform",
            "source_tail_mass": None,
        },
    )
    scheme = Scheme(cfg["scheme"])
    sim_cfg = SimConfig(
        trials=int(cfg["trials"]),
        seed=int(cfg["seed"]),
        error_model=ErrorModel(cfg["error_model"]),
        scheme=scheme,
        k=int(cfg["k"]),
        beta_s=float(cfg["beta_s"]),
        eps_target=float(cfg["eps_target"]),
        k_top=int(cfg["k_top"]) if cfg["k_top"] is not None else None,
        delta=float(cfg["delta"]) if scheme is Scheme.SLQ else 0.0,
        ell=int(cfg["ell"]) if cfg["ell"] is not None else None,
        bits_per_entry=(
            int(cfg["bits_per_entry"]) if cfg["bits_per_entry"] is not None else None
        ),
        source_tail_mass=(
            float(cfg["source_tail_mass"]) if cfg["source_tail_mass"] is not None else None
        ),
    )
    report = simulate_end_to_end(sim_cfg)
    _write(args, report.to_json() + "\n")
    return 0


def cmd_stats(args) -> int:
    cfg = _resolve(
        args,
        {
            "input": _REQUIRED,
            "delta_target": 0.01,
            "k_top": None,
            "format": "csv",
        },
    )
    ds = load_dataset(cfg["input"])
    k_tops = [int(cfg["k_top"])] if cfg["k_top"] is not None else None
    curve = top_mass_curve(ds, k_tops)
    rec = recommend_ktop(ds, float(cfg["delta_target"]))
    violation = tail_violation_fraction(ds, rec.k_top, float(cfg["delta_target"]))
    cfg = dict(cfg, dataset_label=ds.source_label, k=ds.k, n_vectors=len(ds))
    cfg.pop("input", None)
    if cfg["format"] == "json":
        _write(
            args,
            _json_document(
                cfg,
                {
                    "k_top": list(curve.k_top_values),
                    "avg_top_mass": [float(x) for x in curve.avg_top_mass],
                    "delta_avg": [float(x) for x in curve.delta_avg],
                    "recommended_k_top": rec.k_top,
                    "recommended_delta_avg": rec.delta_avg,
                    "satisfied": rec.satisfied,
                    "tail_violation_fraction": violation,
                },
            ),
        )
    else:
        rows = [
            (kt, float(d))
            for kt, d in zip(curve.k_top_values, curve.delta_avg)
        ]
        doc = _csv_document(cfg, ("k_top", "delta_avg"), rows)
        doc += (
            f"# recommended_k_top = {rec.k_top}\n"
            f"# recommended_delta_avg = {_fmt(rec.delta_avg)}\n"
            f"# satisfied = {_fmt(rec.satisfied)}\n"
            f"# tail_violation_fraction = {_fmt(violation)}\n"
        )
        _write(args, doc)
    return 0


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="JSON file of options; explicit flags override it")
    sub.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    sub.add_argument("--output", help="write to this path instead of stdout")


def _add_scheme(sub: argparse.ArgumentParser):
    sub.add_argument("--scheme", choices=[s.value for s in Scheme], help="source coder")
    sub.add_argument("-k", "--k", type=int, dest="k", help="number of classes")
    sub.add_argument("--k-top", type=int, dest="k_top", help="entries kept by the sparse coder")
    sub.add_argument("--delta", type=float, help="assumed discarded tail mass (default 1e-5)")


def _add_channel(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--channel", choices=[f.value for f in ChannelFamily], help="channel family (default awgn)"
    )
    sub.add_argument("--gamma0-db", type=float, dest="gamma0_db", help="reference SNR in dB")
    sub.add_argument("--b0-hz", type=float, dest="b0_hz", help="reference bandwidth in Hz (default 10 kHz)")
    sub.add_argument("--b-hz", type=float, dest="b_hz", help="operating bandwidth in Hz")
    sub.add_argument("--coherence", type=int, help="fading coherence interval in channel uses")


def _add_sweep(sub: argparse.ArgumentParser):
    sub.add_argument(
        "--beta-t",
        dest="beta_t",
        help="total distortion budget(s): value, comma list, lin:a:b:n, or log:a:b:n",
    )
    sub.add_argument("--grid-points", type=int, dest="grid_points", help="beta_s grid size (default 1000)")
    sub.add_argument("--grid-mode", choices=("uniform", "log"), dest="grid_mode")
    sub.add_argument("--eps-cap", type=float, dest="eps_cap", help="cap on the decoding error target (default 0.5)")
    sub.add_argument("--refine", action="store_true", default=None, help="shrink the AWGN n by exact integer search")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latdist",
        description="Quantize probability vectors and plan minimum-latency transmission "
        "over noisy channels under a total variation budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="bit budgets of all three coders over a beta_s grid")
    _add_scheme(p)
    p.add_argument("--beta-s", dest="beta_s", help="beta_s grid (default log:0.001:0.5:50)")
    _add_common(p)
    p.set_defaults(handler=cmd_budget)

    p = sub.add_parser("tradeoff", help="latency vs source distortion at one total budget")
    _add_scheme(p)
    _add_channel(p)
    _add_sweep(p)
    _add_common(p)
    p.set_defaults(handler=cmd_tradeoff)

    p = sub.add_parser("hull", help="minimum latency per total budget with its lower convex hull")
    _add_scheme(p)
    _add_channel(p)
    _add_sweep(p)
    _add_common(p)
    p.set_defaults(handler=cmd_hull)

    for name, handler in (("quantize", cmd_quantize), ("dequantize", cmd_dequantize)):
        p = sub.add_parser(
            name,
            help=f"{name} vectors; coder parameters come from flags or --beta-s budgets",
        )
        _add_scheme(p)
        p.add_argument("--beta-s", dest="beta_s", type=float, help="design source distortion")
        p.add_argument("--ell", type=int, help="lattice denominator override")
        p.add_argument("--bits-per-entry", type=int, dest="bits_per_entry", help="uniform coder width override")
        p.add_argument("--input", help="vectors (quantize) or payload hex lines (dequantize)")
        _add_common(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("simulate", help="Monte Carlo check of the end-to-end distortion bound")
    _add_scheme(p)
    p.add_argument("--beta-s", dest="beta_s", type=float, help="design source distortion")
    p.add_argument("--eps-target", dest="eps_target", type=float, help="decoding error probability")
    p.add_argument("--ell", type=int, help="lattice denominator override")
    p.add_argument("--bits-per-entry", type=int, dest="bits_per_entry")
    p.add_argument("--trials", type=int, help="number of trials (default 10000)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--error-model", choices=[m.value for m in ErrorModel], dest="error_model")
    p.add_argument("--source-tail-mass", type=float, dest="source_tail_mass",
                   help="tail mass bound for generated sparse inputs (default: delta)")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("stats", help="top-mass curve of a dataset and a recommended k_top")
    p.add_argument("--input", help="dataset path (jsonl or delimited rows)")
    p.add_argument("--delta-target", type=float, dest="delta_target",
                   help="average tail mass to stay under (default 0.01)")
    p.add_argument("--k-top", type=int, dest="k_top", help="report this k_top only")
    _add_common(p)
    p.set_defaults(handler=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NoFeasibleN as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (UsageError, LatdistError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

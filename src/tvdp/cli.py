"""Command-line interface.

JSON on stdout is the canonical format (CSV for tabular curve data);
validation failures print one diagnostic line on stderr and exit 2.
Floats are rounded to 12 significant digits before serialization so output
is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .amplification import subsample
from .asymptotics import clt_gap
from .composition import compose_exact, compose_kairouz, compose_types_approx
from .curves import PrivacyBudget, TradeoffCurve, curve_from_budget, tv_feasibility_cap
from .divergences import DiscretePair, DivergenceSpec
from .dpsgd import SgdConfig, sgd_compare, sgd_region
from .errors import ValidationError
from .localdp import (
    Channel,
    be_ratio_lower_bound,
    binary_erasure_mechanism,
    chi2_output_bound,
    dobrushin,
    kl_contraction_bound,
    ldp_epsilon,
    max_fdiv,
    opt_conversion_factor,
    q_star,
)
from .mechanisms import (
    GaussianParams,
    StaircaseSpec,
    dominating_approx,
    gaussian_tv,
    laplace_tv,
    staircase_tv,
)

DEFAULT_MAX_EPS = 50.0


def _eps_from_args(args) -> float:
    """--eps, or else the TVDP_MAX_EPS cap (default 50), which must be a
    finite number >= 0."""
    if args.eps is not None:
        return args.eps
    raw = os.environ.get("TVDP_MAX_EPS")
    if raw is None:
        return DEFAULT_MAX_EPS
    try:
        cap = float(raw)
    except ValueError:
        cap = math.nan
    if not (cap >= 0.0 and math.isfinite(cap)):
        raise ValidationError(
            f"TVDP_MAX_EPS must be a finite number >= 0, got {raw!r}"
        )
    return cap


def _round12(value: float) -> float | str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return float(f"{value:.12g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, float):  # numpy's float64 included
        return _round12(obj)
    if isinstance(obj, (int, str)) or obj is None:  # bool is an int
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(_jsonable(payload)) + "\n")


def _emit_csv(header: list[str], rows) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _curve_csv(curve: TradeoffCurve, grid: int | None) -> None:
    xs = curve.xs
    if grid:
        xs = np.union1d(xs, np.linspace(0.0, 1.0, grid))
    _emit_csv(["beta_I", "beta_II"], zip(xs.tolist(), curve(xs).tolist()))


def _budget_from_args(args) -> PrivacyBudget:
    eps = _eps_from_args(args)
    delta = args.delta
    eta = args.eta if args.eta is not None else tv_feasibility_cap(eps, delta)
    return PrivacyBudget(eps, delta, eta)


def _read_json_arg(inline: str | None, path: str | None, what: str) -> dict:
    if inline is not None:
        return json.loads(inline)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    raise ValueError(f"provide {what} inline or as a file")


def _check_csv_grid(args) -> None:
    """Reject a negative --grid before any curve is built."""
    if args.out == "csv" and args.grid is not None and args.grid < 0:
        raise ValidationError("--grid must be >= 0")


def _cmd_region(args) -> int:
    budget = _budget_from_args(args)
    _check_csv_grid(args)
    curve = curve_from_budget(budget)
    if args.out == "csv":
        _curve_csv(curve, args.grid)
    else:
        _emit_json(curve.as_dict())
    return 0


def _cmd_compose(args) -> int:
    if args.baseline == "kairouz":
        ledger = compose_kairouz(_eps_from_args(args), args.delta, args.k)
    else:
        budget = _budget_from_args(args)
        if args.mode == "types":
            ledger = compose_types_approx(budget, args.k, tol=args.tol)
        else:
            ledger = compose_exact(budget, args.k)
    if args.out == "csv":
        _emit_csv(
            ["j", "eps", "delta"],
            ((e.j, e.epsilon, e.delta) for e in ledger.entries),
        )
    else:
        _emit_json(ledger.as_dict())
    return 0


def _cmd_amplify(args) -> int:
    out = subsample(_budget_from_args(args), args.p)
    _emit_json({"eps": out.epsilon, "delta": out.delta, "eta": out.eta})
    return 0


def _cmd_clt(args) -> int:
    gap = clt_gap(args.eps, args.eta, args.k)  # validates before the sqrt
    mu = math.sqrt(2.0 * args.k * args.eps * args.eta)
    _emit_json({"mu": mu, "gap": gap})
    return 0


def _cmd_mech(args) -> int:
    if args.mech_command == "tv":
        if args.kind == "laplace":
            value = laplace_tv(_require(args.eps, "--eps"))
        elif args.kind == "gaussian":
            value = gaussian_tv(GaussianParams(_require(args.mu, "--mu")))
        else:
            value = staircase_tv(
                StaircaseSpec(
                    _require(args.gamma, "--gamma"),
                    _require(args.eps, "--eps"),
                    args.sensitivity,
                )
            )
        _emit_json(value)
        return 0
    pair = dominating_approx(
        PrivacyBudget(_require(args.eps, "--eps"), args.delta, _require(args.eta, "--eta"))
    )
    _emit_json({"p0": list(pair.p0), "p1": list(pair.p1)})
    return 0


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required flag {flag}")
    return value


def _cmd_ldp(args) -> int:
    if args.ldp_command == "check":
        channel = Channel.from_dict(
            _read_json_arg(args.channel, args.channel_file, "a channel")
        )
        _emit_json({"eps": ldp_epsilon(channel), "tv": dobrushin(channel)})
        return 0
    if args.ldp_command == "qstar":
        _emit_json(q_star(args.eps, args.eta).as_dict())
        return 0
    if args.ldp_command == "bemech":
        payload = _read_json_arg(args.pair, args.pair_file, "a pair")
        if not (isinstance(payload, dict) and {"p0", "p1"} <= payload.keys()):
            raise ValidationError('pair must be a JSON object with "p0" and "p1" keys')
        pair = DiscretePair(payload["p0"], payload["p1"])
        _emit_json(binary_erasure_mechanism(pair, args.eps, args.eta).as_dict())
        return 0
    _emit_json(
        {
            "max_kl": max_fdiv(args.eps, args.eta, DivergenceSpec.kl()),
            "max_chi2": max_fdiv(args.eps, args.eta, DivergenceSpec.chi_squared()),
            "max_tv": max_fdiv(args.eps, args.eta, DivergenceSpec.tv()),
            "kl_contraction_bound": kl_contraction_bound(args.eps, args.eta),
            "chi2_output_coefficient": chi2_output_bound(args.eps, args.eta, 1.0),
            "opt_conversion_factor": opt_conversion_factor(args.eps, args.eta),
            "be_ratio_lower_bound": be_ratio_lower_bound(args.eps, args.eta),
        }
    )
    return 0


def _cmd_sgd(args) -> int:
    if not (args.eps_step > 0.0 and math.isfinite(args.eps_step)):
        raise ValidationError("--eps-step must be positive and finite")
    if not (math.isfinite(args.eps_from) and math.isfinite(args.eps_to)):
        raise ValidationError("--eps-from and --eps-to must be finite")
    span = (args.eps_to - args.eps_from) / args.eps_step
    if not math.isfinite(span):
        raise ValidationError("--eps-step is too small for the range of the grid")
    count = int(round(span)) + 1
    grid = tuple(
        round(args.eps_from + i * args.eps_step, 12) for i in range(max(count, 1))
    )
    grid = tuple(e for e in grid if e <= args.eps_to + 1e-12)
    config = SgdConfig(
        dataset_size=args.n,
        batch_size=args.batch,
        epochs=args.epochs,
        step_mu=args.mu,
        epsilon_grid=grid,
    )
    _check_csv_grid(args)
    if args.out == "csv":
        _curve_csv(sgd_region(config, tol=args.tol), args.grid)
    else:
        report = sgd_compare(config, tol=args.tol)
        if not args.full_curves:
            report.pop("baseline_curve")
        _emit_json(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvdp",
        description="Privacy accounting that tracks (eps, delta)-DP jointly with "
        "the mechanism's total variation eta.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget_flags(p):
        p.add_argument("--eps", type=float, default=None, help="epsilon in nats (default: TVDP_MAX_EPS cap for pure-TV regions)")
        p.add_argument("--delta", type=float, default=0.0, help="approximate-DP slack delta")
        p.add_argument("--eta", type=float, default=None, help="total variation bound (default: feasibility maximum)")

    p_region = sub.add_parser("region", help="tradeoff curve of a (eps, delta, eta) budget")
    add_budget_flags(p_region)
    p_region.add_argument("--out", choices=["json", "csv"], default="json")
    p_region.add_argument("--grid", type=int, default=None, help="add N uniform evaluation points to CSV output")
    p_region.set_defaults(func=_cmd_region)

    p_compose = sub.add_parser("compose", help="k-fold composition ledger")
    add_budget_flags(p_compose)
    p_compose.add_argument("-k", type=int, required=True, help="number of compositions")
    p_compose.add_argument("--baseline", choices=["kairouz"], default=None, help="ignore eta and use the TV-blind baseline")
    p_compose.add_argument("--mode", choices=["exact", "types"], default="exact")
    p_compose.add_argument("--tol", type=float, default=1e-6, help="must be positive; kept for compatibility, --mode types is exact")
    p_compose.add_argument("--out", choices=["json", "csv"], default="json")
    p_compose.set_defaults(func=_cmd_compose)

    p_amp = sub.add_parser("amplify", help="subsampling amplification of a budget")
    add_budget_flags(p_amp)
    p_amp.add_argument("-p", type=float, required=True, help="subsampling ratio m/n in (0, 1]")
    p_amp.set_defaults(func=_cmd_amplify)

    p_clt = sub.add_parser("clt", help="Gaussian-limit parameter and sup-norm gap")
    p_clt.add_argument("--eps", type=float, required=True)
    p_clt.add_argument("--eta", type=float, required=True)
    p_clt.add_argument("-k", type=int, required=True)
    p_clt.set_defaults(func=_cmd_clt)

    p_mech = sub.add_parser("mech", help="mechanism total variations and dominating pairs")
    mech_sub = p_mech.add_subparsers(dest="mech_command", required=True)
    p_tv = mech_sub.add_parser("tv", help="closed-form total variation of a mechanism")
    p_tv.add_argument("--kind", choices=["laplace", "gaussian", "staircase"], required=True)
    p_tv.add_argument("--eps", type=float, default=None)
    p_tv.add_argument("--mu", type=float, default=None, help="gaussian: sensitivity/sigma")
    p_tv.add_argument("--gamma", type=float, default=None, help="staircase: step-width fraction")
    p_tv.add_argument("--sensitivity", type=float, default=1.0)
    p_tv.set_defaults(func=_cmd_mech)
    p_pair = mech_sub.add_parser("pair", help="dominating mechanism output pair")
    p_pair.add_argument("--eps", type=float, required=True)
    p_pair.add_argument("--delta", type=float, default=0.0)
    p_pair.add_argument("--eta", type=float, required=True)
    p_pair.set_defaults(func=_cmd_mech)

    p_ldp = sub.add_parser("ldp", help="local-privacy channel tools")
    ldp_sub = p_ldp.add_subparsers(dest="ldp_command", required=True)
    p_check = ldp_sub.add_parser("check", help="verify a channel's eps and TV")
    p_check.add_argument("--channel", type=str, default=None, help='inline JSON {"matrix": [[...], ...]}')
    p_check.add_argument("--channel-file", type=str, default=None)
    p_check.set_defaults(func=_cmd_ldp)
    p_qstar = ldp_sub.add_parser("qstar", help="dominating two-input channel")
    p_qstar.add_argument("--eps", type=float, required=True)
    p_qstar.add_argument("--eta", type=float, required=True)
    p_qstar.set_defaults(func=_cmd_ldp)
    p_bemech = ldp_sub.add_parser("bemech", help="binary mechanism with erasure for a pair")
    p_bemech.add_argument("--eps", type=float, required=True)
    p_bemech.add_argument("--eta", type=float, required=True)
    p_bemech.add_argument("--pair", type=str, default=None, help='inline JSON {"p0": [...], "p1": [...]}')
    p_bemech.add_argument("--pair-file", type=str, default=None)
    p_bemech.set_defaults(func=_cmd_ldp)
    p_bounds = ldp_sub.add_parser("bounds", help="closed-form privacy-utility bounds")
    p_bounds.add_argument("--eps", type=float, required=True)
    p_bounds.add_argument("--eta", type=float, required=True)
    p_bounds.set_defaults(func=_cmd_ldp)

    p_sgd = sub.add_parser("sgd", help="noisy-SGD accounting over an epsilon grid")
    p_sgd.add_argument("--n", type=int, required=True, help="dataset size")
    p_sgd.add_argument("--batch", type=int, required=True, help="batch size")
    p_sgd.add_argument("--epochs", type=float, required=True)
    p_sgd.add_argument("--mu", type=float, required=True, help="per-step Gaussian-DP parameter")
    p_sgd.add_argument("--eps-from", type=float, required=True)
    p_sgd.add_argument("--eps-to", type=float, required=True)
    p_sgd.add_argument("--eps-step", type=float, required=True)
    p_sgd.add_argument("--tol", type=float, default=1e-6)
    p_sgd.add_argument("--out", choices=["json", "csv"], default="json")
    p_sgd.add_argument("--grid", type=int, default=None)
    p_sgd.add_argument("--full-curves", action="store_true", help="include the baseline curve in JSON output")
    p_sgd.set_defaults(func=_cmd_sgd)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser unchanged and no default reads the
    # environment (TVDP_MAX_EPS is read per call), so one parser serves
    # every dispatch of the process.
    return build_parser()


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {str(exc) or 'the input is too large'}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

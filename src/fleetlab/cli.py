"""Command-line harness: generate scenarios, train, evaluate, run the toy sweep.

Exit codes: 0 success, 2 usage errors (bad flags), 3 scenario/data errors,
4 unexpected runtime failures. Every command prints its resolved configuration
before doing work. Set FLEETLAB_LOG_LEVEL to adjust logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import marl, scenario, sim, toylab
from .gnn import CheckpointError, GnnConfig, load_checkpoint, save_checkpoint
from .roadnet import build_dual_graph

LOG = logging.getLogger("fleetlab")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

DRIVER_SCALE_PRESETS = (1.0, 0.5, 0.2)
BASELINES = ("random", "proportional")


def _checked(convert, ok, requirement: str):
    """An argparse `type=` that converts one value and range-checks it."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")

    return parse


def _comma_list(item, count: int | None = None, allow_empty: bool = False):
    """An argparse `type=` for a comma list whose entries each pass `item`."""

    def parse(text: str) -> list:
        if allow_empty and not text.strip():
            return []
        values = [item(part.strip()) for part in text.split(",")]
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"{text!r} does not hold {count} values")
        return values

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_non_negative_float = _checked(float, lambda v: 0 <= v < float("inf"), "a finite number >= 0")
_baseline = _checked(str, lambda v: v in BASELINES, f"one of {','.join(BASELINES)}")


def _print_config(command: str, values: dict) -> None:
    print(f"[fleetlab {command}] resolved config: {json.dumps(values, sort_keys=True)}")


def _policy_kind(args) -> marl.PolicyKind:
    return marl.PolicyKind(args.policy, beta=args.beta, epsilon=args.epsilon)


def _from_meta(path, read):
    """Read a value from a checkpoint's meta block; a bad value is a data error."""
    try:
        return read()
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad meta entry ({exc})") from exc


def _world_factory(network, scn, base_seed, order_expiry=sim.DEFAULT_ORDER_EXPIRY):
    def factory(index: int) -> sim.WorldState:
        return sim.init_world(network, scn, base_seed + index, order_expiry=order_expiry)

    return factory


def cmd_gen(args) -> int:
    params = scenario.SynthParams(
        roads=args.roads,
        mean_calls_per_step=args.mean_calls,
        hotspot_roads=args.hotspot_frac,
        hotspot_boost=args.hotspot_boost,
        duration_range=(args.duration_min, args.duration_max),
        driver_base=args.drivers,
        seed=args.seed,
        steps=args.steps,
        speed=args.speed,
    )
    _print_config("gen", {**params.__dict__, "out": str(args.out)})
    network, scn = scenario.generate_city(params)
    paths = scenario.write_scenario(args.out, network, scn, default_speed=params.speed)
    print(
        f"wrote {len(paths)} files to {args.out}: {network.n_roads} roads, "
        f"{scn.horizon} steps, {len(scn.calls)} calls, "
        f"{int(scn.total_drivers_series[0])} initial drivers"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    network, scn = scenario.load_scenario_dir(args.scenario_dir, graph_path=args.graph)
    if args.driver_scale != 1.0:
        scn = scenario.scale_drivers(scn, args.driver_scale)
    kind = _policy_kind(args)
    gnn_config = GnnConfig(kind=args.gnn, layers=args.layers, hidden_dim=args.hidden, heads=args.heads)
    steps = args.steps if args.steps is not None else scn.horizon
    train_config = marl.TrainConfig(
        policy=kind,
        gamma=args.gamma,
        epochs=args.epochs,
        steps_per_epoch=steps,
        learning_rate=args.lr,
        target_sync_every=args.sync_every,
        optimizer=args.optimizer,
        seed=args.seed,
    )
    params = None
    start_epoch = 0
    if args.resume:
        gnn_config, params, meta = load_checkpoint(args.resume)
        start_epoch = _from_meta(args.resume, lambda: int(meta.get("epochs_completed", 0)))
        if start_epoch < 0:
            raise CheckpointError(f"{args.resume}: negative epochs_completed {start_epoch}")
        print(f"resuming from {args.resume} at epoch {start_epoch}")
    _print_config(
        "train",
        {
            "scenario_dir": str(args.scenario_dir),
            "gnn": gnn_config.__dict__,
            "train": {**train_config.__dict__, "policy": kind.label()},
            "driver_scale": args.driver_scale,
            "start_epoch": start_epoch,
            "out": str(args.out),
        },
    )
    result = marl.train(
        gnn_config,
        _world_factory(network, scn, args.seed, order_expiry=args.order_expiry),
        train_config,
        params=params,
        start_epoch=start_epoch,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    checkpoint = out / "checkpoint.json"
    metrics = out / "metrics.csv"
    save_checkpoint(
        checkpoint,
        result.gnn_config,
        result.params,
        meta={
            "policy": kind.label(),
            "policy_name": kind.name,
            "beta": kind.beta,
            "epsilon": kind.epsilon,
            "epochs_completed": train_config.epochs,
            "seed": args.seed,
        },
    )
    note = (
        f"policy={kind.name} beta={kind.beta:g} epsilon={kind.epsilon:g} "
        f"gnn={result.gnn_config.kind} layers={result.gnn_config.layers} "
        f"gamma={train_config.gamma:g} lr={train_config.learning_rate:g} seed={args.seed}"
    )
    marl.write_metrics_csv(metrics, result.step_metrics, header_note=note)
    for row in result.epoch_metrics:
        print(
            f"epoch {row['epoch']}: response_rate={row['response_rate']:.4f} "
            f"served={row['served']} generated={row['generated']}"
        )
    print(f"wrote {checkpoint} and {metrics}")
    return EXIT_OK


def cmd_eval(args) -> int:
    network, scn = scenario.load_scenario_dir(args.scenario_dir, graph_path=args.graph)
    dual = build_dual_graph(network)
    seeds, scales = args.seeds, args.driver_scales
    methods: list[tuple[str, callable]] = []
    for name in args.baselines:
        kind = marl.PolicyKind(name)
        methods.append((kind.label(), marl.make_policy_provider(kind, dual)))
    for path in args.checkpoint or []:
        cfg, params, meta = load_checkpoint(path)
        kind = _from_meta(path, lambda: marl.PolicyKind(
            str(meta.get("policy_name", "greedy")),
            beta=float(meta.get("beta", 1.0)),
            epsilon=float(meta.get("epsilon", 0.1)),
        ))
        methods.append(
            (
                str(meta.get("policy", Path(path).stem)),
                marl.make_policy_provider(kind, dual, gnn_config=cfg, params=params),
            )
        )
    if not methods:
        print("nothing to evaluate: pass --baselines and/or --checkpoint", file=sys.stderr)
        return EXIT_USAGE
    steps = args.steps if args.steps is not None else scn.horizon
    _print_config(
        "eval",
        {
            "scenario_dir": str(args.scenario_dir),
            "methods": [m for m, _ in methods],
            "driver_scales": scales,
            "seeds": seeds,
            "steps": steps,
            "episodes": args.episodes,
            "out": str(args.out),
        },
    )
    rows = []
    for method, provider in methods:
        for scale in scales:
            scaled = scenario.scale_drivers(scn, scale) if scale != 1.0 else scn
            rates = []
            for seed in seeds:
                result = marl.evaluate(
                    provider,
                    _world_factory(network, scaled, seed, order_expiry=args.order_expiry),
                    episodes=args.episodes,
                    steps_per_episode=steps,
                )
                if result.mean is not None:
                    rates.append(result.mean)
            mean = float(np.mean(rates)) if rates else float("nan")
            std = float(np.std(rates)) if rates else float("nan")
            rows.append({"method": method, "driver_scale": scale, "mean": mean, "std": std, "seeds": len(rates)})
            print(f"{method:>24}  scale={scale:<4g} rate={mean:.4f} +/- {std:.4f}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["method", "driver_scale", "mean", "std", "seeds"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_toy(args) -> int:
    grid = np.logspace(np.log10(args.beta_min), np.log10(args.beta_max), args.points)
    families = toylab.FAMILIES if args.family == "both" else (args.family,)
    config = toylab.ToyConfig(
        drivers=tuple(args.drivers),
        calls=tuple(args.calls),
    )
    _print_config(
        "toy",
        {
            "families": list(families),
            "beta_min": args.beta_min,
            "beta_max": args.beta_max,
            "points": args.points,
            "drivers": config.drivers,
            "calls": config.calls,
            "out": str(args.out),
        },
    )
    points = []
    for family in families:
        points.extend(toylab.sweep_beta(grid, family, config))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    toylab.write_sweep_csv(out, points)
    for family in families:
        family_points = [p for p in points if p.family == family]
        best = max(family_points, key=lambda p: p.reward)
        print(f"{family}: best reward {best.reward:.4f} at beta={best.beta:.4g} ({len(family_points)} rows)")
    print(f"wrote {out} ({len(points)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetlab",
        description="Graph-based fleet repositioning lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic city and demand scenario")
    gen.add_argument("--roads", type=int, default=50)
    gen.add_argument("--steps", type=_positive_int, default=240)
    gen.add_argument("--mean-calls", type=float, default=0.05, help="calls per road per step")
    gen.add_argument("--hotspot-frac", type=float, default=0.1)
    gen.add_argument("--hotspot-boost", type=float, default=4.0)
    gen.add_argument("--drivers", type=int, default=30)
    gen.add_argument("--duration-min", type=int, default=5)
    gen.add_argument("--duration-max", type=int, default=15)
    gen.add_argument("--speed", type=float, default=scenario.DEFAULT_SPEED)
    gen.add_argument("--seed", type=_non_negative_int, default=0)
    gen.add_argument("--out", type=Path, required=True)
    gen.set_defaults(func=cmd_gen)

    def add_common(p):
        p.add_argument("--scenario-dir", type=Path, required=True)
        p.add_argument("--graph", type=Path, default=None, help="override graph.json path")
        p.add_argument("--order-expiry", type=_non_negative_int, default=sim.DEFAULT_ORDER_EXPIRY)

    train = sub.add_parser("train", help="train a GNN Q network on a scenario")
    add_common(train)
    train.add_argument("--gnn", choices=("gcn", "gat"), default="gat")
    train.add_argument("--layers", type=int, default=8)
    train.add_argument("--heads", type=int, default=8)
    train.add_argument("--hidden", type=int, default=32)
    train.add_argument(
        "--policy",
        choices=("greedy", "eps-greedy", "entropy", "pow", "exp"),
        default="pow",
    )
    train.add_argument("--beta", type=float, default=2.0)
    train.add_argument("--epsilon", type=float, default=0.1)
    train.add_argument("--gamma", type=float, default=0.9)
    train.add_argument("--epochs", type=int, default=5)
    train.add_argument(
        "--steps", type=_positive_int, default=None, help="steps per epoch (default: horizon)"
    )
    train.add_argument("--lr", type=float, default=1e-3)
    train.add_argument("--sync-every", type=int, default=100)
    train.add_argument("--optimizer", choices=("sgd", "adam"), default="sgd")
    train.add_argument("--driver-scale", type=float, default=1.0)
    train.add_argument("--seed", type=_non_negative_int, default=0)
    train.add_argument("--resume", type=Path, default=None)
    train.add_argument("--out", type=Path, required=True)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate baselines and checkpoints on a scenario")
    add_common(ev)
    ev.add_argument(
        "--baselines",
        type=_comma_list(_baseline, allow_empty=True),
        default=[],
        help=f"comma list from: {','.join(BASELINES)}",
    )
    ev.add_argument("--checkpoint", type=Path, action="append")
    ev.add_argument(
        "--driver-scales",
        type=_comma_list(_non_negative_float),
        default=[1.0],
        help=f"comma list of fleet fractions, presets {DRIVER_SCALE_PRESETS}",
    )
    ev.add_argument(
        "--seeds", type=_comma_list(_non_negative_int), default=[0], help="comma list of world seeds"
    )
    ev.add_argument("--episodes", type=_positive_int, default=1)
    ev.add_argument("--steps", type=_positive_int, default=None)
    ev.add_argument("--out", type=Path, required=True)
    ev.set_defaults(func=cmd_eval)

    toy = sub.add_parser("toy", help="two-road toy model beta sweep")
    toy.add_argument("--family", choices=("pow", "exp", "both"), default="both")
    toy.add_argument("--beta-min", type=float, default=0.01)
    toy.add_argument("--beta-max", type=float, default=100.0)
    toy.add_argument("--points", type=int, default=60)
    toy.add_argument("--drivers", type=_comma_list(_non_negative_float, 2), default=[10.0, 0.0])
    toy.add_argument("--calls", type=_comma_list(_non_negative_float, 2), default=[3.0, 7.0])
    toy.add_argument("--out", type=Path, default=Path("toy_sweep.csv"))
    toy.set_defaults(func=cmd_toy)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("FLEETLAB_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        scenario.ScenarioError, sim.ConfigurationError, CheckpointError, FileNotFoundError
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front door.

Subcommands: components, predict, verify, sweep, gadget.  Exit codes are a
stable contract: 0 ok, 2 bad input, 3 budget exceeded, 4 predictor/oracle
disagreement, 5 infeasible parameters.

A run given ``--out`` writes a manifest (JSON) next to the primary output,
at ``<out>.manifest.json`` unless ``--manifest`` names another path; a run
that prints to stdout writes one only when ``--manifest`` is given.  The
manifest records the full configuration, the seed, the tool version, wall
time and a digest of the primary output, so runs can be reproduced byte for
byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import random
import re
import sys
import time

from . import __version__
from .graphs import (
    MultiplicityGraph,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    graph_from_json_dict,
    path_graph,
    star_graph,
    as_multiplicity,
)
from .statespace import BudgetExceededError, build_components
from .predictors import (
    FAMILY_BUILDERS,
    THEOREMS,
    PreconditionError,
    verdicts_to_jsonl,
    verify_family,
)
from .randomlab import ExperimentConfig, run_sweep
from .gadgets import (
    InfeasibleParamsError,
    build_gadget,
    derive_params,
    desk_params,
    validate_gadget,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_DISAGREE = 4
EXIT_INFEASIBLE = 5

_GEN_RE = re.compile(r"^(gen:)?(path|cycle|star|complete|edgeless):(\d+)$")

_GENERATORS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "star": star_graph,
    "complete": complete_graph,
    "edgeless": edgeless_graph,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def load_graph_arg(value: str):
    """A graph argument: either a JSON file path or a generator spec like
    ``path:5`` (optionally prefixed ``gen:``)."""
    m = _GEN_RE.match(value)
    if m:
        return _GENERATORS[m.group(2)](int(m.group(3)))
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return graph_from_json_dict(json.load(fh))
    except FileNotFoundError as e:
        raise CliError(f"graph input not found: {value}") from e
    except (json.JSONDecodeError, ValueError, TypeError) as e:
        raise CliError(f"bad graph JSON in {value}: {e}") from e


def _write_output(chunks, out_path) -> str:
    """Write the primary output piece by piece; returns its sha256 hex
    digest, so the text is never held whole."""
    digest = hashlib.sha256()
    with (open(out_path, "w", encoding="utf-8") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


def _write_manifest(args, seed, output_digest: str, t0: float):
    path = args.manifest
    if path is None:
        if not args.out:
            return
        path = args.out + ".manifest.json"
    manifest = {
        "subcommand": args.subcommand,
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("func",) and v is not None
        },
        "seed": seed,
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
        "output_digest": "sha256:" + output_digest,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _random_seed() -> int:
    seed = random.SystemRandom().randrange(2 ** 32)
    print(f"seed: {seed} (chosen randomly; pass --seed to reproduce)",
          file=sys.stderr)
    return seed


# -- subcommands --------------------------------------------------------------
#
# Each returns (primary output as a list or iterator of text pieces, seed for
# the manifest, exit code); main writes the output and the manifest and maps
# exceptions to exit codes.


def cmd_components(args):
    x = load_graph_arg(args.x)
    y = load_graph_arg(args.y)
    report = build_components(x, y, budget=args.budget, variant=args.variant)
    chunks = itertools.chain(report.json_chunks(include_ids=args.dump_ids), ["\n"])
    return chunks, None, EXIT_OK


def cmd_predict(args):
    x = load_graph_arg(args.x)
    theorem = THEOREMS[args.theorem]
    if args.theorem == "thm16":
        if not args.star:
            raise CliError("thm16 needs --star")
        star = as_multiplicity(load_graph_arg(args.star))
        if isinstance(x, MultiplicityGraph):
            raise CliError("thm16 takes a simple position graph for --x")
        inputs = (x, star)
    else:
        inputs = (as_multiplicity(x),)
    predicted = theorem.predict(*inputs)
    payload = {"theorem": args.theorem, "predicted": predicted}
    code = EXIT_OK
    if args.check:
        oracle = theorem.oracle(*inputs, budget=args.budget)
        payload["oracle"] = oracle
        payload["agree"] = predicted == oracle
        if predicted != oracle:
            print("disagreement between predictor and oracle", file=sys.stderr)
            code = EXIT_DISAGREE
    return [json.dumps(payload, sort_keys=True) + "\n"], None, code


def cmd_verify(args):
    spec = args.family
    if spec not in FAMILY_BUILDERS:
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except FileNotFoundError:
            raise CliError(
                f"family {args.family!r} is neither bundled "
                f"({', '.join(sorted(FAMILY_BUILDERS))}) nor a spec file"
            )
        except json.JSONDecodeError as e:
            raise CliError(f"bad family spec: {e}")
    verdicts = verify_family(spec)
    bad = [v for v in verdicts if v.asserted and not v.agree]
    for i, v in enumerate(bad):
        path = f"{args.out}.counterexample-{i}.json" if args.out \
            else f"counterexample-{i}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(v.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"counterexample written to {path}", file=sys.stderr)
    return [verdicts_to_jsonl(verdicts)], None, EXIT_DISAGREE if bad else EXIT_OK


def cmd_sweep(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError) as e:
        raise CliError(f"bad sweep config: {e}")
    if not isinstance(raw, dict):
        raise CliError("bad sweep config: it must be a JSON object")
    if args.seed is not None:
        raw["base_seed"] = args.seed
    if "base_seed" not in raw:
        raw["base_seed"] = _random_seed()
    try:
        cfg = ExperimentConfig.from_json_dict(raw)
    except ValueError as e:
        raise CliError(f"bad sweep config: {e}")
    return [run_sweep(cfg).to_csv()], cfg.base_seed, EXIT_OK


def cmd_gadget(args):
    if args.asymptotic:
        params = derive_params(args.rho, args.m)
    else:
        params = desk_params(args.rho, args.m)
    pair = build_gadget(params)
    payload = {
        "rho": args.rho,
        "requested": args.m,
        "m": pair.m,
        "cycle_length": pair.cycle_length,
        "g_edges": pair.g.m,
        "h_edges": pair.h.m,
    }
    seed = 0 if args.validate and args.seed is None else args.seed
    code = EXIT_OK
    if args.validate:
        report = validate_gadget(pair, p3_samples=args.p3_samples, seed=seed)
        payload["validation"] = report.to_json_dict()
        if not report.passed:
            print("structural validation failed", file=sys.stderr)
            code = EXIT_DISAGREE
    if args.dump:
        payload["dump"] = pair.to_json_dict()
    return [json.dumps(payload, sort_keys=True) + "\n"], seed, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsglab",
        description="Swap state spaces over graph arrangements: exact "
        "components, structural predictors, and verification harnesses.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out")
    outputs.add_argument("--manifest")

    p = sub.add_parser("components", parents=[outputs],
                       help="exact component report")
    p.add_argument("--x", required=True, help="graph JSON path or generator (path:5)")
    p.add_argument("--y", required=True)
    p.add_argument("--variant", choices=("fs", "fsm", "fsmm"), default="fs")
    p.add_argument("--budget", type=int, default=20_000_000,
                   help="max state count (default 2e7)")
    p.add_argument("--dump-ids", action="store_true",
                   help="include the full arrangement-to-component map")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("predict", parents=[outputs],
                       help="structural connectivity predictors")
    p.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
    p.add_argument("--x", required=True)
    p.add_argument("--star", help="star multiplicity graph (thm16)")
    p.add_argument("--check", action="store_true",
                   help="also run the brute-force oracle and compare")
    p.add_argument("--budget", type=int, default=20_000_000)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", parents=[outputs],
                       help="predictor-vs-oracle family sweeps")
    p.add_argument("family", help="bundled family name or JSON spec path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[outputs],
                       help="Monte Carlo threshold sweeps")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gadget", parents=[outputs],
                       help="build and audit exchange gadgets")
    p.add_argument("--rho", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--m", type=int, required=True,
                   help="scale knob (miniatures) or base size (--asymptotic)")
    p.add_argument("--asymptotic", action="store_true",
                   help="use the asymptotic parameter formulas")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--dump", action="store_true")
    p.add_argument("--p3-samples", type=int, default=200)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gadget)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        chunks, seed, code = args.func(args)
        digest = _write_output(chunks, args.out)
        _write_manifest(args, seed, digest, t0)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except InfeasibleParamsError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PreconditionError as e:
        print(f"precondition violated: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: eval, bayes, antipolar, boundary, verify, normalize, shiftmax,
compose, bregman, substitute, weightfn.  Outputs are deterministic given the
arguments (fixed seeds, deterministic grids): JSON with sorted keys, or CSV
with '.' decimals, 12 significant digits and LF line endings.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .calculus import normalize_canonical, scale_translate, shift_maximum
from .divergence import regret_report, verify_all, weight_function
from .duality import _antipolar_loss_vector, antipolar_bayes_risk, substitute
from .geometry import simplex_grid, vector_to_jsonable
from .specs import SpecError, build_loss, parse_loss_spec

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2


def _parse_vector(text: str) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise SpecError("vector entries must be numbers", text, 0) from None
    if not vals:
        raise SpecError("empty vector", text, 0)
    if not all(math.isfinite(v) for v in vals):
        raise SpecError("vector entries must be finite", text, 0)
    return np.array(vals, dtype=np.float64)


def _fmt12(v: float) -> str:
    if v != v:
        return "nan"
    if v == float("inf"):
        return "inf"
    return f"{v:.12g}"


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        lines = []
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, (list, tuple)):
                flat = ",".join(
                    _fmt12(v) if isinstance(v, float) else str(v) for v in val
                )
                lines.append(f"{key},{flat}")
            elif isinstance(val, float):
                lines.append(f"{key},{_fmt12(val)}")
            else:
                lines.append(f"{key},{val}")
        text = "\n".join(lines) + "\n"
    else:
        # a non-finite number has no JSON form: ValueError, exit code 2
        text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build(args, n: int | None):
    spec = parse_loss_spec(args.loss)
    loss = build_loss(spec, n)
    return spec, loss


def _common(parser: argparse.ArgumentParser, *, resolution: int = 25) -> None:
    parser.add_argument("--loss", required=True, help="loss spec, e.g. log, cnorm:a=-1")
    parser.add_argument("--resolution", type=int, default=resolution)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lossgeom",
        description="evaluate, compose, transform and verify proper losses",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="loss vector and Bayes risk at p")
    _common(p)
    p.add_argument("--p", required=True)

    p = sub.add_parser("bayes", help="Bayes risk at p")
    _common(p)
    p.add_argument("--p", required=True)

    p = sub.add_parser("antipolar", help="antipolar Bayes risk and loss at x")
    _common(p)
    p.add_argument("--x", required=True)
    p.add_argument(
        "--method", choices=("auto", "closed_form", "numeric"), default="auto"
    )

    p = sub.add_parser("boundary", help="two-outcome superprediction boundary")
    _common(p, resolution=101)
    p.set_defaults(format="csv")

    p = sub.add_parser("verify", help="run the verification suite")
    _common(p)

    p = sub.add_parser("normalize", help="canonical normalization")
    _common(p)

    p = sub.add_parser("shiftmax", help="move the Bayes-risk maximizer to p0")
    _common(p, resolution=200)
    p.add_argument("--p0", required=True)

    p = sub.add_parser("compose", help="build a composition, optionally evaluate")
    _common(p)
    p.add_argument("--p", default=None)
    p.add_argument("--alpha", type=float, default=None, help="post-scale")
    p.add_argument("--t", default=None, help="post-translation vector")

    p = sub.add_parser("bregman", help="Bregman divergence / regret between p and q")
    _common(p)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = sub.add_parser("substitute", help="prediction dominated by a superprediction x")
    _common(p)
    p.add_argument("--x", required=True)

    p = sub.add_parser("weightfn", help="binary weight function at p1")
    _common(p)
    p.add_argument("--p", required=True, help="scalar p1 in (0,1)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except SpecError as err:
        sys.stderr.write(f"error: {err}\n")
        return _EXIT_USAGE
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return _EXIT_USAGE


def _dispatch(args) -> int:
    cmd = args.command

    if cmd in ("eval", "bayes"):
        pv = _parse_vector(args.p)
        spec, loss = _build(args, pv.size)
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "p": vector_to_jsonable(pv),
            "bayes_risk": float(loss.rho(pv)),
            "seed": args.seed,
        }
        if cmd == "eval":
            payload["loss_vector"] = vector_to_jsonable(loss.loss(pv))
        _emit(payload, args)
        return _EXIT_OK

    if cmd == "antipolar":
        xv = _parse_vector(args.x)
        spec, loss = _build(args, xv.size)
        res = antipolar_bayes_risk(loss, xv, method=args.method)
        apolar_loss = _antipolar_loss_vector(loss, xv, res)
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "x": vector_to_jsonable(xv),
            "value": res.value,
            "minimizer": vector_to_jsonable(res.minimizer),
            "method": res.method,
            "certified_gap": res.certified_gap,
            "antipolar_loss_vector": vector_to_jsonable(apolar_loss),
            "seed": args.seed,
        }
        _emit(payload, args)
        return _EXIT_OK

    if cmd == "boundary":
        spec, loss = _build(args, 2)
        if loss.n != 2:
            raise ValueError("boundary output is only defined for two outcomes")
        grid = simplex_grid(2, args.resolution)
        rows = ["t,l1,l2"]
        json_rows = []
        for point in grid.points:
            l = loss.loss(point)
            rows.append(f"{_fmt12(point[0])},{_fmt12(l[0])},{_fmt12(l[1])}")
            json_rows.append([point[0], float(l[0]), float(l[1])])
        if args.format == "json":
            _emit(
                {
                    "command": cmd,
                    "loss": spec.resolved(2),
                    "columns": ["t", "l1", "l2"],
                    "rows": json_rows,
                    "seed": args.seed,
                },
                args,
            )
        else:
            text = "\n".join(rows) + "\n"
            if args.out:
                with open(args.out, "w", newline="\n") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return _EXIT_OK

    if cmd == "verify":
        spec, loss = _build(args, None)
        grid = simplex_grid(loss.n, args.resolution)
        report = verify_all(loss, grid, tol=args.tol, seed=args.seed)
        payload = report.to_jsonable()
        payload["loss"] = spec.resolved(loss.n)
        payload["resolution"] = args.resolution
        _emit(payload, args)
        return _EXIT_OK if report.passed else _EXIT_VERIFY

    if cmd == "normalize":
        spec, loss = _build(args, None)
        normalized, coefficient, p_star = normalize_canonical(loss)
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "coefficient": coefficient,
            "maximizer": vector_to_jsonable(p_star),
            "normalized_max": float(normalized.rho(p_star)),
            "seed": args.seed,
        }
        _emit(payload, args)
        return _EXIT_OK

    if cmd == "shiftmax":
        p0 = _parse_vector(args.p0)
        spec, loss = _build(args, p0.size)
        shifted = shift_maximum(loss, p0)
        grid = simplex_grid(loss.n, args.resolution)
        rho_vals = np.asarray(shifted.bayes_risk(grid.points))
        argmax = grid.points[int(np.argmax(rho_vals))]
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "p0": vector_to_jsonable(p0),
            "loss_at_p0": vector_to_jsonable(shifted.loss(p0)),
            "grid_argmax": vector_to_jsonable(argmax),
            "resolution": args.resolution,
            "seed": args.seed,
        }
        _emit(payload, args)
        return _EXIT_OK

    if cmd == "compose":
        pv = _parse_vector(args.p) if args.p else None
        spec, loss = _build(args, pv.size if pv is not None else None)
        if args.alpha is not None or args.t is not None:
            alpha = args.alpha if args.alpha is not None else 1.0
            tv = _parse_vector(args.t) if args.t else None
            loss = scale_translate(loss, alpha, tv)
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "name": loss.name,
            "n": loss.n,
            "seed": args.seed,
        }
        if pv is not None:
            payload["p"] = vector_to_jsonable(pv)
            payload["loss_vector"] = vector_to_jsonable(loss.loss(pv))
            payload["bayes_risk"] = float(loss.rho(pv))
        _emit(payload, args)
        return _EXIT_OK

    if cmd == "bregman":
        pv = _parse_vector(args.p)
        qv = _parse_vector(args.q)
        spec, loss = _build(args, pv.size)
        rep = regret_report(loss, pv, qv)
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "p": vector_to_jsonable(pv),
            "q": vector_to_jsonable(qv),
            "bregman": rep.bregman,
            "regret": rep.regret,
            "discrepancy": rep.discrepancy,
            "seed": args.seed,
        }
        _emit(payload, args)
        return _EXIT_OK

    if cmd == "substitute":
        xv = _parse_vector(args.x)
        spec, loss = _build(args, xv.size)
        p = substitute(loss, xv, tol=args.tol if args.tol is not None else 1e-6)
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "x": vector_to_jsonable(xv),
            "p": vector_to_jsonable(p),
            "loss_at_p": vector_to_jsonable(loss.loss(p)),
            "seed": args.seed,
        }
        _emit(payload, args)
        return _EXIT_OK

    if cmd == "weightfn":
        t = float(args.p)
        spec, loss = _build(args, 2)
        payload = {
            "command": cmd,
            "loss": spec.resolved(loss.n),
            "p1": t,
            "weight": weight_function(loss, t),
            "seed": args.seed,
        }
        _emit(payload, args)
        return _EXIT_OK

    raise AssertionError(f"unhandled command {cmd}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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
from collections.abc import Callable
from dataclasses import dataclass

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


def _csv_cell(v) -> str:
    """A float to 12 significant digits, anything else as its text."""
    if not isinstance(v, float):
        return str(v)
    if v != v:
        return "nan"
    if v == float("inf"):
        return "inf"
    return f"{v:.12g}"


_CHECK_COLUMNS = ["check_name", "pass", "worst_violation", "tol"]


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        # a non-finite number has no JSON form: ValueError, exit code 2
        text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    else:
        # a table (boundary's) is written as its header and rows, any other
        # payload as one line per key; verify's checks follow those lines as
        # a table of their own, one row per check
        if "rows" in payload:
            rows = [payload["columns"], *payload["rows"]]
        else:
            rows = [
                [key, *(v if isinstance(v, (list, tuple)) else [v])]
                for key, v in sorted(payload.items())
                if key != "checks"
            ]
            if "checks" in payload:
                rows.append(_CHECK_COLUMNS)
                rows += ([c[k] for k in _CHECK_COLUMNS] for c in payload["checks"])
        text = "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands: each reads its arguments, calling load(n) for the loss at
# dimension n once its vectors are read, and returns its own payload keys
# ---------------------------------------------------------------------------
def _evaluate(args, load) -> dict:
    pv = _parse_vector(args.p)
    loss = load(pv.size)
    payload = {"p": vector_to_jsonable(pv), "bayes_risk": float(loss.rho(pv))}
    if args.command == "eval":
        payload["loss_vector"] = vector_to_jsonable(loss.loss(pv))
    return payload


def _antipolar(args, load) -> dict:
    xv = _parse_vector(args.x)
    loss = load(xv.size)
    res = antipolar_bayes_risk(loss, xv, method=args.method)
    apolar_loss = _antipolar_loss_vector(loss, xv, res)
    return {
        "x": vector_to_jsonable(xv),
        "value": res.value,
        "minimizer": vector_to_jsonable(res.minimizer),
        "method": res.method,
        "certified_gap": res.certified_gap,
        "antipolar_loss_vector": vector_to_jsonable(apolar_loss),
    }


def _boundary(args, load) -> dict:
    loss = load(2)
    if loss.n != 2:
        raise ValueError("boundary output is only defined for two outcomes")
    rows = []
    for point in simplex_grid(2, args.resolution).points:
        l = loss.loss(point)
        rows.append([point[0], float(l[0]), float(l[1])])
    return {"columns": ["t", "l1", "l2"], "rows": rows}


def _verify(args, load) -> dict:
    loss = load(None)
    grid = simplex_grid(loss.n, args.resolution)
    report = verify_all(loss, grid, tol=args.tol, seed=args.seed)
    return {**report.to_jsonable(), "resolution": args.resolution}


def _normalize(args, load) -> dict:
    normalized, coefficient, p_star = normalize_canonical(load(None))
    return {
        "coefficient": coefficient,
        "maximizer": vector_to_jsonable(p_star),
        "normalized_max": float(normalized.rho(p_star)),
    }


def _shiftmax(args, load) -> dict:
    p0 = _parse_vector(args.p0)
    shifted = shift_maximum(load(p0.size), p0)
    grid = simplex_grid(shifted.n, args.resolution)
    rho_vals = np.asarray(shifted.bayes_risk(grid.points))
    argmax = grid.points[int(np.argmax(rho_vals))]
    return {
        "p0": vector_to_jsonable(p0),
        "loss_at_p0": vector_to_jsonable(shifted.loss(p0)),
        "grid_argmax": vector_to_jsonable(argmax),
        "resolution": args.resolution,
    }


def _compose(args, load) -> dict:
    pv = _parse_vector(args.p) if args.p else None
    loss = load(pv.size if pv is not None else None)
    if args.alpha is not None or args.t is not None:
        alpha = args.alpha if args.alpha is not None else 1.0
        tv = _parse_vector(args.t) if args.t else None
        loss = scale_translate(loss, alpha, tv)
    payload = {"name": loss.name, "n": loss.n}
    if pv is not None:
        payload["p"] = vector_to_jsonable(pv)
        payload["loss_vector"] = vector_to_jsonable(loss.loss(pv))
        payload["bayes_risk"] = float(loss.rho(pv))
    return payload


def _bregman(args, load) -> dict:
    pv = _parse_vector(args.p)
    qv = _parse_vector(args.q)
    rep = regret_report(load(pv.size), pv, qv)
    return {
        "p": vector_to_jsonable(pv),
        "q": vector_to_jsonable(qv),
        "bregman": rep.bregman,
        "regret": rep.regret,
        "discrepancy": rep.discrepancy,
    }


def _substitute(args, load) -> dict:
    xv = _parse_vector(args.x)
    loss = load(xv.size)
    p = substitute(loss, xv, tol=args.tol if args.tol is not None else 1e-6)
    return {
        "x": vector_to_jsonable(xv),
        "p": vector_to_jsonable(p),
        "loss_at_p": vector_to_jsonable(loss.loss(p)),
    }


def _weightfn(args, load) -> dict:
    t = float(args.p)
    return {"p1": t, "weight": weight_function(load(2), t)}


@dataclass(frozen=True)
class _Command:
    run: Callable[..., dict]  # run(args, load) -> the command's own payload keys
    help: str
    options: tuple = ()  # (flag, add_argument keywords) pairs
    resolution: int = 25
    format: str = "json"


# each subcommand once; main builds the parser from this table
_P = ("--p", {"required": True})
_X = ("--x", {"required": True})
_COMMANDS = {
    "eval": _Command(_evaluate, "loss vector and Bayes risk at p", (_P,)),
    "bayes": _Command(_evaluate, "Bayes risk at p", (_P,)),
    "antipolar": _Command(_antipolar, "antipolar Bayes risk and loss at x", (
        _X,
        ("--method", {"choices": ("auto", "closed_form", "numeric"), "default": "auto"}),
    )),
    "boundary": _Command(
        _boundary, "two-outcome superprediction boundary", resolution=101, format="csv"
    ),
    "verify": _Command(_verify, "run the verification suite"),
    "normalize": _Command(_normalize, "canonical normalization"),
    "shiftmax": _Command(
        _shiftmax, "move the Bayes-risk maximizer to p0", (("--p0", {"required": True}),),
        resolution=200,
    ),
    "compose": _Command(_compose, "build a composition, optionally evaluate", (
        ("--p", {"default": None}),
        ("--alpha", {"type": float, "default": None, "help": "post-scale"}),
        ("--t", {"default": None, "help": "post-translation vector"}),
    )),
    "bregman": _Command(_bregman, "Bregman divergence / regret between p and q", (
        _P, ("--q", {"required": True}),
    )),
    "substitute": _Command(
        _substitute, "prediction dominated by a superprediction x", (_X,)
    ),
    "weightfn": _Command(_weightfn, "binary weight function at p1", (
        ("--p", {"required": True, "help": "scalar p1 in (0,1)"}),
    )),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lossgeom",
        description="evaluate, compose, transform and verify proper losses",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--loss", required=True, help="loss spec, e.g. log, cnorm:a=-1")
        p.add_argument("--resolution", type=int, default=command.resolution)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "csv"), default=command.format)
        p.add_argument("--out", default=None)
        for flag, options in command.options:
            p.add_argument(flag, **options)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as err:  # SpecError included
        sys.stderr.write(f"error: {err}\n")
        return _EXIT_USAGE


def _dispatch(args) -> int:
    """Run one command, then stamp its payload with the loss spec and emit."""
    if args.tol is not None and not math.isfinite(args.tol):
        # negative tolerances stay allowed: they force a failing report
        raise ValueError(f"--tol must be a finite number, got {args.tol!r}")
    resolved = None

    def load(n):
        nonlocal resolved
        spec = parse_loss_spec(args.loss)
        loss = build_loss(spec, n)
        resolved = spec.resolved(loss.n)
        return loss

    payload = _COMMANDS[args.command].run(args, load)
    payload["loss"] = resolved
    if "pass" not in payload:  # only verify's report has a pass flag
        payload.update(command=args.command, seed=args.seed)
    _emit(payload, args)
    return _EXIT_OK if payload.get("pass", True) else _EXIT_VERIFY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

#!/usr/bin/env python3
"""The lossgeom benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source tree; the package is imported from
``src/`` and is not installed.  Each run starts the workload in fresh
processes (``workloads.py``) and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics: ``setup_s`` is the median over
five fresh processes of the time from process start to the first timed
operation; ``ops_per_s``, ``latency_p50_ms`` and ``peak_rss_mb`` come from
the last of them, which goes on to run whole rounds of operations for
``--seconds`` of operation time.  ``--trace 1`` gives the per-layer metrics
of one traced round (see ``tracer.py`` and README.md).  Raw results go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, child_env  # noqa: E402  (stdlib only)

SETUPS = 5
TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "peak_rss_mb": "MB"}

# per-layer metric name -> (key in the traced child's result, unit); the
# _kernels module's metrics drop its underscore, as names start alphanumeric
PER_LAYER = {
    "kernels.calls": ("_kernels.calls", "count"),
    "kernels.self_ms": ("_kernels.self_ms", "ms"),
    "kernels.pair_ops": ("_kernels.pair_ops", "count"),
    "kernels.temp_mb": ("_kernels.temp_mb", "MB"),
    "families.rho.calls": ("families.rho.calls", "count"),
    "families.rho.rows": ("families.rho.rows", "count"),
    "families.rho.self_ms": ("families.rho.self_ms", "ms"),
    "families.rho.duality_calls": ("families.rho.duality_calls", "count"),
    "families.rho.calculus_calls": ("families.rho.calculus_calls", "count"),
    "families.loss.calls": ("families.loss.calls", "count"),
    "families.loss.rows": ("families.loss.rows", "count"),
    "families.loss.self_ms": ("families.loss.self_ms", "ms"),
    "families.loss.duality_calls": ("families.loss.duality_calls", "count"),
    "families.loss.calculus_calls": ("families.loss.calculus_calls", "count"),
    "duality.antipolar.calls": ("duality.antipolar.calls", "count"),
    "duality.antipolar.numeric": ("duality.antipolar.numeric", "count"),
    "duality.antipolar.gap_nonzero": ("duality.antipolar.gap_nonzero", "count"),
    "duality.solve.calls": ("duality.minimize_ratio.calls", "count"),
    "duality.self_ms": ("duality.self_ms", "ms"),
    "calculus.dual.rho_calls": ("calculus.dual.rho.calls", "count"),
    "calculus.dual.loss_calls": ("calculus.dual.loss.calls", "count"),
    "calculus.self_ms": ("calculus.self_ms", "ms"),
    "divergence.verify_all.calls": ("divergence.verify_all.calls", "count"),
    "divergence.self_ms": ("divergence.self_ms", "ms"),
    "specs.parse_ms": ("specs.parse_ms", "ms"),
    "cli.import_ms": ("cli.import_ms", "ms"),
    "cli.main_ms": ("cli.main_ms", "ms"),
    "cli.process_ms": ("cli.process_ms", "ms"),
    "trace.overhead_pct": ("trace.overhead_pct", "%"),
}


def child(args, mode: str, importtime: bool = False) -> tuple[dict, str]:
    """Run workloads.py in a fresh process; return its result and stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "workloads.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_self_ms(stderr: str) -> dict:
    """Self time of each lossgeom module's import, from -X importtime lines
    ('import time: self_us | cumulative_us | module')."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if len(fields) == 3 and fields[2].startswith("lossgeom."):
            out[fields[2].split(".", 1)[1]] = int(fields[0]) / 1e3
    return out


def passthrough(stderr: str) -> None:
    lines = [l for l in stderr.splitlines() if not l.startswith("import time:")]
    if lines:
        sys.stderr.write("\n".join(lines) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "lossgeom" / "__init__.py").is_file():
        sys.stderr.write(f"no lossgeom source tree under {ROOT / 'src'}\n")
        return 2
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2

    if args.trace:
        res, err = child(args, "trace", importtime=True)
        passthrough(err)
        layers = dict(res["layers"])
        layers.update(res["extra"])
        # a layer's self time counts its module's import as well, the one
        # piece of its own code every workload runs
        for module, ms in import_self_ms(err).items():
            key = f"{module}.self_ms"
            if module in ("_kernels", "duality", "calculus", "divergence"):
                layers[key] = layers.get(key, 0.0) + ms
        metrics = {name: {"value": layers.get(key, 0), "unit": unit}
                   for name, (key, unit) in PER_LAYER.items()}
        raw = {"layers": layers}
    else:
        setups = []
        for _ in range(SETUPS - 1):
            r, err = child(args, "setup")
            passthrough(err)
            setups.append(r["setup_s"])
        res, err = child(args, "measure")
        passthrough(err)
        setups.append(res["setup_s"])
        values = dict(res, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        raw = dict(res, setup_samples_s=setups)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = "trace" if args.trace else "run"
    with open(out_dir / f"{tag}-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(raw, fh)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

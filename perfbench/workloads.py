"""One benchmark workload, run in a process of its own.

    python perfbench/workloads.py --workload W --seed N --seconds S \
        --mode measure|setup|trace --t0 <time.monotonic() at spawn>

``run.py`` starts this script; it is not meant to be started by hand.
The mode decides what it prints as its last line of standard output:

* ``setup``: ``{"setup_s": ...}`` after set-up, then exits;
* ``measure``: the end-to-end figures of a closed loop with one caller that
  runs whole rounds of operations until ``--seconds`` of operation time are
  spent; every output is checked after the loop, so the oracles cost neither
  time nor memory inside it;
* ``trace``: the per-layer figures of one round run with the tracer of
  ``tracer.py`` installed, next to the same round untraced.

Every input is generated from ``--seed``; the program only sees the
generated inputs.  Apart from ``tracer.py`` and ``oracles.py`` this file
reaches the program only through ``lossgeom``'s public names, looked up at
call time so that the tracer's wrappers are used exactly while installed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
CLI = [sys.executable, "-m", "lossgeom.cli"]

def kronecker(i: int, dims: int) -> list[float]:
    """Point i of the additive recurrence R_d, whose first few points already
    spread evenly over [0, 1)^d (Roberts, "The unreasonable effectiveness of
    quasirandom sequences", 2018)."""
    g = 2.0
    for _ in range(40):  # g solves g^(d+1) = g + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    return [(0.5 + i * g ** -(j + 1)) % 1.0 for j in range(dims)]


def simplex_point(u1: float, u2: float):
    """A uniform point of the 3-simplex from two uniforms."""
    r = math.sqrt(u1)
    return [1.0 - r, r * (1.0 - u2), r * u2]


class Op:
    """One operation: what the program is asked and, once run, its answer."""

    __slots__ = ("kind", "args", "known_fault", "output", "error", "seconds")

    def __init__(self, kind, args, known_fault=False):
        self.kind = kind
        self.args = args
        self.known_fault = known_fault
        self.output = None
        self.error = None
        self.seconds = 0.0


# ---------------------------------------------------------------------------
# antipolar_n3: L2 (duality), the numeric antipolar solver at n = 3
# ---------------------------------------------------------------------------
class AntipolarN3:
    """Substitutions for brier and normloss:alpha=2 at x = l(p) + U(0, 0.5)^3,
    and one fixed antipolar query of zeroone on its tie ridge.

    The solver's cost is heavy-tailed: over random queries its standard
    deviation is about the mean, and one query in ten costs three to four
    times the median.  At the few dozen queries a run can afford,
    independent queries per seed gave ``ops_per_s`` an interquartile spread
    of 23% over five seeds.  So the (p, u) of a round are a fixed, evenly
    spread set, and the seed relabels the outcomes of every query: brier
    and normloss are symmetric, and the solver's work on a relabelled query
    stays within 0.5% of the original.

    Random zeroone queries are left out: the solver misses the lattice
    minimum on some of them and not on others, so their failures would
    depend on the seed.  The fixed query fails on every run.
    """

    SPECS = {"brier": "brier:n=3", "normloss2": "normloss:alpha=2,n=3",
             "zeroone": "zeroone:n=3"}
    PER_ROUND = 6  # substitutions per family and round
    RIDGE_X = (1.445137176002396, 0.11357879676668986, 1.3115935723430212)
    LATTICE = 600
    TOL = 1e-6

    def __init__(self, seed: int):
        self.seed = seed
        self._oracle_cache = None

    def setup(self):
        import lossgeom as lg
        import numpy as np

        self.lg, self.np = lg, np
        self.loss = {fam: lg.build_loss(lg.parse_loss_spec(spec))
                     for fam, spec in self.SPECS.items()}
        bary = np.full(3, 1.0 / 3.0)
        for loss in self.loss.values():
            loss.rho(bary), loss.loss(bary)

    def round(self, r: int) -> list[Op]:
        import oracles as O

        ops = []
        for f, fam in enumerate(("brier", "normloss2")):
            for k in range(self.PER_ROUND):
                u = kronecker(f * self.PER_ROUND + k + 1, 5)
                p = self.np.array(simplex_point(u[0], u[1]))
                x = O.FAMILIES[fam][1](p) + 0.5 * self.np.array(u[2:])
                perm = random.Random(f"{self.seed}:{r}:{fam}:{k}").sample(range(3), 3)
                ops.append(Op("substitute", (fam, x[perm])))
        ops.append(Op("antipolar", ("zeroone", self.np.array(self.RIDGE_X)),
                      known_fault=True))
        return ops

    def run(self, op: Op):
        fam, x = op.args
        if op.kind == "substitute":
            return self.lg.substitute(self.loss[fam], x)
        return self.lg.antipolar_bayes_risk(self.loss[fam], x).value

    def check(self, op: Op) -> str | None:
        import oracles as O

        np = self.np
        if self._oracle_cache is None:
            self._oracle_cache = O.lattice(3, self.LATTICE)
        Q = self._oracle_cache
        fam, x = op.args
        risk, loss_map = O.FAMILIES[fam]
        best = O.antipolar_lattice_min(risk, x, Q)
        if op.kind == "substitute":
            p = np.asarray(op.output, dtype=np.float64)
            value = float(x @ p / risk(p))
            excess = float(np.max(loss_map(p) - x))
            if not excess <= self.TOL:
                return f"l(p) exceeds x by {excess:.3e}"
        else:
            value = float(op.output)
        if not value <= best * (1.0 + self.TOL):
            return f"antipolar {value:.9g} above lattice minimum {best:.9g}"
        return None

    def cli_probe(self) -> list[str]:
        x = self.round(0)[0].args[1]
        return ["substitute", "--loss", self.SPECS["brier"],
                "--x=" + ",".join(repr(float(v)) for v in x)]


# ---------------------------------------------------------------------------
# compose_dual: L3 (calculus), the dual M-sum maximiser and its loss map
# ---------------------------------------------------------------------------
class ComposeDual:
    """rho(p) then loss(p) at one two-outcome point, as ``lossgeom compose
    --p`` does, for a smooth (harmonic) and a kinked (minimum) combiner.

    A round is the harmonic combiner at five directions (t, 1 - t) spread
    over [0.01, 0.99], then the minimum combiner at (0.01, 0.99).  The
    maximiser's work jumps between about 2k and 7k Bayes-risk evaluations
    when t moves by 1e-3; seeded directions gave ``ops_per_s`` an
    interquartile spread of 13% over five seeds.  The directions are
    therefore fixed, and the seed draws the scale c in [0.8, 1.25] of each
    point c (t, 1 - t): the Bayes risk is 1-homogeneous, and the work
    changes by a few percent.

    The minimum combiner under-maximises at (0.01, 0.99) and, by up to a few
    1e-4, on scattered stretches of the rest of the interval, so seeded
    points of it would fail on some seeds and not on others; it runs only
    at the fixed point, which fails on every run.
    """

    SPECS = {
        "harmonic": "msum:combiner=cnorm:a=0.5;parts=log,brier;mode=dual",
        "min": "msum:combiner=cnorm:a=1;parts=log,brier;mode=dual",
    }
    DIRECTIONS = (0.01, 0.255, 0.5, 0.745, 0.99)
    FIXED = (0.01, 0.99)
    RTOL = 1e-4

    def __init__(self, seed: int):
        self.seed = seed
        self._brute = {}

    def setup(self):
        import lossgeom as lg
        import numpy as np

        self.lg, self.np = lg, np
        self.loss = {c: lg.build_loss(lg.parse_loss_spec(spec), 2)
                     for c, spec in self.SPECS.items()}
        for loss in self.loss.values():
            loss.rho(np.array([0.5, 0.5]))

    def round(self, r: int) -> list[Op]:
        np = self.np
        ops = []
        for k, t in enumerate(self.DIRECTIONS):
            c = 1.25 ** random.Random(f"{self.seed}:{r}:{k}").uniform(-1.0, 1.0)
            ops.append(Op("point", ("harmonic", c * np.array([t, 1.0 - t]))))
        ops.append(Op("point", ("min", np.array(self.FIXED)), known_fault=True))
        return ops

    def run(self, op: Op):
        c, p = op.args
        loss = self.loss[c]
        return float(loss.rho(p)), loss.loss(p)

    def check(self, op: Op) -> str | None:
        import oracles as O

        c, p = op.args
        rho, lp = op.output
        key = (c, tuple(p))
        if key not in self._brute:  # the fixed points recur every round
            comb = O.combiner_harmonic if c == "harmonic" else O.combiner_min
            self._brute[key] = O.dual_msum_brute(comb, O.risk_log, O.risk_brier, p)
        best = self._brute[key]
        if not rho >= best * (1.0 - self.RTOL):
            return f"rho {rho:.9g} below brute force {best:.9g}"
        pairing = float(self.np.dot(lp, p))
        if not abs(pairing - rho) <= 1e-12 + 1e-9 * abs(rho):
            return f"<l(p);p> = {pairing:.12g} != rho {rho:.12g}"
        return None

    def cli_probe(self) -> list[str]:
        p = self.round(0)[1].args[1]
        return ["compose", "--loss", self.SPECS["harmonic"],
                "--p=" + ",".join(repr(float(v)) for v in p)]


# ---------------------------------------------------------------------------
# verify_closed: L0 (_kernels), L4 (divergence), closed-form L2
# ---------------------------------------------------------------------------
class VerifyClosed:
    """``verify_all`` on closed-form families at n = 4 on a 3276-point grid.

    zeroone and normloss are left out: their reverse-Hoelder check enters the
    numeric antipolar solver, at about 5 s per report, and would turn this
    into a second solver workload.

    The zero-homogeneity check of ``verify_all`` compares loss vectors with
    an absolute tolerance of 1e-12.  For cnorm with a in (-0.31, 0) the loss
    reaches 1e3 to 5e3 on this grid, rounding alone exceeds the tolerance
    and the report fails for a correct loss.  So the seeded a < 0 is drawn
    from [-4, -0.5], where the error stays below 1e-13, and the fixed
    ``cnorm:a=-0.25`` carries the fault on every run.
    """

    N = 4
    RESOLUTION = 25  # C(28, 3) = 3276 grid points
    STRIDE = 7  # oracle subsample: every 7th grid point, as p and as q
    FAULT = "cnorm_steep"

    def __init__(self, seed: int):
        rng = random.Random(seed)

        def num(v):
            return float(f"{v:.6g}")

        neg = num(-(0.5 + 3.5 * rng.random()))
        pos = num(0.2 + 0.6 * rng.random())
        cds = [[num(0.5 + 3.5 * rng.random()) for _ in range(self.N)] for _ in range(2)]
        # name -> (spec, oracle loss map, its parameter); cnorm runs on both
        # sides of a = 0, where the power mean takes different branches
        self.families = {
            "log": ("log:n=4", "loss_log", None),
            "cnorm_neg": (f"cnorm:a={neg!r},n=4", "loss_cnorm", neg),
            "cnorm_pos": (f"cnorm:a={pos!r},n=4", "loss_cnorm", pos),
            "cd_1": ("cd:a=" + ",".join(map(repr, cds[0])), "loss_cd", cds[0]),
            "cd_2": ("cd:a=" + ",".join(map(repr, cds[1])), "loss_cd", cds[1]),
            self.FAULT: ("cnorm:a=-0.25,n=4", "loss_cnorm", -0.25),
        }

    def setup(self):
        import lossgeom as lg
        import numpy as np

        self.lg, self.np = lg, np
        self.grid = lg.simplex_grid(self.N, self.RESOLUTION)
        self.loss = {name: lg.build_loss(lg.parse_loss_spec(spec))
                     for name, (spec, _, _) in self.families.items()}
        bary = np.full(self.N, 1.0 / self.N)
        for loss in self.loss.values():
            loss.rho(bary), loss.loss(bary)

    def round(self, r: int) -> list[Op]:
        return [Op("verify", (name, r), known_fault=name == self.FAULT)
                for name in self.families]

    def run(self, op: Op):
        name, r = op.args
        return self.lg.verify_all(self.loss[name], self.grid, seed=r).to_jsonable()

    def check(self, op: Op) -> str | None:
        import oracles as O

        np = self.np
        name, _ = op.args
        _, fn, param = self.families[name]
        loss_map = getattr(O, fn)
        if param is not None:
            loss_map = functools.partial(loss_map, param)
        report = op.output
        if not report["pass"]:
            bad = [c["check_name"] for c in report["checks"] if c["pass"] is False]
            return f"report fails {bad}"
        prop = next(c for c in report["checks"] if c["check_name"] == "properness")
        p = np.array(prop["witness"]["p"])
        q = np.array(prop["witness"]["q"])
        lp, lq = loss_map(p), loss_map(q)
        witness = float(np.dot(lq, q) - np.dot(lp, q))
        worst = prop["worst_violation"]
        # rounding in a pairing grows with the size of the loss entries
        tol = 1e-12 * max(1.0, float(np.max(np.abs(lp))), float(np.max(np.abs(lq))))
        if not abs(witness - worst) <= tol:
            return f"witness violation {witness:.3e} != reported {worst:.3e}"
        eps = 1.0 / (10.0 * self.RESOLUTION)
        P = (1.0 - self.N * eps) * O.lattice(self.N, self.RESOLUTION) + eps
        S = P[:: self.STRIDE]
        LS = loss_map(S)
        sub = O.properness_violation(S, LS)
        if not worst >= sub - 1e-12 * max(1.0, float(np.max(np.abs(LS)))):
            return f"reported worst {worst:.3e} below subsample worst {sub:.3e}"
        return None

    def cli_probe(self) -> list[str]:
        return ["verify", "--loss", self.families["log"][0],
                "--resolution", str(self.RESOLUTION)]


# ---------------------------------------------------------------------------
# cli_light: L5 (cli, specs), one short-lived process per operation
# ---------------------------------------------------------------------------
def _vec(values) -> str:
    return ",".join(repr(v) for v in values)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


class CliLight:
    """Cheap ``lossgeom`` commands, one process each; the same six commands
    in every round, so that repeated arguments can be compared byte for
    byte.  ``verify`` runs at its default resolution 25 (351 points)."""

    def __init__(self, seed: int):
        rng = random.Random(seed)

        def simplex(n):
            w = [rng.random() + 0.05 for _ in range(n)]
            return [round(v / sum(w), 6) for v in w]

        t = round(0.05 + 0.9 * rng.random(), 6)
        self.eval_p = [t, round(1.0 - t, 6)]
        self.bayes_a = round(-(0.25 + 3.0 * rng.random()), 6)
        self.bayes_p = simplex(3)
        self.breg_p, self.breg_q = simplex(3), simplex(3)
        self.norm_a = round(0.2 + 0.6 * rng.random(), 6)
        t = round(0.05 + 0.9 * rng.random(), 6)
        self.compose_p = [t, round(1.0 - t, 6)]
        self.commands = [
            ["eval", "--loss", "log", "--p=" + _vec(self.eval_p)],
            ["bayes", "--loss", f"cnorm:a={self.bayes_a!r}", "--p=" + _vec(self.bayes_p)],
            ["bregman", "--loss", "brier", "--p=" + _vec(self.breg_p),
             "--q=" + _vec(self.breg_q)],
            ["normalize", "--loss", f"cnorm:a={self.norm_a!r},n=3"],
            ["compose", "--loss", "msum:combiner=cnorm:a=0.5;parts=log,brier",
             "--p=" + _vec(self.compose_p)],
            ["verify", "--loss", "log:n=3"],
        ]
        self.first_bytes: dict[int, bytes] = {}

    def setup(self):
        self.env = child_env()
        subprocess.run(CLI + ["--version"], env=self.env, cwd=ROOT,
                       capture_output=True, check=True, timeout=60)

    def round(self, r: int) -> list[Op]:
        return [Op("cli", (i, cmd)) for i, cmd in enumerate(self.commands)]

    def run(self, op: Op):
        proc = subprocess.run(CLI + op.args[1], env=self.env, cwd=ROOT,
                              capture_output=True, timeout=60)
        return proc.returncode, proc.stdout

    def run_inprocess(self, op: Op):
        import lossgeom.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lossgeom.cli.main(list(op.args[1]))
        return code, buf.getvalue().encode()

    def check(self, op: Op) -> str | None:
        import numpy as np
        import oracles as O

        i, cmd = op.args
        code, raw = op.output
        if code != 0:
            return f"exit code {code}"
        if self.first_bytes.setdefault(i, raw) != raw:
            return "output bytes differ from an earlier run of the same command"
        out = _strict_json(raw.decode())
        name = cmd[0]
        if name == "eval":
            p = np.array(self.eval_p)
            want = {"bayes_risk": O.risk_log(p), "loss_vector": O.loss_log(p)}
        elif name == "bayes":
            want = {"bayes_risk": O.risk_cnorm(self.bayes_a, np.array(self.bayes_p))}
        elif name == "bregman":
            p, q = np.array(self.breg_p), np.array(self.breg_q)
            b = float(np.dot(O.loss_brier(q) - O.loss_brier(p), p))
            want = {"bregman": b, "regret": b}
        elif name == "normalize":
            want = {"coefficient": 3.0 ** (1.0 / self.norm_a), "normalized_max": 1.0,
                    "maximizer": np.full(3, 1.0 / 3.0)}
        elif name == "compose":
            p = np.array(self.compose_p)
            r1, r2 = O.risk_log(p), O.risk_brier(p)
            h = O.combiner_harmonic(r1, r2)
            want = {"bayes_risk": h,
                    "loss_vector": (h / r1) ** 2 * O.loss_log(p)
                    + (h / r2) ** 2 * O.loss_brier(p)}
        else:
            if not out["pass"]:
                return "verify report fails"
            prop = next(c for c in out["checks"] if c["check_name"] == "properness")
            p, q = np.array(prop["witness"]["p"]), np.array(prop["witness"]["q"])
            want = {}
            got = float(np.dot(O.loss_log(q), q) - np.dot(O.loss_log(p), q))
            if not abs(got - prop["worst_violation"]) <= 1e-12:
                return f"properness witness {got:.3e} != {prop['worst_violation']:.3e}"
        for key, value in want.items():
            have = np.asarray(out[key], dtype=np.float64)
            if not np.allclose(have, value, rtol=1e-12, atol=1e-14):
                return f"{key} = {out[key]} != {np.asarray(value).tolist()}"
        return None


WORKLOADS = {
    "antipolar_n3": AntipolarN3,
    "verify_closed": VerifyClosed,
    "compose_dual": ComposeDual,
    "cli_light": CliLight,
}


def child_env() -> dict:
    """The environment of every process that runs the program: the source
    tree on the path (the package is not installed) and one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------
def run_op(w, op: Op, runner=None) -> None:
    runner = runner or w.run
    t0 = time.perf_counter()
    try:
        op.output = runner(op)
    except Exception as err:  # a raising operation is a failed one
        op.error = f"{type(err).__name__}: {err}"
    op.seconds = time.perf_counter() - t0


def check_all(w, ops: list[Op]) -> dict:
    """Check every output; failures of the known-fault operations keep the
    run correct, any other failure makes it incorrect."""
    failures = []
    for op in ops:
        reason = op.error
        if reason is None:
            try:
                reason = w.check(op)
            except Exception as err:  # an output the check cannot read
                reason = f"unreadable output ({type(err).__name__}: {err})"
        if reason is not None:
            failures.append((op, reason))
    seen: dict[str, int] = {}
    for op, reason in failures:
        tag = "known fault" if op.known_fault else "UNEXPECTED"
        args = json.dumps(op.args, default=lambda a: a.tolist())
        line = f"{tag}: {op.kind} {args}: {reason}"
        seen[line] = seen.get(line, 0) + 1
    for line, count in seen.items():
        print(f"{line} (x{count})", file=sys.stderr)
    return {
        "correct": all(op.known_fault for op, _ in failures),
        "attempted": len(ops),
        "failed": len(failures),
    }


def measure(w, seconds: float, t_spawn: float) -> dict:
    ops: list[Op] = []
    rates = []  # operations per second of each round
    busy = 0.0
    setup_s = None
    while not rates or busy < seconds:
        batch = w.round(len(rates))
        for op in batch:
            if setup_s is None:
                setup_s = time.monotonic() - t_spawn
            run_op(w, op)
        spent = sum(op.seconds for op in batch)
        busy += spent
        rates.append(len(batch) / spent)
        ops.extend(batch)
    usage = resource.RUSAGE_CHILDREN if isinstance(w, CliLight) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    result = check_all(w, ops)
    latencies = [op.seconds for op in ops]
    result.update(
        rounds=len(rates),
        setup_s=setup_s,
        ops_per_s=statistics.median(rates),
        latency_p50_ms=1e3 * statistics.median(latencies),
        peak_rss_mb=peak_rss_mb,
        latencies_ms=[1e3 * s for s in latencies],
    )
    return result


def trace_run(w, name: str, seed: int, import_ms: float) -> dict:
    import lossgeom.cli
    import tracer as T

    tracer = T.Tracer()
    tracer.install()
    tracer.op = "setup"
    w.setup()
    tracer.uninstall()

    # round 0 untraced then traced, twice over; each operation counts with
    # the faster of its two times, so that warm-up and the machine's drift
    # do not pass for tracing overhead.  Counters come from the first
    # traced round.
    inprocess = isinstance(w, CliLight)
    runner = w.run_inprocess if inprocess else w.run
    plain, traced = [], []
    for rep in range(2):
        ops = w.round(0)
        for op in ops:
            run_op(w, op, runner)
        plain.append(ops)
        ops = w.round(0)
        tracer.install()
        for i, op in enumerate(ops):
            tracer.op = i if rep == 0 else f"repeat-{i}"
            run_op(w, op, runner)
        tracer.uninstall()
        traced.append(ops)
    tracer.op = "after"

    def fastest(rounds) -> list[float]:
        return [min(r[i].seconds for r in rounds) for i in range(len(rounds[0]))]

    # the command line for this workload: in process, then as a process
    commands = w.commands if inprocess else [w.cli_probe()]
    env = child_env()
    main_ms, process_ms = [], []
    for argv in commands:
        if inprocess:
            i = w.commands.index(argv)
            main_ms.append(1e3 * fastest(plain)[i])
        else:
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                lossgeom.cli.main(list(argv))
            main_ms.append(1e3 * (time.perf_counter() - t0))
        t0 = time.perf_counter()
        subprocess.run(CLI + argv, env=env, cwd=ROOT, capture_output=True,
                       timeout=120)
        process_ms.append(1e3 * (time.perf_counter() - t0))

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    result = check_all(w, traced[0])
    counts = T.summarize(tracer.spans, range(len(traced[0])))
    specs_ms = sum(1e3 * (s[4] - s[3]) for s in tracer.spans
                   if T.layer_of(s[0]) == "specs"
                   and (s[1] < 0 or T.layer_of(tracer.spans[s[1]][0]) != "specs"))
    plain_s = sum(fastest(plain))
    traced_s = sum(fastest(traced))
    result["layers"] = counts
    result["extra"] = {
        "specs.parse_ms": specs_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": statistics.median(main_ms),
        "cli.process_ms": statistics.median(process_ms),
        "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
        "trace.untraced_ms": 1e3 * plain_s,
        "trace.traced_ms": 1e3 * traced_s,
    }
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    if args.mode == "trace":
        t0 = time.perf_counter()
        import lossgeom.cli  # noqa: F401

        import_ms = 1e3 * (time.perf_counter() - t0)
        w = WORKLOADS[args.workload](args.seed)
        result = trace_run(w, args.workload, args.seed, import_ms)
    else:
        w = WORKLOADS[args.workload](args.seed)
        w.setup()
        if args.mode == "setup":
            w.round(0)
            result = {"setup_s": time.monotonic() - args.t0}
        else:
            result = measure(w, args.seconds, args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

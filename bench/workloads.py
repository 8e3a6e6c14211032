"""The three benchmark workloads: inputs from a seed, the timed call, the check.

Every workload is closed loop with one client: item i+1 starts when item i
returns.  A workload object holds the inputs generated in set-up and offers

    size             number of items the inputs hold; a run stops there
    chunk            a run ends only after a whole number of chunks
    prepare(i)       untimed: turn row i of the inputs into call arguments
    run(args)        timed: the library calls of one item
    check(args, out) untimed: None if the outputs are right, else the reason
    warm_up()        part of set-up: one call of each kind, outputs discarded

Library functions are looked up through the `mesonq` namespaces at call time
(`mq.effective_operator`, `mq.cli.main`), so the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import re

import numpy as np

import mesonq as mq
import mesonq.cli  # noqa: F401  (binds mq.cli for the figures workload)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "figures.json.gz")

# figures: float tolerance against the recorded reference outputs
FIG_RTOL = 1e-9
FIG_ATOL = 1e-9

# oracle: the tolerances `mesonq verify` applies
TOL_CLOSED_VS_RK4 = 1e-8
TOL_EFFECTIVE_VS_JOINT = 1e-9
TOL_WITNESS_VS_SAMPLING = 1e-8

# pointwise: invariants hold to rounding
TOL_INVARIANT = 1e-9


def figure_commands() -> list[tuple[str, list[str], bool]]:
    """(name, argv, writes_csv) for one figures pass: 13 presets, times, CP test."""
    cmds = [(f"fig{f}", ["uncertainty", "--fig", f], True)
            for f in ("1a", "1b", "2a", "2b", "2c", "2d", "3a", "3b")]
    cmds += [(f"fig{f}", ["bell", "--fig", f], True)
             for f in ("4a", "4b", "4c", "5a", "5b")]
    cmds += [("times", ["times"], False), ("cp_test", ["bell", "--cp-test"], False)]
    return cmds


def run_command(argv: list[str], out_path: str | None) -> str:
    """One CLI invocation; returns the CSV path or the captured stdout."""
    if out_path is not None:
        code = mq.cli.main(argv + ["--out", out_path])
        result = out_path
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mq.cli.main(argv)
        result = buf.getvalue()
    if code != 0:
        raise RuntimeError(f"mesonq {' '.join(argv)} exited with {code}")
    return result


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(a))
                and np.all(np.abs(a - b) <= FIG_ATOL + FIG_RTOL * np.abs(b)))


def parse_csv(text: str):
    """Header, row count and columns of a CLI CSV."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV")
    return header, len(rows), list(zip(*rows))


def compare_csv(text: str, ref) -> str | None:
    """None when `text` matches the parsed reference, else the first mismatch.

    Headers, row counts and argmax columns must match exactly; every other
    column is compared as floats within FIG_ATOL + FIG_RTOL * |ref|.
    """
    header, n_rows, cols = parse_csv(text)
    ref_header, ref_rows, ref_cols = ref
    if header != ref_header:
        return f"header {header} != {ref_header}"
    if n_rows != ref_rows:
        return f"{n_rows} rows != {ref_rows}"
    for name, col, ref_col in zip(header, cols, ref_cols):
        if name.startswith("argmax"):
            if col != ref_col:
                return f"column {name} differs"
        elif not _close(np.array(col, dtype=float), ref_col):
            return f"column {name} outside tolerance"
    return None


_TOKEN = re.compile(r"[^\s=]+")


def compare_text(text: str, ref: str) -> str | None:
    """Key=value report comparison: numbers within tolerance, words exactly."""
    got, want = _TOKEN.findall(text), _TOKEN.findall(ref)
    if len(got) != len(want):
        return "token count differs"
    for g, w in zip(got, want):
        try:
            gf, wf = float(g), float(w)
        except ValueError:
            if g != w:
                return f"{g!r} != {w!r}"
            continue
        if not _close(np.array([gf]), np.array([wf])):
            return f"{g} outside tolerance of {w}"
    return None


def load_reference(path: str = REFERENCE_PATH) -> dict:
    """Recorded outputs by command name: parsed CSVs and raw report texts."""
    with gzip.open(path, "rt") as fh:
        raw = json.load(fh)
    ref = {}
    for name, text in raw.items():
        if name.startswith("fig"):
            header, n_rows, cols = parse_csv(text)
            cols = [c if h.startswith("argmax") else np.array(c, dtype=float)
                    for h, c in zip(header, cols)]
            ref[name] = [header, n_rows, cols]
        else:
            ref[name] = text
    return ref


class Figures:
    """Every --fig preset at its default grid, plus `times` and the CP test.

    One item is one CLI command.  A pass runs all fifteen in an order the
    seed shuffles, and a run ends only at the end of a pass, so that every
    run measures the same mix of commands.
    """

    name = "figures"
    max_passes = 4096

    def __init__(self, seed: int, workdir: str):
        self.commands = figure_commands()
        self.chunk = len(self.commands)
        rng = np.random.default_rng([seed, 1])
        self.order = np.array([rng.permutation(self.chunk)
                               for _ in range(self.max_passes)])
        self.size = self.order.size
        self.workdir = workdir
        self.reference = load_reference()

    def prepare(self, i: int):
        name, argv, writes_csv = self.commands[self.order.flat[i]]
        path = os.path.join(self.workdir, name + ".csv") if writes_csv else None
        return name, argv, path

    def run(self, args):
        _, argv, path = args
        return run_command(argv, path)

    def check(self, args, out) -> str | None:
        name, _, path = args
        if path is None:
            return compare_text(out, self.reference[name])
        with open(path) as fh:
            return compare_csv(fh.read(), self.reference[name])

    def csv_bytes(self, args) -> int:
        path = args[2]
        return os.path.getsize(path) if path is not None else 0

    def warm_up(self):
        for argv in (["uncertainty", "--fig", "1a", "--steps", "3"],
                     ["uncertainty", "--fig", "2a", "--steps", "3"],
                     ["uncertainty", "--fig", "3a", "--steps", "3"],
                     ["bell", "--fig", "4b", "--steps", "3"]):
            run_command(argv, os.path.join(self.workdir, "warm_up.csv"))
        run_command(["times"], None)
        run_command(["bell", "--cp-test"], None)


def _singlet():
    rho16 = mq.singlet_state()
    surv = rho16.entries.reshape(4, 4, 4, 4)[:2, :2, :2, :2].reshape(4, 4)
    return rho16, surv


def _verify_settings():
    """The two witness settings `mesonq verify` samples."""
    q = mq.Quasispin
    return [
        mq.BellSetting(q(0, 0), 0.0, q(math.pi / 4, 0), 0.0,
                       q(math.pi / 2, 0), 0.0, q(3 * math.pi / 4, 0), 0.0),
        mq.BellSetting(mq.K0BAR_DIRECTION, 0.0, mq.K0BAR_DIRECTION, 1.0,
                       mq.K0BAR_DIRECTION, 1.0, mq.K0BAR_DIRECTION, 0.0),
    ]


def _complex(re_im: np.ndarray) -> np.ndarray:
    half = re_im.shape[-1] // 2
    return re_im[..., :half] + 1j * re_im[..., half:]


class Oracle:
    """One seeded draw checked the way `mesonq verify` checks a trial.

    Closed form vs RK4 on a random single state at t = 0.1 and 1.0, closed
    form vs RK4 on a random pair state at a short time, effective operator vs
    joint probabilities on the singlet, witness eigenvalue vs sampling.
    """

    name = "oracle"
    chunk = 1
    size = 1 << 14
    single_times = (0.1, 1.0)
    pair_time = (0.05, 0.15)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        n = self.size + 1  # the last row is the warm-up draw
        self.params = mq.kaon_defaults()
        self.z2 = _complex(rng.standard_normal((n, 4)))
        self.z4 = _complex(rng.standard_normal((n, 8)))
        self.t_pair = rng.uniform(*self.pair_time, n)
        self.angles = np.column_stack([rng.uniform(0, math.pi, n),
                                       rng.uniform(0, 2 * math.pi, n),
                                       rng.uniform(0, math.pi, n),
                                       rng.uniform(0, 2 * math.pi, n)])
        self.t_m = rng.uniform(0.0, 2.0, n)
        self.t_n = self.t_m + rng.uniform(0.0, 2.0, n)
        self.sample_seed = rng.integers(0, 2**31, n)
        self.singlet16, self.singlet4 = _singlet()
        self.settings = _verify_settings()

    def prepare(self, i: int):
        z = self.z2[i] / np.linalg.norm(self.z2[i])
        rho4 = np.zeros((4, 4), dtype=complex)
        rho4[:2, :2] = np.outer(z, z.conj())
        w = np.zeros((4, 4), dtype=complex)
        w[:2, :2] = (self.z4[i] / np.linalg.norm(self.z4[i])).reshape(2, 2)
        psi = w.reshape(16)
        a_n, p_n, a_m, p_m = self.angles[i]
        return (rho4, np.outer(psi, psi.conj()), float(self.t_pair[i]),
                mq.Quasispin(a_n, p_n), float(self.t_n[i]),
                mq.Quasispin(a_m, p_m), float(self.t_m[i]),
                int(self.sample_seed[i]))

    def run(self, args):
        rho4, rho16, t_pair, q_n, t_n, q_m, t_m, seed = args
        p = self.params
        single = [(mq.evolve_single_closed(rho4, t, p).entries,
                   mq.lindblad_integrate(rho4, t, p).entries)
                  for t in self.single_times]
        pair = (mq.evolve_bipartite(rho16, t_pair, p).entries,
                mq.lindblad_integrate(rho16, t_pair, p).entries)
        joint = mq.joint_probabilities(self.singlet16, q_n, t_n, q_m, t_m, p)
        e_eff = mq.bipartite_expectation(mq.effective_operator(q_n, t_n, p),
                                         mq.effective_operator(q_m, t_m, p),
                                         self.singlet4)
        witness = [(mq.bell_bounds(s, p).lambda_max,
                    mq.sample_witness_max(mq.bell_operator(s, p), 10_000,
                                          seed=seed, refine_steps=300))
                   for s in self.settings]
        return single, pair, joint, e_eff, witness

    def check(self, args, out) -> str | None:
        single, pair, joint, e_eff, witness = out
        for closed, rk4 in single + [pair]:
            if not np.all(np.isfinite(closed)) or not np.all(np.isfinite(rk4)):
                return "non-finite state"
            if not np.abs(closed - rk4).max() < TOL_CLOSED_VS_RK4:
                return "closed form vs RK4 above 1e-8"
        if not abs(joint.expectation - e_eff) < TOL_EFFECTIVE_VS_JOINT:
            return "effective vs joint above 1e-9"
        for lam, sampled in witness:
            if not abs(lam - sampled) < TOL_WITNESS_VS_SAMPLING:
                return "witness vs sampling above 1e-8"
        return None

    def warm_up(self):
        p = self.params
        rho4, rho16 = self.prepare(self.size)[:2]
        mq.lindblad_integrate(rho4, 0.01, p)
        mq.lindblad_integrate(rho16, 0.01, p)
        mq.evolve_single_closed(rho4, 0.01, p)
        mq.evolve_bipartite(rho16, 0.01, p)
        s = self.settings[1]
        mq.sample_witness_max(mq.bell_operator(s, p), 100, refine_steps=3)
        mq.bell_bounds(s, p)


class Pointwise:
    """One independent random setting per item, times in [0, 8] dm.

    Four effective operators (CP-corrected for a random half of the items),
    spectra and the entropic bound of the first two, witness bounds and the
    singlet CHSH value of all four, and joint probabilities vs the
    effective-operator expectation of the first two.
    """

    name = "pointwise"
    chunk = 1
    size = 1 << 16
    warm_up_items = 3
    t_max = 8.0

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        n = self.size + self.warm_up_items  # the last rows are warm-up draws
        self.params = mq.kaon_defaults()
        self.alpha = rng.uniform(0, math.pi, (n, 4))
        self.phi = rng.uniform(0, 2 * math.pi, (n, 4))
        self.t = rng.uniform(0, self.t_max, (n, 4))
        self.cp = rng.random(n) < 0.5
        self.singlet16, self.singlet4 = _singlet()

    def prepare(self, i: int):
        qs = [mq.Quasispin(a, f) for a, f in zip(self.alpha[i], self.phi[i])]
        return qs, [float(t) for t in self.t[i]], bool(self.cp[i])

    def run(self, args):
        qs, ts, cp = args
        p = self.params
        build = mq.effective_operator_cp if cp else mq.effective_operator
        ops = [build(q, t, p) for q, t in zip(qs, ts)]
        pairs = [mq.spectral(ops[0]), mq.spectral(ops[1])]
        mu = mq.mu_bound(*pairs)
        setting = mq.BellSetting(qs[0], ts[0], qs[1], ts[1], qs[2], ts[2],
                                 qs[3], ts[3], cp_mode=cp)
        bounds = mq.bell_bounds(setting, p)
        chsh = mq.chsh_value(setting, self.singlet4, p)
        n, m = (0, 1) if ts[0] >= ts[1] else (1, 0)  # joint needs t_n >= t_m
        joint = mq.joint_probabilities(self.singlet16, qs[n], ts[n], qs[m], ts[m], p)
        if cp:  # the joint probabilities neglect CP asymmetry
            o_n = mq.effective_operator(qs[n], ts[n], p)
            o_m = mq.effective_operator(qs[m], ts[m], p)
        else:
            o_n, o_m = ops[n], ops[m]
        e_eff = mq.bipartite_expectation(o_n, o_m, self.singlet4)
        return ops, pairs, mu, bounds, chsh, joint, e_eff

    def check(self, args, out) -> str | None:
        ops, pairs, mu, bounds, chsh, joint, e_eff = out
        scalars = [mu.bound, mu.max_overlap, bounds.lambda_min, bounds.lambda_max,
                   bounds.summand_mu_bound, chsh.s, chsh.witness,
                   joint.p_yy, joint.p_yn, joint.p_ny, joint.p_nn, e_eff]
        arrays = [o.matrix for o in ops] + [c for pr in pairs for c in (pr.chi1, pr.chi2)]
        if not (all(math.isfinite(x) for x in scalars)
                and all(np.all(np.isfinite(a)) for a in arrays)):
            return "non-finite output"
        for o, pr in zip(ops, pairs):
            if abs(pr.lambda2 + 1.0) > TOL_INVARIANT:
                return "lambda2 != -1"
            if abs(np.vdot(pr.chi1, pr.chi2)) > TOL_INVARIANT:
                return "chi1 not orthogonal to chi2"
            for lam, chi in ((pr.lambda1, pr.chi1), (pr.lambda2, pr.chi2)):
                if np.linalg.norm(o.matrix @ chi - lam * chi) > TOL_INVARIANT:
                    return "eigenpair residual"
        if not -TOL_INVARIANT <= mu.bound <= 1.0 + TOL_INVARIANT:
            return "entropic bound outside [0, 1]"
        if not (bounds.lambda_min - TOL_INVARIANT <= chsh.witness
                <= bounds.lambda_max + TOL_INVARIANT):
            return "Tr(Bell rho) outside [lambda_min, lambda_max]"
        if not abs(joint.expectation - e_eff) < TOL_EFFECTIVE_VS_JOINT:
            return "effective vs joint above 1e-9"
        return None

    def warm_up(self):
        for i in range(self.warm_up_items):
            args = self.prepare(self.size + i)
            self.check(args, self.run(args))


WORKLOADS = {w.name: w for w in (Figures, Oracle, Pointwise)}

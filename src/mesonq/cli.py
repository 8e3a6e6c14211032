"""Command-line front end: presets, sweeps, figure CSVs and oracle checks.

Subcommands
-----------
constants    print the system parameters and derived quantities
uncertainty  CSV of the entropic lower bound along a time grid
times        characteristic times (misidentification, complementary, delta*)
bell         CSV of witness eigenvalue scans, or the CP-sensitive test
verify       cross-check the closed forms against their independent oracles

Times are accepted and reported either in mass-splitting units (dm) or in
short-lifetime units (tau_s); all internal math runs in dm units.  Each
subcommand takes only the options it reads.  A JSON config file can set any of
them; argparse reads its values like flags, and explicit flags win.  Bad input
exits with a one-line error: exit 2 for a bad option value or an unreadable
--config file, exit 1 for a refused flag or a value the library rejects.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .core import (
    K0BAR_DIRECTION, KL_DIRECTION, KS_DIRECTION, MesonParams, Quasispin,
    bmeson_defaults, kaon_defaults, stable_defaults,
)
from .effective import (
    bipartite_expectation, bloch_vector, effective_operator,
    effective_operator_cp, eigenpair_from_matrix,
)
from .evolution import (
    embed_surviving, evolve_bipartite, evolve_single_closed,
    joint_probabilities, lindblad_integrate, pure_density, singlet_state,
    surviving_pair,
)
from .uncertainty import (
    bloch_mu_bound, complementary_time, delta_for_equal_times, misid_time,
    mu_bound,
)
from .bell import (
    CLASSICAL_BOUND, DEFAULT_SEED, TSIRELSON_BOUND, BellSetting, bell_bounds,
    bell_operator, cp_bell_test, sample_witness_max, scan_bell,
)

FIG_CHOICES = ("1a", "1b", "2a", "2b", "2c", "2d", "3a", "3b",
               "4a", "4b", "4c", "5a", "5b")

_POLICY_FOR_FIG = {"4a": "all-equal", "4b": "alternating-1", "4c": "alternating-2",
                   "5a": "alternating-1", "5b": "alternating-1"}


# entry i scales by 10^(22 - i) in one product or quotient by an exact power
_MUL = np.array([float(10 ** max(22 - i, 0)) for i in range(45)])
_DIV = np.array([float(10 ** max(i - 22, 0)) for i in range(45)])


@functools.cache
def _cell_words() -> tuple[np.ndarray, ...]:
    """ASCII uint32 words of a %.11e cell, which is five words, NUL where short:
    [NUL NUL sign d] [. ddd] [dddd] [dddd] [e sign dd]; built at the first CSV."""
    d4 = np.arange(10**4, dtype=np.int16)[:, None] // np.int16([1e3, 100, 10, 1]) % 10 + 48
    return tuple(
        np.c_[w].astype(np.uint8).view(np.uint32)[:, 0] for w in (
            (np.zeros((22, 2)), np.repeat([0, ord("-")], 11),  # lead 10 is a carried 1
             np.tile(np.r_[d4[:10, 3], ord("1")], 2)),
            (np.full(1000, ord(".")), d4[:1000, 1:]), (d4,),
            (np.full(199, ord("e")), np.repeat([ord("-"), ord("+")], [99, 100]),
             np.r_[d4[99:0:-1, 2:], d4[:100, 2:]])))  # exponents -99..99


def _e11_cells(x: np.ndarray) -> np.ndarray:
    """The "%.11e" text of each float in x: NUL-padded bytes, shape x.shape + (20,).

    For 1e-11 <= |x| < 1e33 with decimal exponent e, s = |x| 10^(11 - e) is one
    product or quotient by an exact power of ten, rounded once: it lies within
    2^-14 of its exact value in [1e11, 1e12), so rounding s gives the twelve
    printed digits unless s is within 1e-4 of a tie.  Zeros go this way too;
    nan, inf, other magnitudes, near-ties and s out of range go through "%.11e".
    """
    a = np.abs(x)
    zero = a == 0.0
    direct = (a >= 1e-11) & (a < 1e33) | zero
    v = np.where(direct & ~zero, a, 1.0)  # 1.0 keeps numpy quiet on the rest
    e = np.floor(np.log10(v)).astype(np.int64)
    for fix in (1, 0):  # s = v 10^(11 - e); the first pass corrects e if one off
        s = v * _MUL.take(e + 11, mode="clip") / _DIV.take(e + 11, mode="clip")
        e += fix * ((s >= 1e12).astype(np.int64) - (s < 1e11))
    frac = s - np.floor(s)
    direct &= (s >= 1e11) & (s < 1e12) & (np.abs(frac - 0.5) >= 1e-4)
    n = np.where(direct & ~zero, np.floor(s).astype(np.int64) + (frac > 0.5), 0)
    lead, rest = np.divmod(n, 10 ** 11)  # lead 10: 9.999999999995 is 1.00000000000e+01
    lead_w, dot3, digit4, exp_w = _cell_words()
    cells = np.stack([lead_w[lead + 11 * np.signbit(x)], dot3[rest // 10 ** 8],
                      digit4[rest // 10 ** 4 % 10 ** 4], digit4[rest % 10 ** 4],
                      exp_w[e + (lead == 10) + 99]], axis=-1).view(np.uint8)
    slow = np.flatnonzero(~direct)
    texts = ["%.11e" % f for f in x.ravel()[slow].tolist()]  # <= 19 bytes: -d.dde-ddd
    cells.reshape(-1, 20)[slow] = np.array(texts, "S20")[:, None].view(np.uint8)
    return cells


def _write_csv(path: str | None, header: list[str], columns: list) -> None:
    """Write equal-length columns under header: floats as %.11e, the rest as str.

    All float cells are formatted in one vectorized pass, a scalar column once;
    a path that cannot be written raises ValueError naming it.
    """
    cols = [np.asarray(c) for c in columns]
    rows = next((len(c) for c in cols if c.ndim), 0)
    floats = iter(_e11_cells(np.array(
        [c for c in cols if c.ndim and c.dtype.kind == "f"], dtype=float)))
    cells = []  # NUL-padded uint8, a row per CSV row or one row for all
    for col in cols:
        if not col.ndim:
            text = ("%.11e" if col.dtype.kind == "f" else "%s") % col.item()
            cells.append(np.frombuffer(text.encode(), np.uint8)[None])
        elif col.dtype.kind == "f":
            cells.append(next(floats))
        else:
            cells.append(col.astype("S")[:, None].view(np.uint8))
    ends = np.cumsum([c.shape[1] + 1 for c in cells])  # one past each separator
    table = np.empty((rows, ends[-1]), np.uint8)
    for c, end in zip(cells, ends.tolist()):
        table[:, end - 1 - c.shape[1]:end - 1] = c
    table[:, ends - 1] = np.where(ends < ends[-1], ord(","), ord("\n"))
    text = ",".join(header) + "\n" + table.tobytes().translate(None, b"\0").decode()
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"--out {path}: {exc.strerror}") from None


def _config_tokens(parser, path: str, options) -> list[str]:
    """--key=value tokens for the config keys that name options, dashes or not.

    true becomes a bare switch; false and null are skipped (by `is`: 0 == False).
    A file that cannot be read as a JSON object ends in parser.error (exit 2).
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        parser.error(f"--config {path}: {exc.strerror}")
    except ValueError as exc:  # invalid JSON or text encoding
        parser.error(f"--config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"--config {path}: not a JSON object")
    tokens = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest in options and value is not None and value is not False:
            flag = "--" + dest.replace("_", "-")
            tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def _system_params(args) -> MesonParams:
    gs, gl, delta = args.gamma_s, args.gamma_l, args.delta
    if "system" in args.given:  # a flag wins over widths from --config
        _refuse(args, "--system", "gamma_s", "gamma_l")
        gs = gl = None
    if gs is not None or gl is not None:
        if gs is None or gl is None:
            raise SystemExit("custom systems need both --gamma-s and --gamma-l")
        return MesonParams(gamma_s=gs, gamma_l=gl, delta=delta or 0.0,
                           label="custom")
    presets = {"kaon": kaon_defaults, "bmeson": bmeson_defaults,
               "stable": stable_defaults}
    params = presets[args.system or "kaon"]()
    if delta is not None:
        params = MesonParams(params.gamma_s, params.gamma_l, delta, params.label)
    return params


def _time_scale(args, params: MesonParams) -> float:
    """Multiplier turning input times into dm units."""
    if args.time_unit != "tau_s":
        return 1.0
    if params.gamma_s == 0.0:
        raise SystemExit("tau_s units are undefined for a stable system")
    return 1.0 / params.gamma_s


def _grid(args, params, default=(0.0, 6.0, 601)) -> np.ndarray:
    t_min, t_max, steps = (d if v is None else v for v, d in
                           zip((args.t_min, args.t_max, args.steps), default))
    if steps < 2:
        raise SystemExit("need at least 2 grid points")
    scale = _time_scale(args, params)
    for flag, bound in (("--t-min", t_min), ("--t-max", t_max)):
        if not math.isfinite(bound):
            raise ValueError(f"{flag} must be finite, got {bound}")
        if not math.isfinite(bound * scale):
            raise ValueError(f"{flag} must be finite in dm units, got {bound} tau_s")
    if not t_min < t_max:
        raise SystemExit("t_min must be below t_max")
    if not math.isfinite((t_max - t_min) * scale):
        raise ValueError(f"--t-min/--t-max span must be finite in dm units, "
                         f"got {t_min} to {t_max}")
    grid = np.linspace(t_min, t_max, steps) * scale
    if not (np.diff(grid) > 0.0).all():
        raise ValueError(f"--t-min/--t-max span {t_min} to {t_max} is too narrow "
                         f"for {steps} distinct times")
    return grid


def _refuse(args, mode: str, *keys: str) -> None:
    """Exit naming the flags among keys given on the command line (not --config)."""
    given = [f"--{k.replace('_', '-')}" for k in keys if k in args.given]
    if given:
        raise SystemExit(f"{mode} ignores {', '.join(given)}")


_SYSTEM_KEYS = ("system", "gamma_s", "gamma_l", "delta")


def _parse_obs(text: str) -> tuple[Quasispin, float]:
    try:
        alpha, phi, t = (float(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"malformed observable triple: {text!r} "
                         "(expected alpha,phi,t)")
    return Quasispin(alpha, phi), t


def cmd_constants(args) -> int:
    params = _system_params(args)
    print(f"system={params.label}")
    print(f"gamma_s={params.gamma_s:.11e}")
    print(f"gamma_l={params.gamma_l:.11e}")
    print(f"delta={params.delta:.4g}")
    print(f"gamma_mean={params.gamma_mean:.11e}")
    print(f"delta_gamma={params.delta_gamma:.11e}")
    print(f"tau_s_dm_units={params.tau_s:.11e}")
    return 0


# (fixed at t = 0, scanned) questions of the CP-corrected figure presets
_CP_QUESTIONS = {"2a": (KS_DIRECTION, KS_DIRECTION), "2b": (KL_DIRECTION, KS_DIRECTION),
                 "2c": (KS_DIRECTION, KL_DIRECTION), "2d": (KL_DIRECTION, KL_DIRECTION)}


def cmd_uncertainty(args) -> int:
    fig, out = args.fig, args.out
    if fig is not None:
        _refuse(args, f"--fig {fig}", *_SYSTEM_KEYS, "obs1", "obs2", "scan")
        if fig in ("3a", "3b"):
            return _uncertainty_bipartite_fig(args, fig, out)
        params = stable_defaults() if fig == "1b" else kaon_defaults()
        cp = fig not in ("1a", "1b")
        fixed, scanned = _CP_QUESTIONS[fig] if cp else (Quasispin(0.5 * math.pi, 0.0),) * 2
        grid = _grid(args, params, (0.0, 8.0, 401) if cp else (0.0, 2.0 * math.pi, 201))
        if fig in ("2a", "2b") and params.delta != 0.0:
            # include the exact complementary-time row, where the bound peaks,
            # unless it is a grid point already
            t_comp = complementary_time(params)
            i = int(np.searchsorted(grid, t_comp))
            if i == len(grid) or grid[i] != t_comp:
                grid = np.insert(grid, i, t_comp)
        n_1, n_2 = (bloch_vector(scanned, grid, params, cp),
                    bloch_vector(fixed, 0.0, params, cp))
    else:
        params = _system_params(args)
        if args.obs1 is None or args.obs2 is None:
            raise SystemExit("provide --fig or both --obs1 and --obs2")
        q1, t1 = _parse_obs(args.obs1)
        q2, t2 = _parse_obs(args.obs2)
        scale = _time_scale(args, params)
        grid = _grid(args, params, (0.0, 6.0, 241))
        scan = args.scan or "obs2"
        u1 = grid if scan in ("obs1", "both") else t1 * scale
        u2 = grid if scan in ("obs2", "both") else t2 * scale
        n_1, n_2 = bloch_vector(q1, u1, params), bloch_vector(q2, u2, params)
    bound, best, argmax_j = bloch_mu_bound(n_1, n_2)
    _write_csv(out, ["t", "bound", "max_overlap", "argmax_i", "argmax_j"],
               [grid * (1.0 / _time_scale(args, params)), bound, best, 1, argmax_j])
    return 0


def _uncertainty_bipartite_fig(args, fig: str, out) -> int:
    params = kaon_defaults()
    q = Quasispin(0.5 * math.pi, 0.0)
    grid = _grid(args, params, (0.0, 4.0, 201))
    unit = 1.0 / _time_scale(args, params)
    # t1 = 0.25 j t for j = 0..4: exactly 0 at j = 0 and exactly t at j = 4
    t1 = 0.25 * np.arange(5) * grid[:, None]
    n_0 = bloch_vector(q, 0.0, params)
    n_t = bloch_vector(q, grid, params)[:, None]
    n_t1 = bloch_vector(q, t1, params)
    # product eigenbases: the bound is the sum of the one-sided bounds, the
    # overlap the product of the one-sided maxima, argmax the digits 1 j_a 1 j_b
    sides = ((n_0, n_t1), (n_t, n_0)) if fig == "3a" else ((n_0, n_0), (n_t, n_t1))
    (bound_a, best_a, j_a), (bound_b, best_b, j_b) = (
        bloch_mu_bound(*side) for side in sides)
    bound, best, argmax = (np.broadcast_to(x, t1.shape).ravel() for x in (
        bound_a + bound_b, best_a * best_b, 1010 + 100 * j_a + j_b))
    _write_csv(out, ["t", "t1", "bound", "max_overlap", "argmax"],
               [np.repeat(grid * unit, 5), (t1 * unit).ravel(), bound, best,
                argmax])
    return 0


def cmd_times(args) -> int:
    params = _system_params(args)
    if params.gamma_s == params.gamma_l:
        raise SystemExit("characteristic times need distinct widths")
    t_mis = misid_time(params)
    print(f"misid_time_dm={t_mis:.11e}")
    print(f"misid_time_tau_s={t_mis * params.gamma_s:.11e}")
    if params.delta != 0.0:
        t_comp = complementary_time(params)
        d_star = delta_for_equal_times(params)
        print(f"complementary_time_dm={t_comp:.11e}")
        print(f"complementary_time_tau_s={t_comp * params.gamma_s:.11e}")
        print(f"delta_equal_times={d_star:.11e}")
        print(f"delta_ratio={d_star / params.delta:.6g}")
    else:
        print("complementary_time_dm=none (delta=0)")
    return 0


def _parse_quasispins(text: str) -> tuple[Quasispin, ...]:
    parts = text.split(";")
    if len(parts) != 4:
        raise SystemExit("need four quasispins: 'a1,p1;a2,p2;a3,p3;a4,p4'")
    out = []
    for part in parts:
        try:
            alpha, phi = (float(x) for x in part.split(","))
        except ValueError:
            raise SystemExit(f"malformed quasispin: {part!r}")
        out.append(Quasispin(alpha, phi))
    return tuple(out)


def cmd_bell(args) -> int:
    if args.cp_test:
        _refuse(args, "--cp-test", "fig", "policy", "quasispins", "system",
                "gamma_s", "gamma_l", "t_min", "t_max", "steps", "time_unit", "out")
        delta = kaon_defaults().delta if args.delta is None else args.delta
        report = cp_bell_test(delta)
        print(f"delta={delta:.6g}")
        print(f"s_ks={report.s_ks:.11e} violates={report.variant_ks_violates}")
        print(f"s_kl={report.s_kl:.11e} violates={report.variant_kl_violates}")
        n_viol = int(report.variant_ks_violates) + int(report.variant_kl_violates)
        if n_viol == 1:
            print("result: one variant violates")
        elif n_viol == 0:
            print("result: no violation")
        else:
            print("result: both variants violate (unexpected)")
        return 0

    fig = args.fig
    if fig is not None:
        _refuse(args, f"--fig {fig}", *_SYSTEM_KEYS, "policy")
        policy = _POLICY_FOR_FIG[fig]
        if fig == "5a":
            gl = kaon_defaults().gamma_l
            params = MesonParams(gamma_s=gl, gamma_l=gl, label="equalwidth")
        elif fig == "5b":
            params = bmeson_defaults()
        else:
            params = kaon_defaults()
    else:
        policy = args.policy or "alternating-1"
        params = _system_params(args)
    quasispins = _parse_quasispins(args.quasispins) if args.quasispins else \
        (K0BAR_DIRECTION,) * 4
    grid = _grid(args, params, (0.0, 6.0, 601))
    report = scan_bell(policy, grid, params, quasispins)
    _write_csv(args.out,
               ["t", "lambda_min", "lambda_max", "summand_mu_bound",
                "classical_hi", "classical_lo", "tsirelson_hi", "tsirelson_lo"],
               [grid * (1.0 / _time_scale(args, params)), report.lambda_min,
                report.lambda_max, report.summand_mu_bound,
                CLASSICAL_BOUND, -CLASSICAL_BOUND, TSIRELSON_BOUND,
                -TSIRELSON_BOUND])
    return 0


def _verify_closed_vs_integrator(params, rng, trials) -> float:
    worst = 0.0
    for _ in range(trials):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        rho = embed_surviving(np.outer(z, z.conj()))
        for t in (0.1, 1.0):
            a = evolve_single_closed(rho, t, params).entries
            b = lindblad_integrate(rho, t, params).entries
            worst = max(worst, float(np.abs(a - b).max()))
    return worst


def _verify_effective_vs_joint(params, rng, trials) -> float:
    psi_m = singlet_state()
    surv = surviving_pair(psi_m)
    worst = 0.0
    for _ in range(trials):
        q_n = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        q_m = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        t_m = rng.uniform(0.0, 2.0)
        t_n = t_m + rng.uniform(0.0, 2.0)
        jo = joint_probabilities(psi_m, q_n, t_n, q_m, t_m, params)
        e_eff = bipartite_expectation(effective_operator(q_n, t_n, params),
                                      effective_operator(q_m, t_m, params), surv)
        worst = max(worst, abs(jo.expectation - e_eff))
    return worst


def _verify_witness_sampling(params, seed) -> float:
    worst = 0.0
    settings = [
        BellSetting(Quasispin(0, 0), 0.0, Quasispin(math.pi / 4, 0), 0.0,
                    Quasispin(math.pi / 2, 0), 0.0,
                    Quasispin(3 * math.pi / 4, 0), 0.0),
        BellSetting(K0BAR_DIRECTION, 0.0, K0BAR_DIRECTION, 1.0,
                    K0BAR_DIRECTION, 1.0, K0BAR_DIRECTION, 0.0),
    ]
    for s in settings:
        bell = bell_operator(s, params)
        lam_max = bell_bounds(s, params).lambda_max
        sampled = sample_witness_max(bell, 10_000, seed=seed, refine_steps=300)
        worst = max(worst, abs(lam_max - sampled))
    return worst


def _verify_bloch_vs_eigenvectors(params, rng, trials) -> float:
    """Bloch-axis bounds against mu_bound on hermitian_eigen eigenpairs."""
    worst = 0.0
    for _ in range(trials):
        for build in (effective_operator, effective_operator_cp):
            o_a, o_b = (build(Quasispin(rng.uniform(0, math.pi),
                                        rng.uniform(0, 2 * math.pi)),
                              rng.uniform(0.0, 2.0), params) for _ in range(2))
            bound, best, _ = bloch_mu_bound(o_a.bloch, o_b.bloch)
            rep = mu_bound(*(eigenpair_from_matrix(o.matrix, o.basis)
                             for o in (o_a, o_b)))
            worst = max(worst, abs(bound - rep.bound), abs(best - rep.max_overlap))
    return float(worst)


def cmd_verify(args) -> int:
    params = _system_params(args)
    trials = 50 if args.trials is None else args.trials
    if trials < 1:
        raise SystemExit("trials must be >= 1")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    draws = (params, rng, trials)
    checks = (  # (name, tolerance, max deviation); rng is drawn from in this order
        ("closed_vs_integrator", "1e-8", _verify_closed_vs_integrator(*draws)),
        ("effective_vs_joint", "1e-9", _verify_effective_vs_joint(*draws)),
        ("witness_vs_sampling", "1e-8", _verify_witness_sampling(params, seed)),
        ("bloch_vs_eigenvector", "1e-10", _verify_bloch_vs_eigenvectors(*draws)),
    )
    for name, tol, dev in checks:
        print(f"{name}_max_dev={dev:.3e} (tolerance {tol})")
    ok = all(dev < float(tol) for _, tol, dev in checks)
    if args.literal_bipartite_generator:
        plus = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        prod = pure_density(np.kron(plus, plus))
        summed = lindblad_integrate(prod, 1.0, params, summed_generator=True).entries
        factorized = evolve_bipartite(prod, 1.0, params).entries
        breach = float(np.abs(summed - factorized).max())
        print(f"literal_summed_generator_factorization_breach={breach:.3e} "
              "(nonzero by construction: the summed generator couples the decays)")
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The mesonq parser, built once per process and shared by every main call.

    Callers must not add to it.  Each subcommand's func is bound when the
    parser is first built.
    """
    parser = argparse.ArgumentParser(
        prog="mesonq",
        description="Effective-operator toolkit for decaying two-state systems")
    sub = parser.add_subparsers(dest="command", required=True)

    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--config")
    system.add_argument("--system", choices=("kaon", "bmeson", "stable"))
    system.add_argument("--gamma-s", dest="gamma_s", type=float)
    system.add_argument("--gamma-l", dest="gamma_l", type=float)
    system.add_argument("--delta", type=float)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--t-min", dest="t_min", type=float)
    grid.add_argument("--t-max", dest="t_max", type=float)
    grid.add_argument("--steps", type=int)
    grid.add_argument("--time-unit", dest="time_unit", choices=("dm", "tau_s"))
    grid.add_argument("--out")

    p = sub.add_parser("constants", parents=[system], help="print system parameters")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("uncertainty", parents=[system, grid],
                       help="entropic bound scans")
    p.add_argument("--fig", choices=[f for f in FIG_CHOICES if f[0] in "123"])
    p.add_argument("--obs1", help="alpha,phi,t of the first observable")
    p.add_argument("--obs2", help="alpha,phi,t of the second observable")
    p.add_argument("--scan", choices=("obs1", "obs2", "both"))
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("times", parents=[system], help="characteristic times")
    p.set_defaults(func=cmd_times)

    p = sub.add_parser("bell", parents=[system, grid],
                       help="witness eigenvalue scans and CP test")
    p.add_argument("--fig", choices=list(_POLICY_FOR_FIG))
    p.add_argument("--policy", choices=("all-equal", "alternating-1",
                                        "alternating-2"))
    p.add_argument("--quasispins",
                   help="four settings 'a1,p1;a2,p2;a3,p3;a4,p4' (default all K0bar)")
    p.add_argument("--cp-test", dest="cp_test", action="store_true")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("verify", parents=[system], help="oracle cross-checks")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--literal-bipartite-generator", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


_FLOAT_FLAGS = ("--delta", "--gamma-s", "--gamma-l", "--t-min", "--t-max")


def _join_negative_floats(argv: list[str]) -> list[str]:
    """Fold '--delta -3.3e-3' into '--delta=-3.3e-3'.

    argparse only recognizes plain negative decimals as values, not
    scientific notation.
    """
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _FLOAT_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            try:
                float(argv[i + 1])
            except ValueError:
                pass
            else:
                out.append(f"{tok}={argv[i + 1]}")
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_floats(list(sys.argv[1:] if argv is None else argv))
    args = parser.parse_args(argv)
    # every option defaults to None or False, so these are the ones argv set
    given = {k for k, v in vars(args).items() if v is not None and v is not False}
    if args.config:  # parse again behind the config's tokens: argv wins
        options = vars(args).keys() - {"command", "func", "config"}
        args = parser.parse_args(argv[:1] + _config_tokens(parser, args.config,
                                                           options) + argv[1:])
    args.given = given
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"mesonq: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

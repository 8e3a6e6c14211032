"""Show that the benchmark's correctness gates are live.

    python3 bench/selftest.py

Each case runs one real item, confirms that its check passes, then perturbs
one reference value or output just beyond the stated tolerance and confirms
that the check fails.  Exits 1 if any gate lets a perturbation through.
"""

import copy
import dataclasses
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def figures_cases(tmp):
    wl = workloads.Figures(0, tmp)
    ref = wl.reference
    names = [c[0] for c in wl.commands]
    fig = wl.prepare(int(np.flatnonzero(wl.order[0] == names.index("fig2a"))[0]))
    text_item = wl.prepare(int(np.flatnonzero(wl.order[0] == names.index("times"))[0]))
    yield "fig2a matches its reference", wl.check(fig, wl.run(fig)) is None
    yield "times matches its reference", wl.check(text_item, wl.run(text_item)) is None

    def perturbed(mutate):
        wl.reference = copy.deepcopy(ref)
        mutate(wl.reference["fig2a"])
        reason = wl.check(fig, wl.run(fig))
        wl.reference = ref
        return reason is not None

    def bump_float(r):
        v = r[2][1][7]
        r[2][1][7] = v + 10 * (workloads.FIG_ATOL + workloads.FIG_RTOL * abs(v))

    def flip_argmax(r):
        col = list(r[2][3])
        col[5] = "2" if col[5] == "1" else "1"
        r[2][3] = tuple(col)

    def rename(r):
        r[0][1] = "bound_"

    def add_row(r):
        r[1] += 1

    yield "float beyond tolerance is caught", perturbed(bump_float)
    yield "argmax change is caught", perturbed(flip_argmax)
    yield "header change is caught", perturbed(rename)
    yield "row-count change is caught", perturbed(add_row)

    out = wl.run(text_item)
    key, value = ref["times"].splitlines()[0].split("=")
    bumped = f"{key}={float(value) * (1.0 + 1e-6):.11e}"
    wl.reference = dict(ref, times=ref["times"].replace(f"{key}={value}", bumped))
    yield "report number change is caught", wl.check(text_item, out) is not None
    wl.reference = ref


def oracle_cases(tmp):
    wl = workloads.Oracle(0, tmp)
    args = wl.prepare(0)
    single, pair, joint, e_eff, witness = out = wl.run(args)
    yield "oracle item passes", wl.check(args, out) is None
    bad_rk4 = pair[1] + 10 * workloads.TOL_CLOSED_VS_RK4
    yield "closed vs RK4 breach is caught", wl.check(
        args, (single, (pair[0], bad_rk4), joint, e_eff, witness)) is not None
    yield "effective vs joint breach is caught", wl.check(
        args, (single, pair, joint, e_eff + 10 * workloads.TOL_EFFECTIVE_VS_JOINT,
               witness)) is not None
    lam, sampled = witness[0]
    bad_witness = [(lam, sampled + 10 * workloads.TOL_WITNESS_VS_SAMPLING)] + witness[1:]
    yield "witness vs sampling breach is caught", wl.check(
        args, (single, pair, joint, e_eff, bad_witness)) is not None


def pointwise_cases(tmp):
    wl = workloads.Pointwise(0, tmp)
    args = wl.prepare(0)
    ops, pairs, mu, bounds, chsh, joint, e_eff = out = wl.run(args)
    yield "pointwise item passes", wl.check(args, out) is None
    eps = 10 * workloads.TOL_INVARIANT
    bad_pair = dataclasses.replace(pairs[0], lambda2=-1.0 + eps)
    yield "lambda2 != -1 is caught", wl.check(
        args, (ops, [bad_pair, pairs[1]], mu, bounds, chsh, joint, e_eff)) is not None
    tilted = pairs[0].chi2 + eps * pairs[0].chi1
    bad_pair = dataclasses.replace(pairs[0], chi2=tilted / np.linalg.norm(tilted))
    yield "non-orthogonal chi is caught", wl.check(
        args, (ops, [bad_pair, pairs[1]], mu, bounds, chsh, joint, e_eff)) is not None
    bad_bounds = dataclasses.replace(bounds, lambda_max=chsh.witness - eps)
    yield "witness outside the eigenvalue range is caught", wl.check(
        args, (ops, pairs, mu, bad_bounds, chsh, joint, e_eff)) is not None
    yield "effective vs joint breach is caught", wl.check(
        args, (ops, pairs, mu, bounds, chsh, joint, e_eff + eps)) is not None
    bad_mu = dataclasses.replace(mu, bound=float("nan"))
    yield "non-finite output is caught", wl.check(
        args, (ops, pairs, bad_mu, bounds, chsh, joint, e_eff)) is not None


def trace_cases(tmp):
    mq = workloads.mq
    wl = workloads.Pointwise(0, tmp)
    original = mq.effective.effective_operator
    namespaces = (mq, mq.effective, mq.bell)
    tracer = Tracer()
    with tracer:
        wrapped = all(ns.effective_operator is not original for ns in namespaces)
        for i in range(3):
            tracer.item(wl.run, wl.prepare(i))
    yield "every namespace binding is wrapped", wrapped
    yield "every binding is restored", all(
        ns.effective_operator is original for ns in namespaces)
    a = tracer.arrays()
    roots = a["parent"] < 0
    self_s = tracer.self_times()
    yield "self times add up to the item spans", bool(
        np.isclose(self_s.sum(), (a["end"] - a["start"])[roots].sum())
        and self_s.min() >= 0.0)
    metrics = tracer.layer_metrics(3)
    yield "one bell_bounds call per pointwise item", (
        metrics["bell.bell_bounds.calls"][0] == 1.0)


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        for cases in (figures_cases, oracle_cases, pointwise_cases, trace_cases):
            for label, ok in cases(tmp):
                print(f"{'ok  ' if ok else 'FAIL'} {cases.__name__[:-6]}: {label}")
                failures += not ok
    print("selftest: PASS" if not failures else f"selftest: {failures} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  The refinement-ladder baselines were
produced by tests/calibrate_acceptance.py and written to
tests/acceptance_baselines.json together with the seed, ladder and point
specs of the calibration; they are asserted here at twice the calibrated
values, and the `baselines` fixture refuses a file whose seed or ladder
differs from SEED and LADDER.
"""

import json
import os
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from crhomotopy import barrier, fields, geometry, indexcalc, norms, sections
from crhomotopy.cf_forms import cf_component, zbar_degree
from crhomotopy.homotopy import apply_operator, identity_residual
from crhomotopy.sections import barrier_section_jets as _barrier_section_jets
from crhomotopy.quadrature import QuadratureGrid
from oracles import brute_wedge_expansion, wedge_expansion_keys

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "acceptance_baselines.json")
LADDER = [(0.1, 10_000), (0.05, 100_000), (0.025, 1_000_000)]
SEED = 101
# wall-time limit of the ladder test in seconds; 0 or less means none.  The
# full ladder took 57-66 s in three standalone runs on 2 cores; set
# CRHOMOTOPY_LADDER_TIME_LIMIT=0 to run it to the end on a slower machine.
LADDER_TIME_LIMIT_S = float(os.environ.get("CRHOMOTOPY_LADDER_TIME_LIMIT",
                                           "120"))


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@contextmanager
def time_limit(seconds, describe):
    """Fail the running test once its body has taken `seconds` of wall time;
    `describe()` gives the progress to report.  Needs SIGALRM timers;
    without them, or for seconds <= 0, the body runs without a limit."""
    if seconds <= 0 or not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"time limit of {seconds:.0f} s exceeded; {describe()}",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fixed_test_points(model):
    specs = [
        ([0.05, -0.03, 0.02, 0.0], 0.01),
        ([-0.04 + 0.02j, 0.02 - 0.01j, 0.03, -0.05], -0.02),
        ([0.0, 0.06j, -0.04, 0.02 + 0.02j], 0.03),
        ([0.08, 0.01 - 0.03j, 0.0, -0.02j], 0.0),
        ([-0.02 - 0.02j, 0.0, 0.05 + 0.01j, 0.03], -0.01),
    ]
    return [model.graph_point(np.array(zp, dtype=complex), np.array([u]))
            for zp, u in specs]


@pytest.fixture(scope="module")
def baselines():
    if not os.path.exists(BASELINE_PATH):
        pytest.fail("missing acceptance_baselines.json; run "
                    "tests/calibrate_acceptance.py first")
    with open(BASELINE_PATH) as fh:
        data = json.load(fh)
    check_baseline_config(data)
    return data


def check_baseline_config(data):
    """Fail unless the baselines were calibrated with this module's SEED and
    LADDER; a stale or mismatched file must not pass quietly."""
    seed = data.get("seed")
    ladder = [(e["epsilon"], e["budget"]) for e in data.get("ladder", [])]
    if seed != SEED or ladder != LADDER:
        pytest.fail(f"acceptance_baselines.json was calibrated with seed "
                    f"{seed} and ladder {ladder}, but the tests use seed "
                    f"{SEED} and ladder {LADDER}; rerun "
                    f"tests/calibrate_acceptance.py")


def test_baseline_config_check():
    """The baselines fixture refuses a file from another seed or ladder."""
    good = {"seed": SEED,
            "ladder": [{"epsilon": e, "budget": b} for e, b in LADDER]}
    check_baseline_config(good)
    for bad in ({**good, "seed": SEED + 1},
                {**good, "ladder": good["ladder"][:2]},
                {"ladder": good["ladder"]}):
        with pytest.raises(pytest.fail.Exception):
            check_baseline_config(bad)


def test_time_limit_stops_a_long_body():
    """The ladder's time limit interrupts a body that runs past it and
    restores the previous SIGALRM handler."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("SIGALRM timers need a Unix platform")
    import time
    before = signal.getsignal(signal.SIGALRM)
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="rung 0"):
        with time_limit(0.2, lambda: "rung 0"):
            time.sleep(30)
    assert time.monotonic() - start < 10
    assert signal.getsignal(signal.SIGALRM) is before
    with time_limit(30, lambda: "unused"):
        pass
    assert signal.getitimer(signal.ITIMER_REAL)[0] == 0


def test_section_normalization(primary, rng):
    """Normalization of every section at 10^4 random admissible triples."""
    worst = 0.0
    count = 10_000
    zps = 0.2 * (rng.standard_normal((count, 4))
                 + 1j * rng.standard_normal((count, 4)))
    levels = 0.01 + 0.05 * rng.random((count, 1))
    us = 0.1 * rng.standard_normal((count, 1))
    zetas = primary.graph_point(zps, us, levels)
    z = primary.graph_point(np.zeros(4), np.zeros(1))
    # euclidean: algebraic identity, vectorized over the whole batch
    w = zetas - z[None, :]
    bm_norm = np.abs(np.einsum("Ni,Ni->N", w.conj() /
                               np.sum(np.abs(w) ** 2, axis=1)[:, None], w) - 1)
    worst = float(np.max(bm_norm))
    # barrier and combination at the same points
    jets = _barrier_section_jets(primary, zetas, z)
    bar_norm = np.abs(np.einsum("Ni,Ni->N", jets[0], w) - 1)
    worst = max(worst, float(np.max(bar_norm)))
    ts = rng.random(count)
    eta_bm = w.conj() / np.sum(np.abs(w) ** 2, axis=1)[:, None]
    eta_combo = (1 - ts[:, None]) * eta_bm + ts[:, None] * jets[0]
    combo_norm = np.abs(np.einsum("Ni,Ni->N", eta_combo, w) - 1)
    worst = max(worst, float(np.max(combo_norm)))
    report("section normalization", worst < 1e-10,
           f"max deviation {worst:.2e} over {count} triples")


def test_determinant_split_equivalence(rng):
    """Determinant assembly equals the direct expansion split, exhaustively
    over small dimensions and degrees, 100 random jets each."""
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            beta = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            gamma = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            tau = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            brute = brute_wedge_expansion(eta, beta, gamma, tau)
            form = cf_component(eta[:, None], beta[..., None],
                                gamma[..., None], tau[:, None])[:, 0]
            rows = dict(zip(wedge_expansion_keys(n), form))
            for r in range(n):
                mine = {key: val for key, val in rows.items()
                        if len(key[0]) == r}
                for key, val in mine.items():
                    worst = max(worst, abs(val - brute.get(key, 0.0)))
                for key, val in brute.items():
                    if len(key[0]) == r:
                        worst = max(worst, abs(val - mine.get(key, 0.0)))
    report("determinant/split equivalence", worst < 1e-12,
           f"max coefficient gap {worst:.2e} (n in 2..4, all degrees)")


def test_closedness_contraction(primary, small_n3, rng):
    """Closedness residual contracts at second order for both sections."""
    worst_order = np.inf

    def bm_family(zeta, z, t):
        return sections.bochner_martinelli_section(zeta, z)

    orders = []
    for n in (3, 5):
        zeta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = zeta + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rep = sections.closedness_check(bm_family, zeta, z, 0.5, 1, n,
                                        step=1e-3)
        orders.append(rep.order)
    for model in (small_n3, primary):
        def family(zeta, z, t, _m=model):
            return sections.combined_section(
                sections.bochner_martinelli_section(zeta, z),
                sections.barrier_section(_m, zeta, z), t)

        d = model.tangential_dim
        zeta = model.graph_point(0.06 * np.arange(1, d + 1) + 0.01j,
                                 np.array([0.02]), np.array([0.04]))
        z = np.zeros(model.n, dtype=complex)
        rep = sections.closedness_check(family, zeta, z, 0.37, 1, model.n,
                                        step=5e-4)
        orders.append(rep.order)
    measured = min(o for o in orders if np.isfinite(o))
    report("closedness contraction", measured >= 1.7,
           f"orders {['%.2f' % o for o in orders]} (required >= 1.7)")


def test_barrier_lower_bound(primary, secondary):
    """Positive minimum quotient on certified models; negative control on a
    broken model."""
    results = []
    for model in (primary, secondary):
        z = np.zeros(model.n, dtype=complex)
        rep = barrier.audit_barrier_bound(model, z, sample_count=10_000,
                                          neighborhood_scale=0.1, seed=1)
        results.append(rep)
    broken = geometry.ManifoldModel(n=5, m=1, q=2, hermitian=[np.eye(4)])
    neg = barrier.audit_barrier_bound(broken, np.zeros(5, dtype=complex),
                                      sample_count=10_000,
                                      neighborhood_scale=0.1, seed=1,
                                      include_correction=False)
    ok = all(r.passed and r.c_hat > 0 for r in results) and neg.c_hat <= 0
    report("barrier lower bound",
           ok,
           f"C_hat primary {results[0].c_hat:.4f}, secondary "
           f"{results[1].c_hat:.4f}, broken control {neg.c_hat:.4f} <= 0")


def test_barrier_expansion_order(primary, secondary):
    """Expansion remainder: exact on straight-profile paths, cubic slope on
    direction-bending paths."""
    v1 = np.zeros(5, dtype=complex)
    v1[0] = 0.5 + 0.1j
    v1[4] = 0.2 + 0.9j
    exact_rep = barrier.audit_barrier_expansion(
        primary, np.zeros(5, dtype=complex), v1,
        scales=np.geomspace(1e-3, 1e-1, 5))
    v2 = np.zeros(6, dtype=complex)
    v2[0] = 0.6 + 0.2j
    v2[2] = 0.3 - 0.4j
    v2[4] = 0.15 + 0.8j
    v2[5] = 0.4j
    generic = barrier.audit_barrier_expansion(
        secondary, np.zeros(6, dtype=complex), v2,
        scales=np.geomspace(3e-3, 1e-1, 6))
    ok = exact_rep.exact and (not generic.exact) and generic.slope >= 2.8
    report("barrier expansion order", ok,
           f"straight-profile exact: {exact_rep.exact}, generic slope "
           f"{generic.slope:.2f} (required >= 2.8)")


def test_obstruction_emptiness_and_pointwise_vanishing(primary, rng):
    """Survivor enumeration empty below the concavity parameter over the
    full sweep; the pure barrier kernel vanishes pointwise at quadrature
    nodes on the primary model."""
    records = indexcalc.obstruction_sweep(8, 3)
    bad = [r for r in records if r["below_concavity"] and r["survivors"] > 0]

    z = fixed_test_points(primary)[0]
    zp, w0 = primary.split(z)
    grid = QuadratureGrid(model=primary, epsilon=0.05, budget=1000,
                          mode="mc-shell", seed=9, center_zp=zp,
                          center_u=w0.real)
    worst_rel = 0.0
    checked = 0
    degree_one = zbar_degree(5, 4) == 1
    for chunk in grid.chunks():
        eta, beta, gamma, phi, _ = _barrier_section_jets(primary,
                                                         chunk.zeta, z)
        form = cf_component(eta.T, beta.transpose(1, 2, 0),
                            gamma.transpose(1, 2, 0),
                            np.zeros(eta.T.shape, dtype=complex))
        col_norms = np.linalg.norm(gamma, axis=1)
        scale = (np.linalg.norm(eta, axis=1)
                 * np.max(np.linalg.norm(beta, axis=1), axis=1)
                 * np.max(col_norms, axis=1) ** 3)
        worst_rel = max(worst_rel, float(np.max(
            np.max(np.abs(form[degree_one]), axis=0) / scale)))
        checked += chunk.zeta.shape[0]
    ok = not bad and worst_rel < 1e-10
    report("obstruction emptiness + pointwise vanishing", ok,
           f"{len(records)} sweep records, {len(bad)} survivors below "
           f"concavity; kernel max over {checked} nodes "
           f"{worst_rel:.2e} (rel, < 1e-10)")


@pytest.mark.slow
def test_vanishing_class_decay(secondary):
    """Realized decay of vanishing-class terms over the level ladder on the
    codimension-two model (the codimension regime of the estimates), and
    boundedness of the admissible-class terms."""
    pairs, _ = indexcalc.dichotomy_audit(6, 2, 2, 1)
    z = np.zeros(6, dtype=complex)
    ladder = [0.1, 0.05, 0.025, 0.0125]
    vanish_fits = []
    seen = set()
    for term, kt in pairs:
        if not indexcalc.is_vanishing_class(kt):
            continue
        key = (kt.k, kt.h, kt.l)
        if key in seen:
            continue
        seen.add(key)
        slope, vals = indexcalc.realized_kernel_decay(
            secondary, kt, z, ladder, budget=60_000, seed=3)
        vanish_fits.append((key, slope))
    bounded_ok = True
    bounded_info = []
    seen = set()
    for term, kt in pairs:
        if not indexcalc.is_bounded_class(kt) or kt.h.denominator != 1:
            continue
        key = (kt.k, kt.h, kt.l)
        if key in seen:
            continue
        seen.add(key)
        slope, vals = indexcalc.realized_kernel_decay(
            secondary, kt, z, ladder, budget=40_000, seed=3)
        growth = max(vals) / vals[0]
        bounded_info.append((key, round(slope, 2), round(growth, 2)))
        if vals[-1] > 1.25 * max(vals[:-1]) or slope < -0.15:
            bounded_ok = False
    ok = vanish_fits and all(s >= 0.4 for _, s in vanish_fits) and bounded_ok
    report("vanishing-class decay", ok,
           f"vanishing slopes {[(k, round(s, 2)) for k, s in vanish_fits]} "
           f"(required >= 0.4); bounded classes stay bounded: {bounded_ok}")


def test_rewrite_soundness_exhaustive():
    """Every term emitted by two levels of differentiation satisfies its
    class budget, exhaustively over the enumeration."""
    emitted = 0
    for n in range(3, 7):
        for m in range(1, min(3, n - 2) + 1):
            for q in range(2, (n - m) // 2 + 1):
                for r in range(1, q):
                    for _, kt in indexcalc.expansion_kernels(n, m, q, r):
                        emitted += len(indexcalc.closure_two_deep(kt))
    report("rewrite soundness", emitted > 0,
           f"{emitted} emissions, zero budget violations (asserted inline)")


def test_boundedness_vanishing_dichotomy():
    """Every enumerated expansion kernel is bounded-class or vanishing-class."""
    total = 0
    for n in range(3, 7):
        for m in range(1, min(3, n - 2) + 1):
            for q in range(2, (n - m) // 2 + 1):
                for r in range(1, q):
                    pairs, violations = indexcalc.dichotomy_audit(n, m, q, r)
                    assert not violations
                    total += len(pairs)
    report("dichotomy", total > 0,
           f"{total} kernels classified, zero unclassified")


@pytest.mark.slow
def test_homotopy_identity_ladder(primary, baselines):
    """Identity residual decreases along the pinned refinement ladder and
    the final rung stays within twice the calibrated baseline."""
    f = fields.bundled_test_form(primary)
    points = fixed_test_points(primary)
    worsts = []

    def progress():
        return (f"residuals of the {len(worsts)} finished rungs: "
                f"{['%.4f' % w for w in worsts]}")

    with time_limit(LADDER_TIME_LIMIT_S, progress):
        for eps, budget in LADDER:
            rows = identity_residual(primary, f, points, epsilon=eps,
                                     budget=budget, seed=SEED, box_radius=0.8)
            worsts.append(max(r.residual for r in rows))
    base = [entry["worst"] for entry in baselines["ladder"]]
    monotone = all(a > b for a, b in zip(worsts, worsts[1:]))
    within = worsts[-1] <= 2.0 * base[-1]
    report("homotopy identity ladder", monotone and within,
           f"residuals {['%.4f' % w for w in worsts]} monotone={monotone}, "
           f"final <= 2 x baseline {base[-1]:.4f}")


# the largest worst-point gap |R_graph f - R_flow f| of the middle rung over
# 20 seed bases the test does not use (201, 211, ..., 391; seeds base + idx
# at the test's points): both extensions read one node grid per point and
# differ only off the manifold
EXTENSION_GAP_MAX = 3.871e-4


@pytest.mark.slow
def test_extension_independence(primary):
    """Graph and gradient-flow extensions agree within twice the largest
    middle-rung gap measured at other seeds."""
    from oracles import gradient_flow_projection
    f = fields.bundled_test_form(primary)
    eps, budget = LADDER[1]
    tolerance = 2.0 * EXTENSION_GAP_MAX
    worst = 0.0
    for idx, z in enumerate(fixed_test_points(primary)):
        zp, w = primary.split(z)
        grid = QuadratureGrid(model=primary, epsilon=eps, budget=budget,
                              mode="mc-shell", seed=SEED + idx,
                              center_zp=zp, center_u=w.real, box_radius=0.8)
        ra = apply_operator(primary, f, z, grid, kind="solution")
        rb = apply_operator(primary, f, z, grid, kind="solution",
                            extension=lambda pts: gradient_flow_projection(
                                primary, pts))
        worst = max(worst, float(np.max(np.abs(ra.ambient - rb.ambient))))
    report("extension independence", worst <= tolerance,
           f"max output gap {worst:.3e} <= 2 x largest measured gap "
           f"{tolerance:.3e}")


def test_report_determinism(primary, tmp_path):
    """Identical configuration and seeds give byte-identical reports."""
    from crhomotopy import cli
    outs = []
    for sub in ("first", "second"):
        out = str(tmp_path / sub)
        base = ["--model", "bundled:sig22_n5", "--out", out, "--seed", "17"]
        assert cli.main(base + ["check-geometry"]) == 0
        assert cli.main(base + ["audit-barrier", "--budget", "2000"]) == 0
        assert cli.main(base + ["estimate-norms", "--budget", "120"]) == 0
        outs.append(out)
    identical = True
    for name in ("geometry.json", "barrier.json", "barrier_quotients.csv",
                 "norms.json"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        identical = identical and a == b
    # and a raw quadrature sum, bit for bit
    f = fields.bundled_test_form(primary)
    z = fixed_test_points(primary)[0]
    zp, w = primary.split(z)
    grid = QuadratureGrid(model=primary, epsilon=0.1, budget=2000,
                          mode="mc-shell", seed=5, center_zp=zp,
                          center_u=w.real)
    a = apply_operator(primary, f, z, grid).ambient
    b = apply_operator(primary, f, z, grid).ambient
    identical = identical and np.array_equal(a, b)
    report("determinism", identical,
           "reports and quadrature sums byte-identical across reruns")

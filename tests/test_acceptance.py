"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import filecmp
import json
import math
import time

import numpy as np
import scipy.integrate
import scipy.stats

import stochsym as st
from stochsym.cli import circular_coupling, generate_rooms, run_pipeline
from stochsym.runtime import InterfaceState, interface_input

from conftest import room_certificate, room_system

PSI_HAT_REF = 0.25 * (1.0 - 0.91 ** (1.0 / 12.0))


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_case_study_certificates(tmp_path):
    """Reference certificate seeds verify exactly and fast."""
    t0 = time.perf_counter()
    cfg = generate_rooms()  # defaults: 100 rooms
    rc = run_pipeline(cfg, stages=["verify"], out_dir=str(tmp_path))
    elapsed = time.perf_counter() - t0
    assert rc == 0
    report = json.loads((tmp_path / "certificates.json").read_text())
    # 100 identical rooms: one group, and every room reads its row
    ok = report["group_of"] == [0] * 100
    detail = []
    for entry in report["groups"]:
        rq, rh = entry["geometric_residuals"]
        ok &= rq < 1e-12 and rh < 1e-12
        cert = entry["certificate"]
        ok &= abs(cert["Q"][0][0] - -0.21) <= 1e-15 and cert["H"] == [[0.1]]
        ok &= cert["kappa_bar"] == 0.499 and cert["pi"] == 1.0
    ok &= cfg["discretization"]["tau"] == 0.1
    # the (1,1) entry of the dissipation residual carries the 0.498-level margin
    room = room_system()
    diss = st.check_dissipativity_lmi(room_certificate(), room, 0.1)
    ok &= diss.ok and diss.residual[0, 0] >= 0.498
    ok &= elapsed < 1.0
    detail.append(f"residuals<1e-12, diss(1,1)={diss.residual[0, 0]:.5f}, "
                  f"runtime={elapsed:.3f}s")
    _report(1, ok, "; ".join(detail))


def test_criterion_2_composed_constants(tmp_path):
    """kappa = 0.5, slope = 20, psi = 100 psi_i exactly; psi_i formula-derived."""
    room = room_system()
    cert = room_certificate()
    disc = st.DiscretizationSpec(tau=0.1, D_tilde=0.0, R_tilde=0.0)
    const = st.derive_constants(cert, room, disc)
    net = st.compose_ssf([const] * 100, np.ones(100))
    ok = abs(net.kappa - 0.5) <= 1e-12
    ok &= net.kappa == max([const.kappa] * 100)  # exact max aggregation
    ok &= net.rho_ext_slope == 20.0
    ok &= net.psi == 100 * const.psi  # exact arithmetic
    ok &= 2.4e-5 <= const.psi <= 2.6e-5  # formula value, not the printed one
    ok &= not math.isclose(const.psi, 1.17e-10, rel_tol=1e-3)
    # the pipeline artifact flags the unreproduced reported value
    cfg = generate_rooms(n=4)
    rc = run_pipeline(cfg, stages=["verify", "compose", "abstract",
                                   "synthesize", "bound"],
                      out_dir=str(tmp_path))
    assert rc == 0
    bound = json.loads((tmp_path / "bound.json").read_text())
    ok &= bound["reported_psi_reproduced"] is False
    ok &= bound["reported"]["psi_per_subsystem"] == 1.17e-10
    _report(2, ok, f"kappa={net.kappa}, slope={net.rho_ext_slope}, "
                   f"psi={net.psi:.6e} = 100 * {const.psi:.6e}, "
                   f"reported value flagged unreproduced")


def test_criterion_3_compositional_lmi_at_scale():
    """Network inequality certified at n = 3, 10, 100, 1000; fast at 1000."""
    cert = room_certificate()
    ok = True
    elapsed_1000 = None
    for n in (3, 10, 100, 1000):
        t0 = time.perf_counter()
        blocks = st.supply_blocks([cert] * n, np.ones(n))
        m = circular_coupling(n)
        form = st.network_form(m, blocks)
        lmi = st.check_compositional_lmi(form)
        fast = st.gershgorin_fast_check(form)
        dt = time.perf_counter() - t0
        ok &= lmi.ok and fast.ok
        if n == 1000:
            elapsed_1000 = dt
            ok &= dt < 5.0
    _report(3, ok, f"all sizes certified, n=1000 in {elapsed_1000:.2f}s")


def test_criterion_4_closeness_bound():
    """Back-solved defect reproduces the 0.09 bound; regimes match an oracle."""
    res = st.violation_probability(0.25, 0.5, PSI_HAT_REF, 0.0, 12)
    ok = abs(res.violation_bound - 0.09) <= 1e-12
    ok &= res.success_bound >= 0.91 - 1e-12

    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10_000):
        alpha = float(rng.uniform(1e-3, 5.0))
        kappa = float(rng.uniform(0.01, 0.99))
        ph = float(rng.uniform(0.0, 2.0))
        v0 = float(rng.uniform(0.0, 2.0))
        t = int(rng.integers(0, 40))
        got = st.violation_probability(alpha, kappa, ph, v0, t)
        want_regime = "case-1" if alpha >= ph / kappa else "case-2"
        if want_regime == "case-1":
            raw = 1.0 - (1.0 - v0 / alpha) * (1.0 - ph / alpha) ** t
        else:
            dec = (1.0 - kappa) ** t
            raw = (v0 / alpha) * dec + (ph / (kappa * alpha)) * (1.0 - dec)
        want = min(1.0, max(0.0, raw))
        if got.regime != want_regime or abs(got.violation_bound - want) > 1e-12:
            mismatches += 1
    ok &= mismatches == 0
    _report(4, ok, f"bound={res.violation_bound:.12f}, "
                   f"regime oracle mismatches={mismatches}/10000")


def test_criterion_5_abstraction_soundness():
    """Gaussian kernel rows vs quadrature to 1e-6; sigma -> 0 equivalence."""
    sys_ = st.AffineSystem(
        A=-1.0, B=1.0, C1=1.0, C2=1.0, D=np.zeros((1, 0)), G=1.0, b=0.0,
        state_box=st.Box([0.0], [4.0]), input_box=st.Box([-0.35], [0.35]),
        internal_box=st.Box(np.zeros(0), np.zeros(0)))
    grid = st.AbstractionGrid(
        state=st.UniformGrid.cover(sys_.state_box, [0.1]),   # 40 cells
        input=st.UniformGrid.cover(sys_.input_box, [0.2309]))  # irrational-ish shifts
    sigma = 0.13
    sto = st.build_stochastic(
        sys_, st.DiscretizationSpec(tau=1.0, D_tilde=np.zeros((1, 0)),
                                    R_tilde=sigma), grid)
    edges = grid.state.axis_edges(0)
    worst = 0.0
    for s in range(sto.n_states):
        for u in range(sto.n_inputs):
            mean = (grid.state.center(s) + grid.input.center(u)).item()
            row = sto.row(s, u, 0)
            for t in range(sto.n_states):
                mass, _ = scipy.integrate.quad(
                    lambda x: scipy.stats.norm.pdf(x, mean, sigma),
                    edges[t], edges[t + 1], epsabs=1e-12, limit=200)
                worst = max(worst, abs(row[t] - mass))
    ok = worst <= 1e-6

    det = st.build_deterministic(
        sys_, st.DiscretizationSpec(tau=1.0, D_tilde=np.zeros((1, 0)),
                                    R_tilde=0.0), grid)
    tiny = st.build_stochastic(
        sys_, st.DiscretizationSpec(tau=1.0, D_tilde=np.zeros((1, 0)),
                                    R_tilde=1e-12), grid)
    agree = True
    for s in range(det.n_states):
        for u in range(det.n_inputs):
            row = tiny.row(s, u, 0)
            agree &= row.argmax() == det.successors[s, u, 0]
            agree &= abs(row.max() - 1.0) < 1e-12
    ok &= agree
    _report(5, ok, f"max |row - quadrature| = {worst:.2e}, "
                   f"sigma->0 equivalence on all triples: {agree}")


def _max_controlled_invariant_bruteforce(succ: np.ndarray, safe: np.ndarray) -> set:
    """Union of every subset of safe states closed under some input choice.

    `succ` has shape (S, U, W); an input keeps a state in the subset when
    every internal branch w does.
    """
    s, u, w = succ.shape
    safe_states = [i for i in range(s) if safe[i]]
    winning: set = set()
    for bits in range(1 << len(safe_states)):
        subset = {safe_states[j] for j in range(len(safe_states)) if bits >> j & 1}
        closed = all(
            any(all(succ[state, inp, b] in subset for b in range(w)) for inp in range(u))
            for state in subset
        )
        if closed:
            winning |= subset
    return winning


def test_criterion_6_synthesis_oracle():
    """Fixpoint equals exhaustive-subset maximal controlled invariance,
    100 runs for each of 1, 2 and 3 internal cells."""
    from test_synthesis import det_abstraction

    rng = np.random.default_rng(77)
    mismatches = 0
    for w in (1, 2, 3):
        for _ in range(100):
            s = int(rng.integers(3, 13))   # <= 12 states
            u = int(rng.integers(1, 4))    # <= 3 inputs
            succ = rng.integers(0, s + 1, size=(s, u, w))  # index s is the sink
            # random contiguous safe window expressed as an output box
            a, b = sorted(rng.integers(0, s, size=2))
            safe_box = st.Box([float(a)], [float(b + 1)])
            safe = np.zeros(s, dtype=bool)
            safe[a:b + 1] = True
            fa = det_abstraction(succ)
            ctrl = st.safety_fixpoint(fa, st.SafetySpec(safe_box=safe_box))
            expected = _max_controlled_invariant_bruteforce(succ, safe)
            if set(ctrl.winning_set.tolist()) != expected:
                mismatches += 1
    ok = mismatches == 0
    _report(6, ok, f"oracle mismatches={mismatches}/300 instances (W = 1, 2, 3)")


def test_criterion_7_monte_carlo_dominance(tmp_path):
    """Full 100-room closed loop: empirical CP bound below 0.09, outputs in band."""
    t0 = time.perf_counter()
    cfg = generate_rooms(n=100, n_trials=10_000, seed=7,
                         out_dir=str(tmp_path / "out"))
    rc = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "simulation_summary.json").read_text())
    bound = json.loads((tmp_path / "out" / "bound.json").read_text())
    ok = summary["n_trials"] == 10_000
    ok &= summary["epsilon"] == 0.5 and summary["horizon"] == 12
    ok &= bound["violation_bound"] <= 0.09 + 1e-12
    ok &= summary["cp95_upper"] <= bound["violation_bound"]
    ok &= summary["violation_free_output_min"] >= 19.5
    ok &= summary["violation_free_output_max"] <= 21.5
    ok &= elapsed < 120.0
    _report(7, ok, f"violations={summary['n_violations']}/10000, "
                   f"cp95={summary['cp95_upper']:.2e} <= 0.09, outputs in "
                   f"[{summary['violation_free_output_min']:.3f}, "
                   f"{summary['violation_free_output_max']:.3f}], "
                   f"runtime={elapsed:.1f}s")


def test_criterion_8_interface_exactness():
    """Refinement law matches symbolic evaluation on 1e5 random tuples."""
    import sympy

    xi, xih, xl, w, wl, wh, K, P, Q, H = sympy.symbols(
        "xi xih xl w wl wh K P Q H")
    expr = (K * (xi - P * xih) - Q * xih + (xl - P * xih)
            + H * (wl - wh) - H * w)
    fn = sympy.lambdify((xi, xih, xl, w, wl, wh, K, P, Q, H), expr, "math")

    rng = np.random.default_rng(31415)
    vals = rng.uniform(-10, 10, size=(100_000, 10))
    worst = 0.0
    for row in vals:
        xi_v, xih_v, xl_v, w_v, wl_v, wh_v, k_v, p_v, q_v, h_v = row
        state = InterfaceState(K=k_v, P=p_v, Q=q_v, H=h_v, tau=1.0, step=0,
                               xi_latch=[xl_v], xi_hat=[xih_v],
                               w_hat=[wh_v], w_latch=[wl_v])
        got = interface_input(state, [xi_v], [w_v], 0.5)[0]
        want = fn(xi_v, xih_v, xl_v, w_v, wl_v, wh_v, k_v, p_v, q_v, h_v)
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    ok = worst <= 1e-12

    # exact-rational spot check of the same law
    exact_worst = 0.0
    for row in vals[:200]:
        rats = [sympy.Rational(int(round(v * 64)), 64) for v in row]
        subs = dict(zip((xi, xih, xl, w, wl, wh, K, P, Q, H), rats))
        want = float(expr.subs(subs))
        f = [float(r) for r in rats]
        state = InterfaceState(K=f[6], P=f[7], Q=f[8], H=f[9], tau=1.0, step=0,
                               xi_latch=[f[2]], xi_hat=[f[1]],
                               w_hat=[f[5]], w_latch=[f[4]])
        got = interface_input(state, [f[0]], [f[3]], 0.0)[0]
        exact_worst = max(exact_worst, abs(got - want) / (1.0 + abs(want)))
    ok &= exact_worst <= 1e-12
    _report(8, ok, f"float worst rel err={worst:.2e}, "
                   f"exact-rational worst={exact_worst:.2e} over 1e5 tuples")


def test_criterion_9_pipeline_determinism(tmp_path):
    """Same config and seed produce byte-identical artifacts."""
    cfg = generate_rooms(n=8, n_trials=400, seed=13)
    rc1 = run_pipeline(cfg, out_dir=str(tmp_path / "a"))
    rc2 = run_pipeline(cfg, out_dir=str(tmp_path / "b"))
    assert rc1 == 0 and rc2 == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    ok = names == sorted(p.name for p in (tmp_path / "b").iterdir())
    diffs = []
    for name in names:
        if not filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False):
            diffs.append(name)
    ok &= not diffs
    _report(9, ok, f"{len(names)} artifacts byte-identical"
                   + (f"; diffs: {diffs}" if diffs else ""))

import json
import re

import numpy as np
import pytest

import stochsym as st
from stochsym import composition
from stochsym.cli import (
    EXIT_CONDITION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    STAGES,
    circular_coupling,
    generate_rooms,
    load_config,
    main,
    run_pipeline,
)
from stochsym.errors import CheckFailed, ConfigError, TooFewRooms

from conftest import traced_peak


def small_rooms(tmp_path, n=4, trials=60, **kw):
    # >= 33 trials so a zero-violation Clopper-Pearson bound can sit below 0.09
    # 40 substeps: the demo's resolution of the output envelope
    return generate_rooms(n=n, n_trials=trials, n_substeps=40, seed=11,
                          out_dir=str(tmp_path / "out"), **kw)


class TestGenerateRooms:
    def test_default_parameters(self):
        cfg = generate_rooms()
        template = cfg["systems"]["template"]
        assert template["B"] == [[0.5]]
        assert template["A"][0][0] == pytest.approx(-0.105)
        assert template["D"] == [[0.05]]
        assert template["b"] == [-0.005]
        cert = cfg["certificates"]["values"][0]
        assert cert["Q"][0][0] == pytest.approx(-0.21)
        assert cert["H"][0][0] == pytest.approx(0.1)
        assert cert["kappa_bar"] == 0.499
        assert cert["pi"] == 1.0
        # tau and the quantization radius are the discretization's and the grid's
        assert cfg["discretization"]["tau"] == 0.1
        assert "tau" not in cert and "delta" not in cert
        # gain is at least as strong as the closed-form stabilizing bound
        assert cert["K"][0][0] <= -68.85

    def test_three_room_ring(self):
        m = circular_coupling(3)
        assert np.array_equal(m.toarray(), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                                    dtype=float))
        assert np.all(m.toarray().sum(axis=1) == 2)

    def test_coupling_row_sums_at_scale(self):
        assert np.all(circular_coupling(100).toarray().sum(axis=1) == 2)

    def test_too_few_rooms(self):
        with pytest.raises(TooFewRooms):
            generate_rooms(n=2)

    def test_zero_actuation_defers_to_solver(self, tmp_path):
        cfg = small_rooms(tmp_path, theta=0.0)
        assert cfg["certificates"]["mode"] == "solve"
        rc = run_pipeline(cfg, stages=["verify"])
        assert rc == EXIT_CONDITION  # unstabilizable: the decay condition fails

    def test_initial_state_is_a_grid_representative(self):
        cfg = generate_rooms(n=5)
        x0 = cfg["simulation"]["x0"][0]
        grid = st.UniformGrid.cover(st.Box([20.0], [21.0]), [0.005])
        q = st.quantize(grid, [x0])
        assert q.representative[0] == x0


class TestLoadConfig:
    def test_replicated_template_expands(self, tmp_path):
        bundle = load_config(small_rooms(tmp_path, n=5))
        # five subsystems, one group: each object is held once
        assert bundle.ic.n_subsystems == 5 and len(bundle.systems) == 1
        assert bundle.ic.group_of.tolist() == [0] * 5
        assert bundle.ic.M.shape == (5, 5)
        assert bundle.grids[0].state.n_points == 200
        assert bundle.grids[0].input.n_points == 201

    def test_json_file_round_trip(self, tmp_path):
        cfg = small_rooms(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        bundle = load_config(path)
        assert bundle.name == "rooms-4"

    def test_missing_file_is_config_error(self):
        assert run_pipeline("/nonexistent/config.json") == EXIT_CONFIG

    def test_unreadable_config_is_config_error(self, tmp_path):
        # a directory exists but cannot be read as a file
        assert run_pipeline(tmp_path) == EXIT_CONFIG

    def test_system_file_reference(self, tmp_path):
        cfg = small_rooms(tmp_path, n=3)
        (tmp_path / "room.json").write_text(
            json.dumps(cfg["systems"]["template"]))
        cfg["systems"] = {"replicate": 3, "template": {"file": "room.json"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        bundle = load_config(path)
        assert bundle.ic.n_subsystems == 3
        assert bundle.systems[0].B[0, 0] == 0.5

    def test_missing_system_reference_is_config_error(self, tmp_path):
        cfg = small_rooms(tmp_path, n=3)
        cfg["systems"] = {"replicate": 3, "template": {"file": "absent.json"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run_pipeline(path) == EXIT_CONFIG

    def test_non_prefix_stages_rejected(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        assert run_pipeline(cfg, stages=["compose"]) == EXIT_CONFIG
        assert run_pipeline(cfg, stages=["verify", "abstract"]) == EXIT_CONFIG
        assert "got ['verify', 'abstract']" in capsys.readouterr().err
        # the config's own stages list is checked the same way
        cfg["stages"] = ["verify", "bound"]
        assert run_pipeline(cfg) == EXIT_CONFIG
        assert "got ['verify', 'bound']" in capsys.readouterr().err

    def test_malformed_coupling_is_config_error(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        cfg["systems"]["replicate"] = 2  # too few subsystems for a ring
        assert run_pipeline(cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "interconnection.coupling is malformed: ring coupling needs at least 3 " \
            "rooms, got 2" in err and "systems.replicate" in err
        cfg2 = small_rooms(tmp_path)
        del cfg2["discretization"]["tau"]
        assert run_pipeline(cfg2) == EXIT_CONFIG


class TestRunPipeline:
    def test_verify_only_stops_early(self, tmp_path):
        cfg = small_rooms(tmp_path)
        rc = run_pipeline(cfg, stages=["verify"])
        assert rc == EXIT_OK
        out = tmp_path / "out"
        assert (out / "certificates.json").exists()
        assert not (out / "composition.json").exists()

    def test_full_pipeline_artifacts(self, tmp_path):
        cfg = small_rooms(tmp_path)
        rc = run_pipeline(cfg)
        assert rc == EXIT_OK
        out = tmp_path / "out"
        for name in ("certificates.json", "composition.json", "abstraction.json",
                     "abstraction.csv", "controller.csv", "controller.json",
                     "bound.json", "simulation_summary.json", "trajectories.csv"):
            assert (out / name).exists(), name
        bound = json.loads((out / "bound.json").read_text())
        assert bound["success_bound"] >= 0.91 - 1e-12
        assert bound["v0"] == 0.0
        assert bound["reported_psi_reproduced"] is False
        summary = json.loads((out / "simulation_summary.json").read_text())
        assert summary["cp95_below_theoretical"] is True
        assert summary["bit_generator"] == "SFC64"
        # no trial violates, so every (trial, interval) pair takes substeps
        assert summary["n_violations"] == 0
        assert summary["substep_intervals"] == summary["n_trials"] * summary["horizon"]

    def test_every_trial_violating_writes_strict_json(self, tmp_path, caplog):
        # a tiny epsilon makes every trial violate: no violation-free output
        # exists (null, not NaN).  With a zero defect the bound on that same
        # event is 0, and 8 of 8 violations refute it
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        cfg = small_rooms(tmp_path, trials=8)
        cfg["bound"]["epsilon"] = 1e-6
        cfg["bound"]["psi_hat_override"] = 0.0
        with caplog.at_level("WARNING", logger="stochsym.cli"):
            assert run_pipeline(cfg) == EXIT_OK
        text = (tmp_path / "out" / "simulation_summary.json").read_text()
        summary = json.loads(text, parse_constant=no_constants)
        assert summary["epsilon"] == 1e-6 and summary["theoretical_violation_bound"] == 0.0
        assert summary["n_violations"] == 8
        assert summary["violation_free_output_min"] is None
        assert summary["violation_free_output_max"] is None
        assert summary["cp95_lower"] == pytest.approx(0.05 ** (1 / 8), rel=1e-12)
        assert summary["bound_refuted"] is True
        assert summary["cp95_below_theoretical"] is False
        assert "refuted" in caplog.text
        for path in (tmp_path / "out").glob("*.json"):
            json.loads(path.read_text(), parse_constant=no_constants)

    def test_non_finite_artifact_value_is_a_runtime_error(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        cfg["bound"]["reported"]["kappa"] = float("nan")
        assert run_pipeline(cfg) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "bound.json").exists()

    def test_unwritable_output_is_a_runtime_error(self, tmp_path, capsys):
        # a regular file where a directory is needed, then an artifact path
        # that is a directory: both are tagged, neither is a traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = small_rooms(tmp_path)
        assert run_pipeline(cfg, stages=["verify"], out_dir=blocker / "out") == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        (tmp_path / "out" / "certificates.json").mkdir(parents=True)
        assert run_pipeline(cfg, stages=["verify"]) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err

    def test_bound_names_its_headline_source(self, tmp_path):
        # the demo's override carries the headline; without it the formula
        # does, and at a small epsilon the formula bound is a vacuous 1
        cfg = small_rooms(tmp_path)
        stages = ["verify", "compose", "abstract", "synthesize", "bound"]
        cases = [("override", 0.5, False), ("formula", 0.5, False), ("formula", 0.1, True)]
        for source, epsilon, vacuous in cases:
            if source == "formula":
                cfg["bound"]["psi_hat_override"] = None
            cfg["bound"]["epsilon"] = epsilon
            assert run_pipeline(cfg, stages=stages) == EXIT_OK
            bound = json.loads((tmp_path / "out" / "bound.json").read_text())
            assert bound["headline_source"] == source
            assert bound["formula_vacuous"] is vacuous
            assert (bound["violation_bound"] == 1.0) is (source == "formula" and vacuous)
        assert bound["regime"] == "case-2"

    def test_thread_count_does_not_change_artifacts(self, tmp_path, monkeypatch):
        artifacts = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("STOCHSYM_THREADS", threads)
            assert run_pipeline(small_rooms(tmp_path / threads)) == EXIT_OK
            out = tmp_path / threads / "out"
            artifacts[threads] = {p.relative_to(out): p.read_bytes()
                                  for p in out.rglob("*") if p.is_file()}
        assert len(artifacts["1"]) >= 9
        assert artifacts["1"] == artifacts["2"]

    def test_broken_q_names_the_matching_condition(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        cfg["certificates"]["values"][0]["Q"] = [[0.4]]
        rc = run_pipeline(cfg, stages=["verify"])
        assert rc == EXIT_CONDITION
        assert "Con_2" in capsys.readouterr().err

    def test_broken_coupling_names_well_posedness(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        cfg["systems"]["template"]["internal_box"] = {"lower": [40.0],
                                                      "upper": [41.0]}
        rc = run_pipeline(cfg, stages=["verify"])
        assert rc == EXIT_CONDITION
        assert "well-posedness" in capsys.readouterr().err

    def test_violated_network_lmi_names_condition(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        # a positive internal-output budget breaks the network inequality
        cfg["certificates"]["values"][0]["Xbar22"] = [[1.0]]
        rc = run_pipeline(cfg, stages=["verify", "compose"])
        assert rc == EXIT_CONDITION
        assert "Con_1a" in capsys.readouterr().err

    @pytest.mark.parametrize("tag, edit, written", [
        ("Con_1", lambda cfg: cfg["certificates"]["values"][0].update(K=[[0.0]]), []),
        ("Con_3", lambda cfg: cfg["certificates"]["values"][0].update(H=[[0.0]]), []),
        ("Eq_8a", lambda cfg: cfg["certificates"]["values"][0].update(Xbar11=[[0.0]]), []),
        # four cells of width 0.3 reach past the state box, to 21.2
        ("Con111", lambda cfg: cfg["grid"].update(state_widths=[0.3]),
         ["certificates.json"]),
        # a safe set that holds no cell centre
        ("winning-set", lambda cfg: cfg["safety"].update(lower=[20.0], upper=[20.002]),
         ["abstraction.csv", "abstraction.json", "certificates.json", "composition.json"]),
    ], ids=["Con_1", "Con_3", "Eq_8a", "Con111", "winning-set"])
    def test_failed_condition_exits_2_before_its_artifacts(self, tmp_path, capsys,
                                                           tag, edit, written):
        cfg = generate_rooms(n=4, n_trials=8, out_dir=str(tmp_path / "out"))
        edit(cfg)
        assert run_pipeline(cfg) == EXIT_CONDITION
        assert f"condition violated: {tag} (" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written

    def test_inconclusive_network_lmi_never_passes(self, tmp_path, capsys, monkeypatch):
        # mu = (0.5, 1, 1.5, 1) and a 16-fold Xbar11: the form's top
        # eigenvalue is -2.2e-6 but its Gershgorin bound +3.5e-6, so only
        # the bisection's factorizations can prove the LMI
        cfg = small_rooms(tmp_path)
        cert = cfg["certificates"]["values"][0]
        cert["Xbar11"] = [[16 * cert["Xbar11"][0][0]]]
        cfg["interconnection"]["mu"] = [0.5, 1.0, 1.5, 1.0]
        assert run_pipeline(cfg, stages=["verify", "compose"]) == EXIT_OK
        comp = json.loads((tmp_path / "out" / "composition.json").read_text())
        assert not comp["gershgorin"]["ok"] and comp["lmi_factorizations"] > 0
        lower, upper = comp["lmi_bracket"]
        assert lower <= upper == -comp["lmi_margin"] < 0
        capsys.readouterr()

        # a bisection that stops before its bracket leaves the tolerance
        # neither proves nor refutes the LMI: [1^T F 1 / n, bound] straddles it
        monkeypatch.setattr(composition, "_BRACKET_RTOL", 10.0)
        (tmp_path / "out" / "composition.json").unlink()
        rc = run_pipeline(cfg, stages=["verify", "compose"])
        assert rc == EXIT_CONDITION
        err = capsys.readouterr().err
        assert "condition violated: Con_1a-inconclusive" in err
        assert f"{comp['gershgorin']['bound']:.3e}]" in err
        assert not (tmp_path / "out" / "composition.json").exists()

    def test_gridless_compose_reports_skipped_abstract_check(self, tmp_path):
        cfg = small_rooms(tmp_path)
        assert run_pipeline(cfg, stages=["verify", "compose"]) == EXIT_OK
        comp = json.loads((tmp_path / "out" / "composition.json").read_text())
        assert comp["abstract_well_posed"] is True
        del cfg["grid"]
        assert run_pipeline(cfg, stages=["verify", "compose"]) == EXIT_OK
        comp = json.loads((tmp_path / "out" / "composition.json").read_text())
        assert comp["abstract_well_posed"] is None  # no grids: check skipped

    def test_stochastic_variant_full_pipeline(self, tmp_path):
        # noise in the abstract model: Markov kernel, value iteration, and
        # sampled abstract advance all the way through the pipeline
        cfg = small_rooms(tmp_path, trials=40)
        cfg["discretization"]["R_tilde"] = [[0.002]]
        cfg["grid"] = {"state_widths": [0.05], "input_widths": [0.005],
                       "internal_widths": [2.0]}
        cfg["safety"]["horizon"] = 12
        rc = run_pipeline(cfg)
        assert rc == EXIT_OK
        out = tmp_path / "out"
        head = json.loads((out / "abstraction.json").read_text())
        assert head["kind"] == "stochastic"
        ctrl_lines = (out / "controller.csv").read_text().splitlines()
        assert ctrl_lines[0] == "state_idx,step,input_idx"
        meta = json.loads((out / "controller.json").read_text())
        assert 0.0 <= meta["min_value_on_winning"] <= 1.0

    def test_stochastic_without_horizon_is_config_error(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        cfg["discretization"]["R_tilde"] = [[0.002]]
        cfg["grid"] = {"state_widths": [0.05], "input_widths": [0.005],
                       "internal_widths": [2.0]}
        assert run_pipeline(cfg) == EXIT_CONFIG
        assert "safety.horizon" in capsys.readouterr().err

    def test_finite_horizon_runs_value_iteration_on_point_masses(self, tmp_path):
        # a noise-free abstraction with a finite safety horizon gets the
        # time-varying table of value iteration, through the simulation
        cfg = small_rooms(tmp_path, trials=8)
        cfg["safety"]["horizon"] = 12
        assert run_pipeline(cfg) == EXIT_OK
        out = tmp_path / "out"
        assert json.loads((out / "abstraction.json").read_text())["kind"] == "deterministic"
        lines = (out / "controller.csv").read_text().splitlines()
        assert lines[0] == "state_idx,step,input_idx"
        assert {line.split(",")[1] for line in lines[1:]} == {str(k) for k in range(12)}
        # 12 safe steps are won from every state the infinite horizon wins
        bundle = load_config(cfg)
        fa = st.build_deterministic(bundle.systems[0], bundle.discs[0], bundle.grids[0])
        finite = st.safety_value_iteration(fa, bundle.safety)
        forever = st.safety_fixpoint(fa, st.SafetySpec(safe_box=bundle.safety.safe_box))
        assert set(forever.winning_set.tolist()) <= set(finite.winning_set.tolist())
        meta = json.loads((out / "controller.json").read_text())
        assert meta["winning_states"] == finite.winning_set.size

    def test_seed_override_changes_summary(self, tmp_path):
        cfg = small_rooms(tmp_path)
        assert run_pipeline(cfg, seed=1, out_dir=str(tmp_path / "a")) == EXIT_OK
        assert run_pipeline(cfg, seed=2, out_dir=str(tmp_path / "b")) == EXIT_OK
        sa = json.loads((tmp_path / "a" / "simulation_summary.json").read_text())
        sb = json.loads((tmp_path / "b" / "simulation_summary.json").read_text())
        assert sa["rng_seed"] != sb["rng_seed"]
        assert sa["mean_sup_error"] != sb["mean_sup_error"]


def test_rooms_with_different_p_get_their_own_abstraction(tmp_path):
    # identical rooms whose certificates differ only in P must not share an
    # abstraction: its output maps C1 P and C2 P depend on P
    from stochsym import cli

    cfg = small_rooms(tmp_path)
    _per_room_certificates(cfg)[2]["P"] = [[0.98]]
    bundle = load_config(cfg)
    assert bundle.ic.group_of.tolist() == [0, 0, 1, 0]
    (tmp_path / "out").mkdir()
    ctx = {"out": tmp_path / "out"}
    cli._stage_abstract(bundle, ctx)
    fas = ctx["abstractions"]
    assert len(fas) == 2 and fas[0] is not fas[1]
    for s, c, fa in zip(bundle.systems, bundle.certs, fas):
        assert np.array_equal(fa.output_map, s.C1 @ c.P)
    assert fas[1].output_map[0, 0] == 0.98
    assert (tmp_path / "out" / "abstraction_1.json").exists()


class TestMain:
    def test_demo_rooms_entry_point(self, tmp_path):
        rc = main(["demo-rooms", "--rooms", "4", "--trials", "20",
                   "--stages", "verify,compose",
                   "--out", str(tmp_path / "demo"),
                   "--write-config", str(tmp_path / "cfg.json")])
        assert rc == EXIT_OK
        assert (tmp_path / "cfg.json").exists()
        assert (tmp_path / "demo" / "composition.json").exists()

    def test_stage_subcommand_runs_prefix(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = small_rooms(tmp_path)
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["compose", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert (tmp_path / "o" / "composition.json").exists()
        assert not (tmp_path / "o" / "bound.json").exists()

    def test_unwritable_paths_exit_as_runtime_errors(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["demo-rooms", "--rooms", "4", "--trials", "8", "--stages", "verify",
                   "--out", str(blocker / "out")])
        assert rc == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        rc = main(["demo-rooms", "--rooms", "4", "--trials", "8", "--stages", "verify",
                   "--out", str(tmp_path / "demo"),
                   "--write-config", str(blocker / "cfg.json")])
        assert rc == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "demo").exists()

    def test_run_subcommand_with_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == EXIT_CONFIG


def _per_room_certificates(cfg, n=4):
    # the replicated certificate written out once per room, so one can differ
    cfg["certificates"]["values"] = [dict(cfg["certificates"]["values"][0])
                                     for _ in range(n)]
    return cfg["certificates"]["values"]


class TestVerifyOncePerGroup:
    def test_each_check_runs_once_for_identical_rooms(self, tmp_path, monkeypatch):
        from stochsym import certificates, model

        calls = {}

        def counted(mod, name):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        for name in ("check_lyapunov", "check_geometric", "check_dissipativity_lmi",
                     "validate_certificate"):
            counted(certificates, name)
        counted(model, "validate_system")
        assert run_pipeline(small_rooms(tmp_path), stages=["verify"]) == EXIT_OK
        assert calls == {"check_lyapunov": 1, "check_geometric": 1,
                         "check_dissipativity_lmi": 1, "validate_certificate": 1,
                         "validate_system": 1}

    def test_failing_room_is_named(self, tmp_path, capsys):
        cfg = small_rooms(tmp_path)
        _per_room_certificates(cfg)[2]["Q"] = [[0.4]]
        assert run_pipeline(cfg, stages=["verify"]) == EXIT_CONDITION
        err = capsys.readouterr().err
        assert "Con_2" in err and "subsystem 2" in err

    def test_report_is_the_whole_payload_encoded(self, tmp_path):
        # two interleaved groups (rooms 1 and 3 with a stronger gain): one row
        # per group, the group index per room, and the strict stdlib encoding
        cfg = small_rooms(tmp_path)
        values = _per_room_certificates(cfg)
        for i in (1, 3):
            values[i]["K"] = [[2.0 * values[i]["K"][0][0]]]
        assert run_pipeline(cfg, stages=["verify"]) == EXIT_OK
        text = (tmp_path / "out" / "certificates.json").read_text()
        report = json.loads(text)
        assert report["group_of"] == [0, 1, 0, 1]
        rows = report["groups"]
        assert len(rows) == 2 and all("subsystem" not in row for row in rows)
        assert rows[0]["certificate"]["K"] == values[0]["K"]
        assert rows[1]["certificate"]["K"] == values[1]["K"] != values[0]["K"]
        # indented and key-sorted, but the group index on one line
        layout = json.dumps({**report, "group_of": None}, indent=2, sort_keys=True,
                            allow_nan=False)
        assert text == layout.replace('"group_of": null', '"group_of": [0, 1, 0, 1]') + "\n"

    def test_room_with_own_gain_gets_own_margins(self, tmp_path):
        cfg = small_rooms(tmp_path)
        assert run_pipeline(cfg, stages=["verify"],
                            out_dir=str(tmp_path / "same")) == EXIT_OK
        values = _per_room_certificates(cfg)
        values[2]["K"] = [[2.0 * values[2]["K"][0][0]]]  # a stronger, still valid gain
        assert run_pipeline(cfg, stages=["verify"],
                            out_dir=str(tmp_path / "own")) == EXIT_OK
        same = json.loads((tmp_path / "same" / "certificates.json").read_text())
        own = json.loads((tmp_path / "own" / "certificates.json").read_text())

        def row_of(report, i):
            return report["groups"][report["group_of"][i]]

        assert own["group_of"] == [0, 0, 1, 0]
        for i in (0, 1, 3):
            assert row_of(own, i) == row_of(same, i)
        row = row_of(own, 2)
        assert row["certificate"]["K"] == values[2]["K"]
        bundle = load_config(cfg)
        cert = st.StorageCertificate(**values[2])
        lyap = st.check_lyapunov(bundle.systems[bundle.ic.group_of[2]], cert.M_bar, cert.K,
                                 cert.kappa_tilde)
        assert row["lyapunov_margin"] == lyap.margin
        assert row["lyapunov_margin"] != row_of(same, 2)["lyapunov_margin"]


def test_rooms_with_different_k_are_grouped_apart(tmp_path):
    cfg = small_rooms(tmp_path)
    values = _per_room_certificates(cfg)
    assert load_config(cfg).ic.group_of.tolist() == [0, 0, 0, 0]
    values[2]["K"] = [[2.0 * values[2]["K"][0][0]]]
    bundle = load_config(cfg)
    assert bundle.ic.group_of.tolist() == [0, 0, 1, 0]
    assert [c.K[0, 0] for c in bundle.certs] == [values[0]["K"][0][0], values[2]["K"][0][0]]


def test_broadcast_certificate_is_one_shared_object(tmp_path):
    # a bare entry and a list of one are both built once for every room
    cfg = small_rooms(tmp_path)
    for listed in (False, True):
        if listed:
            for key in ("discretization", "grid"):
                cfg[key] = [cfg[key]]
            cfg["systems"] = [cfg["systems"]["template"]] * 4
        bundle = load_config(cfg)
        assert bundle.ic.group_of.tolist() == [0, 0, 0, 0]
        for objects in (bundle.systems, bundle.discs, bundle.grids, bundle.certs):
            assert len(objects) == 1


def test_equal_per_room_certificates_share_one_group(tmp_path):
    # distinct entries with equal values are one object and one group
    cfg = small_rooms(tmp_path)
    _per_room_certificates(cfg)
    bundle = load_config(cfg)
    assert len(bundle.certs) == 1
    assert bundle.ic.group_of.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("field, value", [
    ("eta_bar_p", 3.0), ("kappa_bar", 0.498), ("Xbar22", [[-1.0]]), ("eta_bar", 2.0),
])
def test_rooms_with_any_differing_certificate_field_split(tmp_path, field, value):
    cfg = small_rooms(tmp_path)
    _per_room_certificates(cfg)[1][field] = value
    bundle = load_config(cfg)
    assert bundle.ic.group_of.tolist() == [0, 1, 0, 0]
    assert bundle.certs[1].to_dict()[field] == value


def test_systems_and_grids_split_groups_by_value(tmp_path):
    # a differing system or grid entry splits its room off; groups are
    # numbered by their lowest member, and equal entries join one group
    cfg = small_rooms(tmp_path)
    template = cfg["systems"]["template"]
    cfg["systems"] = [dict(template) for _ in range(4)]
    cfg["systems"][1]["G"] = [[0.25]]
    cfg["grid"] = [dict(cfg["grid"]) for _ in range(4)]
    cfg["grid"][3]["state_widths"] = [0.01]
    cfg["grid"][2]["state_widths"] = [0.005]  # equal by value to the others
    bundle = load_config(cfg)
    assert bundle.ic.group_of.tolist() == [0, 1, 0, 2]
    assert [s.G[0, 0] for s in bundle.systems] == [0.5, 0.25, 0.5]
    assert [g.state.widths[0] for g in bundle.grids] == [0.005, 0.005, 0.01]
    assert bundle.systems[0] is bundle.systems[2]


def test_explicit_equal_entries_write_the_replicated_artifacts(tmp_path):
    # four system entries and four certificate entries, each equal to the
    # template: one group, so every artifact is the replicated run's
    cfg = small_rooms(tmp_path, trials=8)
    assert run_pipeline(cfg, out_dir=str(tmp_path / "replicated")) == EXIT_OK
    cfg["systems"] = [dict(cfg["systems"]["template"]) for _ in range(4)]
    _per_room_certificates(cfg)
    assert run_pipeline(cfg, out_dir=str(tmp_path / "listed")) == EXIT_OK
    files = {}
    for name in ("replicated", "listed"):
        out = tmp_path / name
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert files["listed"] == files["replicated"]
    assert "abstraction.csv" in files["listed"]
    assert not any(name.startswith("abstraction_") for name in files["listed"])


def test_one_template_config_makes_no_key_or_sorting_pass(tmp_path, monkeypatch):
    # every per-room field has one entry, so no value key is built and no
    # grouping pass runs; once a room differs, both run again
    from stochsym import cli

    calls, keys = [], []
    unique, value_key = np.unique, cli._value_key

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    def key_spy(value):
        keys.append(value)
        return value_key(value)

    monkeypatch.setattr(np, "unique", spy)
    monkeypatch.setattr(cli, "_value_key", key_spy)
    cfg = small_rooms(tmp_path)
    assert load_config(cfg).ic.group_of.tolist() == [0, 0, 0, 0]
    assert calls == [] and keys == []
    _per_room_certificates(cfg)[2]["K"] = [[-100.0]]
    assert load_config(cfg).ic.group_of.tolist() == [0, 0, 1, 0]
    assert calls and keys


@pytest.mark.parametrize("n", [3, 5])
def test_equal_entries_group_as_one_entry_does(tmp_path, n):
    # n equal entries of every per-room field against the template's one
    from stochsym import cli

    one = small_rooms(tmp_path, n=n)
    listed = small_rooms(tmp_path, n=n)
    listed["systems"] = [dict(listed["systems"]["template"]) for _ in range(n)]
    for key in ("discretization", "grid"):
        listed[key] = [dict(listed[key]) for _ in range(n)]
    _per_room_certificates(listed, n=n)
    a, b = load_config(one), load_config(listed)
    assert a.ic.group_of.dtype == b.ic.group_of.dtype
    assert a.ic.group_of.tolist() == b.ic.group_of.tolist() == [0] * n
    for kind in ("systems", "discs", "grids", "certs"):
        groups_a, groups_b = getattr(a, kind), getattr(b, kind)
        assert len(groups_a) == len(groups_b) == 1
        assert cli._value_key(groups_a[0]) == cli._value_key(groups_b[0])


def test_ring_of_many_rooms_loads_one_object_per_kind(tmp_path):
    # 10^5 replicated rooms resolve to one group: a single object of each
    # kind and an all-zero group index, however many rooms there are
    bundle = load_config(generate_rooms(n=100_000, out_dir=str(tmp_path)))
    for objects in (bundle.systems, bundle.discs, bundle.grids, bundle.certs):
        assert len(objects) == 1
    assert bundle.ic.group_of.shape == (100_000,) and not bundle.ic.group_of.any()
    assert bundle.ic.n_subsystems == 100_000


def test_ring_of_many_rooms_writes_one_certificate_row(tmp_path):
    # verify alone on 10^5 rooms: one group row and the group index (about
    # 0.7 MB), where a row per room would be 127.5 MB
    cfg = generate_rooms(n=100_000, out_dir=str(tmp_path))
    assert run_pipeline(cfg, stages=["verify"]) == EXIT_OK
    path = tmp_path / "certificates.json"
    assert path.stat().st_size < 1_000_000
    report = json.loads(path.read_text())
    assert len(report["groups"]) == 1 and len(report["group_of"]) == 100_000


def test_group_index_takes_one_line(tmp_path):
    # written by the stdlib's C encoder, so the file has as many lines at
    # 400 rooms as at 4, and it reads back as the interconnection's index
    lines = []
    for n in (4, 400):
        cfg = generate_rooms(n=n, out_dir=str(tmp_path / str(n)))
        assert run_pipeline(cfg, stages=["verify"]) == EXIT_OK
        text = (tmp_path / str(n) / "certificates.json").read_text()
        assert json.loads(text)["group_of"] == load_config(cfg).ic.group_of.tolist()
        lines.append(text.count("\n"))
    assert lines[0] == lines[1]


def test_initial_v0_matches_per_room_quantization(tmp_path):
    # the array-wise lookup against the scalar quantizer, term by term in
    # room order, with rooms split over two groups
    from stochsym import cli

    cfg = small_rooms(tmp_path, n=5)
    values = _per_room_certificates(cfg, n=5)
    values[3].update(P=[[0.999]], M_bar=[[2.0]])
    bundle = load_config(cfg)
    assert bundle.ic.group_of.tolist() == [0, 0, 0, 1, 0]
    x0 = np.array([20.5, 20.013, 20.9991, 20.4, 20.0002])
    expected = 0.0
    for i, g in enumerate(bundle.ic.group_of):
        c, grid = bundle.certs[g], bundle.grids[g]
        q = st.quantize(grid.state, x0[i:i + 1])
        m = x0[i:i + 1] - c.P @ q.representative
        expected += float(bundle.ic.mu[i]) * float(m @ c.M_bar @ m)
    assert cli._initial_v0(bundle, x0) == expected
    x0[4] = 21.5
    with pytest.raises(ConfigError, match="simulation.x0 puts subsystem 4 outside the state grid"):
        cli._initial_v0(bundle, x0)


def test_wrong_length_x0_is_config_error(tmp_path, capsys):
    cfg = small_rooms(tmp_path)
    cfg["simulation"]["x0"] = cfg["simulation"]["x0"][:3]
    assert run_pipeline(cfg) == EXIT_CONFIG  # stops before the first stage
    err = capsys.readouterr().err
    assert "simulation.x0" in err and "3 values" in err and "4 states" in err
    with pytest.raises(ConfigError, match=r"simulation\.x0 has 3 values.*4 states"):
        load_config(cfg)
    assert not (tmp_path / "out").exists()
    del cfg["simulation"]["x0"]
    bundle = load_config(cfg)  # the bound's initial storage is the storage at x0
    assert bundle.x0.size == 0 and bundle.v0 is None
    for stages in (None, list(STAGES[:5])):  # through simulate, and through bound
        assert run_pipeline(cfg, stages=stages) == EXIT_CONFIG
        assert "simulation.x0 is missing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("block", ["simulation", "bound", "safety",
                                   "interconnection", "certificates"])
@pytest.mark.parametrize("value", [[1], "text", 3])
def test_non_object_block_is_config_error(tmp_path, capsys, block, value):
    cfg = small_rooms(tmp_path)
    cfg[block] = value
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert f"'{block}' must be a JSON object" in capsys.readouterr().err


def test_gridless_abstract_is_config_error(tmp_path, capsys):
    cfg = small_rooms(tmp_path)
    del cfg["grid"]
    assert run_pipeline(cfg, stages=["verify", "compose", "abstract"]) == EXIT_CONFIG
    assert "subsystem 0 has no grid" in capsys.readouterr().err


def test_synthesize_logs_the_smallest_winning_fraction(tmp_path, caplog):
    # a coarser grid for room 1 keeps fewer of its cells inside the
    # contracted safe box: group 0 wins 0.97 of its states, group 1 0.96
    cfg = generate_rooms(n=4, n_trials=8, out_dir=str(tmp_path / "out"))
    cfg["grid"] = [dict(cfg["grid"]) for _ in range(4)]
    cfg["grid"][1]["state_widths"] = [0.01]
    cfg["safety"]["contraction"] = 0.0171
    with caplog.at_level("INFO", logger="stochsym.cli"):
        assert run_pipeline(cfg, stages=STAGES[:STAGES.index("synthesize") + 1]) == EXIT_OK
    fractions = [json.loads((tmp_path / "out" / f"controller_{g}.json").read_text())
                 ["winning_fraction"] for g in (0, 1)]
    assert fractions == [0.97, 0.96]
    assert "smallest winning fraction 0.960 (abstraction group 1 of 2)" in caplog.text


def test_mixed_sampling_times_are_rejected_before_any_artifact(tmp_path, capsys):
    # the simulated network has one sampling time: a config whose rooms
    # differ in tau stops before its first artifact when simulate runs, and
    # runs through bound when it does not
    cfg = generate_rooms(n=4, n_trials=16, out_dir=str(tmp_path / "out"))
    cfg["discretization"] = [dict(cfg["discretization"]) for _ in range(4)]
    cfg["discretization"][1]["tau"] = 0.1000001
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert "discretization" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    through_bound = STAGES[:STAGES.index("bound") + 1]
    assert run_pipeline(cfg, stages=through_bound) == EXIT_OK
    assert (tmp_path / "out" / "bound.json").exists()


@pytest.mark.parametrize("block, field, value", [
    ("simulation", "x0", None),
    ("simulation", "n_trials", None),
    ("bound", "epsilon", None),
    ("bound", "horizon", "twelve"),
    ("bound", "horizon", 0),  # the bound of no steps, but nothing to simulate
])
def test_late_stage_field_error_is_config_error(tmp_path, capsys, block, field, value):
    # a missing (None) or bad field of the bound or simulation block exits 3
    # and names the field, instead of escaping as a traceback
    cfg = small_rooms(tmp_path)
    if value is None:
        del cfg[block][field]
    else:
        cfg[block][field] = value
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert f"{block}.{field}" in capsys.readouterr().err


def test_non_finite_coupling_is_config_error(tmp_path, capsys):
    cfg = small_rooms(tmp_path, n=3)
    m = circular_coupling(3).toarray().tolist()
    m[0][1] = float("nan")
    cfg["interconnection"]["coupling"] = {"kind": "dense", "M": m}
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert "non-finite entry in 'M'" in capsys.readouterr().err


@pytest.mark.parametrize("coupling, message", [
    ({"kind": "ring"}, "interconnection.coupling.kind must be"),
    ({"kind": "circular", "n": 4}, "interconnection.coupling.n is no longer read"),
    ({"kind": "dense"}, "interconnection.coupling.M is missing"),
])
def test_coupling_error_names_the_field(tmp_path, capsys, coupling, message):
    cfg = small_rooms(tmp_path)
    cfg["interconnection"]["coupling"] = coupling
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_ring_coupling_memory_does_not_grow_with_n_squared(tmp_path):
    # a dense 2000-room M is 32 MB; as CSR it is 2 nonzeros per row, so
    # neither config load nor the well-posedness check comes near it
    from stochsym import cli

    cfg = generate_rooms(n=2000, out_dir=str(tmp_path))
    bundle, load_peak = traced_peak(load_config, cfg)
    assert bundle.ic.M.nnz == 4000
    _, verify_peak = traced_peak(cli._stage_verify, bundle, {"out": tmp_path})
    assert load_peak < 2e6 and verify_peak < 2e6


def test_infinite_weight_is_config_error(tmp_path, capsys):
    # JSON's Infinity parses to a float weight; compose's eigensolve would
    # fail to converge on it, so loading the config rejects it
    cfg = small_rooms(tmp_path, n=3)
    cfg["interconnection"]["mu"] = [float("inf"), 1.0, 1.0]
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(cfg))
    assert "Infinity" in path.read_text()
    assert run_pipeline(path) == EXIT_CONFIG
    assert "weight 0 is not a finite positive number" in capsys.readouterr().err


def _set(path, value):
    def edit(cfg):
        *parents, leaf = path
        block = cfg
        for key in parents:
            block = block[key]
        if value is None:
            block.pop(leaf, None)  # an optional field may be absent already
        else:
            block[leaf] = value
    return edit


def _cert_edit(edit):
    def apply(cfg):
        edit(cfg["certificates"]["values"][0])
    return apply


def _solve_mode(cfg):
    cfg["certificates"] = {key: value for key, value in generate_rooms(
        n=4, theta=0.0)["certificates"].items() if key != "kappa_tilde"}


def _solved(edit=None):
    # solve mode with the given certificate's shared fields, which the
    # solve completes to a valid certificate of the demo room
    def apply(cfg):
        given = cfg["certificates"]["values"][0]
        cfg["certificates"] = {"mode": "solve", **{key: given[key] for key in (
            "kappa_tilde", "pi", "kappa_bar", "Xbar11", "Xbar12", "Xbar21", "Xbar22")}}
        if edit is not None:
            edit(cfg["certificates"])
    return apply


def _two_input_room(cfg):
    room = cfg["systems"]["template"]
    room.update(B=[[0.5, 0.0]], input_box={"lower": [-0.01, -0.01], "upper": [0.01, 0.01]})
    cfg["grid"]["input_widths"] *= 2
    cfg["certificates"]["values"][0].update(K=[[-399.79], [0.0]], Q=[[-0.21], [0.0]],
                                            H=[[0.1], [0.0]])


def _flat_coupling(m):
    # the coupling as a bare interconnection.M
    def apply(cfg):
        del cfg["interconnection"]["coupling"]
        cfg["interconnection"]["M"] = m
    return apply


@pytest.mark.parametrize("edit, field", [
    # coupling.n is no longer read: any value exits 3 naming it
    (_set(("interconnection", "coupling", "n"), 4.9), "interconnection.coupling.n"),
    (_set(("interconnection", "coupling", "n"), True), "interconnection.coupling.n"),
    (_set(("systems", "replicate"), 4.5), "systems.replicate"),
    (_set(("bound", "horizon"), 12.7), "bound.horizon"),
    (_set(("simulation", "n_trials"), 8.9), "simulation.n_trials"),
    (_set(("safety", "horizon"), True), "safety.horizon"),
    (_set(("safety", "horizon"), 12.5), "safety.horizon"),
    (_set(("simulation", "record_outputs"), "false"), "simulation.record_outputs"),
    (_cert_edit(lambda v: v.update(unknown=1.0)),
     "certificates.values[0].unknown is not a known key"),
    (_cert_edit(lambda v: v.pop("K")), "certificates.values[0].K is missing"),
    (_cert_edit(lambda v: v.update(K=[["fast"]])), "certificates.values[0].K is malformed"),
    (_set(("certificates", "values"), None), "certificates.values"),
    (_solve_mode, "certificates.kappa_tilde"),
    (_solved(lambda c: c.update(kappa_tilde=0.0)), "config error: kappa_tilde must be positive"),
    (_set(("bound", "alpha_mode"), "loose"), "bound.alpha_mode"),
    (_set(("bound", "reported", "psi_network"), "small"), "bound.reported.psi_network"),
    (_set(("bound", "horizon"), -3), "bound.horizon"),
    (_set(("simulation", "seed"), -1), "simulation.seed"),
    (_set(("bound", "epsilon"), -1.0), "bound.epsilon"),
    (_set(("bound", "epsilon"), float("nan")), "bound.epsilon"),
    (_set(("bound", "epsilon"), 0.0), "bound.epsilon"),
    # simulation.epsilon, bound.nu_hat_sup and a bare interconnection.M are
    # no longer read: any value exits 3 and names the field
    (_set(("simulation", "epsilon"), -1.0), "simulation.epsilon"),
    (_set(("simulation", "epsilon"), float("nan")), "simulation.epsilon"),
    (_set(("bound", "nu_hat_sup"), -1.0), "bound.nu_hat_sup"),
    (_set(("bound", "psi_hat_override"), -1.0), "bound.psi_hat_override"),
    (_set(("bound", "psi_hat_override"), float("nan")), "bound.psi_hat_override"),
    (_set(("discretization", "tau"), None), "discretization.tau"),
    (_set(("grid", "state_widths"), ["a"]), "grid.state_widths"),
    (_set(("grid", "state_widths"), [0.0]), "grid.state_widths"),
    (_set(("discretization", "R_tilde"), [["a"]]), "discretization.R_tilde"),
    (_set(("systems", "template", "state_box", "lower"), ["a"]),
     "systems.template.state_box.lower"),
    (_set(("systems", "template", "state_box", "upper"), [21.0, 22.0]),
     "systems.template.state_box.upper"),
    (_set(("systems", "template", "A"), "zz"), "systems.template.A"),
    (_set(("discretization",), 5), "discretization"),
    (_set(("grid",), "g"), "grid"),
    (_set(("stages",), 5), "stages"),
    (_set(("output_dir",), 5), "output_dir"),
    (_set(("interconnection", "mu"), [1.0, 1.0, 1.0]), "interconnection.mu"),
    (_set(("interconnection", "coupling"), {"kind": "dense", "M": [[0, 1], [1, 0]]}),
     "interconnection.coupling"),
    (_flat_coupling([[0, 1], [1, 0]]), "interconnection.M"),
    (_set(("certificates", "mode"), 5), "certificates.mode"),
    (_set(("certificates",), None), "certificates.values"),
    (_set(("simulation", "x0"), [20.5, 20.5, 21.5, 20.5]),
     "simulation.x0 puts subsystem 2 outside the state grid"),
    (lambda cfg: (cfg["discretization"].update(R_tilde=[[0.002]]), cfg.pop("grid")),
     "grid is missing: the defect of a nonzero discretization.R_tilde"),
    (_set(("systems", "template", "state_box", "upper"), [float("inf")]),
     "systems.template.state_box must be bounded"),
    (_set(("systems", "template", "input_box", "upper"), [float("inf")]),
     "systems.template.input_box must be bounded"),
    (_set(("systems", "template", "internal_box", "upper"), [float("inf")]),
     "systems.template.internal_box must be bounded"),
    (_set(("bound", "epsilon"), "half"), "bound.epsilon is malformed"),
    (_set(("simulation", "n_trials"), "many"), "simulation.n_trials is malformed"),
    (_set(("safety",), None), "'safety' block required for the synthesize stage"),
    (lambda cfg: cfg["discretization"].update(R_tilde=[[0.002]]),
     "stochastic abstractions need a finite safety.horizon"),
    (_set(("safety", "contraction"), float("nan")), "safety.contraction is malformed"),
    (_set(("safety", "contraction"), -1.0), "safety.contraction is malformed"),
    (_set(("safety", "lower"), [float("nan")]), "safety.lower is malformed"),
    (_set(("safety", "upper"), [float("inf")]), "safety.upper is malformed"),
    (_set(("safety", "horizon"), 0), "safety.horizon is malformed"),
    (_set(("safety", "horizon"), 2), "controller table for 2 steps but the simulation runs 12"),
    # a one-step table is no stationary policy either
    (_set(("safety", "horizon"), 1), "controller table for 1 steps but the simulation runs 12"),
    # a misspelt key at each level of the document
    (_set(("grd",), {}), "grd is not a known key"),
    (_set(("systems", "template", "AA"), [[0.0]]), "systems.template.AA is not a known key"),
    (_set(("systems", "template", "state_box", "uper"), [21.0]),
     "systems.template.state_box.uper is not a known key"),
    (_set(("discretization", "tauu"), 0.1), "discretization.tauu is not a known key"),
    (_set(("grid", "state_width"), [0.005]), "grid.state_width is not a known key"),
    (_set(("safety", "horizn"), 12), "safety.horizn is not a known key"),
    (_cert_edit(lambda v: v.update(Kk=[[0.0]])), "certificates.values[0].Kk is not a known key"),
    (_set(("bound", "epsilon_"), 0.1), "bound.epsilon_ is not a known key"),
    (_set(("simulation", "n_substep"), 40), "simulation.n_substep is not a known key"),
    # JSON's true is no number, though float() and numpy read it as 1.0
    (_set(("discretization", "tau"), True), "discretization.tau is malformed"),
    (_set(("bound", "epsilon"), True), "bound.epsilon is malformed"),
    (_cert_edit(lambda v: v.update(pi=True)), "certificates.values[0].pi is malformed"),
    (_set(("safety", "lower"), [True]), "safety.lower is malformed"),
    (_set(("systems", "template", "A"), [[True]]), "systems.template.A is malformed"),
], ids=["n-fraction", "n-bool", "replicate-fraction", "bound-horizon-fraction",
        "n_trials-fraction", "safety-horizon-bool", "safety-horizon-fraction",
        "record_outputs-string", "cert-unknown-key", "cert-missing-key",
        "cert-non-numeric", "given-without-values", "solve-without-kappa_tilde",
        "solve-kappa_tilde-zero",
        "unknown-alpha_mode", "psi_network-non-numeric", "bound-horizon-negative",
        "seed-negative", "bound-epsilon-negative", "bound-epsilon-nan",
        "bound-epsilon-zero", "simulation-epsilon-negative", "simulation-epsilon-nan",
        "nu_hat_sup-negative", "psi_hat_override-negative",
        "psi_hat_override-nan", "tau-missing", "state_widths-string", "state_widths-zero",
        "R_tilde-string", "state_box-string", "state_box-sizes-differ", "A-string",
        "discretization-number", "grid-string", "stages-number", "output_dir-number",
        "mu-wrong-length", "coupling-M-wrong-shape", "M-wrong-shape", "cert-mode-number",
        "certificates-missing", "x0-outside-grid", "noisy-without-grid",
        "state_box-unbounded", "input_box-unbounded", "internal_box-unbounded",
        "bound-epsilon-string", "n_trials-string", "synthesize-without-safety",
        "stochastic-without-safety-horizon", "safety-contraction-nan",
        "safety-contraction-negative", "safety-lower-nan", "safety-upper-infinite",
        "safety-horizon-zero", "safety-horizon-below-bound-horizon",
        "safety-horizon-one-step", "top-level-typo",
        "system-typo", "box-typo", "discretization-typo", "grid-typo", "safety-typo",
        "certificate-typo", "bound-typo", "simulation-typo", "tau-bool",
        "bound-epsilon-bool", "pi-bool", "safety-lower-bool", "A-bool"])
def test_config_error_exits_3_and_names_its_field(tmp_path, capsys, edit, field):
    cfg = small_rooms(tmp_path, trials=8)
    edit(cfg)
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # found before the first artifact


# every field load_config reads, by its dotted path; all but the optional
# interconnection.mu are in the generated config
LOADED_FIELDS = [
    "name", "systems", "systems.replicate", "systems.template",
    *(f"systems.template.{m}" for m in ("A", "B", "C1", "C2", "D", "G", "b")),
    *(f"systems.template.{box}{end}" for box in ("state_box", "input_box", "internal_box")
      for end in ("", ".lower", ".upper")),
    "interconnection", "interconnection.coupling", "interconnection.coupling.kind",
    "interconnection.mu",
    "discretization", "discretization.tau", "discretization.D_tilde",
    "discretization.R_tilde",
    "grid", "grid.state_widths", "grid.input_widths", "grid.internal_widths",
    "safety", "safety.lower", "safety.upper", "safety.contraction", "safety.horizon",
    "certificates", "bound", "simulation", "stages", "output_dir",
]


def test_every_loaded_field_loads_or_names_itself(tmp_path):
    # deleted or set to a string, each field either loads or fails with a
    # ConfigError naming its path; any other exception escapes the test
    unnamed = []
    for path in LOADED_FIELDS:
        for value in (None, "a", [1.0] * 3):  # the network has 4 rooms of 1 state
            cfg = small_rooms(tmp_path)
            _set(tuple(path.split(".")), value)(cfg)
            try:
                load_config(cfg)
            except ConfigError as exc:
                if path not in str(exc):
                    unnamed.append((path, value, str(exc)))
    assert unnamed == []


def test_list_entry_errors_name_their_index(tmp_path):
    cfg = small_rooms(tmp_path)
    cfg["systems"] = [dict(cfg["systems"]["template"]) for _ in range(4)]
    cfg["discretization"] = [dict(cfg["discretization"])]
    del cfg["systems"][2]["A"]
    with pytest.raises(ConfigError, match=re.escape("systems[2].A is missing")):
        load_config(cfg)
    cfg["systems"][2]["A"] = [[-0.105]]
    cfg["discretization"][0]["tau"] = -0.1
    with pytest.raises(ConfigError, match=re.escape("discretization[0].tau is malformed")):
        load_config(cfg)


def test_unknown_key_is_config_error(tmp_path, capsys):
    # simulation.check_convergence is the one key that loads and is read by
    # nothing: the benchmark's workload configs still set it
    cfg = small_rooms(tmp_path, trials=8)
    cfg["simulation"]["check_convergence"] = True
    assert run_pipeline(cfg) == EXIT_OK
    cfg["simulation"]["chunk_size"] = 16
    with pytest.raises(ConfigError, match=re.escape("simulation.chunk_size is not a known key")):
        load_config(cfg)
    assert run_pipeline(cfg, out_dir=str(tmp_path / "rejected")) == EXIT_CONFIG
    assert "simulation.chunk_size" in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()


@pytest.mark.parametrize("scale", ["toy", "full"])
def test_benchmark_workload_configs_load(tmp_path, scale):
    # every run of the benchmark starts from one of these configs
    import sys
    from pathlib import Path

    from stochsym import cli

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    for workload in workloads.WORKLOADS.values():
        cfg = workloads.make_config(cli, workload, scale, str(tmp_path / "out"))
        rooms, trials = workload.size(scale)
        bundle = load_config(cfg)
        assert bundle.ic.n_subsystems == rooms
        assert bundle.simulation["n_trials"] == trials
    # solve mode: the generated block loads, and only the solve fails (this
    # room cannot be stabilized); the demo room's shared fields solve
    with pytest.raises(CheckFailed, match="not stabilizable"):
        load_config(generate_rooms(n=4, theta=0.0))
    cfg = small_rooms(tmp_path)
    _solved()(cfg)
    assert load_config(cfg).certs[0].K.shape == (1, 1)


@pytest.mark.parametrize("edit, path, now", [
    (_set(("simulation", "epsilon"), 0.5), "simulation.epsilon", "bound.epsilon"),
    (_set(("simulation", "horizon"), 12), "simulation.horizon", "bound.horizon"),
    (_set(("bound", "nu_hat_sup"), 0.0), "bound.nu_hat_sup", "input grids"),
    (_set(("interconnection", "M"), circular_coupling(4).toarray().tolist()),
     "interconnection.M", "interconnection.coupling"),
    (_set(("interconnection", "coupling", "n"), 4), "interconnection.coupling.n",
     "one node per subsystem"),
    (_cert_edit(lambda v: v.update(tau=0.1)), "certificates.values[0].tau",
     "discretization.tau"),
    (_cert_edit(lambda v: v.update(delta=0.005)), "certificates.values[0].delta",
     "state grid"),
    (_solved(lambda c: c.update(delta=0.005)), "certificates.delta", "state grid"),
    (_cert_edit(lambda v: v.update(gamma_slope=2.0)), "certificates.values[0].gamma_slope",
     "derived from M_bar, P and the state box"),
    (_solved(lambda c: c.update(gamma_slope=2.0)), "certificates.gamma_slope",
     "derived from M_bar, P and the state box"),
    (_set(("bound", "alpha_mode"), "stacked"), "bound.alpha_mode", "every output map"),
    (_set(("bound", "v0"), 0.0), "bound.v0", "storage at simulation.x0"),
], ids=["simulation.epsilon", "simulation.horizon", "bound.nu_hat_sup", "interconnection.M",
        "interconnection.coupling.n", "certificates.values[0].tau",
        "certificates.values[0].delta", "certificates.delta",
        "certificates.values[0].gamma_slope", "certificates.gamma_slope", "bound.alpha_mode",
        "bound.v0"])
def test_moved_setting_is_config_error(tmp_path, capsys, edit, path, now):
    # even a value that agrees with its replacement exits 3: ignoring a
    # setting that used to be read would change a result without saying so
    cfg = small_rooms(tmp_path, trials=8)
    edit(cfg)
    with pytest.raises(ConfigError, match=re.escape(f"{path} is no longer read")):
        load_config(cfg)
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert now in capsys.readouterr().err


def test_simulation_checks_the_bounds_event(tmp_path):
    # the Monte Carlo counts sup_k |zeta(k tau) - zeta_hat(k)| >= epsilon over
    # the bound's own epsilon and horizon
    cfg = small_rooms(tmp_path, trials=8)
    cfg["bound"].update(epsilon=0.3, horizon=5)
    assert run_pipeline(cfg) == EXIT_OK
    out = tmp_path / "out"
    bound = json.loads((out / "bound.json").read_text())
    summary = json.loads((out / "simulation_summary.json").read_text())
    assert (summary["epsilon"], summary["horizon"]) == (bound["epsilon"], bound["horizon"]) \
        == (0.3, 5)
    rows = (out / "trajectories.csv").read_text().splitlines()
    assert len(rows) == 1 + 8 * (5 + 1)


@pytest.mark.parametrize("edit, path", [
    (_cert_edit(lambda v: v.update(P=[[1.0, 0.0]])), "certificates.values[0].P"),
    (_cert_edit(lambda v: v.update(Q=[[-0.21], [0.0]])), "certificates.values[0].Q"),
    (_cert_edit(lambda v: v.update(M_bar=[[1.0, 0.0], [0.0, 1.0]])),
     "certificates.values[0].M_bar"),
    (_cert_edit(lambda v: v.update(Xbar12=[[0.0, 0.0]])), "certificates.values[0].Xbar12"),
    (_cert_edit(lambda v: v.update(Xbar21=[[0.0, 0.0]])), "certificates.values[0].Xbar21"),
    (_cert_edit(lambda v: v.update(Xbar22=[[-1.0, 0.0], [0.0, -1.0]])),
     "certificates.values[0].Xbar22"),
    (_cert_edit(lambda v: v.update(H=[[0.1, 0.0]])), "certificates.values[0].H"),
    (_cert_edit(lambda v: v.update(K=[[-400.0, 0.0]])), "certificates.values[0].K"),
    (_cert_edit(lambda v: v.update(Xbar11=[[0.0, 0.0], [0.0, 0.0]])),
     "certificates.values[0].Xbar11"),
    # a certificate's tau is no longer read: the discretization's is used
    (_cert_edit(lambda v: v.update(tau=0.2)), "certificates.values[0].tau"),
    (lambda cfg: _per_room_certificates(cfg)[2].update(P=[[1.0, 0.0]]),
     "certificates.values[2].P"),
    (_set(("discretization", "D_tilde"), [[0.0, 0.0]]), "discretization.D_tilde"),
    (_set(("discretization", "R_tilde"), [[0.0], [0.0]]), "discretization.R_tilde"),
    (_set(("safety",), {"lower": [20.0, 20.0], "upper": [21.0, 21.0]}), "safety.lower"),
    (_set(("systems", "template", "A"), [[float("nan")]]), "systems.template.A"),
    (_solved(lambda c: c.update(Xbar11=[[0.0, 0.0], [0.0, 0.0]])), "certificates.Xbar11"),
    (_solved(lambda c: c.update(Xbar12=[[0.0, 0.0]])), "certificates.Xbar12"),
    # two inputs to one state, with a certificate of matching shapes: the
    # refinement law needs a square B
    (_two_input_room, "systems.template.B"),
], ids=["P", "Q", "M_bar", "Xbar12", "Xbar21", "Xbar22", "H", "K", "Xbar11", "tau",
        "P-of-room-2", "D_tilde", "R_tilde", "safety-2d", "A-nan", "solve-Xbar11",
        "solve-Xbar12", "B-not-square"])
def test_shape_error_against_the_subsystem_names_its_path(tmp_path, capsys, edit, path):
    # a certificate, discretization or safety box that does not fit its
    # subsystem is a config error when the config loads, not a traceback,
    # a violated condition or a runtime error in a later stage
    cfg = small_rooms(tmp_path, trials=8)
    edit(cfg)
    with pytest.raises(ConfigError, match=re.escape(path)):
        load_config(cfg)
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert path in capsys.readouterr().err


class _Recorded(dict):
    """A config object that notes the dotted path of each key read from it.

    `__iter__` is overridden so that `**obj` goes through `__getitem__`.
    """

    def __init__(self, data: dict, path: str, reads: set):
        super().__init__({key: _recorded(value, _join(path, key), reads)
                          for key, value in data.items()})
        self.path, self.reads = path, reads

    def __iter__(self):
        return super().__iter__()

    def __getitem__(self, key):
        self.reads.add(_join(self.path, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(_join(self.path, key))
        return super().get(key, default)

    def items(self):
        # a whole-object copy, as into an artifact, reads every key
        self.reads.update(_join(self.path, key) for key in self)
        return super().items()


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _recorded(value, path: str, reads: set):
    if isinstance(value, dict):
        return _Recorded(value, path, reads)
    if isinstance(value, list):
        return [_recorded(v, f"{path}[{i}]", reads) for i, v in enumerate(value)]
    return value


def _keys(value, path: str = "") -> set:
    """The dotted path of every key of every object in `value`."""
    if isinstance(value, dict):
        return set().union(*({_join(path, k)} | _keys(v, _join(path, k))
                             for k, v in value.items()))
    if isinstance(value, list):
        return set().union(set(), *(_keys(v, f"{path}[{i}]") for i, v in enumerate(value)))
    return set()


def test_every_generated_key_is_read(tmp_path):
    # a generated key that no stage reads states a setting that changes
    # nothing; given mode through every stage, solve mode through verify
    reads: set = set()
    cfg = small_rooms(tmp_path, trials=8)
    assert run_pipeline(_recorded(cfg, "", reads)) == EXIT_OK
    assert _keys(cfg) - reads == set()

    reads.clear()
    cfg = small_rooms(tmp_path, theta=0.0)
    assert cfg["certificates"]["mode"] == "solve"
    # unstabilizable: the solve fails, after every certificate setting is read
    assert run_pipeline(_recorded(cfg, "", reads), stages=["verify"]) == EXIT_CONDITION
    assert {k for k in _keys(cfg) if k.startswith("certificates")} - reads == set()


def test_integral_float_counts_are_accepted(tmp_path):
    cfg = small_rooms(tmp_path, trials=8)
    cfg["systems"]["replicate"] = 4.0
    cfg["simulation"]["n_trials"] = 8.0
    assert run_pipeline(cfg) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "simulation_summary.json").read_text())
    assert summary["n_trials"] == 8


@pytest.mark.parametrize("mode", ["given", "solve"])
def test_noisy_defect_takes_the_grids_quantization_radius(tmp_path, mode):
    # the defect's quantization term is L (1 + eta_bar) delta with the state
    # grid's cell radius: 2 * 2 * 0.05 = 0.2 of psi per room once the grid
    # is widened from the generated 0.005 to 0.05
    cfg = small_rooms(tmp_path, input_step=0.005)
    if mode == "solve":
        _solved()(cfg)
    cfg["grid"]["state_widths"] = [0.05]
    cfg["discretization"]["R_tilde"] = [[0.002]]
    cfg["safety"]["horizon"] = 12
    stages = ["verify", "compose", "abstract", "synthesize", "bound"]
    assert run_pipeline(cfg, stages=stages) == EXIT_OK
    bound = json.loads((tmp_path / "out" / "bound.json").read_text())
    assert bound["psi_hat_formula"] == pytest.approx(1.5041, abs=1e-4)


@pytest.mark.parametrize("threads", ["two", "-1", "0"])
def test_malformed_thread_count_is_config_error(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("STOCHSYM_THREADS", threads)
    assert run_pipeline(small_rooms(tmp_path, trials=8)) == EXIT_CONFIG
    assert "STOCHSYM_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # read before the first stage


def test_x0_outside_the_grid_writes_no_artifact(tmp_path, capsys):
    # load_config finds it, so the run stops before its first stage
    cfg = small_rooms(tmp_path, trials=8)
    cfg["simulation"]["x0"][2] = 21.5
    with pytest.raises(ConfigError, match="simulation.x0 puts subsystem 2 outside"):
        load_config(cfg)
    assert run_pipeline(cfg) == EXIT_CONFIG
    assert "simulation.x0 puts subsystem 2 outside" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_mode_slope_is_derived_not_defaulted(tmp_path):
    # the 100-room ring in solve mode without an override: each room's slope
    # is 2 lam_max(M_bar) ||P|| Delta = 2, so the formula's defect is
    # 100 * 2 * 0.01 + 100 * psi_i = 2.0025 and its bound says nothing
    cfg = small_rooms(tmp_path, n=100)
    _solved()(cfg)
    del cfg["bound"]["psi_hat_override"]
    assert run_pipeline(cfg, stages=list(STAGES[:5])) == EXIT_OK
    bound = json.loads((tmp_path / "out" / "bound.json").read_text())
    assert bound["psi_hat_formula"] == pytest.approx(2.0025, abs=1e-4)
    assert bound["formula_vacuous"] is True
    assert bound["violation_bound"] == 1.0
    report = json.loads((tmp_path / "out" / "certificates.json").read_text())
    assert [row["gamma_slope"] for row in report["groups"]] == [2.0]


def test_the_lowest_gridless_subsystem_is_named(tmp_path, capsys):
    # rooms 2 and 3 have no grid: room 2 is the lowest member of the first
    # group without one
    cfg = small_rooms(tmp_path)
    cfg["grid"] = [cfg["grid"], cfg["grid"], None, None]
    assert run_pipeline(cfg, stages=["verify", "compose", "abstract"]) == EXIT_CONFIG
    assert "subsystem 2 has no grid" in capsys.readouterr().err

import json

import numpy as np
import pytest

import stochsym as st
from stochsym.cli import (
    EXIT_CONDITION,
    EXIT_CONFIG,
    EXIT_OK,
    circular_coupling,
    generate_rooms,
    load_config,
    main,
    run_pipeline,
)
from stochsym.errors import TooFewRooms


def small_rooms(tmp_path, n=4, trials=60, **kw):
    # >= 33 trials so a zero-violation Clopper-Pearson bound can sit below 0.09
    # 40 substeps keeps the explicit scheme well inside its stability region
    # for the default tracking rate (rate * dt = 0.5)
    cfg = generate_rooms(n=n, n_trials=trials, n_substeps=40, seed=11,
                         out_dir=str(tmp_path / "out"), **kw)
    cfg["simulation"]["chunk_size"] = 16
    return cfg


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
        assert cert["tau"] == 0.1
        # gain is at least as strong as the closed-form stabilizing bound
        assert cert["K"][0][0] <= -68.85

    def test_three_room_ring(self):
        m = circular_coupling(3)
        assert np.array_equal(m, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                          dtype=float))
        assert np.all(m.sum(axis=1) == 2)

    def test_coupling_row_sums_at_scale(self):
        assert np.all(circular_coupling(100).sum(axis=1) == 2)

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
        assert len(bundle.systems) == 5
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

    def test_system_file_reference(self, tmp_path):
        cfg = small_rooms(tmp_path, n=3)
        (tmp_path / "room.json").write_text(
            json.dumps(cfg["systems"]["template"]))
        cfg["systems"] = {"replicate": 3, "template": {"file": "room.json"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        bundle = load_config(path)
        assert len(bundle.systems) == 3
        assert bundle.systems[0].B[0, 0] == 0.5

    def test_missing_system_reference_is_config_error(self, tmp_path):
        cfg = small_rooms(tmp_path, n=3)
        cfg["systems"] = {"replicate": 3, "template": {"file": "absent.json"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run_pipeline(path) == EXIT_CONFIG

    def test_non_prefix_stages_rejected(self, tmp_path):
        cfg = small_rooms(tmp_path)
        assert run_pipeline(cfg, stages=["compose"]) == EXIT_CONFIG
        assert run_pipeline(cfg, stages=["verify", "abstract"]) == EXIT_CONFIG

    def test_malformed_coupling_is_config_error(self, tmp_path):
        cfg = small_rooms(tmp_path)
        cfg["interconnection"]["coupling"] = {"kind": "circular", "n": 2}
        assert run_pipeline(cfg) == EXIT_CONFIG
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
        cfg["certificates"]["values"][0]["delta"] = 0.05  # match the grid
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

    def test_stochastic_without_horizon_is_config_error(self, tmp_path):
        cfg = small_rooms(tmp_path)
        cfg["discretization"]["R_tilde"] = [[0.002]]
        cfg["grid"] = {"state_widths": [0.05], "input_widths": [0.005],
                       "internal_widths": [2.0]}
        assert run_pipeline(cfg) == EXIT_CONFIG

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
    import dataclasses

    from stochsym import cli

    bundle = load_config(small_rooms(tmp_path))
    certs = cli._resolve_certs(bundle)
    certs[2] = dataclasses.replace(certs[2], P=0.98 * certs[2].P)
    (tmp_path / "out").mkdir()
    ctx = {"out": tmp_path / "out", "certs": certs}
    cli._stage_abstract(bundle, ctx)
    groups, _ = ctx["groups"]
    assert groups == [[0, 1, 3], [2]]
    fas = ctx["abstractions"]
    assert fas[0] is fas[1] is fas[3] and fas[2] is not fas[0]
    for s, c, fa in zip(bundle.systems, certs, fas):
        assert np.array_equal(fa.output_map, s.C1 @ c.P)
        assert np.array_equal(fa.internal_output_map, s.C2 @ c.P)
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

    def test_run_subcommand_with_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == EXIT_CONFIG

import json
import re

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
from stochsym.errors import ConfigError, TooFewRooms

from conftest import traced_peak


def small_rooms(tmp_path, n=4, trials=60, **kw):
    # >= 33 trials so a zero-violation Clopper-Pearson bound can sit below 0.09
    # 40 substeps: the demo's resolution of the output envelope
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
        assert np.array_equal(m.toarray(), np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]],
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
        for i in (0, 1, 3):
            assert own["subsystems"][i] == same["subsystems"][i]
        row = own["subsystems"][2]
        assert row["subsystem"] == 2
        assert row["certificate"]["K"] == values[2]["K"]
        bundle = load_config(cfg)
        cert = st.StorageCertificate.from_dict(values[2])
        lyap = st.check_lyapunov(bundle.systems[2], cert.M_bar, cert.K,
                                 cert.kappa_tilde)
        assert row["lyapunov_margin"] == lyap.margin
        assert row["lyapunov_margin"] != same["subsystems"][2]["lyapunov_margin"]


def test_rooms_with_different_k_are_grouped_apart(tmp_path):
    import dataclasses

    from stochsym import cli

    bundle = load_config(small_rooms(tmp_path))
    certs = cli._resolve_certs(bundle)
    assert cli._groups(bundle, certs)[0] == [[0, 1, 2, 3]]
    certs[2] = dataclasses.replace(certs[2], K=2.0 * certs[2].K)
    groups, group_of = cli._groups(bundle, certs)
    assert groups == [[0, 1, 3], [2]]
    assert list(group_of) == [0, 0, 1, 0]


def test_broadcast_certificate_is_one_shared_object(tmp_path):
    from stochsym import cli

    bundle = load_config(small_rooms(tmp_path))
    certs = cli._resolve_certs(bundle)
    assert all(c is certs[0] for c in certs)
    assert all(d is bundle.discs[0] for d in bundle.discs)
    assert all(g is bundle.grids[0] for g in bundle.grids)


def test_equal_per_room_certificates_share_one_group(tmp_path):
    # distinct objects with equal values fall back to the value key
    from stochsym import cli

    cfg = small_rooms(tmp_path)
    _per_room_certificates(cfg)
    bundle = load_config(cfg)
    certs = cli._resolve_certs(bundle)
    assert len({id(c) for c in certs}) == 4
    assert cli._groups(bundle, certs) == ([[0, 1, 2, 3]], [0, 0, 0, 0])


@pytest.mark.parametrize("field, value", [
    ("gamma_slope", 3.0), ("delta", 0.01), ("Xbar22", [[-1.0]]), ("tau", 0.2),
])
def test_rooms_with_any_differing_certificate_field_split(tmp_path, field, value):
    import dataclasses

    from stochsym import cli

    bundle = load_config(small_rooms(tmp_path))
    certs = cli._resolve_certs(bundle)
    certs[1] = dataclasses.replace(certs[1], **{field: value})
    assert cli._groups(bundle, certs)[0] == [[0, 2, 3], [1]]


def test_initial_v0_matches_per_room_quantization(tmp_path):
    # the array-wise lookup against the scalar quantizer, term by term in
    # room order, with rooms split over two groups
    import dataclasses

    from stochsym import cli

    bundle = load_config(small_rooms(tmp_path, n=5))
    certs = cli._resolve_certs(bundle)
    certs[3] = dataclasses.replace(certs[3], P=0.999 * certs[3].P,
                                   M_bar=2.0 * certs[3].M_bar)
    ctx = {"certs": certs, "groups": cli._groups(bundle, certs)}
    x0 = np.array([20.5, 20.013, 20.9991, 20.4, 20.0002])
    expected = 0.0
    for i, (c, g) in enumerate(zip(certs, bundle.grids)):
        q = st.quantize(g.state, x0[i:i + 1])
        m = x0[i:i + 1] - c.P @ q.representative
        expected += float(bundle.ic.mu[i]) * float(m @ c.M_bar @ m)
    assert cli._initial_v0(bundle, ctx, x0) == expected
    x0[4] = 21.5
    with pytest.raises(ConfigError, match="outside the state grid"):
        cli._initial_v0(bundle, ctx, x0)


def test_wrong_length_x0_is_config_error(tmp_path, capsys):
    from stochsym import cli

    cfg = small_rooms(tmp_path)
    cfg["simulation"]["x0"] = cfg["simulation"]["x0"][:3]
    assert run_pipeline(cfg) == EXIT_CONFIG  # stops in the bound stage
    err = capsys.readouterr().err
    assert "simulation.x0" in err and "3 values" in err and "4 states" in err
    bundle = load_config(cfg)
    with pytest.raises(ConfigError, match=r"simulation\.x0 has 3 values.*4 states"):
        cli._stage_simulate(bundle, {})


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


@pytest.mark.parametrize("block, field, value", [
    ("simulation", "chunk_size", 0),
    ("simulation", "chunk_size", -1),
    ("simulation", "x0", None),
    ("simulation", "n_trials", None),
    ("bound", "epsilon", None),
    ("bound", "horizon", "twelve"),
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
    ({"kind": "circular"}, "interconnection.coupling.n is missing"),
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

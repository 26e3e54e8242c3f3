"""End-to-end command-line checks: artifacts, manifests, exit codes."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasekit import cli, gridfile, states, weyl
from phasekit.grid import Grid1D, PhaseFunction2D, SampledFunction1D
from phasekit.symplectic import PERIOD, THETA_WIGNER, flow_matrix
from phasekit.weyl import OperatorKernel, Symbol2D
from phasekit.wigner import Window, windowed_transform

SMALL = ["--n", "64", "--half-width", "8.0"]


def _manifest(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_flow_identity_matrix(tmp_path, capsys):
    out = str(tmp_path / "flow.csv")
    assert cli.main(["flow", "--theta", "0", "--output", out]) == 0
    rows = [line.split(",") for line in
            open(out, encoding="utf-8").read().strip().splitlines()]
    M = np.array([[float(v) for v in row] for row in rows])
    assert M.shape == (4, 4)
    assert np.array_equal(M, np.eye(4))
    # the identity should print as clean zeros and ones, no -0.0
    assert "-0.0" not in open(out, encoding="utf-8").read()
    man = _manifest(out + ".manifest.json")
    assert man["command"] == "flow"
    assert man["inputs"]["theta"] == 0.0
    assert man["format_version"] == 1
    assert "flow matrix" in capsys.readouterr().out


def test_flow_matrix_csv_round_trips_exactly(tmp_path):
    # float reprs in the CSV restore the closed-form matrix bit for bit
    out = str(tmp_path / "flow.csv")
    assert cli.main(["flow", "--theta", "0.4", "--output", out]) == 0
    rows = [line.split(",") for line in
            open(out, encoding="utf-8").read().strip().splitlines()]
    M = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(M, flow_matrix(0.4) + 0.0)


def test_wigner_gaussian_closed_form(tmp_path):
    out = str(tmp_path / "w.bin")
    rc = cli.main(["wigner", "--gaussian", *SMALL,
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    W = gridfile.read(out)
    assert isinstance(W, PhaseFunction2D)
    x = W.grid_x.nodes()[:, None]
    p = W.grid_p.nodes()[None, :]
    exact = np.exp(-(x**2) - p**2) / np.pi
    assert np.max(np.abs(W.values - exact)) < 1e-7


def test_fracwigner_zero_angle_is_tensor_form(tmp_path):
    out = str(tmp_path / "w0.bin")
    rc = cli.main(["fracwigner", "--gaussian", "--theta", "0", *SMALL,
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    W = gridfile.read(out)
    g = states.gaussian(W.grid_x).values[:, None]
    ghat = states.gaussian(W.grid_p).values[None, :]
    exact = g * ghat / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(W.values - exact)) < 1e-7


def test_propagate_zero_angle_is_identity(tmp_path):
    grid = Grid1D.centered(64, 8.0)
    rng = np.random.default_rng(5)
    F = PhaseFunction2D(grid, grid.dual(),
                        rng.standard_normal((64, 64))
                        + 1j * rng.standard_normal((64, 64)))
    src = str(tmp_path / "in.bin")
    out = str(tmp_path / "out.bin")
    gridfile.write(src, F, "binary")
    rc = cli.main(["propagate", "--input", src, "--theta", "0",
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    assert np.array_equal(gridfile.read(out).values, F.values)


def test_reconstruct_inverts_windowed_transform(tmp_path):
    grid = Grid1D.centered(64, 8.0)
    psi = states.hermite(grid, 1)
    F = windowed_transform(psi, Window(states.gaussian(grid)), THETA_WIGNER)
    src = str(tmp_path / "lift.bin")
    out = str(tmp_path / "back.bin")
    gridfile.write(src, F, "binary")
    rc = cli.main(["reconstruct", "--input", src,
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    back = gridfile.read(out)
    assert isinstance(back, SampledFunction1D)
    assert np.max(np.abs(back.values - psi.values)) < 1e-6


@pytest.mark.parametrize("p_points,p_half_width", [(32, 8.0), (64, 8.0)])
def test_reconstruct_refuses_a_momentum_grid_off_the_dual(tmp_path, capsys, p_points,
                                                          p_half_width):
    # a phase2d file whose p grid has another size, or the same size but is
    # not the dual of its x grid, is a usage error (exit 2) naming the grids
    grid = Grid1D.centered(64, 8.0)
    grid_p = Grid1D.centered(p_points, p_half_width)
    rng = np.random.default_rng(p_points)
    values = rng.standard_normal((64, p_points)) + 1j * rng.standard_normal((64, p_points))
    src = str(tmp_path / "lift.bin")
    gridfile.write(src, PhaseFunction2D(grid, grid_p, values), "binary")
    rc = cli.main(["reconstruct", "--input", src, "--output", str(tmp_path / "back.bin")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert re.search(r"^error: phase function grids Grid1D\(n=64.*, Grid1D\(n=%d.* are not "
                     r"window grid Grid1D\(n=64.* and its dual Grid1D\(n=64" % p_points, err), err
    assert not (tmp_path / "back.bin").exists()


def test_weyl_symbol_of_rank_one_gaussian(tmp_path):
    # the projector onto the gaussian has the closed-form angle symbol
    # 2 exp(-x^2 - xi^2)
    grid = Grid1D.centered(128, 8.0)
    g = states.gaussian(grid).values
    src = str(tmp_path / "k.bin")
    out = str(tmp_path / "s.bin")
    gridfile.write(src, OperatorKernel(grid, np.outer(g, g.conj())), "binary")
    rc = cli.main(["weyl-symbol", "--kernel", src,
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    sym = gridfile.read(out)
    assert isinstance(sym, Symbol2D)
    x = sym.grid_x.nodes()[:, None]
    xi = sym.grid_xi.nodes()[None, :]
    exact = 2.0 * np.exp(-(x**2) - xi**2)
    assert np.max(np.abs(sym.values - exact)) < 1e-6


def test_star_commutator_at_standard_angle(tmp_path):
    xy = str(tmp_path / "xy.bin")
    yx = str(tmp_path / "yx.bin")
    argv = ["star", *SMALL, "--payload", "binary"]
    assert cli.main([*argv, "--a", "x", "--b", "xi", "--output", xy]) == 0
    assert cli.main([*argv, "--a", "xi", "--b", "x", "--output", yx]) == 0
    a = gridfile.read(xy)
    b = gridfile.read(yx)
    # products of tagged builtins stay tagged through the file round trip
    assert a.poly is not None
    commutator = a.values - b.values
    assert np.max(np.abs(commutator - 1j)) < 1e-12


def test_star_rejects_polynomials_off_angle(tmp_path, capsys):
    rc = cli.main(["star", "--a", "x", "--b", "xi", "--theta", "0.1",
                   *SMALL, "--output", str(tmp_path / "s.bin")])
    assert rc == 2
    assert "polynomial" in capsys.readouterr().err


def _non_finite_tag_file(path, bad, payload="csv"):
    """A symbol file of x on n = 16, half-width 4, its poly tag holding `bad`."""
    gridfile.write(path, weyl.symbol_x(Grid1D.centered(16, 4.0)), payload)
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.index(b"\n")
    header = {**json.loads(raw[:newline]), "poly_re": [[0.0], [bad]]}
    return _write(path, json.dumps(header).encode("utf-8") + raw[newline:])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_poly_tag_is_usage_error(tmp_path, capsys, bad):
    # at the parent, expect printed "expectation value nan+nanj" with exit 0
    # and star wrote a symbol file whose header carried the NaN
    path = _non_finite_tag_file(str(tmp_path / "bad.csv"), bad)
    for argv in (["expect", "--op", path], ["star", "--a", path, "--b", "x"]):
        rc = cli.main([*argv, "--n", "16", "--half-width", "4", "--output",
                       str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("error: inconsistent header: polynomial coefficients must be a "
                       "finite 2D matrix\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_expect_oscillator_in_hermite_state(tmp_path):
    out = str(tmp_path / "e.json")
    rc = cli.main(["expect", "--op", "oscillator", "--state", "hermite:2",
                   *SMALL, "--output", out])
    assert rc == 0
    record = json.load(open(out, encoding="utf-8"))
    assert record["value"][0] == pytest.approx(2.5, abs=1e-6)
    assert record["value"][1] == pytest.approx(0.0, abs=1e-9)
    assert record["self_adjoint"] is True
    assert record["residual"] < 1e-6
    man = _manifest(out + ".manifest.json")
    assert man["results"]["value"] == record["value"]


def test_bopp_spectrum_artifacts(tmp_path):
    base = str(tmp_path / "spec")
    rc = cli.main(["bopp-spectrum", "--symbol", "oscillator", "--count", "3",
                   "--n", "32", "--half-width", "6.0", "--output", base])
    assert rc == 0
    record = json.load(open(base + ".json", encoding="utf-8"))
    assert record["eigenvalues"] == pytest.approx([0.5, 1.5, 2.5], abs=1e-3)
    assert record["pairing"] == {"0": 0, "1": 1, "2": 2}
    lines = open(base + ".csv", encoding="utf-8").read().strip().splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity,residual,reference,pushforward"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(0.5, abs=1e-3)
    man = _manifest(base + ".manifest.json")
    assert man["results"]["eigenvalues"] == record["eigenvalues"]


def test_evolve_artifacts(tmp_path):
    base = str(tmp_path / "ev")
    rc = cli.main(["evolve", "--t", "1.0", "--steps", "4",
                   "--n", "32", "--half-width", "6.0", "--output", base])
    assert rc == 0
    state = gridfile.read(base + "-state.csv")
    phase = gridfile.read(base + "-phase.csv")
    assert isinstance(state, SampledFunction1D)
    assert isinstance(phase, PhaseFunction2D)
    lines = open(base + "-divergence.csv", encoding="utf-8").read().strip().splitlines()
    assert lines[0] == "time,divergence"
    assert len(lines) == 6  # header plus one row per checkpoint
    man = _manifest(base + ".manifest.json")
    assert man["results"]["divergence"] < 1e-4
    assert man["inputs"]["steps"] == 4
    # the phase side's route and Lanczos segment sizes are deterministic facts
    assert man["results"]["route"] == "krylov"
    dims = man["results"]["krylov_dims"]
    assert dims and all(isinstance(m, int) and m >= 1 for m in dims)


def test_verify_suite_passes(tmp_path, capsys):
    man_path = str(tmp_path / "verify.json")
    rc = cli.main(["verify", "--suite", "flow", "--manifest", man_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pass  flow-algebra/" in out
    assert "4/4 checks passed (suite flow, seed 0)" in out
    man = _manifest(man_path)
    assert man["passed"] is True
    assert man["inputs"]["criteria"] == ["flow-algebra"]
    for row in man["checks"]:
        assert row["passed"] is True
        assert row["error"] <= row["tolerance"]


def test_verify_manifest_writes_plain_multiplicities(tmp_path):
    man_path = str(tmp_path / "verify.json")
    assert cli.main(["verify", "--suite", "spectrum", "--manifest", man_path]) == 0
    row = next(r for r in _manifest(man_path)["checks"]
               if r["check"] == "oscillator-eigenvalues")
    assert row["detail"] == "64x64, multiplicities [64, 64, 64, 64, 64]"


def test_verify_tolerance_override_fails_loudly(tmp_path, capsys):
    man_path = str(tmp_path / "verify.json")
    rc = cli.main(["verify", "--suite", "flow", "--manifest", man_path,
                   "--tolerance", "flow-algebra/symplectic-form=1e-30"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "flow-algebra" in captured.err
    man = _manifest(man_path)
    assert man["passed"] is False
    # the override is recorded verbatim
    assert man["inputs"]["tolerance_overrides"]["flow-algebra/symplectic-form"] == 1e-30
    failed = [row for row in man["checks"] if not row["passed"]]
    assert len(failed) == 1
    assert failed[0]["check"] == "symplectic-form"
    assert failed[0]["tolerance"] == 1e-30


def test_verify_unknown_suite(tmp_path, capsys):
    # a negative seed, by flag or by config, is a usage error too: exit 2
    # with no manifest, not numpy's traceback
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for argv, message in ((["--suite", "nonsense"], "error:"),
                          (["--suite", "flow", "--seed", "-1"], "seed must be >= 0"),
                          (["--suite", "flow", "--config", str(cfg)], "seed must be >= 0")):
        rc = cli.main(["verify", *argv, "--manifest", str(tmp_path / "m.json")])
        assert rc == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, argv
        assert not (tmp_path / "m.json").exists()


def test_config_merge_and_flag_precedence(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "fracwigner",
        "grid": {"n": 64, "half_width": 6.0},
        "theta": 0.1,
        "state": "hermite:1",
    }))
    out = str(tmp_path / "w.bin")
    rc = cli.main(["fracwigner", "--config", str(cfg), "--theta", "0.2",
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    man = _manifest(out + ".manifest.json")
    assert man["inputs"]["theta"] == 0.2  # flag wins over config
    assert man["inputs"]["state"] == "hermite:1"  # config fills the rest
    assert man["inputs"]["grid"] == {"n": 64, "x_min": -6.0, "dx": 0.1875}
    assert gridfile.read(out).grid_x.n == 64


def test_config_top_level_grid_keys(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"n": 64, "half_width": 6.0}))
    out = str(tmp_path / "w.bin")
    rc = cli.main(["wigner", "--gaussian", "--config", str(cfg),
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    assert _manifest(out + ".manifest.json")["inputs"]["grid"] == \
        {"n": 64, "x_min": -6.0, "dx": 0.1875}
    assert gridfile.read(out).grid_x == Grid1D(64, -6.0, 0.1875)
    # a flag wins over the config, the half-width shortcut included
    rc = cli.main(["wigner", "--gaussian", "--config", str(cfg), "--half-width", "4",
                   "--output", out, "--payload", "binary"])
    assert rc == 0
    assert gridfile.read(out).grid_x == Grid1D(64, -4.0, 0.125)


@pytest.mark.parametrize("argv", [
    ["star", "--a", "x", "--b", "oscillator"],
    ["expect", "--op", "oscillator"],
    ["bopp-spectrum", "--symbol", "oscillator", "--count", "1"],
    ["evolve", "--t", "0.1", "--steps", "1"],
])
def test_manifest_records_the_grid(tmp_path, argv):
    base = str(tmp_path / "run")
    rc = cli.main([*argv, "--n", "16", "--half-width", "6", "--output", base,
                   "--manifest", base + ".m.json"])
    assert rc == 0
    assert _manifest(base + ".m.json")["inputs"]["grid"] == \
        {"n": 16, "x_min": -6.0, "dx": 0.75}


def test_config_command_mismatch(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"command": "wigner"}))
    rc = cli.main(["flow", "--config", str(cfg),
                   "--output", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "declares command" in capsys.readouterr().err


def test_config_must_be_json_object(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text("[1, 2, 3]")
    rc = cli.main(["flow", "--config", str(cfg),
                   "--output", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text("{nope")
    rc = cli.main(["flow", "--config", str(cfg),
                   "--output", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "valid JSON" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    rc = cli.main(["flow", "--config", str(tmp_path / "absent.json"),
                   "--output", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_config_bad_payload_value(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"payload": "hex"}))
    rc = cli.main(["wigner", "--gaussian", *SMALL, "--config", str(cfg),
                   "--output", str(tmp_path / "w.out")])
    assert rc == 2
    assert "payload" in capsys.readouterr().err


def _repeat_argv(command, inputs):
    """Small-grid arguments for one run of each subcommand."""
    tiny = ["--n", "16", "--half-width", "5.0"]
    return {
        "flow": ["--theta", "0.4"],
        "propagate": ["--input", inputs["phase"], "--theta", "0.3"],
        "wigner": ["--state", "hermite:1", *SMALL],
        "fracwigner": ["--state", inputs["state"], "--phi", "chirp", "--theta", "0.7"],
        "reconstruct": ["--input", inputs["phase"], "--theta", "0.2"],
        "weyl-symbol": ["--kernel", inputs["kernel"], "--theta", "0.5"],
        "star": ["--a", "x", "--b", "oscillator", *SMALL],
        "expect": ["--op", inputs["kernel"], "--state", "coherent:0.3+0.2j",
                   "--theta", "0.4"],
        "bopp-spectrum": ["--symbol", "oscillator", "--count", "2", *tiny],
        "evolve": ["--t", "0.5", "--steps", "2", *tiny],
        "verify": ["--suite", "flow"],
    }[command]


def _repeat_inputs(tmp_path):
    """The grid files _repeat_argv reads: a phase-plane function, a state
    and a kernel, on the n=32, half-width-6 grid."""
    grid = Grid1D.centered(32, 6.0)
    rng = np.random.default_rng(3)
    inputs = {name: str(tmp_path / f"{name}.bin") for name in ("phase", "state", "kernel")}
    g = states.gaussian(grid).values
    gridfile.write(inputs["phase"], windowed_transform(
        states.hermite(grid, 2), Window(states.gaussian(grid)), 0.4), "binary")
    gridfile.write(inputs["state"], states.random_wave(grid, rng), "binary")
    gridfile.write(inputs["kernel"], OperatorKernel(grid, np.outer(g, g)), "binary")
    return inputs


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_repeat_runs_are_bit_identical(tmp_path, command):
    inputs = _repeat_inputs(tmp_path)
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        man_path = str(tmp_path / name / "run.man")
        rc = cli.main([command, *_repeat_argv(command, inputs), "--payload", "binary",
                       "--output", str(tmp_path / name / "out"),
                       "--manifest", man_path])
        assert rc == 0
        runs.append(_manifest(man_path))
    first, second = runs
    assert list(first["outputs"]) == list(second["outputs"])
    for key, path in first["outputs"].items():
        with open(path, "rb") as fh_a, open(second["outputs"][key], "rb") as fh_b:
            assert fh_a.read() == fh_b.read(), key
    # manifests record their own output paths, so compare them with the
    # path-bearing entries stripped
    men = []
    for man in runs:
        man["outputs"] = None
        men.append(json.dumps(man, sort_keys=True))
    assert men[0] == men[1]


#: manifest inputs that are not a command's flags: the grid a state or
#: symbol lives on, wigner's fixed angle, verify's resolved suite and overrides
_RECORDED_EXTRAS = {"wigner": {"grid", "theta"},
                    "verify": {"criteria", "tolerance_overrides"}}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_manifest_inputs_are_the_settings_read(tmp_path, command):
    # every recorded input is a setting the command declares (or one of the
    # extras), and every setting given on the command line, apart from the
    # grid and output flags, was recorded as read
    argv = _repeat_argv(command, _repeat_inputs(tmp_path))
    man_path = str(tmp_path / "run.man")
    assert cli.main([command, *argv, "--payload", "binary", "--output",
                     str(tmp_path / "out"), "--manifest", man_path]) == 0
    inputs = _manifest(man_path)["inputs"]
    declared = {flag.replace("-", "_") for flag in cli._COMMANDS[command].flags + cli._COMMON}
    assert set(inputs) <= declared | _RECORDED_EXTRAS.get(command, {"grid"})
    given = {arg[2:].replace("-", "_") for arg in argv if arg.startswith("--")}
    assert given - {"n", "half_width"} <= set(inputs)


def test_default_box_follows_n(tmp_path, capsys, recwarn):
    # x_min = -8 and dx = -2*x_min/n: --n alone gives a centred box
    out = str(tmp_path / "w.csv")
    assert cli.main(["wigner", "--gaussian", "--n", "32", "--output", out]) == 0
    assert _manifest(out + ".manifest.json")["inputs"]["grid"] == \
        {"n": 32, "x_min": -8.0, "dx": 0.5}
    base = str(tmp_path / "ev")
    assert cli.main(["evolve", "--t", "0.1", "--steps", "1", "--n", "32",
                     "--output", base]) == 0
    assert _manifest(base + ".manifest.json")["inputs"]["grid"] == \
        {"n": 32, "x_min": -8.0, "dx": 0.5}
    assert not [w for w in recwarn if "window norm" in str(w.message)]
    # the default n keeps the default box bit for bit
    assert cli.main(["star", "--a", "x", "--b", "xi", "--output", out]) == 0
    assert _manifest(out + ".manifest.json")["inputs"]["grid"] == \
        {"n": 256, "x_min": -8.0, "dx": 0.0625}
    capsys.readouterr()


def test_config_grid_section_half_width(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"gaussian": True, "grid": {"n": 32, "half_width": 4}}))
    out = str(tmp_path / "w.bin")
    assert cli.main(["wigner", "--config", str(cfg), "--state", "hermite:1",
                     "--output", out, "--payload", "binary"]) == 0
    inputs = _manifest(out + ".manifest.json")["inputs"]
    assert inputs["grid"] == {"n": 32, "x_min": -4.0, "dx": 0.25}
    assert inputs["state"] == "gaussian"  # the config's --gaussian, as the flag would
    # the config's top level wins over its grid section
    cfg.write_text(json.dumps({"half_width": 6, "grid": {"n": 32, "half_width": 4}}))
    assert cli.main(["wigner", "--config", str(cfg), "--output", out,
                     "--payload", "binary"]) == 0
    assert gridfile.read(out).grid_x == Grid1D(32, -6.0, 0.375)


@pytest.mark.parametrize("command,config,named", [
    ("flow", {"thetaa": 0.9}, "'thetaa'"),
    ("flow", {"grid": {"n": 16}}, "'grid'"),
    ("flow", {"n": 16}, "'n'"),
    ("wigner", {"tolerances": {}}, "'tolerances'"),
    ("wigner", {"theta": 0.3}, "'theta'"),
    ("wigner", {"grid": {"half_wdith": 4}}, "grid.half_wdith"),
    ("verify", {"config": "other.json"}, "'config'"),
    ("verify", {"tolerance": ["flow-algebra/period=1e-30"]}, "'tolerance'"),
    ("wigner", {"x_min": -4.0}, "'x_min'"),
    ("star", {"grid": {"n": 16, "dx": 0.5}}, "grid.dx"),
])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, command, config, named):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main([command, "--config", str(cfg), "--output", str(tmp_path / "out"),
                   "--manifest", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {named} is not a setting of {command}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


@pytest.mark.parametrize("command", ["flow", "propagate", "fracwigner", "star"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_theta_is_usage_error(tmp_path, capsys, command, bad):
    src = str(tmp_path / "in.bin")
    grid = Grid1D.centered(16, 4.0)
    gridfile.write(src, PhaseFunction2D(grid, grid.dual(), np.ones((16, 16))), "binary")
    extra = {"propagate": ["--input", src], "star": ["--a", "x", "--b", "xi"]}
    out = tmp_path / "o.csv"
    rc = cli.main([command, f"--theta={bad}", *extra.get(command, []),
                   "--output", str(out)])
    assert rc == 2
    assert f"error: angle theta={bad} is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_theta_in_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text('{"theta": NaN}')
    rc = cli.main(["flow", "--config", str(cfg), "--output", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "theta=nan" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+2", "-0.5", "-1_000.25"])
def test_float_flag_takes_a_separate_dash_led_value(tmp_path, value):
    # argparse reads -1e-3 as a flag of its own; the separate word must run
    # exactly as the attached --theta=-1e-3 does
    runs = {}
    for spelling, argv in (("joined", [f"--theta={value}"]), ("separate", ["--theta", value])):
        out = str(tmp_path / f"{spelling}.csv")
        assert cli.main(["flow", *argv, "--output", out]) == 0
        runs[spelling] = (open(out, encoding="utf-8").read(),
                          _manifest(out + ".manifest.json")["inputs"])
    assert runs["separate"] == runs["joined"]
    assert runs["joined"][1]["theta"] == float(value)


@pytest.mark.parametrize("argv,message", [
    (["flow", "--theta", "-inf"], "error: angle theta=-inf is not finite"),
    (["flow", "--theta", "-nan"], "error: angle theta=nan is not finite"),
    (["flow", "--theta", "-1e999"], "error: angle theta=-inf is not finite"),
    (["wigner", "--gaussian", "--n", "16", "--half-width", "-inf"],
     "error: --half-width must be finite, got -inf"),
    (["evolve", "--n", "16", "--half-width", "5", "--t", "-inf"], "error: --t must be finite"),
])
def test_separate_non_finite_value_reaches_its_message(tmp_path, capsys, argv, message):
    rc = cli.main([*argv, "--output", str(tmp_path / "o"), "--manifest", str(tmp_path / "m")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(message)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("word", ["-x", "-", "-1e", "--output"])
def test_separate_non_numeric_value_is_refused(tmp_path, word):
    with pytest.raises(SystemExit) as exc:
        cli.main(["flow", "--theta", word, "--output", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,config", [
    ("flow", {"theta": "abc"}),
    ("wigner", {"grid": {"n": "big"}}),
    ("wigner", {"grid": 32}),
    ("evolve", {"t": "soon"}),
    ("verify", {"tolerances": {"flow-algebra/period": "tight"}}),
    ("evolve", {"t": float("nan")}),
    ("wigner", {"grid": {"half_width": float("inf")}}),
    ("verify", {"tolerances": {"flow-algebra/period": float("nan")}}),
    # a config number must be what its flag accepts: no truncation, no booleans
    ("bopp-spectrum", {"symbol": "oscillator", "count": 2.5}),
    ("evolve", {"t": 0.5, "steps": 2.7}),
    ("wigner", {"gaussian": True, "n": 16.9}),
    ("bopp-spectrum", {"symbol": "oscillator", "count": True}),
    ("bopp-spectrum", {"symbol": "oscillator", "count": 1, "half_width": True}),
    ("evolve", {"t": 0.5, "steps": float("inf")}),
])
def test_bad_config_number_is_usage_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--output", str(out),
                   "--manifest", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and "Traceback" not in err
    assert not list(tmp_path.glob("out*")) and not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag,argv", [
    ("t", ["evolve", *SMALL]),
    ("gap", ["bopp-spectrum", "--symbol", "x", "--count", "1", "--n", "16",
             "--half-width", "5"]),
    ("half-width", ["wigner", "--n", "16"]),
    ("half-width", ["star", "--a", "x", "--b", "xi", "--n", "16"]),
    ("half-width", ["evolve", "--t", "0.1", "--n", "16"]),
    ("tolerance flow-algebra/period", ["verify", "--suite", "flow"]),
])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_number_is_usage_error(tmp_path, capsys, monkeypatch, flag, argv, bad):
    # a --tolerance value follows its criterion/check key: --tolerance=key=value;
    # verify's manifest defaults to the working directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    rc = cli.main([*argv, f"--{flag.replace(' ', '=')}={bad}", "--output", str(out)])
    assert rc == 2
    assert f"error: --{flag} must be finite, got {bad}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_gap_is_usage_error(tmp_path, capsys, where):
    # a negative gap would put every level in a cluster of its own
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"gap": -1.0}))
    given = ["--gap", "-1"] if where == "flag" else ["--config", str(cfg)]
    rc = cli.main(["bopp-spectrum", "--symbol", "x", "--count", "1", "--n", "16",
                   "--half-width", "5", *given, "--output", str(tmp_path / "out")])
    assert rc == 2
    name = "--gap" if where == "flag" else "config 'gap'"
    assert f"error: {name} must be finite and nonnegative, got -1.0" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_evolve_above_the_dense_cap_is_usage_error(tmp_path, capsys):
    base = tmp_path / "ev"
    rc = cli.main(["evolve", "--n", "80", "--half-width", "8", "--t", "0.5",
                   "--output", str(base)])
    assert rc == 2
    assert "error: dense assembly is capped at 64" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_repeated_main_calls_share_no_flag_state(tmp_path, capsys):
    # the parser is built once per process; an appended --tolerance from
    # one call must not reach the next
    man = str(tmp_path / "v.json")
    assert cli.main(["verify", "--suite", "flow", "--manifest", man,
                     "--tolerance", "flow-algebra/period=1e-30"]) == 1
    assert cli.main(["verify", "--suite", "flow", "--manifest", man]) == 0
    assert _manifest(man)["inputs"]["tolerance_overrides"] == {}


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    # an existing directory cannot be opened as the artifact
    rc = cli.main(["wigner", "--gaussian", *SMALL, "--output", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # nor can a manifest path inside a missing directory
    rc = cli.main(["flow", "--output", str(tmp_path / "f.csv"),
                   "--manifest", str(tmp_path / "absent" / "m.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("payload", ["csv", "binary"])
def test_non_finite_state_file_is_usage_error(tmp_path, capsys, payload):
    grid = Grid1D.centered(16, 4.0)
    values = states.gaussian(grid).values.astype(complex)
    values[3] = np.nan
    src = str(tmp_path / "state.in")
    gridfile.write(src, SampledFunction1D(grid, values), payload)
    out = tmp_path / "w.csv"
    rc = cli.main(["wigner", "--state", src, "--output", str(out)])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("corrupt,message", [
    (lambda raw: raw.rstrip(b"\n") + b"\xff\n", "CSV payload is not UTF-8"),
    (lambda raw: raw.replace(b'"n":16,', b'"n":16.9,', 1), "n must be a positive even"),
], ids=["non-utf8-payload", "non-integer-n"])
def test_malformed_state_file_is_usage_error(tmp_path, capsys, corrupt, message):
    src = tmp_path / "state.csv"
    gridfile.write(str(src), states.gaussian(Grid1D.centered(16, 4.0)), "csv")
    src.write_bytes(corrupt(src.read_bytes()))
    rc = cli.main(["wigner", "--state", str(src), "--output", str(tmp_path / "w.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
def test_distinguished_angle_plus_periods_takes_the_exact_routes(tmp_path, k):
    grid = Grid1D.centered(32, 6.0)
    g = states.gaussian(grid).values
    src = str(tmp_path / "k.bin")
    gridfile.write(src, OperatorKernel(grid, np.outer(g, np.conj(g))), "binary")
    outputs = []
    for theta in (THETA_WIGNER, THETA_WIGNER + k * PERIOD):
        out = tmp_path / f"s{len(outputs)}.bin"
        assert cli.main(["weyl-symbol", "--kernel", src, f"--theta={theta!r}",
                         "--payload", "binary", "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
        assert cli.main(["star", "--a", "x", "--b", "xi", f"--theta={theta!r}",
                         "--n", "16", "--half-width", "6",
                         "--output", str(tmp_path / "star.csv")]) == 0
    assert outputs[0] == outputs[1]


def test_missing_input_file(tmp_path, capsys):
    rc = cli.main(["propagate", "--input", str(tmp_path / "absent.bin"),
                   "--output", str(tmp_path / "o.bin")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_kind_input(tmp_path, capsys):
    grid = Grid1D.centered(16, 4.0)
    src = str(tmp_path / "f1d.bin")
    gridfile.write(src, states.gaussian(grid), "binary")
    rc = cli.main(["propagate", "--input", src,
                   "--output", str(tmp_path / "o.bin")])
    assert rc == 2
    assert "expected a phase-plane function" in capsys.readouterr().err


def test_oversized_binary_header_is_usage_error(tmp_path, capsys):
    # n = 2**32 on both axes: a numpy product of the shape wraps to 0 bytes,
    # which an empty body would match
    grid = {"n": 2**32, "x_min": -2.0**30, "dx": 0.5}
    src = tmp_path / "huge.bin"
    src.write_bytes(json.dumps({"kind": "phase2d", "grid_x": grid, "grid_p": grid,
                                "format_version": 1, "dtype": "complex128",
                                "payload": "binary"}).encode("utf-8") + b"\n")
    rc = cli.main(["propagate", "--input", str(src), "--theta", "0.3",
                   "--output", str(tmp_path / "o.bin")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: binary payload holds 0 bytes")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.bin"]


@pytest.mark.parametrize("command,config,key,what", [
    ("star", {"a": 1, "b": "x"}, "a", "a string"),
    ("wigner", {"state": 3}, "state", "a string"),
    ("evolve", {"t": 0.1, "window": ["gaussian"]}, "window", "a string"),
    ("wigner", {"gaussian": 1}, "gaussian", "a boolean"),
])
def test_config_spec_of_the_wrong_json_type_is_usage_error(tmp_path, capfd, command,
                                                          config, key, what):
    # a number is no spec: os.path.exists(1) is true for the open descriptor 1,
    # which a grid-file read would open and close
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main([command, "--config", str(cfg), "--n", "16", "--half-width", "4",
                   "--output", str(tmp_path / "out"), "--manifest", str(tmp_path / "m.json")])
    assert rc == 2
    os.write(1, b"stdout still open\n")
    out, err = capfd.readouterr()
    assert out == "stdout still open\n"
    assert err == f"error: config {key!r} must be {what}, got {config[key]!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


def _set_header(path, **entries):
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = {**json.loads(raw[:newline]), **entries}
    path.write_bytes(json.dumps(header).encode("utf-8") + raw[newline:])


@pytest.mark.parametrize("payload", ["csv", "binary"])
def test_off_centre_or_non_dual_grid_file_is_usage_error(tmp_path, capsys, payload):
    grid = Grid1D.centered(16, 4.0)
    values = np.ones((16, 16))
    phase, symbol = tmp_path / "phase", tmp_path / "symbol"
    gridfile.write(str(phase), PhaseFunction2D(grid, grid.dual(), values), payload)
    _set_header(phase, grid_x={"n": 16, "x_min": 0.0, "dx": 0.5})  # [0, 8)
    gridfile.write(str(symbol), Symbol2D(grid, grid.dual(), values), payload)
    _set_header(symbol, grid_xi={"n": 16, "x_min": -4.0, "dx": 0.5})  # centred, not the dual
    for argv, message in (
            (["propagate", "--input", str(phase)],
             "malformed grid_x entry in header: grid must be symmetric about 0"),
            (["star", "--a", str(symbol), "--b", "x"],
             "inconsistent header: symbol frequency grid is not the Fourier dual")):
        rc = cli.main([*argv, "--output", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["phase", "symbol"]


@pytest.mark.parametrize("argv,message", [
    (["--n", "0"], "grid size n must be a positive even integer, got 0"),
    (["--n", "7"], "grid size n must be a positive even integer, got 7"),
    (["--half-width", "0"], "half_width must be positive"),
    (["--half-width", "-2"], "half_width must be positive"),
])
def test_bad_grid_flags_are_usage_errors(tmp_path, capsys, argv, message):
    rc = cli.main(["wigner", "--gaussian", *argv, "--output", str(tmp_path / "w.csv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--x-min", "--dx"])
def test_removed_grid_flags_are_usage_errors(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["wigner", "--n", "16", flag, "0.5", "--output", str(tmp_path / "w")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == \
        [f"phasekit: error: unrecognized arguments: {flag} 0.5"]
    assert "Traceback" not in err and not list(tmp_path.iterdir())


def test_tolerance_naming_no_check_is_usage_error(tmp_path, capsys):
    man = tmp_path / "m.json"
    cfg = tmp_path / "job.json"
    for key in ("flow-algebra/nonexistent", "propagator/unitarity"):  # not of suite flow
        cfg.write_text(json.dumps({"tolerances": {key: 1e-30}}))
        for argv in (["--tolerance", f"{key}=1e-30"], ["--config", str(cfg)]):
            rc = cli.main(["verify", "--suite", "flow", *argv, "--manifest", str(man)])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: tolerance {key!r} names no check of suite flow\n"
            assert captured.out == "" and not man.exists()
    # one override naming a check of the run still gates it
    cfg.write_text(json.dumps({"tolerances": {"flow-algebra/period": 1e-30}}))
    assert cli.main(["verify", "--suite", "flow", "--config", str(cfg),
                     "--manifest", str(man)]) == 1
    failed = [row["check"] for row in _manifest(man)["checks"] if not row["passed"]]
    assert failed == ["period"]
    capsys.readouterr()


def test_unknown_tolerance_refused_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    def run_all(*args, **kwargs):
        raise AssertionError("the suite ran before the override was checked")

    monkeypatch.setattr(cli.verify, "run_all", run_all)
    man = tmp_path / "m.json"
    for key in ("flow-algebra/nonexistent", "wigner-equivalence/vs-integral-cubic"):
        rc = cli.main(["verify", "--suite", "all", "--tolerance", f"{key}=1",
                       "--manifest", str(man)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: tolerance {key!r} names no check of suite all\n"
        assert not man.exists()


def test_negative_tolerance_refused_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    # no error is below a negative tolerance, so its check could only fail;
    # a flag or config override is refused before any check runs, and 0
    # stays legal
    def run_all(*args, **kwargs):
        raise AssertionError("the suite ran before the override was checked")

    monkeypatch.setattr(cli.verify, "run_all", run_all)
    man, cfg = tmp_path / "m.json", tmp_path / "job.json"
    cfg.write_text(json.dumps({"tolerances": {"flow-algebra/period": -1}}))
    for argv, name in ((["--tolerance", "flow-algebra/period=-1"], "--tolerance"),
                       (["--config", str(cfg)], "config tolerances.")):
        rc = cli.main(["verify", "--suite", "flow", *argv, "--manifest", str(man)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: {name}{'' if name.endswith('.') else ' '}flow-algebra/period must be " \
            "nonnegative, got -1.0\n"
        assert not man.exists()
    monkeypatch.undo()
    assert cli.main(["verify", "--suite", "flow", "--tolerance", "flow-algebra/period=0",
                     "--manifest", str(man)]) in (0, 1)
    assert _manifest(man)["inputs"]["tolerance_overrides"] == {"flow-algebra/period": 0.0}
    capsys.readouterr()


def test_state_spec_errors(tmp_path, capsys):
    for spec, message in (("hermite:x", "integer level"),
                          ("hermite:-1", "hermite order must be >= 0"),
                          ("coherent:zzz", "complex amplitude"),
                          ("coherent:nan", "must be finite"),
                          ("chirp:nan", "must be finite"),
                          ("chirp:inf", "must be finite"),
                          ("mystery:3", "unknown state spec")):
        rc = cli.main(["wigner", "--state", spec, "--n", "16", "--half-width", "4",
                       "--output", str(tmp_path / "w.out")])
        assert rc == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, spec
        if "finite" in message:
            assert repr(spec) in err
        assert not list(tmp_path.iterdir()), spec


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


def test_builtin_symbol_requires_valid_spec(tmp_path, capsys):
    rc = cli.main(["star", "--a", "x", "--b", "nonsense", *SMALL,
                   "--output", str(tmp_path / "s.out")])
    assert rc == 2
    assert "symbol" in capsys.readouterr().err


_WORDS = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=10)


def _tolerance_override(draw, root, key, value):
    """verify arguments that override the tolerance of check key, by flag or config."""
    if draw(st.booleans()):
        return ["--tolerance", f"{key}={value!r}"]
    config = json.dumps({"tolerances": {key: value}})
    return ["--config", _write(os.path.join(root, "c.json"), config)]


def _write(path, content):
    with open(path, "wb" if isinstance(content, bytes) else "w") as fh:
        fh.write(content)
    return path


def _number_flag(draw, flag, value):
    """--flag=value or --flag value, drawn: the CLI reads both alike."""
    return draw(st.sampled_from([[f"--{flag}={value}"], [f"--{flag}", value]]))


#: One entry per error class: the exit code, a pattern its stderr must hold,
#: and an argv builder called with hypothesis's draw and a fresh directory.
#: Drawn numbers go in as --flag=value, which argparse never reads as a flag,
#: or, where _number_flag draws the spelling, as a separate word.
_EXIT_CASES = {
    "unknown subcommand": (2, "invalid choice", lambda draw, root: [
        draw(_WORDS.filter(lambda w: w not in cli._COMMANDS))]),
    "unknown flag": (2, "unrecognized arguments: --no-such-", lambda draw, root: [
        draw(st.sampled_from(sorted(cli._COMMANDS))), f"--no-such-{draw(_WORDS)}", "1"]),
    "bad flag choice": (2, "argument --method: invalid choice", lambda draw, root: [
        "star", "--a", "x", "--b", "xi", "--method", draw(_WORDS.filter(
            lambda w: w not in ("algebraic", "kernel", "quadrature"))),
        "--output", os.path.join(root, "s.csv")]),
    "missing required flag": (2, "^error: [a-z-]+ needs --", lambda draw, root: [
        draw(st.sampled_from(["propagate", "reconstruct", "weyl-symbol", "star", "expect"])),
        "--output", os.path.join(root, "o.csv")]),
    "non-finite angle": (2, "theta=(nan|inf|-inf) is not finite", lambda draw, root: [
        *draw(st.sampled_from([["flow"], ["fracwigner", "--n", "16", "--half-width", "5"]])),
        *_number_flag(draw, "theta", draw(st.sampled_from(["nan", "inf", "-inf", "-nan", "1e999",
                                                           "-1e999"]))),
        "--output", os.path.join(root, "o.csv")]),
    "bad grid size": (2, "grid size n must be a positive even integer", lambda draw, root: [
        "wigner", "--gaussian",
        f"--n={draw(st.integers(-40, 41).filter(lambda n: n <= 0 or n % 2))}",
        "--output", os.path.join(root, "w.csv")]),
    "bad half-width": (2, "half.width must be", lambda draw, root: [
        "wigner", "--gaussian", "--n", "16",
        *_number_flag(draw, "half-width",
                      draw(st.sampled_from(["0", "-1.5", "-1e-3", "nan", "inf", "-inf"]))),
        "--output", os.path.join(root, "w.csv")]),
    "above the dense cap": (2, "capped at 64 points", lambda draw, root: [
        *draw(st.sampled_from([["evolve", "--t", "0.5"], ["bopp-spectrum", "--symbol", "x", "--count", "1"]])),
        f"--n={2 * draw(st.integers(33, 64))}", "--half-width", "8",
        "--output", os.path.join(root, "b")]),
    "missing config file": (2, "config file not found", lambda draw, root: [
        "flow", "--config", os.path.join(root, draw(_WORDS) + ".json")]),
    "config not a JSON object": (2, "must hold a JSON object", lambda draw, root: [
        "flow", "--config", _write(os.path.join(root, "c.json"), json.dumps(
            draw(st.one_of(st.integers(), st.lists(st.integers(), max_size=3), _WORDS))))]),
    "config not JSON": (2, "not valid JSON", lambda draw, root: [
        "flow", "--config", _write(os.path.join(root, "c.json"), "{" + draw(_WORDS))]),
    "unknown config key": (2, "is not a setting of flow", lambda draw, root: [
        "flow", "--config", _write(os.path.join(root, "c.json"),
                                   json.dumps({"zz" + draw(_WORDS): 1})),
        "--output", os.path.join(root, "f.csv")]),
    "config names another command": (2, "config declares command", lambda draw, root: [
        "flow", "--config", _write(os.path.join(root, "c.json"), json.dumps(
            {"command": draw(st.sampled_from(sorted(set(cli._COMMANDS) - {"flow"})))})),
        "--output", os.path.join(root, "f.csv")]),
    "missing input file": (2, "No such file or directory", lambda draw, root: [
        "propagate", "--input", os.path.join(root, draw(_WORDS) + ".csv"),
        "--output", os.path.join(root, "p.csv")]),
    "malformed state file": (2, "^error: ", lambda draw, root: [
        "wigner", "--state", _write(os.path.join(root, "s.csv"), draw(st.binary(max_size=64))),
        "--output", os.path.join(root, "w.csv")]),
    "unwritable output": (2, "Is a directory|No such file or directory", lambda draw, root: [
        "flow", "--output", draw(st.sampled_from([root, os.path.join(root, "absent", "f.csv")]))]),
    "polynomial symbols off the angle": (2, "polynomial symbols cannot be transported",
                                         lambda draw, root: [
        "star", "--a", "x", "--b", draw(st.sampled_from(["xi", "oscillator"])), "--n", "16",
        "--half-width", "5", "--output", os.path.join(root, "s.csv"),
        f"--theta={draw(st.floats(-3.0, 3.0).filter(lambda t: abs(t - THETA_WIGNER) > 1e-6))!r}"]),
    "tolerance naming no check": (2, "names no check of suite flow", lambda draw, root: [
        "verify", "--suite", "flow", "--tolerance", f"flow-algebra/{draw(_WORDS)}x=1e-30",
        "--manifest", os.path.join(root, "v.json")]),
    "negative tolerance": (2, "tolerance(s.| )flow-algebra/period must be nonnegative, got -",
                           lambda draw, root: [
        "verify", "--suite", "flow", *_tolerance_override(draw, root, "flow-algebra/period",
                                                          draw(st.floats(-1e6, -5e-324))),
        "--manifest", os.path.join(root, "v.json")]),
    "non-finite poly tag": (2, "inconsistent header: polynomial coefficients must be a finite",
                            lambda draw, root: [
        *draw(st.sampled_from([["expect", "--op"], ["star", "--b", "x", "--a"]])),
        _non_finite_tag_file(os.path.join(root, "bad"),
                             draw(st.sampled_from([float("nan"), float("inf"), -float("inf")])),
                             draw(st.sampled_from(["csv", "binary"]))),
        "--n", "16", "--half-width", "4", "--output", os.path.join(root, "o")]),
    "unknown suite": (2, "unknown suite", lambda draw, root: [
        "verify", "--suite", "zz" + draw(_WORDS), "--manifest", os.path.join(root, "v.json")]),
    # these checks are 2.2e-16 to 3.7e-16 off at every seed
    "verify failure": (1, "^failing criteria: flow-algebra$", lambda draw, root: [
        "verify", "--suite", "flow", f"--seed={draw(st.integers(0, 2**16))}", "--tolerance",
        "flow-algebra/" + draw(st.sampled_from(
            ["distinguished-angle-matrix", "symplectic-form", "period"]))
        + f"={draw(st.floats(0.0, 1e-16))!r}", "--manifest", os.path.join(root, "v.json")]),
    "verify pass": (0, "^$", lambda draw, root: [
        "verify", "--suite", "flow", f"--seed={draw(st.integers(0, 2**16))}",
        "--manifest", os.path.join(root, "v.json")]),
    "flow at a finite angle": (0, "^$", lambda draw, root: [
        "flow", *_number_flag(draw, "theta", repr(draw(st.floats(-1e6, 1e6)))), "--output",
        os.path.join(root, "f.csv")]),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_EXIT_CASES)), st.data())
def test_exit_codes_follow_the_contract(case, data):
    # every usage-error class exits 2 with a message, whether argparse or
    # the run refuses it, and only a failing verify check exits 1
    code_wanted, pattern, build = _EXIT_CASES[case]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        argv = build(data.draw, root)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    message = err.getvalue().strip()
    assert code == code_wanted, (argv, message)
    assert re.search(pattern, message), (argv, message)
    assert ("error:" in message) == (code == 2), (argv, message)

"""CLI subcommand tests: artifacts, schemas, determinism."""

import json

import numpy as np
import pytest

from spinlap import cli, determinants as det, hodge, homology_spin as hs
from spinlap import surface as sf

import oracles


@pytest.fixture()
def g1_moduli_file(tmp_path):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(
        {"genus": 1, "A": [[1, 0]], "B": [[0, 1]], "C": []}))
    return str(path)


@pytest.fixture()
def g2_moduli_file(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(
        {"genus": 2, "A": [[1, 0], [1, 0]], "B": [[0, 1], [0, 2]],
         "C": [[0.2, 0], [0.5, 0]]}))
    return str(path)


def test_surface_command(g2_moduli_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["surface", "--moduli", g2_moduli_file, "--h", "0.05",
                   "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "surface.json").read_text())
    assert d["genus"] == 2
    assert len(d["cone_points"]) == 2
    assert d["flat_area"] == pytest.approx(3.0, abs=1e-12)
    assert "config_hash" in d and "version" in d


def test_periods_command(g1_moduli_file, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["periods", "--moduli", g1_moduli_file, "--h", "0.1",
                   "--out", str(out)])
    assert rc == 0
    d = json.loads((out / "periods.json").read_text())
    assert d["periods"]["B"][0][0] == pytest.approx([0.0, 1.0], abs=1e-9)


def test_theta_selftest_command(tmp_path):
    rc = cli.main(["theta-selftest", "--g", "2", "--trials", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "theta_selftest.csv").read_text().splitlines()
    assert rows[0] == "g,char,test,residual"
    assert len(rows) > 20


def test_cone_selftest_command(tmp_path):
    rc = cli.main(["cone-selftest", "--n-r", "2", "--n-t", "2",
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "cone_selftest.csv").read_text().splitlines()
    assert rows[0].startswith("test,alpha,t,")


def test_spectrum_command(g1_moduli_file, tmp_path):
    rc = cli.main(["spectrum", "--moduli", g1_moduli_file, "--spin", "even:0",
                   "--extension", "friedrichs", "--h", "0.05",
                   "--num-eigs", "40", "--out", str(tmp_path)])
    assert rc == 0
    d = json.loads((tmp_path / "spectrum.json").read_text())
    assert d["extension"] == "friedrichs"
    assert len(d["eigenvalues"]) == 40
    assert d["eigenvalues"][0] > 0
    assert "log_det" in d["zeta"]
    assert d["zeta"]["n_eigs"] == 40
    assert d["zeta"]["overlap_gap"] >= 0.0
    assert d["heat_trace"]
    assert d["krylov_dim"] >= 40
    # partial reorthogonalization: some steps, never all of them
    assert 0 < d["reorthogonalized"] < d["krylov_dim"]
    assert d["residual_bound"] <= 1e-12
    # the Sylvester inertia certificate: exactly the 40 found lie within d
    assert d["inertia"]["count"] == 40 and d["inertia"]["d"] > 0
    assert [s["steps"] for s in d["slices"]] == [d["krylov_dim"]]


def test_spectrum_command_writes_the_slices(g2_moduli_file, tmp_path):
    # 200 Szego eigenvalues of 1252 dofs: two spectrum slices, one count
    rc = cli.main(["spectrum", "--moduli", g2_moduli_file, "--extension",
                   "szego", "--h", "0.05", "--num-eigs", "200",
                   "--out", str(tmp_path)])
    assert rc == 0
    d = json.loads((tmp_path / "spectrum.json").read_text())
    lam = np.array(d["eigenvalues"])
    assert len(lam) == 200 and lam[0] > 0 and np.all(np.diff(lam) >= 0)
    assert d["kernel_dimension"] == 0 and d["inertia"]["count"] >= 200
    used = [s for s in d["slices"] if s["used"]]
    assert len(used) == 2 and used[0]["sigma"] == d["inertia"]["sigma"]
    assert sum(s["steps"] for s in d["slices"]) == d["krylov_dim"]
    # the first slice's basis goes before the second one starts
    assert used[0]["released"]
    assert d["basis_rows"] == max(s["rows"] for s in used)
    assert d["basis_rows"] < sum(s["steps"] for s in used)


@pytest.mark.parametrize("token", ["even:7", "abc", "-1"])
def test_spin_outside_its_range_is_a_usage_error(token, g1_moduli_file,
                                                 tmp_path, capsys):
    # genus 1 has 4 spin structures, 3 of them even
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--moduli", g1_moduli_file, "--spin", token,
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert repr(token) in err
    assert "k in 0..3" in err and "even:k with k in 0..2" in err
    assert not (tmp_path / "spectrum.json").exists()


def test_a_solver_error_is_one_line(g1_moduli_file, tmp_path, capsys):
    # the square torus with the trivial spin (+,+): the default shift 0.0 of
    # its Friedrichs pencil is an eigenvalue (the constants)
    rc = cli.main(["spectrum", "--moduli", g1_moduli_file, "--spin", "0",
                   "--h", "0.05", "--num-eigs", "20", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("spinlap: error: SolverError: ")
    assert "0.0 is an eigenvalue" in err and err.count("\n") == 1
    assert not (tmp_path / "spectrum.json").exists()


@pytest.mark.parametrize("command", ["spectrum", "determinants"])
@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
def test_num_eigs_below_one_is_a_usage_error(command, value, g1_moduli_file,
                                             tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--moduli", g1_moduli_file, "--num-eigs", value,
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "--num-eigs: expected a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_report_command(g1_moduli_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = periods\nmoduli = {g1_moduli_file}\nh = 0.1\n")
    rc = cli.main(["report", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "periods.json").exists()


def test_determinism(g1_moduli_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cli.main(["spectrum", "--moduli", g1_moduli_file, "--spin", "even:0",
                  "--h", "0.06", "--num-eigs", "25", "--out", str(out)])
    assert (out1 / "spectrum.json").read_bytes() == \
        (out2 / "spectrum.json").read_bytes()


def test_determinants_default_h_meshes_richardson_pair(g2_moduli_file):
    args = cli.build_parser().parse_args(
        ["determinants", "--moduli", g2_moduli_file])
    assert not args.no_richardson
    with open(g2_moduli_file) as f:
        surf = sf.build_surface(sf.ModuliPoint.from_dict(json.load(f)))
    sf.generate_mesh(surf, h=1.4 * args.h)     # the Richardson partner mesh


def test_determinants_defaults_to_the_best_conditioned_spins(
        g2_moduli_file, tmp_path, monkeypatch):
    seen = {}

    def no_spectra(moduli, spins, **kwargs):
        seen.update(spins=spins, cache=kwargs["cache"])
        return {"reports": [], "max_delta_q": 0.0}

    monkeypatch.setattr(det, "spin_independence_test", no_spectra)
    assert cli.main(["determinants", "--moduli", g2_moduli_file,
                     "--out", str(tmp_path)]) == 0
    # the run's own period matrix, as determinant_report keeps it
    (periods,) = [x for v in seen["cache"].values() for x in v
                  if isinstance(x, hodge.PeriodData)]
    ranked = []
    for spin in hs.enumerate_spin_structures(2):
        if spin.is_even:
            ch = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b),
                                             periods)
            theta0 = oracles.brute_theta(ch.p, ch.q, np.zeros(2),
                                         periods.b_matrix, radius=8)
            ranked.append((abs(theta0), spin))
    ranked.sort(key=lambda item: -item[0])
    assert seen["spins"] == [spin for _, spin in ranked[:2]]


@pytest.mark.slow
def test_determinants_command(g2_moduli_file, tmp_path):
    rc = cli.main(["determinants", "--moduli", g2_moduli_file,
                   "--spins", "even:0,even:0", "--h", "0.05",
                   "--num-eigs", "150", "--no-richardson",
                   "--out", str(tmp_path)])
    assert rc == 0
    d = json.loads((tmp_path / "determinants.json").read_text())
    assert d["max_delta_q"] == 0.0
    for rep in d["reports"]:
        # the zeta split behind log det F
        zeta = rep["zeta"]
        assert 0.0 < zeta["t0"] and zeta["overlap_gap"] >= 0.0
        assert zeta["n_eigs"] == 150
        assert zeta["c0"] == -0.375
    assert (tmp_path / "summary.csv").exists()

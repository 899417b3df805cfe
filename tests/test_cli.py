"""CLI subcommand tests: artifacts, schemas, determinism."""

import json

import pytest

from spinlap import cli, surface as sf


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
    assert d["heat_trace"]


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


@pytest.mark.slow
def test_determinants_command(g2_moduli_file, tmp_path):
    rc = cli.main(["determinants", "--moduli", g2_moduli_file,
                   "--spins", "even:0,even:0", "--h", "0.05",
                   "--num-eigs", "150", "--no-richardson",
                   "--out", str(tmp_path)])
    assert rc == 0
    d = json.loads((tmp_path / "determinants.json").read_text())
    assert d["max_delta_q"] == 0.0
    assert (tmp_path / "summary.csv").exists()

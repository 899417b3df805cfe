"""Quick tests of the benchmark's own parts (seconds, no spinlap pipeline):

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import reference, run, trace  # noqa: E402


# -- the independent torus determinant ---------------------------------------

def _theta(a, b, tau, n=30):
    m = np.arange(-n, n + 1) + a
    return np.sum(np.exp(1j * math.pi * m * m * tau + 2j * math.pi * m * b))


def _eta(tau, n=200):
    q = np.exp(2j * math.pi * tau)
    return np.exp(1j * math.pi * tau / 12) * np.prod(1 - q ** np.arange(1, n + 1))


@pytest.mark.parametrize("A,B", [(1.0, 1j), (1.0, 0.2 + 1.05j), (2.0, 0.3 + 1.7j)])
@pytest.mark.parametrize("signs", [(-1, -1), (-1, 1), (1, -1)])
def test_torus_logdet_matches_kronecker_limit_formula(A, B, signs):
    # log det = 2 log |theta[p,q](0|tau) / eta(tau)|, p = 1/2 for sigma_a = +1
    p, q = (0.5 if s == 1 else 0.0 for s in signs)
    closed = 2 * math.log(abs(_theta(p, q, B / A) / _eta(B / A)))
    assert abs(reference.torus_logdet(A, B, *signs) - closed) < 1e-10


def test_torus_logdet_is_scale_invariant():
    # zeta(0) = 0 without a zero mode, so scaling the torus leaves log det
    a = reference.torus_logdet(1.0, 0.1 + 1.2j, -1, 1)
    b = reference.torus_logdet(3.0, 3 * (0.1 + 1.2j), -1, 1)
    assert abs(a - b) < 1e-10


def test_poisson_heat_trace_matches_eigenvalue_sum():
    lam = reference.torus_spectrum(1.0, 0.3 + 0.9j, -1, -1, count=None)
    for t in (0.05, 0.2, 0.6):
        direct = np.sum(np.exp(-lam * t))
        poisson = reference.torus_heat_trace(1.0, 0.3 + 0.9j, -1, -1, t)[0]
        assert abs(direct - poisson) < 1e-9 * direct


def test_torus_spectrum_square_torus():
    # (Z + 1/2)^2 on the unit square: lambda = pi^2 |m|^2, 4-fold pi^2/2 first
    lam = reference.torus_spectrum(1.0, 1j, -1, -1, 5)
    assert np.allclose(lam[:4], math.pi ** 2 / 2) and lam[4] > lam[3] + 1


# -- self-time arithmetic ------------------------------------------------------

def test_layer_self_times():
    spans = [
        ["hodge.period_matrix", 0.0, 10.0, -1],
        ["hodge.harmonic_basis", 1.0, 3.0, 0],        # same layer: stays
        ["surface.cone_patch_triangles", 2.0, 2.5, 1],  # foreign, below it
        ["theta.theta", 4.0, 6.0, 0],                  # foreign child
        ["theta.theta_gradient0", 7.0, 9.0, 0],
        ["theta.theta", 7.5, 8.0, 4],                  # same layer as parent
    ]
    selfs = trace.layer_self_times(spans)
    assert selfs == [10.0 - 0.5 - 2.0 - 2.0, 1.5, 0.5, 2.0, 2.0, 0.5]
    agg = trace.aggregate(spans, {"surface.triangles": 7})
    assert agg["hodge.period_matrix_s"] == 5.5
    assert agg["hodge.period_matrix_incl_s"] == 10.0
    # theta's figure holds every theta call, also the one inside
    # theta_gradient0, whose own figure includes it as well
    assert agg["theta.theta_s"] == 2.5 and agg["theta.theta_calls"] == 2
    assert agg["theta.theta_gradient0_s"] == 2.0
    assert agg["surface.triangles"] == 7
    # layer totals partition the traced time: 10 s in all
    assert agg["hodge.layer_s"] == 4.0 + 1.5
    assert agg["surface.layer_s"] == 0.5
    assert agg["theta.layer_s"] == 2.0 + 1.5 + 0.5


def test_recursion_counted_once():
    spans = [["determinants.t_matrix_zero", 0.0, 6.0, -1],
             ["theta.theta_batch", 1.0, 2.0, 0],
             ["determinants.t_matrix_zero", 3.0, 5.0, 0],
             ["theta.theta_batch", 3.5, 4.5, 2]]
    agg = trace.aggregate(spans, {})
    assert agg["determinants.t_matrix_zero_calls"] == 2
    assert agg["determinants.t_matrix_zero_s"] == 6.0 - 1.0 - 1.0
    assert agg["theta.theta_batch_s"] == 2.0


def test_tracer_wraps_calls_and_splits_by_extension():
    class Op:
        extension = "szego"
        n_dofs = 5
        stiffness = type("S", (), {"nnz": 9})()

    class Res:
        eigenvalues = [1.0, 2.0]

    ticks = iter(range(100))
    tracer = trace.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("theta.theta", lambda: 1)
    outer = tracer.wrap("spectral.eigenvalues", lambda op, n: (inner(), Res())[1])
    outer(Op(), 2)
    assert [s[0] for s in tracer.spans] == ["spectral.eigenvalues.szego",
                                             "theta.theta"]
    assert tracer.spans[1][3] == 0
    agg = trace.aggregate(tracer.spans, tracer.counts)
    assert agg["spectral.eigenvalues.szego_s"] == 3.0 - 1.0
    assert agg["spectral.eigenvalues_calls"] == 1
    assert agg["spectral.dofs"] == 5 and agg["spectral.eigenpairs"] == 2


# -- operation accounting ----------------------------------------------------------

def test_only_expected_errors_leave_the_run_correct():
    sys.modules.pop("perfbench.workloads", None)
    from perfbench import workloads
    ticks = iter(range(100))
    rnd = workloads.Round(clock=lambda: float(next(ticks)))

    def raises(exc):
        raise exc

    rnd.op("ok", lambda: "fine")
    rnd.op("expected", lambda: raises(KeyError("k")), expected=(KeyError,))
    assert rnd.attempted == 2 and len(rnd.failed) == 1 and rnd.wrong == []
    rnd.op("unexpected", lambda: raises(ValueError("v")), expected=(KeyError,))
    assert rnd.attempted == 3 and len(rnd.failed) == 2
    assert rnd.wrong == ["unexpected error in unexpected: ValueError: v"]
    assert rnd.first_result == 2.0


def test_q_spread_is_checked_across_rounds():
    sys.modules.pop("perfbench.workloads", None)
    from perfbench import workloads
    wl = workloads.WORKLOADS["g2-determinants"]

    def rounds(*qs):
        out = []
        for i, q in enumerate(qs):
            rnd = workloads.Round(clock=lambda: 0.0, index=i)
            rnd.results["q"] = q
            out.append(rnd)
        return out

    assert wl.check_run(rounds(1.493, 1.498)) == []
    assert wl.check_run(rounds(1.493, 1.498, 1.7)) != []
    assert wl.check_run(rounds(1.493)) != []      # one spin compares nothing


def test_measure_makes_min_rounds_then_stops_in_time():
    sys.modules.pop("perfbench.workloads", None)
    from perfbench import workloads
    now = [0.0]

    class TwoSecondRounds:
        min_rounds = 3

        def run_round(self, inputs, rnd):
            now[0] += 2.0

    rounds, _ = run.measure(TwoSecondRounds(), {}, 0, lambda: now[0],
                            workloads.Round)
    assert [r.index for r in rounds] == [0, 1, 2]
    # after four rounds (8 s) a fifth would end at 10 s, after the 9 s
    rounds, _ = run.measure(TwoSecondRounds(), {}, 9, lambda: now[0],
                            workloads.Round)
    assert len(rounds) == 4 and all(r.duration == 2.0 for r in rounds)


# -- metric names -----------------------------------------------------------------

def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _spec()
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[kind]} == table
    values = {name: 1.5 for name in run.END_TO_END}
    line = json.loads(run.result_line(True, 3, 1, values, run.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    traced = run.per_layer_values({}, 1)
    assert list(traced) == [m["name"] for m in spec["per_layer"]]


def test_workload_names_match_benchmark_json():
    sys.modules.pop("perfbench.workloads", None)
    from perfbench import workloads
    assert list(workloads.WORKLOADS) == [w["name"] for w in _spec()["workloads"]]


def test_command_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    cmd = _spec()["command"] + ["--workload", "torus-oracle", "--seed", "1",
                                "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0 and done.stdout == ""

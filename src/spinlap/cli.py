"""Command-line experiment runner.

Subcommands: surface, periods, theta-selftest, cone-selftest, spectrum,
determinants, report.  Reports are JSON/CSV with complex numbers as [re, im]
pairs; every JSON report embeds the config hash and package version so runs
are reproducible and comparable.  SPINLAP_THREADS caps linear-algebra
parallelism (best effort: set before BLAS pools spin up).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys


def _cap_threads():
    n = os.environ.get("SPINLAP_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, n)


_cap_threads()

import numpy as np                                       # noqa: E402

from . import __version__                                # noqa: E402


def _config_hash(args_dict):
    blob = json.dumps({k: v for k, v in sorted(args_dict.items())
                       if k not in ("func", "out")}, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _c2pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _report_header(args_dict):
    return {"version": __version__, "config_hash": _config_hash(args_dict)}


def _load_moduli(path):
    from .surface import ModuliPoint
    with open(path) as f:
        return ModuliPoint.from_dict(json.load(f))


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    print(f"wrote {path}")


def _select_spins(spec_str, g):
    from . import homology_spin as hs
    structs = hs.enumerate_spin_structures(g)
    evens = [s for s in structs if s.is_even]
    out = []
    for tok in spec_str.split(","):
        tok = tok.strip()
        if tok.startswith("even:"):
            out.append(evens[int(tok[5:])])
        else:
            out.append(structs[int(tok)])
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_surface(args):
    from . import surface as sf
    m = _load_moduli(args.moduli)
    surf = sf.build_surface(m)
    mesh = sf.generate_mesh(surf, h=args.h)
    info = sf.validate_mesh(mesh)
    payload = _report_header(vars(args))
    payload.update(mesh.to_dict())
    payload["validation"] = info
    payload["flat_area"] = sf.flat_area(surf)
    _write_json(os.path.join(args.out, "surface.json"), payload)
    return 0


def cmd_periods(args):
    from . import surface as sf
    from . import hodge
    m = _load_moduli(args.moduli)
    surf = sf.build_surface(m)
    mesh = sf.generate_mesh(surf, h=args.h)
    pd = hodge.period_matrix(mesh)
    payload = _report_header(vars(args))
    payload["periods"] = {
        "B": [[_c2pair(v) for v in row] for row in pd.b_matrix],
        "B_asymmetry": float(np.max(np.abs(pd.b_raw - pd.b_raw.T))),
        "harmonicity_residual": pd.residual,
        "im_B_min_eigenvalue": float(np.linalg.eigvalsh(pd.b_matrix.imag).min()),
    }
    _write_json(os.path.join(args.out, "periods.json"), payload)
    return 0


def cmd_theta_selftest(args):
    from . import theta as th
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for g in range(1, args.g + 1):
        for trial in range(args.trials):
            re = rng.normal(size=(g, g))
            re = 0.15 * (re + re.T)
            mfac = rng.normal(size=(g, g)) * 0.4
            B = re + 1j * (mfac @ mfac.T + np.eye(g))
            for char in th.all_characteristics(g):
                xi = rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.2
                res = th.heat_equation_residual(char, xi, B)
                rows.append((g, char.label(), f"heat_eq_{trial}", res))
                val = th.theta(char, xi, B)
                ref = th.theta(char, -xi, B)
                sign = 1.0 if char.is_even else -1.0
                rows.append((g, char.label(), f"parity_{trial}",
                             abs(ref - sign * val) / max(1.0, abs(val))))
                worst = max(worst, res)
    path = os.path.join(args.out, "theta_selftest.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["g", "char", "test", "residual"])
        w.writerows(rows)
    print(f"wrote {path}; worst heat-equation residual {worst:.3e}")
    return 0 if worst < 1e-8 else 1


def cmd_cone_selftest(args):
    from . import cone_analysis as ca
    alpha = 4 * math.pi
    rows = []
    worst = 0.0
    rs = np.linspace(0.15, 1.6, args.n_r)
    ts = np.geomspace(0.08, 0.9, args.n_t)
    phi, phip = 2.3, 7.9
    for r in rs:
        for rp in rs:
            for t in ts:
                v1 = ca.antiperiodic_kernel(r, phi, rp, phip, t, alpha, route="contour")
                v2 = ca.antiperiodic_kernel(r, phi, rp, phip, t, alpha, route="bessel")
                d = abs(v1 - v2)
                worst = max(worst, d)
                rows.append(("dual_route", alpha, t, v1, v2, d))
    for a in (2 * math.pi, 3 * math.pi, 4 * math.pi):
        num = ca.cone_trace_constant_numeric(a)
        ref = ca.cone_trace_constant(a)
        rows.append(("trace_constant", a, 0.0, num, ref, abs(num - ref)))
    path = os.path.join(args.out, "cone_selftest.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["test", "alpha", "t", "value_route1", "value_route2", "abs_diff"])
        w.writerows(rows)
    print(f"wrote {path}; worst dual-route diff {worst:.3e}")
    return 0 if worst < 1e-8 else 1


def cmd_spectrum(args):
    from . import surface as sf
    from . import hodge
    from . import homology_spin as hs
    from . import spectral as spec
    m = _load_moduli(args.moduli)
    surf = sf.build_surface(m)
    mesh = sf.generate_mesh(surf, h=args.h)
    spin = _select_spins(args.spin, m.genus)[0]
    lift = hs.build_sign_lift(mesh, spin)
    periods = char = None
    if args.extension == "holomorphic":
        periods = hodge.period_matrix(mesh)
        char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), periods)
    op = spec.assemble_operator(mesh, lift, args.extension,
                                periods=periods, char=char)
    res = spec.eigenvalues(op, args.num_eigs)
    payload = _report_header(vars(args))
    payload["moduli"] = m.to_dict()
    payload["spin"] = spin.to_dict()
    payload["extension"] = args.extension
    payload["h"] = args.h
    payload["eigenvalues"] = [float(v) for v in res.eigenvalues]
    heat = []
    if args.extension in ("friedrichs", "szego"):
        lam = res.positive()
        cutoff = lam[-1] + math.pi / (2 * res.area)
        for t in np.geomspace(16.0 / cutoff, 2.0 / lam[0], args.n_t):
            try:
                heat.append({"t": float(t), "K": spec.heat_trace(res, float(t))})
            except spec.WindowError:
                continue
        try:
            ld, err, info = spec.zeta_determinant(res)
            payload["zeta"] = {"log_det": ld, "err": err, "t0": info["t0"]}
        except spec.WindowError as exc:
            payload["zeta"] = {"error": str(exc)}
    payload["heat_trace"] = heat
    payload["kernel_dimension"] = res.kernel_dimension()
    _write_json(os.path.join(args.out, "spectrum.json"), payload)
    return 0


def cmd_determinants(args):
    from . import determinants as det
    m = _load_moduli(args.moduli)
    spins = _select_spins(args.spins, m.genus)
    out = det.spin_independence_test(m, spins, h=args.h, n_eigs=args.num_eigs,
                                     richardson=not args.no_richardson)
    payload = _report_header(vars(args))
    payload["moduli"] = m.to_dict()
    payload["reports"] = [r.to_dict() for r in out["reports"]]
    payload["max_delta_q"] = out["max_delta_q"]
    payload["dhoker_phong_closed_form"] = det.dhoker_phong_ratio(m.genus)
    _write_json(os.path.join(args.out, "determinants.json"), payload)
    path = os.path.join(args.out, "summary.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["char", "log_det_F", "log_det_F_err", "log_det_T0",
                    "theta0_abs", "log_det_S", "Q", "ratio_log"])
        for r in out["reports"]:
            w.writerow([r.char_label, r.log_det_f, r.log_det_f_err,
                        r.log_det_t0, r.theta0_abs, r.log_det_s, r.q_value,
                        r.ratio_log])
    print(f"wrote {path}; max |dQ| = {out['max_delta_q']:.4f}")
    return 0


def cmd_report(args):
    """Config-driven pipeline: a key = value file selecting a subcommand."""
    cfg = {}
    with open(args.config) as f:
        for line in f:
            line = line.split("#")[0].strip()
            if not line:
                continue
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    cmd = cfg.pop("command")
    argv = [cmd]
    for k, v in cfg.items():
        argv += [f"--{k.replace('_', '-')}", v]
    if args.out:
        argv += ["--out", args.out]
    return main(argv)


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", default=".", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinlap",
        description="spinor Laplacians on translation surfaces: numerical lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="build + mesh a surface, emit JSON")
    p.add_argument("--moduli", required=True)
    p.add_argument("--h", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("periods", help="period matrix report")
    p.add_argument("--moduli", required=True)
    p.add_argument("--h", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("theta-selftest", help="theta function self-tests")
    p.add_argument("--g", type=int, default=2)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_theta_selftest)

    p = sub.add_parser("cone-selftest", help="cone kernel dual-route self-tests")
    p.add_argument("--n-r", type=int, default=5)
    p.add_argument("--n-t", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_cone_selftest)

    p = sub.add_parser("spectrum", help="eigenvalues/heat trace/zeta det")
    p.add_argument("--moduli", required=True)
    p.add_argument("--spin", default="even:0")
    p.add_argument("--extension", default="friedrichs",
                   choices=["friedrichs", "szego", "holomorphic",
                            "holomorphic_local"])
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--num-eigs", type=int, default=60)
    p.add_argument("--n-t", type=int, default=24)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("determinants", help="T(0), comparison formula, Q test")
    p.add_argument("--moduli", required=True)
    p.add_argument("--spins", default="even:0,even:1")
    # with Richardson on, the partner mesh has size 1.4 h, which must still
    # resolve the shortest slit (1.4 * 0.05 does not on the README's g2.json)
    p.add_argument("--h", type=float, default=0.04)
    p.add_argument("--num-eigs", type=int, default=160)
    p.add_argument("--no-richardson", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_determinants)

    p = sub.add_parser("report", help="run a config-file-driven pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    os.makedirs(getattr(args, "out", ".") or ".", exist_ok=True)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

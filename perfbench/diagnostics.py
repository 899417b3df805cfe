"""Figures behind two of the benchmark's choices, at its genus-2 point:

    python3 perfbench/diagnostics.py        # about a minute, from the checkout root

1. The relative Hermiticity defect max|T - T^H| / max|T| of T(0) for the
   three best-conditioned even spins at h = G2_H, which backs the tolerance
   of g2-determinants.
2. Why szego-zeta fails: on the Richardson pair (1.4 h, h) that szego-zeta
   uses, the Friedrichs spectrum finds its window and the Szego spectrum
   does not with c0_theory, but does with c0 = c0_F + the measured mean of
   K_S(t) - K_F(t) over t in [0.05, 0.24].
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def zeta_or_error(res, c0=None):
    from spinlap import spectral as spec
    try:
        log_det, err, info = spec.zeta_determinant(res, c0=c0)
    except spec.WindowError as exc:
        return f"WindowError: {exc}"
    return f"log det {log_det:.4f} +- {err:.3f} (t0 {info['t0']:.3f})"


def main():
    from perfbench.run import cap_threads
    print(f"threads {cap_threads()}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np
    from spinlap import determinants as det
    from spinlap import hodge
    from spinlap import homology_spin as hs
    from spinlap import spectral as spec
    from spinlap import surface as sf
    from perfbench import workloads as wl

    moduli = sf.ModuliPoint(**wl.G2_MODULI)
    surf = sf.build_surface(moduli)
    spins = wl.best_even_spins(moduli, 3)
    meshes = {h: sf.generate_mesh(surf, h=h) for h in (1.4 * wl.G2_H, wl.G2_H)}
    periods = hodge.period_matrix(meshes[wl.G2_H])
    for spin in spins:
        char = hs.calibrate_characteristic((spin.sigma_a, spin.sigma_b), periods)
        t0 = det.t_matrix_zero(surf, periods, char, error_estimate=False)
        print(f"T(0) {char.label()}: relative Hermiticity defect "
              f"{t0.hermiticity_defect() / np.max(np.abs(t0.t0)):.1e}")

    n = wl.G2Extensions.n_szego
    rich = {}
    for ext in ("friedrichs", "szego"):
        results = []
        for mesh in meshes.values():
            op = spec.assemble_operator(mesh, hs.build_sign_lift(mesh, spins[0]), ext)
            results.append(spec.eigenvalues(op, n))
        rich[ext] = spec.richardson_eigenvalues(*results)
    ts = np.geomspace(0.05, 0.24, 9)
    gap = [spec.heat_trace(rich["szego"], t) - spec.heat_trace(rich["friedrichs"], t)
           for t in ts]
    c0_f, c0_s = (spec.c0_theory(ext, moduli.genus) for ext in ("friedrichs", "szego"))
    print(f"Richardson pair h = {1.4 * wl.G2_H:.3f}, {wl.G2_H}, {n} eigenvalues, "
          f"{wl._spin_label(spins[0])}")
    print("K_S(t) - K_F(t), t = 0.05 .. 0.24: "
          + " ".join(f"{x:+.2f}" for x in gap)
          + f"; c0_theory implies {c0_s - c0_f:+.2f}")
    print(f"Friedrichs, c0 {c0_f:+.3f}: {zeta_or_error(rich['friedrichs'])}")
    print(f"Szego, c0 {c0_s:+.3f}: {zeta_or_error(rich['szego'])}")
    c0 = c0_f + float(np.mean(gap))
    print(f"Szego, c0 {c0:+.3f}: {zeta_or_error(rich['szego'], c0)}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    main()

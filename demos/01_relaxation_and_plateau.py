"""Relaxation and incomplete mixing on a 51-site ring.

A coined walker coupled to a finite bath first approaches the flat state
exponentially, then stops: the distance to the flat state saturates at a
level set by the bath size.  This script runs a few bath dimensions next
to the classical reference walk, prints the fitted mixing times and
plateau levels, and writes the series to CSV for external plotting.

Run from the repository root:

    python demos/01_relaxation_and_plateau.py [outdir]
"""

import sys
from pathlib import Path

from ringwalk import (
    NonlocalTemplate,
    classical_series,
    mixing_fit,
    plateau_summary,
    quench_average,
)

OUTDIR = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")
D_S = 51
STEPS = 2500
SAMPLES = 6
SEED = 2024


def csv_dump(path, series):
    lines = ["t,d_omega,entropy"]
    for i in range(series.t.size):
        lines.append(f"{series.t[i]},{series.d_omega[i]:.17g},{series.entropy[i]:.17g}")
    path.write_text("\n".join(lines) + "\n")


def main():
    OUTDIR.mkdir(parents=True, exist_ok=True)
    print(f"ring of {D_S} sites, {SAMPLES}-sample quench means, {STEPS} steps\n")
    curves = {}
    for d_e in (32, 64, 256):
        result = quench_average(NonlocalTemplate(d_s=D_S, d_e=d_e), SAMPLES, (SEED, d_e), STEPS)
        summary = plateau_summary(result)
        tau = mixing_fit(result.mean).params["tau_mix"]
        curves[f"d_b={2 * d_e}"] = result.mean
        print(
            f"  bath d_b={2 * d_e:4d}: mixing time ~{tau:6.1f} steps, "
            f"plateau {summary.d_omega_mean:.3f} +- {summary.d_omega_std:.3f} "
            f"(averaging from t={summary.t_start})"
        )
        csv_dump(OUTDIR / f"relaxation_db{2 * d_e}.csv", result.mean)

    classical = classical_series(D_S, STEPS)
    curves["classical"] = classical
    csv_dump(OUTDIR / "relaxation_classical.csv", classical)
    tau_cl = mixing_fit(classical).params["tau_mix"]
    print(f"  classical walk:  mixing time ~{tau_cl:6.1f} steps, decays to zero")
    print(f"\nseries written to {OUTDIR}/relaxation_*.csv")

    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the plot")
        return
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for label, series in curves.items():
        ax.semilogy(series.t, series.d_omega, label=label, lw=1)
    ax.set_xlabel("t")
    ax.set_ylabel("distance to flat state")
    ax.set_xlim(0, STEPS)
    ax.legend()
    fig.tight_layout()
    fig.savefig(OUTDIR / "relaxation_and_plateau.png", dpi=150)
    print(f"plot written to {OUTDIR}/relaxation_and_plateau.png")


if __name__ == "__main__":
    main()

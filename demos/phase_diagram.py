"""Gap landscape of the two-angle walk families and the point census.

Scans the minimum gap over the angle square for the non-commuting family,
locates every isolated band touching, and prints the census with the
momentum at which each closing happens.  Saves phase_diagram.png when
matplotlib is installed.
"""

import numpy as np

from qwgeom.topology import ACCEPT_GAP, find_dirac_points, scan_gap


def main():
    gm = scan_gap("noncommuting", resolution=101, k_samples=181)
    print(f"gap scan: {gm.gap.shape[0]}x{gm.gap.shape[1]} nodes, "
          f"min {gm.gap.min():.2e}, max {gm.gap.max():.4f}")

    census = find_dirac_points("noncommuting", coarse_resolution=181)
    print(f"\n{len(census.points)} isolated touchings "
          f"(refined to gap <= {ACCEPT_GAP:.0e}):")
    print("  angle1      angle2      k*          E")
    for p in census.points:
        print(f"  {p.angle1:+.6f}   {p.angle2:+.6f}   {p.momentum:+.6f}   "
              f"{p.energy:+.2e}")

    boundary = find_dirac_points("splitstep", coarse_resolution=121)
    print(f"\nsplitstep family: continuous gapless boundary = "
          f"{boundary.continuous_boundary} (no isolated points reported)")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(6, 5))
    im = ax.pcolormesh(gm.angles1, gm.angles2, gm.gap.T, shading="nearest",
                       cmap="viridis")
    ax.scatter([p.angle1 for p in census.points],
               [p.angle2 for p in census.points],
               s=40, c="red", marker="x", label="band touchings")
    ax.set_xlabel("theta")
    ax.set_ylabel("phi")
    ax.set_title("minimum gap over k, non-commuting family")
    ax.legend(loc="upper right", fontsize=8)
    fig.colorbar(im, ax=ax, label="1 - |cos E|")
    fig.tight_layout()
    fig.savefig("phase_diagram.png", dpi=120)
    print("wrote phase_diagram.png")


if __name__ == "__main__":
    main()

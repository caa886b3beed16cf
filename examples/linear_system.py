"""Solving linear systems with the distributed inverse (Section 1's first
motivating application): ``x = A^-1 b`` through ``MatrixInverter.solve``.

Run with:  python examples/linear_system.py
"""

import numpy as np

from repro.inversion import InversionConfig, MatrixInverter


def main() -> None:
    rng = np.random.default_rng(42)
    n = 200

    # A diagonally dominant system (e.g. a discretized PDE operator).
    a = rng.uniform(-1, 1, (n, n))
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)

    # Five right-hand sides as the columns of B: one inversion serves them all.
    x_true = rng.standard_normal((n, 5))
    b = a @ x_true

    print(f"solving A X = B for a {n}x{n} operator and {b.shape[1]} right-hand "
          "sides through the MapReduce pipeline...")
    with MatrixInverter(InversionConfig(nb=50, m0=4)) as inverter:
        x = inverter.solve(a, b)
        print(f"pipeline ran {len(inverter.runtime.history)} jobs")

    for k in range(b.shape[1]):
        residual = np.linalg.norm(a @ x[:, k] - b[:, k]) / np.linalg.norm(b[:, k])
        err = np.max(np.abs(x[:, k] - x_true[:, k]))
        print(f"  rhs {k}: relative residual {residual:.2e}, "
              f"max error vs truth {err:.2e}")


if __name__ == "__main__":
    main()

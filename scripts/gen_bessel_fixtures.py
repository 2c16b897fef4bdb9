"""Regenerate tests/data/bessel_fixtures.csv.

Columns: order, gamma, value, scaled, oracle_value (17 significant digits).
`value`/`scaled` come from the production evaluator, `oracle_value` from the
independent quadrature; the CSV freezes both so regressions in either route
are caught even without scipy's quadrature at test time.
"""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from synge_riemann import bessel  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data" / "bessel_fixtures.csv"


def main():
    lo, hi, n = 1e-3, 500.0, 48
    gammas = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    lines = ["order,gamma,value,scaled,oracle_value"]
    for order in range(4):
        for g in gammas:
            value = bessel.bessel_k(order, g)
            scaled = bessel.bessel_k_scaled(order, g)
            oracle = bessel.oracle_quadrature(order, g)
            lines.append(f"{order},{g:.17g},{value:.17g},{scaled:.17g},{oracle:.17g}")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(lines) - 1} rows)")


if __name__ == "__main__":
    main()

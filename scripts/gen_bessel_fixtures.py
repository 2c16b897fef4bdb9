"""Regenerate tests/data/bessel_fixtures.csv.

Columns: order, gamma, value, scaled, oracle_value (17 significant digits).
`value` = K_order(gamma) and `scaled` = e^gamma K_order(gamma) come from
mpmath at 30 digits, `oracle_value` from the independent quadrature
`oracle_quadrature` of tests/oracles.py; neither column is taken from the
production kernel, so the CSV stays a reference for it.  Run with
`python3 scripts/gen_bessel_fixtures.py`; it needs mpmath and scipy.
"""

import pathlib
import sys

import mpmath

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import oracle_quadrature  # noqa: E402

OUT = ROOT / "tests" / "data" / "bessel_fixtures.csv"


def main():
    lo, hi, n = 1e-3, 500.0, 48
    gammas = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    lines = ["order,gamma,value,scaled,oracle_value"]
    for order in range(4):
        for g in gammas:
            with mpmath.workdps(30):
                exact = mpmath.besselk(order, g)
                value = float(exact)
                scaled = float(exact * mpmath.exp(g))
            oracle = oracle_quadrature(order, g)
            lines.append(f"{order},{g:.17g},{value:.17g},{scaled:.17g},{oracle:.17g}")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT} ({len(lines) - 1} rows)")


if __name__ == "__main__":
    main()

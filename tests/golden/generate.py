"""Write kernels.json: 40-digit references for the elliptic kernels.

Run once from the repository root with mpmath installed:

    python tests/golden/generate.py

The test suite reads only the JSON, so it does not need mpmath.  Nothing
here imports conicrect: each reference comes from mpmath's own elliptic
integrals at the exact float inputs.  The moduli are log-clustered at both
ends of [0, 1 - 1e-12] and the amplitudes uniform on [0, pi/2], from a fixed
seed, so a rerun writes the same file.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath
from mpmath import mp, mpf

mp.dps = 40
HALF_PI = 0.5 * math.pi
K_EDGE = 1.0 - 1e-12
DRAWS = {"complete_K": 64, "complete_E": 64, "incomplete_F": 128, "incomplete_E": 128, "amplitude_map": 128}
# edges of the domain, and two points the descending-modulus kernels missed
CORNERS = {
    "complete_K": [(0.0,), (K_EDGE,)],
    "complete_E": [(0.0,), (K_EDGE,)],
    "incomplete_F": [(HALF_PI, 0.0), (HALF_PI, K_EDGE), (1e-8, K_EDGE)],
    "incomplete_E": [(HALF_PI, 0.0), (HALF_PI, K_EDGE), (1e-8, K_EDGE)],
    "amplitude_map": [(HALF_PI, 0.0), (HALF_PI, K_EDGE), (1.5707783321509416, 0.9999999986640736)],
}


def modulus(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return 0.5 * 10.0 ** -rng.uniform(0.0, 12.0)
    return 1.0 - 10.0 ** -rng.uniform(math.log10(2.0), 12.0)


def amplitude_map(phi_hat, k):
    # phi_hat + arctan(((1 - k)/(1 + k)) tan(phi_hat)), the step lying in [0, pi/2]
    return phi_hat + mp.atan2((1 - k) * mp.sin(phi_hat), (1 + k) * mp.cos(phi_hat))


REFERENCES = {
    "complete_K": lambda k: mp.ellipk(k * k),
    "complete_E": lambda k: mp.ellipe(k * k),
    "incomplete_F": lambda phi, k: mp.ellipf(phi, k * k),
    "incomplete_E": lambda phi, k: mp.ellipe(phi, k * k),
    "amplitude_map": amplitude_map,
}


def main() -> None:
    rng = random.Random(20261018)
    rows = []
    for name, count in DRAWS.items():
        draws = [(modulus(rng),) if name.startswith("complete") else (rng.uniform(0.0, HALF_PI), modulus(rng))
                 for _ in range(count)]
        for args in CORNERS[name] + draws:
            ref = mp.nstr(REFERENCES[name](*map(mpf, args)), 25, min_fixed=-math.inf, max_fixed=math.inf)
            rows.append(json.dumps({"op": name, "args": list(args), "ref": ref}))
    head = json.dumps({"mpmath": mpmath.__version__, "dps": mp.dps})[:-1]
    Path(__file__).with_name("kernels.json").write_text(f'{head}, "cases": [\n' + ",\n".join(rows) + "\n]}\n")

if __name__ == "__main__":
    main()

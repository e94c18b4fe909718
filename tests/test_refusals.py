"""Every public kernel's outcome at the edges of its domain, pinned.

Each kernel is called at the moduli k in {nan, +-inf, -5e-324, 1, the double
after 1} and the amplitudes phi in {nan, -5e-324, pi/2, the double after
pi/2}: every pair of them, and each edge with a seeded draw from inside the
other argument's domain.  ``agm`` and ``lemniscate`` take the modulus edges,
0 and 5e-324 as their lengths, and ``excess_infinity_closed`` the hyperbolas
at which b/a underflows, c K overflows or k rounds to 0 or 1.  A refusal is
pinned as its exception type and message, a result as the repr of the
numbers it reports, so a faster argument check must refuse exactly what the
full one refused, in the same order and with the same words.
"""

import math
import random

import conicrect
from conicrect import Hyperbola, excess_infinity_closed

HALF_PI = 0.5 * math.pi
K_EDGES = (math.nan, math.inf, -math.inf, -5e-324, 1.0, math.nextafter(1.0, 2.0))
PHI_EDGES = (math.nan, -5e-324, HALF_PI, math.nextafter(HALF_PI, 4.0))
SEMIAXES = [(1.0, 5e-324), (1e300, 5e-324), (1.7e308, 1.7e308), (1e308, 1e300), (5e-324, 1.0)]


def _cases():
    rng = random.Random(34)

    def modulus():
        if rng.random() < 0.5:
            return 0.5 * 10.0 ** -rng.uniform(0.0, 12.0)
        return 1.0 - 10.0 ** -rng.uniform(math.log10(2.0), 12.0)

    cases = []
    for name in ("complete_K", "complete_E", "modulus_ascend", "check_borwein"):
        cases += [(name, (k,)) for k in K_EDGES]
    for name in ("incomplete_F", "incomplete_E", "amplitude_inverse", "check_gleichung"):
        cases += [(name, (phi, k)) for phi in PHI_EDGES for k in K_EDGES]
        cases += [(name, (phi, modulus())) for phi in PHI_EDGES]
        cases += [(name, (rng.uniform(0.0, HALF_PI), k)) for k in K_EDGES]
    for x in K_EDGES + (0.0, 5e-324):
        cases += [("agm", (x, 1.0)), ("agm", (1.0, x))]
    cases += [("lemniscate", (x,)) for x in K_EDGES + (0.0, 5e-324, 1e308)]
    cases += [("excess_infinity_closed", ab) for ab in SEMIAXES]
    return cases


def _outcome(name, args):
    try:
        if name == "excess_infinity_closed":
            out = excess_infinity_closed(Hyperbola(*args))
        else:
            out = getattr(conicrect, name)(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if name == "agm":
        return repr((out.limit, out.iterations, out.swapped))
    if name.startswith("check_"):
        return repr((out.lhs, out.rhs))
    if name == "lemniscate":
        return repr(tuple(out))
    return repr(out)


# (kernel, its arguments, its outcome) in the order of _cases()
PINNED = [
    ("complete_K", "nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("complete_K", "inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("complete_K", "-inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("complete_K", "-5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("complete_K", "1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    ("complete_K", "1.0000000000000002", "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002"),
    ("complete_E", "nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("complete_E", "inf", "DomainError: modulus k must satisfy k <= 1, got inf"),
    ("complete_E", "-inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("complete_E", "-5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("complete_E", "1.0", "1.0"),
    ("complete_E", "1.0000000000000002", "DomainError: modulus k must satisfy k <= 1, got 1.0000000000000002"),
    ("modulus_ascend", "nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("modulus_ascend", "inf", "DomainError: modulus k must satisfy k <= 1, got inf"),
    ("modulus_ascend", "-inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("modulus_ascend", "-5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("modulus_ascend", "1.0", "1.0"),
    (
        "modulus_ascend",
        "1.0000000000000002",
        "DomainError: modulus k must satisfy k <= 1, got 1.0000000000000002",
    ),
    ("check_borwein", "nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("check_borwein", "inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("check_borwein", "-inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("check_borwein", "-5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("check_borwein", "1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    ("check_borwein", "1.0000000000000002", "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002"),
    ("incomplete_F", "nan, nan", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_F", "nan, inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_F", "nan, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_F", "nan, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_F", "nan, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_F", "nan, 1.0000000000000002", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_F", "-5e-324, nan", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_F", "-5e-324, inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_F", "-5e-324, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_F", "-5e-324, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_F", "-5e-324, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    (
        "incomplete_F",
        "-5e-324, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("incomplete_F", "1.5707963267948966, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("incomplete_F", "1.5707963267948966, inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("incomplete_F", "1.5707963267948966, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("incomplete_F", "1.5707963267948966, -5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("incomplete_F", "1.5707963267948966, 1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    (
        "incomplete_F",
        "1.5707963267948966, 1.0000000000000002",
        "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002",
    ),
    (
        "incomplete_F",
        "1.5707963267948968, nan",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_F",
        "1.5707963267948968, inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_F",
        "1.5707963267948968, -inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_F",
        "1.5707963267948968, -5e-324",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_F",
        "1.5707963267948968, 1.0",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_F",
        "1.5707963267948968, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("incomplete_F", "nan, 0.9999999298003219", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    (
        "incomplete_F",
        "-5e-324, 0.9999999999846625",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("incomplete_F", "1.5707963267948966, 0.9999729352041147", "6.298437597520007"),
    (
        "incomplete_F",
        "1.5707963267948968, 0.9999945331797417",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("incomplete_F", "0.4809523339988783, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("incomplete_F", "0.1484919265198107, inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("incomplete_F", "0.8037421124368497, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("incomplete_F", "0.2431959473537673, -5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("incomplete_F", "0.4307587955346264, 1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    (
        "incomplete_F",
        "0.9591052199936382, 1.0000000000000002",
        "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002",
    ),
    ("incomplete_E", "nan, nan", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_E", "nan, inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_E", "nan, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_E", "nan, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_E", "nan, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_E", "nan, 1.0000000000000002", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("incomplete_E", "-5e-324, nan", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_E", "-5e-324, inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_E", "-5e-324, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_E", "-5e-324, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("incomplete_E", "-5e-324, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    (
        "incomplete_E",
        "-5e-324, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("incomplete_E", "1.5707963267948966, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("incomplete_E", "1.5707963267948966, inf", "DomainError: modulus k must satisfy k <= 1, got inf"),
    ("incomplete_E", "1.5707963267948966, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("incomplete_E", "1.5707963267948966, -5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("incomplete_E", "1.5707963267948966, 1.0", "1.0"),
    (
        "incomplete_E",
        "1.5707963267948966, 1.0000000000000002",
        "DomainError: modulus k must satisfy k <= 1, got 1.0000000000000002",
    ),
    (
        "incomplete_E",
        "1.5707963267948968, nan",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_E",
        "1.5707963267948968, inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_E",
        "1.5707963267948968, -inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_E",
        "1.5707963267948968, -5e-324",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_E",
        "1.5707963267948968, 1.0",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "incomplete_E",
        "1.5707963267948968, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("incomplete_E", "nan, 0.9999999992172776", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    (
        "incomplete_E",
        "-5e-324, 0.09208123229642212",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("incomplete_E", "1.5707963267948966, 1.1897232015653028e-07", "1.570796326794891"),
    (
        "incomplete_E",
        "1.5707963267948968, 0.9999999997840505",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("incomplete_E", "1.4667311011205582, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("incomplete_E", "0.9248727598913916, inf", "DomainError: modulus k must satisfy k <= 1, got inf"),
    ("incomplete_E", "1.0001097055486894, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("incomplete_E", "0.45860537135750984, -5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("incomplete_E", "0.49299775419127556, 1.0", "0.47326878658927807"),
    (
        "incomplete_E",
        "0.32358930379897316, 1.0000000000000002",
        "DomainError: modulus k must satisfy k <= 1, got 1.0000000000000002",
    ),
    ("amplitude_inverse", "nan, nan", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("amplitude_inverse", "nan, inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("amplitude_inverse", "nan, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("amplitude_inverse", "nan, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("amplitude_inverse", "nan, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("amplitude_inverse", "nan, 1.0000000000000002", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("amplitude_inverse", "-5e-324, nan", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("amplitude_inverse", "-5e-324, inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("amplitude_inverse", "-5e-324, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("amplitude_inverse", "-5e-324, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("amplitude_inverse", "-5e-324, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    (
        "amplitude_inverse",
        "-5e-324, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("amplitude_inverse", "1.5707963267948966, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("amplitude_inverse", "1.5707963267948966, inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("amplitude_inverse", "1.5707963267948966, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    (
        "amplitude_inverse",
        "1.5707963267948966, -5e-324",
        "DomainError: modulus k must satisfy k >= 0, got -5e-324",
    ),
    ("amplitude_inverse", "1.5707963267948966, 1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    (
        "amplitude_inverse",
        "1.5707963267948966, 1.0000000000000002",
        "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002",
    ),
    (
        "amplitude_inverse",
        "1.5707963267948968, nan",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "amplitude_inverse",
        "1.5707963267948968, inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "amplitude_inverse",
        "1.5707963267948968, -inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "amplitude_inverse",
        "1.5707963267948968, -5e-324",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "amplitude_inverse",
        "1.5707963267948968, 1.0",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "amplitude_inverse",
        "1.5707963267948968, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("amplitude_inverse", "nan, 0.999999960671816", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    (
        "amplitude_inverse",
        "-5e-324, 0.9999870226299126",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("amplitude_inverse", "1.5707963267948966, 0.0005219442061150003", "0.785659135512355"),
    (
        "amplitude_inverse",
        "1.5707963267948968, 0.9999999203178283",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("amplitude_inverse", "1.1760493830251642, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("amplitude_inverse", "1.2749087332164666, inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("amplitude_inverse", "0.4411400609328782, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    (
        "amplitude_inverse",
        "0.18382976599227738, -5e-324",
        "DomainError: modulus k must satisfy k >= 0, got -5e-324",
    ),
    ("amplitude_inverse", "0.4443675800407709, 1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    (
        "amplitude_inverse",
        "1.42504223135221, 1.0000000000000002",
        "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002",
    ),
    ("check_gleichung", "nan, nan", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("check_gleichung", "nan, inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("check_gleichung", "nan, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("check_gleichung", "nan, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("check_gleichung", "nan, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("check_gleichung", "nan, 1.0000000000000002", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    ("check_gleichung", "-5e-324, nan", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("check_gleichung", "-5e-324, inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("check_gleichung", "-5e-324, -inf", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("check_gleichung", "-5e-324, -5e-324", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    ("check_gleichung", "-5e-324, 1.0", "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324"),
    (
        "check_gleichung",
        "-5e-324, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("check_gleichung", "1.5707963267948966, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("check_gleichung", "1.5707963267948966, inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("check_gleichung", "1.5707963267948966, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("check_gleichung", "1.5707963267948966, -5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("check_gleichung", "1.5707963267948966, 1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    (
        "check_gleichung",
        "1.5707963267948966, 1.0000000000000002",
        "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002",
    ),
    (
        "check_gleichung",
        "1.5707963267948968, nan",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "check_gleichung",
        "1.5707963267948968, inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "check_gleichung",
        "1.5707963267948968, -inf",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "check_gleichung",
        "1.5707963267948968, -5e-324",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "check_gleichung",
        "1.5707963267948968, 1.0",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    (
        "check_gleichung",
        "1.5707963267948968, 1.0000000000000002",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("check_gleichung", "nan, 0.9999909754231273", "DomainError: amplitude phi must lie in [0, pi/2], got nan"),
    (
        "check_gleichung",
        "-5e-324, 0.99995007770993",
        "DomainError: amplitude phi must lie in [0, pi/2], got -5e-324",
    ),
    ("check_gleichung", "1.5707963267948966, 0.9560497709199658", "(2.6494452502330463, 2.649445250233046)"),
    (
        "check_gleichung",
        "1.5707963267948968, 0.9999999999983038",
        "DomainError: amplitude phi must lie in [0, pi/2], got 1.5707963267948968",
    ),
    ("check_gleichung", "0.6598481915913331, nan", "DomainError: modulus k must satisfy k >= 0, got nan"),
    ("check_gleichung", "0.7255607337323761, inf", "DomainError: modulus k must satisfy k < 1, got inf"),
    ("check_gleichung", "0.205585708597422, -inf", "DomainError: modulus k must satisfy k >= 0, got -inf"),
    ("check_gleichung", "0.4323677572298534, -5e-324", "DomainError: modulus k must satisfy k >= 0, got -5e-324"),
    ("check_gleichung", "0.36733633235403906, 1.0", "DomainError: modulus k must satisfy k < 1, got 1.0"),
    (
        "check_gleichung",
        "0.4652305988195361, 1.0000000000000002",
        "DomainError: modulus k must satisfy k < 1, got 1.0000000000000002",
    ),
    ("agm", "nan, 1.0", "DomainError: agm requires positive finite inputs, got p0=nan, q0=1.0"),
    ("agm", "1.0, nan", "DomainError: agm requires positive finite inputs, got p0=1.0, q0=nan"),
    ("agm", "inf, 1.0", "DomainError: agm requires positive finite inputs, got p0=inf, q0=1.0"),
    ("agm", "1.0, inf", "DomainError: agm requires positive finite inputs, got p0=1.0, q0=inf"),
    ("agm", "-inf, 1.0", "DomainError: agm requires positive finite inputs, got p0=-inf, q0=1.0"),
    ("agm", "1.0, -inf", "DomainError: agm requires positive finite inputs, got p0=1.0, q0=-inf"),
    ("agm", "-5e-324, 1.0", "DomainError: agm requires positive finite inputs, got p0=-5e-324, q0=1.0"),
    ("agm", "1.0, -5e-324", "DomainError: agm requires positive finite inputs, got p0=1.0, q0=-5e-324"),
    ("agm", "1.0, 1.0", "(1.0, 0, False)"),
    ("agm", "1.0, 1.0", "(1.0, 0, False)"),
    ("agm", "1.0000000000000002, 1.0", "(1.0, 0, False)"),
    ("agm", "1.0, 1.0000000000000002", "(1.0, 0, True)"),
    ("agm", "0.0, 1.0", "DomainError: agm requires positive finite inputs, got p0=0.0, q0=1.0"),
    ("agm", "1.0, 0.0", "DomainError: agm requires positive finite inputs, got p0=1.0, q0=0.0"),
    ("agm", "5e-324, 1.0", "DomainError: agm requires q0/p0 in the normal range, got p0=1.0, q0=5e-324"),
    ("agm", "1.0, 5e-324", "DomainError: agm requires q0/p0 in the normal range, got p0=1.0, q0=5e-324"),
    ("lemniscate", "nan", "DomainError: radius must be positive and finite, got nan"),
    ("lemniscate", "inf", "DomainError: radius must be positive and finite, got inf"),
    ("lemniscate", "-inf", "DomainError: radius must be positive and finite, got -inf"),
    ("lemniscate", "-5e-324", "DomainError: radius must be positive and finite, got -5e-324"),
    ("lemniscate", "1.0", "(1.3110287771460598, 5.244115108584239, 0.8346268416740731)"),
    ("lemniscate", "1.0000000000000002", "(1.3110287771460603, 5.244115108584241, 0.8346268416740731)"),
    ("lemniscate", "0.0", "DomainError: radius must be positive and finite, got 0.0"),
    ("lemniscate", "5e-324", "(1e-323, 4e-323, 0.8346268416740731)"),
    ("lemniscate", "1e+308", "DomainError: the full arc overflows at radius 1e+308"),
    ("excess_infinity_closed", "1.0, 5e-324", "1.000000000000015"),
    ("excess_infinity_closed", "1e+300, 5e-324", "DomainError: b/a underflows, got a=1e+300, b=5e-324"),
    ("excess_infinity_closed", "1.7e+308, 1.7e+308", "DomainError: b/a underflows, got a=1.7e+308, b=1.7e+308"),
    (
        "excess_infinity_closed",
        "1e+308, 1e+300",
        "DomainError: c K (k^2/2 - tail) overflows, got a=1e+308, b=1e+300",
    ),
    ("excess_infinity_closed", "5e-324, 1.0", "0.0"),
]


def test_every_kernel_keeps_its_outcome_at_the_edges():
    observed = [(name, ", ".join(map(repr, args)), _outcome(name, args)) for name, args in _cases()]
    assert [row for row in observed if row not in PINNED] == []
    assert observed == PINNED

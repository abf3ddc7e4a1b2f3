#!/usr/bin/env python3
"""Regenerate the bundled posterior model JSON from the published estimates.

The bundled model carries per-parameter posterior summaries (mean, MCSE,
sd, ESS, R-hat) for the full 174-pattern catalog on two devices, with no
raw draws.  Writes the package data file
src/bytecode_energy/data/appendix_a.json.
"""

import json
from pathlib import Path

# (parameter name, mean, mcse, sd, ess, rhat) -- all energies in joules.
ROWS = [
    ("sigma", 1.356665e-08, 5.704377e-13, 7.316405e-11, 16450.497, 0.9998925),

    ("alpha[bits32]", 6.777943e-09, 4.226145e-12, 3.882128e-10, 8438.222, 1.0006578),
    ("alpha[bits64]", 1.072327e-08, 4.006433e-12, 3.860974e-10, 9287.052, 1.0000462),
    ("alpha[constant]", 5.287443e-11, 3.124615e-13, 3.718432e-11, 14162.065, 0.9996307),
    ("alpha[load]", 2.972453e-10, 1.979835e-12, 2.223760e-10, 12615.887, 0.9999100),
    ("alpha[reference]", 9.362167e-09, 1.712994e-10, 1.000466e-08, 3411.090, 1.0015461),

    ("beta[addition]", 2.954780e-08, 4.513539e-12, 4.479418e-10, 9849.377, 1.0002523),
    ("beta[division]", 2.828019e-08, 4.411272e-12, 4.450900e-10, 10180.474, 1.0001077),
    ("beta[increase]", 4.841576e-09, 1.420322e-11, 1.404849e-09, 9783.312, 1.0000205),
    ("beta[multiplication]", 3.174836e-08, 4.572187e-12, 4.485468e-10, 9624.266, 1.0003379),
    ("beta[negation]", 4.156202e-09, 7.048654e-12, 7.634754e-10, 11732.153, 1.0001635),
    ("beta[subtraction]", 2.613292e-08, 4.444976e-12, 4.395197e-10, 9777.276, 1.0003361),
    ("beta[modulo]", 3.355088e-08, 7.852670e-12, 7.609978e-10, 9391.437, 1.0005535),

    ("beta[bit_and]", 2.752216e-08, 1.014659e-11, 1.036892e-09, 10443.040, 1.0000481),
    ("beta[bit_complement]", 2.708684e-08, 1.033120e-11, 1.028558e-09, 9911.869, 0.9996481),
    ("beta[bit_or]", 1.981219e-08, 9.408900e-12, 1.028813e-09, 11956.263, 0.9999245),
    ("beta[bit_xor]", 2.298810e-08, 9.839752e-12, 1.031443e-09, 10988.084, 1.0002514),
    ("beta[left_bitshift]", 1.684052e-08, 8.354586e-12, 1.023943e-09, 15021.092, 0.9999660),
    ("beta[right_bitshift]", 1.694766e-08, 8.642389e-12, 1.034805e-09, 14336.701, 0.9995472),
    ("beta[logical_right_bitshift]", 1.667414e-08, 8.565198e-12, 1.016775e-09, 14092.064, 0.9994074),

    ("beta[d2f]", 3.939552e-09, 1.474987e-11, 1.383364e-09, 8796.230, 1.0003774),
    ("beta[d2i]", 5.990642e-08, 1.428061e-11, 1.413998e-09, 9804.012, 0.9998444),
    ("beta[d2l]", 6.144221e-08, 1.404236e-11, 1.399201e-09, 9928.414, 0.9997871),
    ("beta[f2d]", 5.701561e-10, 3.872877e-12, 4.874727e-10, 15842.848, 0.9994983),
    ("beta[f2i]", 5.418630e-08, 1.474614e-11, 1.439671e-09, 9531.678, 0.9997629),
    ("beta[f2l]", 5.397823e-08, 1.431926e-11, 1.405102e-09, 9628.859, 0.9997359),
    ("beta[i2b]", 5.231769e-09, 1.367685e-11, 1.396401e-09, 10424.329, 1.0001241),
    ("beta[i2c]", 2.147922e-08, 1.039942e-11, 1.413092e-09, 18463.873, 0.9997138),
    ("beta[i2d]", 3.358516e-09, 1.434744e-11, 1.361303e-09, 9002.445, 1.0001629),
    ("beta[i2f]", 4.340072e-09, 1.606212e-11, 1.407451e-09, 7678.230, 1.0006056),
    ("beta[i2l]", 8.443708e-09, 1.121589e-11, 1.380526e-09, 15150.309, 0.9998848),
    ("beta[i2s]", 4.335038e-09, 1.782580e-11, 1.416223e-09, 6311.981, 1.0012059),
    ("beta[l2d]", 4.551390e-10, 3.324453e-12, 4.006268e-10, 14522.443, 0.9998190),
    ("beta[l2f]", 5.300106e-10, 3.946982e-12, 4.670783e-10, 14003.899, 0.9997515),
    ("beta[l2i]", 1.681959e-08, 9.937823e-12, 1.436558e-09, 20896.041, 0.9995970),

    ("beta[array_length]", 4.630274e-09, 1.411479e-11, 1.417610e-09, 10087.061, 1.0000091),
    ("beta[array_load]", 9.386346e-09, 5.694052e-12, 6.984052e-10, 15044.302, 0.9995347),
    ("beta[array_store]", 1.973851e-08, 6.844493e-12, 6.978155e-10, 10394.382, 0.9998606),
    ("beta[array_allocation]", 4.166971e-07, 7.258579e-12, 6.855984e-10, 8921.469, 0.9999811),

    ("beta[object_allocation]", 4.251660e-07, 1.419500e-11, 1.468750e-09, 10705.942, 0.9995034),
    ("beta[object_get_field]", 1.163949e-08, 6.323401e-12, 7.694835e-10, 14808.024, 1.0000446),
    ("beta[object_get_static_field]", 3.282841e-08, 7.459323e-12, 7.575560e-10, 10314.082, 1.0001719),
    ("beta[object_put_field]", 2.853163e-08, 7.791865e-12, 7.577485e-10, 9457.303, 1.0001011),
    ("beta[object_put_static_field]", 3.130976e-08, 7.695283e-12, 7.748583e-10, 10139.005, 1.0001390),

    ("beta[static_method_call]", 7.577298e-08, 6.058233e-10, 2.514026e-08, 1722.057, 1.0028088),
    ("beta[non_static_method_call]", 8.714123e-08, 6.042395e-10, 2.516451e-08, 1734.437, 1.0027943),
    ("beta[return_statement]", 1.474867e-07, 7.908349e-12, 7.698483e-10, 9476.296, 0.9996235),

    ("beta[switch_consecutive]", 1.423901e-08, 1.055638e-11, 1.406943e-09, 17763.284, 0.9996359),
    ("beta[switch_non_consecutive]", 2.761723e-08, 1.231643e-11, 1.405279e-09, 13018.341, 0.9996373),

    ("beta[if_equal_ref]", 3.195112e-10, 2.355600e-12, 2.825413e-10, 14386.683, 0.9994039),
    ("beta[if_non_equal_ref]", 1.001539e-10, 6.151938e-13, 7.821645e-11, 16164.872, 0.9998154),
    ("beta[if_non_null_ref]", 9.271004e-11, 6.230011e-13, 7.366605e-11, 13981.609, 1.0001024),
    ("beta[if_null_ref]", 3.951120e-10, 2.983059e-12, 3.552355e-10, 14181.070, 0.9996997),
    ("beta[if_equal_numeric]", 3.766614e-08, 7.855906e-12, 7.598616e-10, 9355.705, 1.0000516),
    ("beta[if_non_equal_numeric]", 3.561147e-08, 7.595503e-12, 7.493736e-10, 9733.829, 1.0003164),
    ("beta[if_greater_equal_numeric]", 3.269893e-08, 7.853031e-12, 7.670695e-10, 9541.019, 0.9996652),
    ("beta[if_greater_numeric]", 3.382851e-08, 7.496544e-12, 7.621013e-10, 10334.828, 0.9999051),
    ("beta[if_less_equal_numeric]", 2.753095e-08, 7.858564e-12, 7.587121e-10, 9321.110, 0.9998173),
    ("beta[if_less_numeric]", 2.918040e-08, 7.672754e-12, 7.606679e-10, 9828.509, 1.0002637),
    ("beta[if_equal_int]", 4.570354e-08, 1.396288e-11, 1.408371e-09, 10173.817, 0.9997026),
    ("beta[if_non_equal_int]", 3.623144e-08, 1.379621e-11, 1.417438e-09, 10555.735, 1.0004407),
    ("beta[if_greater_equal_int]", 5.294165e-08, 1.401972e-11, 1.413106e-09, 10159.469, 0.9996097),
    ("beta[if_greater_int]", 4.262262e-08, 1.376264e-11, 1.395319e-09, 10278.833, 1.0000008),
    ("beta[if_less_equal_int]", 3.619356e-08, 1.379409e-11, 1.404777e-09, 10371.193, 0.9998488),
    ("beta[if_less_int]", 3.510509e-08, 1.370255e-11, 1.421024e-09, 10754.743, 0.9997882),
    ("beta[else_branch]", 2.753481e-08, 1.207184e-11, 1.396459e-09, 13381.644, 0.9993639),

    ("beta[variable_declaration]", 7.106552e-09, 3.652931e-12, 4.426781e-10, 14685.649, 0.9996167),

    ("gamma[double]", 6.478463e-11, 3.744616e-13, 4.704906e-11, 15786.552, 0.9997915),
    ("gamma[float]", 5.437049e-09, 3.012367e-12, 3.150217e-10, 10936.172, 1.0000247),
    ("gamma[int]", 9.716775e-11, 6.263412e-13, 7.562467e-11, 14578.237, 0.9997455),
    ("gamma[long]", 6.986588e-09, 3.033201e-12, 3.111745e-10, 10524.598, 0.9998161),
    ("gamma[reference]", 4.701721e-08, 6.152794e-12, 6.163997e-10, 10036.451, 0.9999792),

    ("delta[device1]", 6.739114e-09, 2.147099e-12, 2.061548e-10, 9218.980, 0.9998192),
    ("delta[device2]", 5.074944e-11, 3.040083e-13, 3.596514e-11, 13995.636, 0.9994804),
]


def build() -> dict:
    import bytecode_energy.catalog as catalog

    summaries = {
        name: {"mean": mean, "mcse": mcse, "sd": sd, "ess": ess, "rhat": rhat}
        for name, mean, mcse, sd, ess, rhat in ROWS
    }

    # Sanity: one beta per catalog operation, one gamma/alpha per level.
    ops = {n[5:-1] for n in summaries if n.startswith("beta[")}
    assert ops == set(catalog.OPERATIONS), sorted(
        ops.symmetric_difference(catalog.OPERATIONS))

    return {
        "levels": {
            "alpha": sorted(catalog.DATA_SIZES),
            "beta": sorted(catalog.OPERATIONS),
            "gamma": sorted(catalog.DATA_TYPES),
            "delta": ["device1", "device2"],
        },
        "summaries": summaries,
        "meta": {
            "source": "published point estimates for the two-device study",
            "chains": 4,
            "device_effect_sampled": True,
        },
    }


def main():
    target = (Path(__file__).resolve().parent.parent / "src" / "bytecode_energy"
              / "data" / "appendix_a.json")
    target.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()

"""Frozen reference values for the solver and simulator tests.

The equilibrium values come from tests/oracle_ref.py, an independent
sympy-based re-derivation of the coefficient equations with a multistart
numeric root-finder, written before the solver and rounded here to 12
significant digits. Rerun `python3 tests/oracle_ref.py` to regenerate the
full report.

PRINTED freezes the verbatim published-formula evaluations (including the
garbled ones) produced by carbongame.closed_form at the baseline; these are
regression anchors for the transcription, not independent derivations.
CERTIFICATIONS freezes the grid certifier's reports in the same way.
"""

CASES = {
    "baseline": {
        "overrides": {},
        "gd": {
            "A": 1.54767421335, "B": 1098.29521283, "C": 5960.79789691,
            "M": 1062.36696156, "N": 8508.50884608,
            "alpha": -0.80607093208, "beta": 6.27028715966,
            "H_d": 7.77882802879,
            "E_f_ss": 4.30057955123, "E_r_ss": 2.65591740389,
            "V_f_H0": 6070.64289493, "V_f_ss": 14597.8975051,
            "V_r_H0": 8614.74554224, "V_r_ss": 16772.4787435,
        },
        "gs": {
            "A": 0.744437918716, "B": 1089.94473384, "C": 7530.93034376,
            "M": 0.385930509577, "N": 1031.55276862, "F": 8938.97725472,
            "alpha": -0.902211828506, "beta": 8.38380407074,
            "H_d": 9.29250072527,
            "E_f_ss": 5.32939607709, "E_r_ss": 2.59681321926,
            "x_ss": 0.169429262917,
            "V_f_H0": 7639.93226153, "V_f_ss": 17723.5252119,
            "V_r_H0": 9042.13639089, "V_r_ss": 18558.0074247,
        },
        "gc": {
            "A": 1.55027285389, "B": 2163.53406812, "C": 19225.0414768,
            "alpha": -0.80217186218, "beta": 12.4403208917,
            "H_d": 15.5082987552,
            "E_f_ss": 8.49585062241, "E_r_ss": 5.52904564315,
            "V_H0": 19441.4103864, "V_ss": 53150.6261576,
        },
        "gs_printed": {
            "A": 1.11874711261, "B": 1093.94184786, "C": 7586.52232656,
            "M": 0.5806455978, "N": 1035.38234533, "F": 9005.22082893,
            "alpha": -0.808479661992, "beta": 6.21696624701,
            "H_d": 7.68970023524, "x_ss": 0.190995250952,
            "ambiguous": True,
        },
        "gd_path": {"H1": 4.34939138801, "H5": 7.64239040336},
    },
    "no_sink": {
        "overrides": {"p_c": 0.0},
        "gd": {
            "A": 0.0, "B": 882.352941176, "C": 3985.41769649,
            "M": 941.176470588, "N": 6129.51062778,
            "alpha": -1.0, "H_d": 5.14705882353,
            "E_f_ss": 2.64705882353, "E_r_ss": 2.35294117647,
            "V_f_H0": 4073.65299061, "V_f_ss": 8526.94018784,
            "V_r_H0": 6223.62827484, "V_r_ss": 10973.8012852,
        },
        "gs": {
            "A": 0.0, "B": 882.352941176, "C": 5403.48492338,
            "M": 0.0, "N": 941.176470588, "F": 6933.08205635,
            "alpha": -1.0, "H_d": 7.39705882353,
            "x_ss": 0.36170212766,
            "V_f_H0": 5491.7202175, "V_f_ss": 11930.3015324,
            "V_r_H0": 7027.19970341, "V_r_ss": 13895.0197726,
        },
        "gc": {
            "A": 0.0, "B": 1823.52941176, "C": 13657.3158675,
            "alpha": -1.0, "H_d": 10.4852941176,
            "V_H0": 13839.6688087, "V_ss": 32777.5580821,
        },
        "gd_path": {"H1": 3.29034964397, "H5": 5.11305200868},
    },
    "strong_farmer_impact": {
        "overrides": {"mu_f": 2.0},
        "gd": {
            "A": 1.64103049429, "B": 1154.02671109, "C": 9909.88535428,
            "M": 1115.95971421, "N": 15830.1890741,
            "alpha": -0.733743512091, "H_d": 14.4834852457,
        },
        "gs": {
            "A": 0.776175480598, "B": 1138.63496057, "C": 12840.113162,
            "M": 0.408007115651, "N": 1069.80229886, "F": 16374.5038582,
            "alpha": -0.866242464516, "H_d": 16.6814854947,
            "x_ss": 0.130970731228,
        },
        "gc": {
            "A": 1.64414849044, "B": 2273.38981017, "C": 34147.7045488,
            "alpha": -0.729583252927, "H_d": 28.8231064238,
        },
        "gs_printed": {"A": 1.56290106199, "alpha": -0.732930001037,
                       "ambiguous": True},
        "gd_path": {"H1": 7.5778541582, "H5": 14.1165745769},
    },
    "cheap_abatement_pricey_sink": {
        "overrides": {"lambda_f": 350.0, "p_c": 1.2},
        "gd": {
            "A": 26.2591477021, "B": 2684.96680274, "C": 43396.5482321,
            "M": 2146.96072413, "N": 57055.0252517,
            "alpha": -0.0452395295442, "H_d": 440.857851106,
        },
        "gs": {
            "A": 9.54036640517, "B": 1957.42315603, "C": 29222.4097664,
            "M": 5.68207625271, "N": 1636.19802558, "F": 33788.1490194,
            "alpha": -0.5428371878, "H_d": 34.7348728527,
            "x_ss": -0.188974023528,
        },
        "gc": {"error": "unstable"},
        "gs_printed": {
            "A": 15.5404806095, "alpha": -0.159022286676,
            "H_d": 106.329487697, "ambiguous": True,
        },
        "gd_path": {"H1": 19.5953722459, "H5": 89.3268210011},
    },
}

PRINTED = {
    "gd": {
        "A": 1.5476742133487025,
        "B": -6199275.899740176,
        "C": 1.3752082429183568e+16,
        "M": -15084.245689434942,
        "N": 601347874.9996337,
        "Delta^GD": 5346000.0,
        "Delta^GD appendix variant": 3830500.0,
        "H_d printed formula": -22986.576467506937,
    },
    "gs_standard_anchor": {
        "B": -6652.188283729664,
        "C": 15369.245599516922,
        "N": -812668386.9259549,
        "F": 18242.810723913663,
        "Delta^GS1": -36160928.28231879,
        "Delta^GS2": -745808923.611226,
        "H_d printed formula": 9.95047843322893,
    },
    "gc": {"Delta^GC": -2.6859453048e+16},
    "gc_corrected": {
        "A": 1.5502728538877208,
        "B": 2163.5340681211173,
        "C": 19225.04147681721,
        "Delta^GC": 53100000000.0,
    },
    "paper_backend": {
        "gd_scan": 0.9999910053426994,
        "gd_H_d": -34631.68778945231,
        "gs_scan": 32322767927.87184,
    },
}


# The grid certifier's reports, equilibrium_check(solve(mode,
# params)).to_dict(), for each mode at the baseline and without sink trading
# (p_c = 0), at full precision. Like PRINTED, these are regression anchors
# frozen from the package itself, not independent derivations.
CERTIFICATIONS = {
    "baseline": {
        "gd": {
            "mode": "gd",
            "window": [3.889414014396422, 11.668242043189267],
            "notes": ["farmer reply converged in 3 sweeps",
                      "retailer reply converged in 1 sweeps"],
            "passed": True,
            "policy_gaps": {"farmer": 0.00820088197735764,
                            "retailer": 0.003906250000000036},
            "value_gaps": {"farmer": 0.00021524367681635882,
                           "retailer": 0.0001843925091593973},
            "policy_tolerance": 0.02,
            "value_tolerance": 0.005,
            "leader_sample": None,
            "leader_tolerance": 0.005,
        },
        "gs": {
            "mode": "gs",
            "window": [4.6462503626353575, 13.938751087906073],
            "notes": ["follower reply converged in 2 sweeps"],
            "passed": True,
            "policy_gaps": {"farmer": 0.007193599210372272},
            "value_gaps": {"farmer": 0.00022009541748816886},
            "policy_tolerance": 0.02,
            "value_tolerance": 0.005,
            "leader_sample": {
                "baseline_payoff": 9042.136390885238,
                "improving_samples": 0,
                "max_improvement": -5.42966727456874e-05,
                "note": ("sampled neighborhood stationarity, not exhaustive "
                         "optimality"),
                "samples": 200,
                "seed": 20260814,
                "spread": 0.1,
            },
            "leader_tolerance": 0.005,
        },
        "gc": {
            "mode": "gc",
            "window": [7.754149377593361, 23.262448132780083],
            "notes": ["joint control converged in 3 sweeps"],
            "passed": True,
            "policy_gaps": {"farmer": 0.008156529726529846,
                            "retailer": 0.0066522261495914866},
            "value_gaps": {"joint": 0.0002274058601934482},
            "policy_tolerance": 0.02,
            "value_tolerance": 0.005,
            "leader_sample": None,
            "leader_tolerance": 0.005,
        },
    },
    "no_sink": {
        "gd": {
            "mode": "gd",
            "window": [2.573529411764706, 7.720588235294118],
            "notes": ["farmer reply converged in 1 sweeps",
                      "retailer reply converged in 1 sweeps"],
            "passed": True,
            "policy_gaps": {"farmer": 0.0039062499999999705,
                            "retailer": 0.003906250000000033},
            "value_gaps": {"farmer": 0.00021738638540570065,
                           "retailer": 0.0001855204683997632},
            "policy_tolerance": 0.02,
            "value_tolerance": 0.005,
            "leader_sample": None,
            "leader_tolerance": 0.005,
        },
        "gs": {
            "mode": "gs",
            "window": [3.698529411764706, 11.095588235294118],
            "notes": ["follower reply converged in 1 sweeps"],
            "passed": True,
            "policy_gaps": {"farmer": 0.003906250000000088},
            "value_gaps": {"farmer": 0.0002222354031666242},
            "policy_tolerance": 0.02,
            "value_tolerance": 0.005,
            "leader_sample": {
                "baseline_payoff": 7027.199703410773,
                "improving_samples": 0,
                "max_improvement": -4.991662508203355e-05,
                "note": ("sampled neighborhood stationarity, not exhaustive "
                         "optimality"),
                "samples": 200,
                "seed": 20260814,
                "spread": 0.1,
            },
            "leader_tolerance": 0.005,
        },
        "gc": {
            "mode": "gc",
            "window": [5.24264705882353, 15.72794117647059],
            "notes": ["joint control converged in 1 sweeps"],
            "passed": True,
            "policy_gaps": {"farmer": 0.003906249999999857,
                            "retailer": 0.0039062499999999536},
            "value_gaps": {"joint": 0.0002341468951326118},
            "policy_tolerance": 0.02,
            "value_tolerance": 0.005,
            "leader_sample": None,
            "leader_tolerance": 0.005,
        },
    },
}

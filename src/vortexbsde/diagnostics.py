"""Quantitative checks of the solver's a priori estimates.

Three families of checks, all consuming a converged :class:`BsdeSolution`:

* maximum principle: every Picard iterate stays below the terminal sup
  bound C1 up to the Monte Carlo allowance;
* Z BMO bound: the measured conditional quadratic-variation proxy stays
  below (C1/nu) * sqrt(nu + T*C0*C1^2) with explicit constants;
* contraction: successive iterate differences in the weighted norm
  ||Y||_{alpha,inf} = ||Y^alpha||_inf + ||Z^alpha||_BMO shrink.

Monte Carlo uncertainty is quantified by batch means over branch groups:
the solver keeps per-group mean fields, any derived functional gets a
standard error from the group spread, and quadratic functionals are
jackknife-debiased (group bias is G times the full-mean bias).
"""

from __future__ import annotations

import numpy as np

from .bsde_engine import BsdeSolution, _alpha_conditions, _max_principle_margin
from .errors import ConfigurationError

SCHEMA_VERSION = 1

#: Standard errors by which the BMO proxy or a contraction ratio may exceed its bound.
_SE_ALLOWANCE = 3.0


def z_bmo_bound(c1: float, nu: float, horizon: float, c0: float) -> float:
    """The printed a priori bound (C1/nu) * sqrt(nu + T*C0*C1^2)."""
    if nu <= 0 or horizon < 0:
        raise ConfigurationError("nu must be positive and T non-negative")
    return (c1 / nu) * np.sqrt(nu + horizon * c0 * c1**2)


def assert_alpha_conditions(alpha: float, c0: float, c1: float, nu: float, horizon: float) -> dict:
    """Numerically verify both inequalities the weight alpha must satisfy."""
    if c1 == 0.0:
        return {"condition1": 0.0, "condition2": 0.0, "ok": True}
    if alpha == 0.0:  # a legal weight, but it satisfies neither inequality
        return {"condition1": float("inf"), "condition2": float("inf"), "ok": False}
    (cond1, limit1), (cond2, limit2) = _alpha_conditions(alpha, c0, c1, nu, horizon)
    ok = cond1 <= limit1 + 1e-12 and cond2 <= limit2 + 1e-12
    return {"condition1": cond1, "condition2": cond2, "ok": bool(ok)}


def max_principle_check(solution: BsdeSolution, c1: float) -> dict:
    """Margin min over iterations and nodes of (C1 + eps_MC - sup|omega_n|).

    eps_MC is the iteration's ``noise_floor`` of its largest pointwise
    inner-MC standard errors; pass means no iterate ever exceeded the
    terminal bound beyond Monte Carlo allowance.
    """
    per_iteration = []
    for rec in solution.history:
        eps = rec["eps_mc"]
        margin = _max_principle_margin(c1, eps, rec["sup_lattice"])
        per_iteration.append({"iteration": rec["iteration"], "margin": margin, "eps_mc": eps})
    overall = min((p["margin"] for p in per_iteration), default=float("inf"))
    return {
        "pass": overall >= 0.0,
        "margin": overall,
        "per_iteration": per_iteration,
    }


def z_bmo_check(solution: BsdeSolution) -> dict:
    """Measured BMO proxy against the printed bound, with ``_SE_ALLOWANCE`` SEs.

    The proxy is a lower bound for the essential supremum over paths (the
    L2-in-x norm of Z is translation invariant, so the path ensemble is
    degenerate and the uncertainty is the solver's own Monte Carlo error,
    estimated from branch groups).
    """
    norms = solution.norms
    c1, c0 = norms["c1"], norms["c0"]
    bound = z_bmo_bound(c1, solution.config.nu, solution.config.T, c0)
    measured_sq = max(norms["z_bmo_sq_debiased"], 0.0)
    se_sq = norms["z_bmo_sq_se"]
    measured = float(np.sqrt(measured_sq))
    se = se_sq / (2.0 * measured) if measured > 0 else float(np.sqrt(max(se_sq, 0.0)))
    passed = measured - _SE_ALLOWANCE * se <= bound + 1e-12
    return {
        "pass": bool(passed),
        "measured": measured,
        "measured_sq": measured_sq,
        "se": se,
        "se_sq": se_sq,
        "bound": bound,
        "pointwise_claim_verified": False,  # integrated-in-x proxy only
    }


def contraction_check(history, alpha: float) -> dict:
    """Classify recorded Picard ratios; ratios below noise don't count.

    Returns status ``pass`` / ``fail`` / ``inconclusive`` (fewer than two
    above-noise ratios is inconclusive, which is distinct from failure),
    and additionally reports whether the above-noise ratios satisfy the
    stronger one-half contraction up to noise allowance.
    """
    ratios = []
    above = []
    ratio_ses = []
    for prev, rec in zip(history, history[1:]):
        if "contraction_ratio" in rec:
            r = rec["contraction_ratio"]
            ratios.append(r)
            above.append(rec.get("ratio_above_noise", False))
            num, den = rec["delta_norm"], prev["delta_norm"]
            se_n, se_d = rec.get("delta_norm_se", 0.0), prev.get("delta_norm_se", 0.0)
            rel = 0.0
            if num > 0 and den > 0:
                rel = np.sqrt((se_n / num) ** 2 + (se_d / den) ** 2)
            ratio_ses.append(r * rel)
    usable = [(r, s) for r, a, s in zip(ratios, above, ratio_ses) if a]
    if len(usable) < 2:
        status = "inconclusive"
        all_below_one = None
    else:
        all_below_one = all(r < 1.0 for r, _ in usable)
        status = "pass" if all_below_one else "fail"
    half_with_allowance = all(r <= 0.5 + _SE_ALLOWANCE * s for r, s in usable) if usable else None
    return {
        "status": status,
        "ratios": ratios,
        "ratio_ses": ratio_ses,
        "above_noise": above,
        "usable_ratios": [r for r, _ in usable],
        "all_below_one": all_below_one,
        "half_contraction_with_allowance": half_with_allowance,
        "alpha": alpha,
    }


def full_json_report(solution: BsdeSolution) -> dict:
    """The versioned JSON diagnostics document emitted by the CLI."""
    norms = solution.norms
    mp = max_principle_check(solution, norms["c1"])
    zb = z_bmo_check(solution)
    cc = contraction_check(solution.history, norms["alpha"])
    alpha_ok = assert_alpha_conditions(
        norms["alpha"], norms["c0"], norms["c1"], solution.config.nu, solution.config.T
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "constants": {
            "C1": norms["c1"],
            "C0": norms["c0"],
            "alpha": norms["alpha"],
            "alpha_conditions": alpha_ok,
        },
        "max_principle": mp,
        "z_bmo": zb,
        "contraction": cc,
        "norms": {"y_sup": norms["y_sup"]},
    }

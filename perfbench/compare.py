"""Correctness gate: one stage invocation against its reference report.

The reference (reference/<workload>.json) is the report body and exit code
captured on the seed commit.  A run fails when

* its exit code differs from the reference's,
* the report is missing, or its structure, strings or booleans differ
  (so every check verdict and ``all_pass`` must match exactly),
* any number in it is not finite,
* a number leaves the reference by more than its budget.

The budget of a number is the largest of
  RTOL * |reference|;
  CHECK_SHARE * tolerance of the check of the same name, for check values
  and the residuals reported under the same name (seed-dependent
  round-off such as overlap_identity_random moves well inside it);
  the quantity's own error estimate where one exists: err_a1 for a1,
  err_a2 for a2, and for phi1 the cubature error estimate (quad_error) of
  the phi1 call, which the report leaves out and child.py records.  The
  phase quantities that contain phi1 get that estimate, scaled as the
  report scales them (divided by |phi21| for identity_eq15_rel, by
  |phi_ab| / 2 for grand_total_half_shift, summed over both phi1 calls for
  phi1_eta_sensitivity).  Error estimates are the larger of reference and
  run.
"""

from __future__ import annotations

import copy
import math

RTOL = 1e-6
CHECK_SHARE = 1e-3
ERROR_OF = {"a1": "err_a1", "err_a1": "err_a1", "a2": "err_a2", "err_a2": "err_a2"}


def normalise(report: dict) -> dict:
    """Report body without timestamps and without the seed."""
    body = copy.deepcopy(report)
    prov = body.get("provenance", {})
    prov.pop("timestamps", None)
    if isinstance(prov.get("config"), dict):
        prov["config"].pop("seed", None)
    if isinstance(prov.get("config_echo"), str):
        prov["config_echo"] = "\n".join(
            line for line in prov["config_echo"].split("\n")
            if not line.startswith("seed ="))
    return body


def _phi1_budgets(ref: dict, ref_calls: list, got_calls: list):
    """Budgets of the phase-report leaves and check values that contain phi1.

    Call 0 is the phi1 of the phase report; call 1 is the phi1 of the
    start-up ramp sensitivity (phi1_eta_sensitivity = |call 1 - call 0|).
    phi1_tail is half the outer shell's integral, so its error is below
    call 0's.
    """
    if not ref_calls:
        return {}, {}
    err = [max(r["quad_error"],
               got_calls[i]["quad_error"] if i < len(got_calls) else 0.0)
           for i, r in enumerate(ref_calls)]
    e = err[0]
    rep = ref["phase_report"]
    rel = e / abs(rep["phi21"])
    report = {name: e for name in (
        "phi1", "phi1_tail", "phi_total_right", "phi_total_left",
        "corrected_a_phase", "grand_total", "identity_eq15",
        "total_right_vs_half_phi_ab")}
    report["identity_eq15_rel"] = rel
    report["phi1_eta_sensitivity"] = sum(err)
    checks = {"identity_eq15": rel,
              "grand_total_half_shift": e / (0.5 * abs(rep["phi_ab"]))}
    return report, checks


class _Budget:
    def __init__(self, ref: dict, got: dict, ref_phi1: list, got_phi1: list):
        self.tolerances = {name: c["tolerance"]
                           for name, c in ref.get("checks", {}).items()}
        self.phi1_report, self.phi1_checks = _phi1_budgets(ref, ref_phi1, got_phi1)
        self.ref = ref
        self.got = got

    def __call__(self, path, ref_value) -> float:
        budget = RTOL * abs(ref_value)
        name = path[-1]
        if path[0] == "checks" and name == "value":
            name = path[1]
            budget = max(budget, self.phi1_checks.get(name, 0.0))
        if path[0] == "phase_report":
            budget = max(budget, self.phi1_report.get(name, 0.0))
        if name in self.tolerances and name != "tolerance":
            budget = max(budget, CHECK_SHARE * self.tolerances[name])
        if path[0] == "overlap_result":
            err_key = ERROR_OF.get(name)
            if err_key:
                budget = max(budget, abs(self.ref["overlap_result"][err_key]),
                             abs(self.got["overlap_result"][err_key]))
        if path[:2] == ("sweep", "rows") and len(path) == 4:
            header = self.ref["sweep"]["header"]
            err_key = ERROR_OF.get(header[path[3]])
            if err_key:
                j = header.index(err_key)
                budget = max(budget, abs(self.ref["sweep"]["rows"][path[2]][j]),
                             abs(self.got["sweep"]["rows"][path[2]][j]))
        return budget


def compare(reference: dict, exit_code: int, report: dict | None,
            phi1_calls: list) -> list:
    """Problems found in one invocation; an empty list means it passed.
    phi1_calls is the value and quad_error of each phi1 call, in order."""
    problems = []
    if exit_code != reference["exit_code"]:
        problems.append(f"exit code {exit_code}, reference "
                        f"{reference['exit_code']}")
    if report is None:
        return problems + ["no report.json written"]
    ref = normalise(reference["report"])
    got = normalise(report)
    budget = _Budget(ref, got, reference["phi1_calls"], phi1_calls)

    def walk(r, g, path):
        where = ".".join(map(str, path)) or "<root>"
        if isinstance(r, dict):
            if not isinstance(g, dict) or set(r) != set(g):
                problems.append(f"{where}: keys differ")
                return
            for k in r:
                walk(r[k], g[k], path + (k,))
        elif isinstance(r, list):
            if not isinstance(g, list) or len(r) != len(g):
                problems.append(f"{where}: length differs")
                return
            for i, (ri, gi) in enumerate(zip(r, g)):
                walk(ri, gi, path + (i,))
        elif isinstance(r, (int, float)) and not isinstance(r, bool):
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                problems.append(f"{where}: {g!r} is not a number")
            elif not math.isfinite(g):
                problems.append(f"{where}: non-finite value {g!r}")
            else:
                b = budget(path, r)
                if abs(g - r) > b:
                    problems.append(f"{where}: {g!r} differs from reference "
                                    f"{r!r} by more than {b:.3g}")
        elif r != g:
            problems.append(f"{where}: {g!r} != reference {r!r}")

    walk(ref, got, ())
    return problems


def failed_checks(report: dict) -> list:
    return sorted(n for n, c in report.get("checks", {}).items() if not c["pass"])

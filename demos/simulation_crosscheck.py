"""Cross-check the analytic engine against the seeded Monte Carlo simulator.

The simulator realizes the generative model directly (effects, yearly counts,
per-claim threshold exceedances, level updates) and shares no code with the
quadrature/linear-algebra pipeline, so agreement within standard errors is a
meaningful end-to-end verification.  A deliberately corrupted table must be
caught -- the negative control below demonstrates that the check has teeth.
"""

import math

import numpy as np

from bonusmalus import (
    GammaSeverity,
    LognormalCopulaEffects,
    ModelSpec,
    Portfolio,
    RiskClass,
    SeverityRule,
    SimConfig,
    empirical_relativity,
    optimal_relativity_severity,
    simulate_paths,
    unconditional_level_distribution,
)
from bonusmalus.verify import check_rule

model = ModelSpec(
    Portfolio([RiskClass(1.0, 0.5, math.exp(8.8))]),
    GammaSeverity(1.0 / 0.67),
    LognormalCopulaEffects(-0.8, 0.99, 0.29),
)
rule = SeverityRule(9, 1, 2, 16800.0)

print("simulating 400,000 policyholders to steady state...")
summary = simulate_paths(SimConfig(model, rule, 400_000, seed=2026))
levels = unconditional_level_distribution(model, rule, nodes=64)
table = optimal_relativity_severity(model, rule, nodes=64)
emp_r, emp_se = empirical_relativity(summary)

print(f"\n{'level':>5}{'P analytic':>12}{'P simulated':>13}{'r analytic':>12}"
      f"{'r simulated':>13}{'gap (sigma)':>13}")
for lvl in range(9, -1, -1):
    gap = abs(table.relativities[lvl] - emp_r[lvl]) / emp_se[lvl]
    print(
        f"{lvl:>5}{levels[lvl]:>12.4f}{summary.level_distribution[lvl]:>13.4f}"
        f"{table.relativities[lvl]:>12.4f}{emp_r[lvl]:>13.4f}{gap:>13.2f}"
    )

result = check_rule(model, rule, n_paths=400_000, seed=2026)
print(f"\nfull agreement check: {'pass' if result.passed else 'FAIL'}")
print(f"   worst level-probability gap : {result.level_gap_sigmas:.2f} sigma")
print(f"   worst relativity gap        : {result.relativity_gap_sigmas:.2f} sigma")
print(f"   score gap                   : {result.hmse_gap_sigmas:.2f} sigma")

control = check_rule(model, rule, n_paths=400_000, seed=2026, perturb={0: 0.1})
print(f"\nnegative control (bottom relativity shifted by +0.1): "
      f"{'caught' if not control.passed else 'MISSED'}")
for line in control.failures:
    print("   " + line)
assert result.passed and not control.passed
assert np.array_equal(
    simulate_paths(SimConfig(model, rule, 50_000, seed=7)).counts,
    simulate_paths(SimConfig(model, rule, 50_000, seed=7)).counts,
), "seeded runs must be bit-identical"

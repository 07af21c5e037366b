"""Search over claim-size thresholds and transition rules.

The score of a severity-aware rule is not monotone in the threshold: a very
low threshold penalizes almost every claim twice as hard (pure noise), a very
high one never fires and the rule degenerates to the frequency-driven one.
The sweet spot moves with the sign and strength of the frequency-severity
dependence, so we scan the candidate grid at three correlation levels and
then let the dominance check pick the best rule overall.
"""

import math

from bonusmalus import (
    FreqRule,
    GammaSeverity,
    LognormalCopulaEffects,
    ModelSpec,
    Portfolio,
    RiskClass,
    SeverityRule,
    rule_dominance_check,
    threshold_scan,
)


def model_at(corr: float) -> ModelSpec:
    return ModelSpec(
        Portfolio([RiskClass(1.0, 0.5, math.exp(8.8))]),
        GammaSeverity(1.0 / 0.67),
        LognormalCopulaEffects(corr, 0.99, 0.29),
    )


candidates = [8200.0, 16800.0, 48100.0, 94300.0]

for corr in (-0.8, -0.4, 0.4):
    entries = threshold_scan(model_at(corr), SeverityRule(9, 1, 2, 1.0), candidates)
    print(f"correlation {corr:+.1f}: ranked thresholds")
    for entry in entries:
        print(
            f"   threshold {entry.threshold:>8.0f}: normalized score "
            f"{entry.hmse_normalized:.6f}"
        )
    print(f"   -> best: {entries[0].threshold:.0f}\n")

print("rule dominance at correlation -0.8 (severity grid contains the")
print("equal-step rules, so its minimum can never be worse):")
report = rule_dominance_check(
    model_at(-0.8),
    [FreqRule(9, 1), FreqRule(9, 2)],
    [
        SeverityRule(9, small, large, phi)
        for small, large in ((1, 1), (1, 2), (2, 2), (2, 3))
        for phi in candidates
    ],
)
print(f"   best frequency rule : -1/+{report.freq_best.rule.step}  "
      f"score {report.freq_best.hmse_normalized:.6f}")
sev = report.severity_best.rule
print(f"   best severity rule  : -1/+{sev.small_step}/+{sev.large_step} "
      f"@ {sev.threshold:.0f}  score {report.severity_best.hmse_normalized:.6f}")
assert report.severity_no_worse

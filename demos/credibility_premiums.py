"""Closed-form credibility premiums under the Poisson-Poisson mixture model.

This companion model prices a policyholder's next year in closed form from
three information sets: nothing, the claim counts, or counts plus aggregate
claim sizes.  The mixture effects make frequency and severity dependent, so
even a count-only history moves the severity outlook; adding the observed
sizes always (weakly) improves the prediction error.
"""

from bonusmalus import (
    ClaimHistory,
    MixtureBayesModel,
    MixtureExponentialEffects,
    bayes_agg_premium_freqhist,
    bayes_agg_premium_fullhist,
    bayes_freq_premium,
    mse_comparison_mc,
)

effects = MixtureExponentialEffects(weight1=0.5, rate1=2.0, rate2=2.0 / 3.0)
model = MixtureBayesModel(freq_rate=0.5, sev_rate=3.0, effects=effects)

histories = {
    "new policyholder (no history)": ClaimHistory([]),
    "three clean years": ClaimHistory([0, 0, 0], [0, 0, 0]),
    "three claims, small sizes": ClaimHistory([1, 0, 2], [1, 0, 2]),
    "three claims, large sizes": ClaimHistory([1, 0, 2], [9, 0, 14]),
}

print(f"a priori aggregate premium: {model.freq_rate * model.sev_rate:.4f}\n")
print(f"{'history':<32}{'frequency':>11}{'counts only':>13}{'full record':>13}")
for label, history in histories.items():
    freq = bayes_freq_premium(history, model)
    agg_counts = bayes_agg_premium_freqhist(history, model)
    agg_full = bayes_agg_premium_fullhist(history, model)
    print(f"{label:<32}{freq:>11.4f}{agg_counts:>13.4f}{agg_full:>13.4f}")

print("""
Notes: the two claim records share the same counts, so the frequency and
counts-only premiums cannot tell them apart; only the full-record premium
separates the small-loss driver from the large-loss one.
""")

result = mse_comparison_mc(model, years=3, n_paths=500_000, seed=42)
print("simulated next-year prediction errors (500k policyholders):")
print(f"   MSE with counts only : {result.mse_freq:.4f}")
print(f"   MSE with full record : {result.mse_full:.4f}")
print(f"   one-sided 95% lower bound on the gap: {result.one_sided_lower_95:.4f} (> 0)")

unit = MixtureBayesModel(0.5, 3.0, effects, unit_severity_effect=True)
flat = mse_comparison_mc(unit, years=3, n_paths=200_000, seed=42)
print("\nwith the severity effect frozen at 1 the record adds nothing:")
print(f"   MSE gap: {flat.diff_mean:.6f} (identically zero: the full-record and")
print("   counts-only premiums are then one expression, equal for every history)")

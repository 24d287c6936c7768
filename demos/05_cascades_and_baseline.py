"""Detect cascades in trajectories and score the naive sentry baseline.

A cascade is a maximal run of events that each arrive within the fast
threshold of their predecessor; the state just before the run's first event
gets the credit.  Counting those credits per state (and normalizing by
visits) is the naive baseline, compared here against the discounted
ranking.
"""

from ctbn_sentry import (
    NaiveParams,
    SimulationConfig,
    compare_rednt_vs_naive,
    default_fast_threshold,
    experiment_spec,
    identify_cascades,
    naive_scores,
    sample_ensemble,
    sample_trajectory,
)

spec = experiment_spec("chain3")
model = spec.build_model()

# One long trajectory, threshold picked by eye at 0.2 time units.
traj = sample_trajectory(model, (0, 0, 0), t_end=40.0, seed=3)
params = NaiveParams(fast_threshold=0.2, min_cascade_length=2)
print(f"{traj.event_count} events, {len(identify_cascades(traj, params))} cascades "
      f"at threshold {params.fast_threshold}\n")
for win in identify_cascades(traj, params)[:5]:
    t0 = traj.times[win.first_event_index]
    t1 = traj.times[win.last_event_index]
    bits = "".join(map(str, win.sentry_state))
    print(f"  [{t0:7.3f}, {t1:7.3f}]  {win.length} events, launched from {bits}")

# The data-driven threshold is the pooled median inter-event gap.
ensemble = sample_ensemble(model, (0, 0, 0), SimulationConfig(60.0, 2000, 17))
threshold = default_fast_threshold(ensemble)
print(f"\npooled-median fast threshold: {threshold:.4f}")

scores = naive_scores(ensemble, NaiveParams(threshold, 2))
print(f"{scores.total_cascades} cascades over {len(ensemble)} trajectories")
print("\n  state  count   visits  score")
top = sorted(scores.counts, key=scores.counts.get, reverse=True)[:5]
for state in top:
    bits = "".join(map(str, state))
    print(f"  {bits}  {scores.counts[state]:6d}  {scores.visits[state]:6d}  "
          f"{scores.score(state):.3f}")

# Head-to-head with the discounted ranking on the same ensemble (so the same
# pooled-median threshold), restricted to states with at most as many active
# alarms as the largest parent set (here: one).
result = compare_rednt_vs_naive(model, ensemble, k_range=[1, 2, 3, 4], alpha=spec.alpha)
print("\ndiscounted ranking:", ["".join(map(str, s)) for s in result.rednt_ranking])
print("naive ranking:     ", ["".join(map(str, s)) for s in result.naive_ranking])
print("jaccard@k:", {k: round(j, 3) for k, j in result.jaccard})

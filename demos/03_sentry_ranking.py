"""Rank candidate sentry states by relative discounted transition counts.

The discounted transition count (EDNT) of a state adds e^(-alpha * t) for
every future transition at time t.  States about to launch a cascade score
far above some neighbor, so the max EDNT ratio over the neighborhood
(REDNT) singles them out; among the low-activity states of the chain the
winner is "root just turned on".
"""

from ctbn_sentry import (
    SimulationConfig,
    active_alarm_count,
    build_state_space_graph,
    ednt_exact,
    ednt_mc,
    experiment_spec,
    rank_sentry_states,
    rednt,
    state_from_index,
    state_index,
)

model = experiment_spec("chain3").build_model()
gs = build_state_space_graph(model)

alpha = 1.0
values = ednt_exact(model, alpha)
ranking = rednt(values, gs)

print(f"discount alpha = {alpha}\n")
print("  state  alarms  ednt    rednt")
for idx in ranking.order:
    state = state_from_index(idx, model)
    bits = "".join(map(str, state))
    print(f"  {bits}    {active_alarm_count(state)}       "
          f"{values[idx]:6.3f}  {ranking.value_of(idx):6.3f}")

print("\nbest states with at most one active alarm:",
      ["".join(map(str, s)) for s in rank_sentry_states(ranking, 1)])

# The discount controls how much the near future dominates; the ranking of
# the chain's launch state is stable across a wide sweep.
for a in (0.05, 0.1, 0.5, 1.0, 2.0):
    top = rank_sentry_states(rednt(ednt_exact(model, a), gs), 1)[0]
    print(f"alpha={a:4}: top low-activity state {''.join(map(str, top))}")

# Monte Carlo estimation from sampled trajectories agrees with the solve.
idx = state_index((1, 0, 0), model)
table = ednt_mc(model, alpha, SimulationConfig(20.0, 3000, 123), states=[(1, 0, 0)])
print(f"\nMC estimate for 100: {table.estimates[0]:.3f} ± {table.stderrs[0]:.3f} "
      f"(exact {values[idx]:.3f})")

# With epsilon the same estimator stops each state once its 95% half-width
# is within 2% of the estimate, spending only the trajectories it needs.
table = ednt_mc(model, alpha, SimulationConfig(20.0, 50_000, 11), states=[(1, 0, 0)],
                epsilon=0.02)
print(f"stopping rule: {table.estimates[0]:.3f} after {table.trajectory_counts[0]} "
      f"trajectories")

"""Sample trajectories by the direct method and look at one.

Each event draws a holding time from the total exit rate of the current
state, then picks which process moves in proportion to its rate.  A fixed
seed makes every run bit-identical.
"""

import numpy as np

from ctbn_sentry import (
    SimulationConfig,
    experiment_spec,
    sample_ensemble,
    sample_trajectory,
    state_at,
)

model = experiment_spec("chain3").build_model()

traj = sample_trajectory(model, initial=(0, 0, 0), t_end=12.0, seed=7)
print(f"{traj.event_count} events on [0, {traj.t_end}]\n")
print("  time      process  ->state")
for t, j, s in zip(traj.times.tolist(), traj.processes.tolist(), traj.new_states.tolist()):
    print(f"  {t:8.4f}  {model.names[j]:7s}  {s}")

# A crude timeline: one row per alarm, '#' while the alarm is on.  The fast
# followers B and C shadow the slow root A almost immediately.
print("\ntimeline (80 columns over the horizon):")
grid = np.linspace(0.0, traj.t_end, 80, endpoint=False)
for j, name in enumerate(model.names):
    row = "".join("#" if state_at(traj, float(t))[j] else "." for t in grid)
    print(f"  {name}: {row}")

# An ensemble holds independent trajectories keyed by their index, so the
# same configuration always reproduces the same ensemble.
config = SimulationConfig(t_end=12.0, trajectory_count=3, master_seed=99)
ensemble = sample_ensemble(model, (0, 0, 0), config)
again = sample_ensemble(model, (0, 0, 0), config)
print("\nensemble event counts:", [t.event_count for t in ensemble])
print("re-run is identical:",
      all(np.array_equal(a.times, b.times) for a, b in zip(ensemble, again)))

# Mean holding time of the all-quiet state: total exit rate there is
# 1.0 + 0.1 + 0.1, so holds average 1/1.2.
holds = []
for t in sample_ensemble(model, (0, 0, 0), SimulationConfig(40.0, 3000, 5)):
    if t.event_count:
        holds.append(t.times[0])
print(f"\nmean first-event time from 000: {np.mean(holds):.3f} (1/1.2 = {1/1.2:.3f})")

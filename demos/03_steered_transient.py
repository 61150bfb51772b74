"""Steering a blended transient, with CSV export.

Starts the 2-state system at x = (0, 1), asks the transient to land the
blend in the class of the 3-state target y = (1, 1, 1) at t = 1, and
compares the steered run against the free (zero-input) response.  The
steered inputs are the least-energy inputs of the RK4 run itself
(energy summed by Simpson's rule over the stage times), designed on the
blend's segment system without a matrix exponential.
"""

import tempfile
from pathlib import Path

from dimvar import (LinSys, Scenario, export_trajectory, mat,
                    run_transient_scenario, vec)

s1 = LinSys("sigma1", mat([[0, 1], [0, 0]]), mat([[0], [1]]))
s2 = LinSys("sigma2", mat([[0, 0, 1], [0, 0, 0], [0, 1, 0]]),
            mat([[0], [1], [0]]))

sc = Scenario(t0=0.0, te=1.0, x_start=vec([0, 1]), y_target=vec([1, 1, 1]))

free, _ = run_transient_scenario(s1, s2, sc, alpha="3/2", beta="1/2",
                                 steer=False)
print("free endpoint:      ", [f"{x:+.4f}" for x in free.states[-1]])
print("free class error:    %.3e" % free.target_class_error)

steered, outcome = run_transient_scenario(s1, s2, sc, alpha="3/2",
                                          beta="1/2", steer=True)
print("steered endpoint:   ", [f"{x:+.4f}" for x in steered.states[-1]])
print("steered class error: %.3e" % steered.target_class_error)
print("endpoint error:      %.3e" % steered.endpoint_error)
print("realization holds:  ", outcome.realization.realizable)

out = Path(tempfile.gettempdir()) / "steered_transient.csv"
export_trajectory(steered, out)
print(f"\ntrajectory written to {out} ({len(steered.times)} samples)")

"""Shared numeric defaults.

All tolerances are absolute. Verification tolerances bound probability
deviations and trace distances, so they live on the same scale as the
quantities they gate.
"""

# Verification tolerance for freshly constructed states.
VERIFY_TOL = 1e-9

# Looser tolerance recommended after protocol transformations, where
# float error accumulates across unitaries and renormalizations.
PROTOCOL_TOL = 1e-7

# A state is flagged non-PPT when a partial-transpose eigenvalue drops
# below -PPT_TOL.
PPT_TOL = 1e-9

# purify stops its pivoted Cholesky factor once no residual diagonal entry
# exceeds RANK_EPS (the eigendecomposition fallback drops eigenvalues at or
# below it), so the environment dimension equals the numerical rank.
RANK_EPS = 1e-12

# Measurement branches with probability at or below PROB_FLOOR are dropped
# rather than renormalized into nonsense.
PROB_FLOOR = 1e-12

# Refuse to build states larger than this total dimension unless the caller
# raises the cap explicitly. 4096 keeps every operation at desk scale.
DIM_CAP = 4096

# Max acceptable deviation from unitarity (max |U^dag U - I| entry) when a
# caller supplies their own matrix.
UNITARY_TOL = 1e-9

# Constructor sanity checks: norm / trace / hermiticity slack.
STATE_TOL = 1e-9

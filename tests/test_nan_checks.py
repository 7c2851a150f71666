"""Library checks refuse NaN input: a NaN defect fails ``defect <= tol``."""

import numpy as np
import pytest

from srmchannel import cavityqed as cq, codebook as cb, sqrm, synthesis as syn
from srmchannel.exceptions import ConsistencyError, DomainError


def gram_schmidt_completion(columns):
    """The completion's orthonormality check on ``columns`` alone: the
    codebook holds every word of n = 2, so no column is added."""
    return syn.gram_schmidt_completion(columns, cb.Codebook(2, ("00", "01", "10", "11")), 0.5)


@pytest.mark.parametrize("check,error", [
    (gram_schmidt_completion, ConsistencyError),
    (syn.two_level_decompose, ConsistencyError),
    (sqrm.conditional_probabilities, ConsistencyError),
    (cq.local_invariants, DomainError),
])
def test_check_refuses_nan_matrix(check, error):
    with pytest.raises(error):
        check(np.full((4, 4), np.nan))

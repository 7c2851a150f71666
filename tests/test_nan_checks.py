"""Library checks refuse NaN input: a NaN defect fails ``defect <= tol``."""

import numpy as np
import pytest

from srmchannel import cavityqed as cq, sqrm, synthesis as syn
from srmchannel.exceptions import ConsistencyError, DomainError


@pytest.mark.parametrize("check,error", [
    (syn.build_decoding_unitary, ConsistencyError),
    (syn.two_level_decompose, ConsistencyError),
    (sqrm.conditional_probabilities, ConsistencyError),
    (cq.local_invariants, DomainError),
])
def test_check_refuses_nan_matrix(check, error):
    with pytest.raises(error):
        check(np.full((4, 4), np.nan))

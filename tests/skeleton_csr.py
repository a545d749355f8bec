"""The field-major csr matrix of a SkeletonMatrix, for tests that compare
its blocks against scipy."""

import numpy as np
import scipy.sparse as sp

from hamfe2 import fem


def skeleton_csr(A: fem.SkeletonMatrix) -> sp.csr_matrix:
    """The field-major csr matrix of the blocks of A, stored zeros kept,
    every row's columns in order."""
    rows, cols = fem._entry_dofs(A.workspace)
    order = np.lexsort((cols, rows))
    n = A.shape[0]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((A.data[order], cols[order],
                          indptr.astype(np.int32)), shape=A.shape)

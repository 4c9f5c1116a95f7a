import sys
from pathlib import Path

import numpy as np
import pytest

# make the sibling oracles module importable from any test file
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def solver_fault(monkeypatch):
    """inject(kind, armed) makes a solve fail where it arises whenever
    armed() holds, and returns the message of the failure it raises.

    kind "splu": SuperLU fails on the elastic stiffness, as on a singular
    matrix; "cg": a CG solve of a plastic tangent returns info != 0;
    "local": the local update fails to converge.
    """
    from plastprobe import evolution, fem
    from plastprobe.constitutive import SolverFailure

    def inject(kind, armed=lambda: True):
        if kind == "splu":
            real, name = fem.sparse_linalg.splu, "splu"
            message = "Factor is exactly singular"

            def fault(*args, **kwargs):
                raise RuntimeError(message)
        elif kind == "cg":
            real, name = fem.sparse_linalg.cg, "cg"
            message = "CG failed to converge (info=7)"

            def fault(A, b, **kwargs):
                return np.zeros_like(b), 7
        else:
            real, name = evolution.local_update, "local_update"
            message = "local update failed to converge"

            def fault(*args, **kwargs):
                raise SolverFailure(message)

        def patched(*args, **kwargs):
            return (fault if armed() else real)(*args, **kwargs)
        monkeypatch.setattr(evolution if kind == "local" else fem.sparse_linalg,
                            name, patched)
        return message
    return inject

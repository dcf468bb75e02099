import doctest

import weylstab.perm_core
import weylstab.psi_flow
import weylstab.verify


def test_module_doctests():
    for module in (weylstab.perm_core, weylstab.psi_flow, weylstab.verify):
        failed, attempted = doctest.testmod(module)
        assert failed == 0
        assert attempted > 0

"""Each built-in oracle check of `alohactrl selftest` as its own test."""

import pytest

from alohactrl.selftest import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_builtin_check(check):
    check()

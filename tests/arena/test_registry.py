"""Arena policy registry: fixed membership, fixed iteration order."""

import pytest

from repro.arena import build_policies, registered_keys
from repro.errors import ConfigurationError


class TestRegistry:
    def test_registered_keys_sorted_and_complete(self):
        keys = registered_keys()
        assert keys == tuple(sorted(keys))
        assert keys == (
            "droop", "dvfs-margin", "hybrid", "ipc",
            "ipc-packing", "random", "random-n", "stall",
        )

    def test_build_all_by_default(self):
        policies = build_policies()
        assert tuple(p.key for p in policies) == registered_keys()

    def test_explicit_keys_keep_given_order(self):
        policies = build_policies(["stall", "droop"])
        assert tuple(p.key for p in policies) == ("stall", "droop")

    def test_unknown_key_lists_choices(self):
        with pytest.raises(ConfigurationError, match="droop.*stall"):
            build_policies(["nope"])

"""Golden MPS hashes: ``write_mps`` output is a documented byte contract.

Each hash pins the exact text of one small model, so a change to how a
``Model`` stores or emits rows that alters a single byte names the model
it broke. Regenerate a hash only for a deliberate format change.
"""

import hashlib
import math

import pytest

from ucbench import (BASES, STARTUPS, FormulationChoice, Instance, Unit,
                     build_model, generate_instance, write_mps)

KTOL = 0.05


def pre_offline_instance() -> Instance:
    """Two units that enter the horizon offline, so the one_bin and
    three_bin builders take their pre-horizon branches; u2's start-up
    speed exceeds its capacity, so its ramp rows use the clamped value."""
    u1 = Unit(id="u1", p_min=10.0, p_max=40.0, ramp_up=15.0, ramp_down=20.0,
              startup_ramp=15.0, shutdown_ramp=25.0, min_up=2, min_down=3,
              cost_fixed_on=5.0, cost_variable=2.0, startup_var_cost=100.0,
              startup_fixed_cost=10.0, heat_loss=math.log(2), pre_offline=2)
    u2 = Unit(id="u2", p_min=5.0, p_max=30.0, ramp_up=30.0, ramp_down=30.0,
              startup_ramp=45.0, shutdown_ramp=10.0, min_up=1, min_down=1,
              cost_fixed_on=3.0, cost_variable=3.0, startup_var_cost=60.0,
              startup_fixed_cost=6.0, heat_loss=0.3, pre_offline=1)
    return Instance(name="preoff", horizon=5,
                    load=[12.0, 30.0, 45.0, 25.0, 18.0], units=[u1, u2])


INSTANCES = {
    "gen1_3x6": lambda: generate_instance(1, 3, 6),
    "gen2_3x6_net": lambda: generate_instance(2, 3, 6, with_network=True),
    "preoff_2x5": pre_offline_instance,
}

# sha256 of write_mps(model), keyed instance/base/startup
GOLDEN = {
    "gen1_3x6/basic/one_bin":
        "4b177ca63bcf86a53818652b80827c90401dba7b6d50fe9e1cb7b18f4d5e5e3d",
    "gen1_3x6/basic/one_bin_star":
        "8e420b8bef776b077ba260dc095405c6d6e38b94f2d28fa5924fed7e4ba177c2",
    "gen1_3x6/basic/three_bin":
        "239d27808da9cc1bcd28b8857a4fb8941e6977456d6c9f7706a578ea0ab1579f",
    "gen1_3x6/basic/temp":
        "80c68ba6526db7d6b2fab9987c148b2c02532d0e260bf097e203be6766081b9f",
    "gen1_3x6/extended/one_bin":
        "cbd4d3e7eafb51bfdc0228c7564eddd5c20506ff379f19b5115a8c06d7268226",
    "gen1_3x6/extended/one_bin_star":
        "9aeea23d1dd2ae84204aa9e7add5521ce404cbd7069ea338ef9abb54ce865363",
    "gen1_3x6/extended/three_bin":
        "8bde8d70e416770f001d589a4c7065f59de45cf144df7b6b657176ef80a32f0b",
    "gen1_3x6/extended/temp":
        "8d54ddc1450314f40d42d8175bfc886ade3eaaf2b2588b0789412a016ab8729e",
    "gen2_3x6_net/basic/one_bin":
        "5b0872766c913b61dd14259fbfc632ae0c3c253c2a922c1a505b309876ecdeed",
    "gen2_3x6_net/basic/one_bin_star":
        "cf94456deee38f443ac9ca7e21db58acebb44ae293c5a09a57d1a232edc59cb8",
    "gen2_3x6_net/basic/three_bin":
        "65db23478ed921efe74fc7e2e2f27132a8cd9da031e3bcef7ee64f4a65f83509",
    "gen2_3x6_net/basic/temp":
        "93c3956ca5f85a8292a38fb6f667e4407b280ab248a6f4479dd1fa2cd08955e9",
    "gen2_3x6_net/extended/one_bin":
        "b6ed2bbcd7d36ae06788f71a0815c6ae92420d2aac29913cfdf09eab1496ee56",
    "gen2_3x6_net/extended/one_bin_star":
        "14aefe9fa152a0c949997d17cbda50952ed7386d67ae6514ed99593dfb15cb4e",
    "gen2_3x6_net/extended/three_bin":
        "03bca4410f8149b0b369ad5b143e985434766aa279544e393ec1b99ae270c58f",
    "gen2_3x6_net/extended/temp":
        "0fc88f091637fa825a08325ec42780e90a08be21773b09b7b3c34b3b61dc168f",
    "preoff_2x5/basic/one_bin":
        "4652c5aa0c82395d0f13f177cb622887df4a3d07961a4a08dbd0738db41ef106",
    "preoff_2x5/basic/one_bin_star":
        "4d6f01dade973b1062f3178c510c8538120089b393f21e4f57289b25d103f0b5",
    "preoff_2x5/basic/three_bin":
        "98d793fa748697bb053b94f02188f6049d636ce7b341c2beb0d638e6503d4969",
    "preoff_2x5/basic/temp":
        "a606f205c353766a4174fabeb3c9b66bb30092c7909befb21291aa6cd6abd536",
    "preoff_2x5/extended/one_bin":
        "aa1d2406af71cba7d72ebecd05e6cdbadc8787db6dc3a156aec97a33f4173ff3",
    "preoff_2x5/extended/one_bin_star":
        "0ac910a3992ce7ee0dba8e3e88e7f9c0b8e5a38b15c519bd48f84b77dc5d94ab",
    "preoff_2x5/extended/three_bin":
        "c7e2bece40bcf00d7e614434d5f8fd7ffac74db07088184b4a19a35bc164f1b5",
    "preoff_2x5/extended/temp":
        "1503c308d6ddbfb684d01231fd9094ae37aa4224a870dc19ebc9ca027b5228d1",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_write_mps_bytes_are_pinned(key):
    inst_key, base, startup = key.split("/")
    model, _ = build_model(INSTANCES[inst_key](),
                           FormulationChoice(base, startup, KTOL))
    digest = hashlib.sha256(write_mps(model).encode()).hexdigest()
    assert digest == GOLDEN[key]


def test_golden_table_covers_every_model():
    assert sorted(GOLDEN) == sorted(f"{i}/{b}/{s}" for i in INSTANCES
                                    for b in BASES for s in STARTUPS)

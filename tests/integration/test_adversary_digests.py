"""Pin the Section 4 adversary's output bit for bit.

One SHA-256 per parameter set covers each job's release, CSR arrays and
depths, its FIFO completion times and its OPT witness completion times (a
marker when there is no witness). The expected digests were recorded from
the per-subjob co-simulation that the layer-granular builder replaced, so
any change to instances, schedules, witnesses or ``key_placement="random"``
RNG draws shows up here.

Covered: every call of one E1-E17 smoke pass (E3, E6, E8, E9, E12, E13,
E16, E17), and the parameter sets the unit and integration tests build.
The full preset's m=64 and m=128 builds are left out to keep the suite
fast.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads import build_fifo_adversary


def _digest(adv) -> str:
    h = hashlib.sha256()
    witness = adv.opt_witness
    for i, job in enumerate(adv.instance):
        dag = job.dag
        for arr in (
            np.array([job.release, dag.n]),
            dag.child_indptr,
            dag.child_indices,
            dag.depth,
            adv.fifo_schedule.completion[i],
            np.array([-1]) if witness is None else witness.completion[i],
        ):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


DIGESTS = [
    ((8, 24), {}, "659482ce4efc2da4741114e7d557d2966f8c41cdefba8f2bae9863d677215d20"),
    ((16, 48), {}, "5bb4a20bf44095091fead1938e9b814141f6c2e928a131c0318423ec4b2316b8"),
    ((32, 96), {}, "075007710cdff62f761281ce797e30cd15582b211693a2d0f88027de52894891"),
    ((8, 12), {}, "d439cfcf1ef116a01c894dd4afc2ec511675d5873dca589752776bf5623dfca4"),
    ((16, 12), {}, "9c02f375af2bbbe3849b9f63ddc54f068bc240fc0dfa8af19a2114c1ef48eeff"),
    ((32, 12), {}, "237c7e08b04de62af72e37507aa7274509047ce6d67e122c5b68387071b7ee83"),
    ((4, 12), {}, "ead835d0491f41214a6578055c1864d9264c8fb04ae79b7b7672b1136e895981"),
    ((4, 12), {'period': 3}, "a1c8d011c2c6c717241b5e8de1f5dc6271127c049d4ac8cd31be8d0bfb1c5418"),
    ((8, 24), {'period': 5}, "d17e5e827d61281594b6acdac64fd54a7a1c3b09fa4505fc1eb1874ebaa25bf6"),
    ((16, 48), {'period': 9}, "84cad48f95f3803780f604e8f13cd6e710e5b6a1681c5ebbd8a8622d922bf500"),
    ((8, 24), {'key_placement': 'first'}, "bc9b926b69739c81f50a14b934b5fe6236a666a9eab9d60c1f27031852f29cb5"),
    ((8, 24), {'key_placement': 'random', 'seed': 0}, "1d05b9672784a5b52aa9072e21cda068bcc3db91d5722bf6d142d6e52253f2dc"),
    ((16, 48), {'key_placement': 'first'}, "fddabf21508b1ddda5cfe7a40906b919a4a16b2fe51d8c589879af69438b74b2"),
    ((16, 48), {'key_placement': 'random', 'seed': 0}, "50bd46a907ec938f64981d0a655f362f9622d73f3571663af94408692311b7dc"),
    ((8, 16), {}, "9c84d0a4dcf5e8411052ff34cf18f8516afba9d0c9662dd031f71459e3c786dd"),
    ((32, 128), {}, "ea0025319aa4eb4a52d116259ff7fa847aedd3947f2f594df1368b7830d7895f"),
    ((6, 4), {'n_layers': 3}, "78cbccaf06bc79143d50cf2c75d38e86a96a96aee535d52a375bb973af0127ca"),
    ((5, 1), {}, "84a535f83ec84293baff1afa2204e53a246d21d6c0123259db0186674e2f1bf3"),
    ((2, 4), {}, "399a94565df2172f5d518a18d0de1bca39c0574cef7aa4cb3a1e3fb7d3e74db9"),
    ((3, 6), {}, "4b840b45f206ac7850267d884377e682187da8312ad30977499611a4799edaba"),
    ((4, 8), {}, "5fcadcb661bd8ff3c4214f577e0475372fa32f8e4ad8323e846562ed470ebbf6"),
    ((16, 32), {}, "1a76f9af114ed985e7e5dce8c49622a134a8f1bb96b690f7b61f73e496a4897f"),
    ((32, 64), {}, "94f094ef82137cdad1fbe58cabff390caf7ed0d1a592f381320bd7213d0906df"),
    ((8, 10), {'n_layers': 1}, "3f233c77a99f09bca390f76a5ef88f40c536c44794bbfc6de21be8c754078543"),
    ((8, 10), {'n_layers': 3}, "4f00bcde314546947d51e578f5c852871fe3ed8ddd998941ec265a8c770413bf"),
    ((8, 10), {'n_layers': 8}, "d7cadd1f76193416fc3b7581ea30f687665176a82bf133a9d49b3890da895ac0"),
    ((8, 32), {}, "d68c2e357734be5f95faf758af5a81e02824d7511e89dee72a267dd03be61706"),
    ((16, 64), {}, "99b261df8177dfeb46d36e64b81d0c04e7ac6462a2338dac7279c66dad4fd7f5"),
    ((4, 3), {}, "3c7313be4d9376563e52aefdb8cccdca86e74e065d5b28fc15bcf74b9ba0f878"),
    ((4, 6), {}, "4d9c44bab7162abaa9b7f285d431285681e30702e8da6e49457ef391166ed162"),
    ((4, 2), {}, "78427efabebc4879118ab236267e86fd162f97f3b7785a3e7c19eccc873b0693"),
    ((8, 6), {'period': 4}, "01a33c8825128eb300561f7f9cd574804615dc63f7b1670bfc570354cf473410"),
    ((6, 5), {'period': 10}, "320e766efc2fb7220d4bc0438100b6d11e8304882fe5e191bc68783a25b5050b"),
    ((8, 10), {'period': 4}, "2f437a1e27466b5aacb1dd82f4dfe485a53ea7933364596cad05fad5b8e2a25b"),
    ((6, 6), {'key_placement': 'first'}, "774051a1040dbcd2467059ef99e295ce4378a2b1309ae0cd531b890a52e8fe95"),
    ((6, 6), {'key_placement': 'random', 'seed': 3}, "2d2b74c5f00cedf72498937fe8da60e39ee8fc65f814334c384a45ac709d7b34"),
    ((6, 6), {'key_placement': 'random', 'seed': 0}, "6858243edb9985819066ab731e79d3a7ee4a2343853a0f205b18b887615d55ee"),
    ((8, 16), {'key_placement': 'first'}, "4aec1d8b1252a0f55012e460edb9e9c51e69a76bd3907eb869113174f049e90e"),
    ((8, 16), {'key_placement': 'random', 'seed': 9}, "15e337ea1b6191fab5ff4f40d88511166fd02b3b153f52eb9a555477be509a89"),
    ((16, 24), {}, "26786e250d55ae5ae1f75872c981d53aedcc9038cabe8949e3abb2b3f867c387"),
]


@pytest.mark.parametrize(
    "args,kwargs,expected",
    DIGESTS,
    ids=[
        "-".join(map(str, args)) + "".join(f"-{k}={v}" for k, v in kwargs.items())
        for args, kwargs, _ in DIGESTS
    ],
)
def test_adversary_output_is_pinned(args, kwargs, expected):
    assert _digest(build_fifo_adversary(*args, **kwargs)) == expected

"""Definition 3.1's distributional requirement on refresh:

    SD((sk_1^0, sk_2^0), (sk_1^t, sk_2^t)) = 0

i.e. refreshed shares are distributed exactly like fresh ones.  We
verify the checkable consequences statistically on toy groups:

* P2's refreshed scalars are uniform on Z_p (like Gen's);
* P1's refreshed a-vector components are uniform on G;
* the invariant msk is preserved exactly (tested elsewhere);
* refresh output is independent of the *old* share values.
"""

import random

import pytest

from repro.analysis.stattests import chi_squared_two_sample, chi_squared_uniform
from repro.core.dlr import DLR
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport


@pytest.fixture(scope="module")
def harvest(toy_params):
    """Run many independent generate+refresh cycles on the toy group and
    collect fresh vs refreshed share samples."""
    scheme = DLR(toy_params)
    fresh_scalars, refreshed_scalars = [], []
    fresh_points, refreshed_points = [], []
    for seed in range(40):
        rng = random.Random(seed)
        generation = scheme.generate(rng)
        fresh_scalars.extend(generation.share2.s[:4])
        fresh_points.extend(generation.share1.a[:2])
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        scheme.refresh_protocol(p1, p2, InMemoryTransport())
        refreshed_scalars.extend(scheme.share2_of(p2).s[:4])
        refreshed_points.extend(scheme.share1_of(p1).a[:2])
    return fresh_scalars, refreshed_scalars, fresh_points, refreshed_points


class TestShareDistributions:
    def test_refreshed_scalars_match_fresh(self, harvest):
        fresh, refreshed, _, _ = harvest
        # Bucket mod 8 for a manageable chi-squared support.
        result = chi_squared_two_sample(
            [s % 8 for s in fresh], [s % 8 for s in refreshed]
        )
        assert not result.rejects_at(0.001)

    def test_refreshed_scalars_uniform(self, harvest):
        _, refreshed, _, _ = harvest
        result = chi_squared_uniform([s % 8 for s in refreshed], 8)
        assert not result.rejects_at(0.001)

    def test_refreshed_points_look_fresh(self, harvest):
        """Compare a 3-bit digest of point encodings fresh vs refreshed."""
        _, _, fresh, refreshed = harvest
        digest = lambda e: int(e.to_bits()[:3])
        result = chi_squared_two_sample(
            [digest(e) for e in fresh], [digest(e) for e in refreshed]
        )
        assert not result.rejects_at(0.001)

    def test_refresh_independent_of_old_share(self, toy_params):
        """Two devices with *identical* shares refreshed with different
        randomness produce unrelated new shares."""
        scheme = DLR(toy_params)
        generation = scheme.generate(random.Random(1))
        outcomes = []
        for seed in (10, 11):
            rng = random.Random(seed)
            p1 = Device("P1", scheme.group, rng)
            p2 = Device("P2", scheme.group, rng)
            scheme.install(p1, p2, generation.share1, generation.share2)
            scheme.refresh_protocol(p1, p2, InMemoryTransport())
            outcomes.append((scheme.share1_of(p1), scheme.share2_of(p2)))
        (s1a, s2a), (s1b, s2b) = outcomes
        assert s1a != s1b
        assert s2a != s2b

    def test_msk_exactly_invariant_across_many_refreshes(self, toy_params):
        scheme = DLR(toy_params)
        rng = random.Random(2)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = InMemoryTransport()

        def msk():
            share1, share2 = scheme.share1_of(p1), scheme.share2_of(p2)
            value = share1.phi
            for a_i, s_i in zip(share1.a, share2.s):
                value = value / (a_i ** s_i)
            return value

        initial = msk()
        for _ in range(8):
            scheme.refresh_protocol(p1, p2, channel)
            assert msk() == initial

"""Edge-path tests: fixed-parameter fixtures, device estimates, misc."""

import pytest

from repro.client.device import NEXUS_ONE, PC_SERVER
from repro.crypto import fixed_params
from repro.crypto.fixtures import fixed_paillier_keypair, fixed_rsa_keypair
from repro.obs.instrument import OpCounter
from repro.utils.rand import SystemRandomSource


class TestFixedParams:
    def test_all_paillier_sizes_valid(self):
        rng = SystemRandomSource(seed=900)
        for bits in fixed_params.PAILLIER_PRIMES:
            kp = fixed_paillier_keypair(bits)
            assert kp.public.n.bit_length() == bits
            assert kp.decrypt(kp.public.encrypt(7, rng)) == 7

    def test_all_rsa_sizes_valid(self):
        for bits in fixed_params.RSA_PRIMES:
            kp = fixed_rsa_keypair(bits)
            assert kp.public.n.bit_length() == bits
            assert kp.raw_decrypt(kp.public.raw_encrypt(99)) == 99

    def test_cache_returns_same_object(self):
        assert fixed_paillier_keypair(256) is fixed_paillier_keypair(256)
        assert fixed_rsa_keypair(512) is fixed_rsa_keypair(512)

    def test_fallback_generates_unknown_size(self):
        kp = fixed_rsa_keypair(136)  # not in the table; generated + cached
        assert kp.public.n.bit_length() == 136
        assert fixed_rsa_keypair(136) is kp

    def test_safe_primes_are_safe(self):
        from repro.ntheory.primes import is_probable_prime

        for bits, p in fixed_params.SAFE_PRIMES.items():
            assert p.bit_length() == bits
            assert is_probable_prime(p)
            assert is_probable_prime((p - 1) // 2)


class TestDeviceEstimates:
    def test_server_rank_columns_scale_with_group(self):
        counter = OpCounter()
        counter.add("server_rank_column", 6)
        small = PC_SERVER.estimate_ms(counter, group_size=10)
        large = PC_SERVER.estimate_ms(counter, group_size=100)
        assert large == pytest.approx(small * 10)

    def test_ope_levels_priced(self):
        counter = OpCounter()
        counter.add("ope_level", 384)
        est = NEXUS_ONE.estimate_ms(counter)
        assert est == pytest.approx(384 * NEXUS_ONE.ope_level_ms)

    def test_empty_counter_is_free(self):
        assert NEXUS_ONE.estimate_ms(OpCounter()) == 0.0

    def test_paillier_mulmod_far_cheaper_than_modexp(self):
        enc = OpCounter()
        enc.add("paillier_encrypt", 1)
        mul = OpCounter()
        mul.add("paillier_mulmod", 1)
        assert NEXUS_ONE.estimate_ms(mul) < NEXUS_ONE.estimate_ms(enc) / 100


class TestSchnorrGeneration:
    def test_generate_produces_distinct_groups(self):
        from repro.ntheory.groups import SchnorrGroup

        a = SchnorrGroup.generate(bits=48, rng=SystemRandomSource(seed=901))
        b = SchnorrGroup.generate(bits=48, rng=SystemRandomSource(seed=902))
        assert a.p != b.p

    def test_default_is_cached_constant(self):
        from repro.ntheory.groups import SchnorrGroup, _DEFAULT_P

        g = SchnorrGroup.default()
        assert g.p == _DEFAULT_P


class TestExperimentResultEdges:
    def test_empty_table_formats(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(name="empty", columns=["a"])
        text = result.format()
        assert "empty" in text

    def test_mixed_types_render(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(name="mixed", columns=["x", "y"])
        result.add_row(x=True, y=0.123456789)
        text = result.format()
        assert "True" in text and "0.1235" in text

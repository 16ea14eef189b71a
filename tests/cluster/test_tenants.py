"""Tenant namespace, quotas, and token buckets (deterministic clocks)."""

from __future__ import annotations

import pytest

from repro.api import SamplerSpec
from repro.serve.cluster import TenantQuota, TenantRegistry, TokenBucket
from repro.serve.cluster.tenants import REJECT_REASONS, check_tenant_id

SPEC = SamplerSpec("bottom_k", {"k": 8, "rng": 1})


class Clock:
    """A hand-cranked monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        clock = Clock()
        bucket = TokenBucket(10.0, burst=5.0, clock=clock)
        assert bucket.try_acquire(5)
        assert not bucket.try_acquire(1)
        clock.now += 100.0  # refill far past the cap
        assert bucket.tokens == pytest.approx(5.0)

    def test_refills_at_rate(self):
        clock = Clock()
        bucket = TokenBucket(10.0, burst=5.0, clock=clock)
        bucket.try_acquire(5)
        clock.now += 0.25
        assert bucket.try_acquire(2)
        assert not bucket.try_acquire(1)

    def test_acquire_delay_goes_into_debt(self):
        clock = Clock()
        bucket = TokenBucket(100.0, burst=10.0, clock=clock)
        assert bucket.acquire_delay(10) == 0.0
        # 40 tokens of debt at 100/s: ready in 0.4s, and the debt queues.
        assert bucket.acquire_delay(40) == pytest.approx(0.4)
        assert bucket.acquire_delay(10) == pytest.approx(0.5)
        clock.now += 0.5
        assert bucket.acquire_delay(1) == pytest.approx(0.01)

    def test_sustained_rate_equals_configured_rate(self):
        clock = Clock()
        bucket = TokenBucket(50.0, burst=10.0, clock=clock)
        total_wait = 0.0
        for _ in range(100):
            delay = bucket.acquire_delay(5)
            total_wait += delay
            clock.now += delay
        # 500 events at 50/s from a 10-token head start: ~9.8s of waiting.
        assert total_wait == pytest.approx((500 - 10) / 50.0)

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, 0.0)


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ValueError, match="events_per_sec"):
            TenantQuota(events_per_sec=0)
        with pytest.raises(ValueError, match="burst"):
            TenantQuota(burst=-1)
        with pytest.raises(ValueError, match="queue_share"):
            TenantQuota(queue_share=1.5)

    def test_unlimited_quota_has_no_bucket(self):
        assert TenantQuota().bucket() is None

    def test_burst_defaults_to_one_second_of_rate(self):
        bucket = TenantQuota(events_per_sec=25.0).bucket(Clock())
        assert bucket.burst == 25.0

    def test_dict_round_trip(self):
        quota = TenantQuota(events_per_sec=10.0, burst=3.0, queue_share=0.5)
        assert TenantQuota.from_dict(quota.to_dict()) == quota
        assert TenantQuota.from_dict(None) == TenantQuota()


class TestTenantIds:
    def test_reserved_prefix_is_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            check_tenant_id("__mux_admin__")

    @pytest.mark.parametrize("bad", ["", None, 7, b"x"])
    def test_non_strings_are_rejected(self, bad):
        with pytest.raises(ValueError):
            check_tenant_id(bad)


class TestTenantRegistry:
    def test_create_describe_drop(self):
        registry = TenantRegistry(clock=Clock())
        record = registry.create("acme", SPEC, service="svc-1")
        assert "acme" in registry and len(registry) == 1
        assert record.service == "svc-1"
        assert registry.get("acme").spec == SPEC
        dropped = registry.drop("acme")
        assert dropped is record
        assert "acme" not in registry
        with pytest.raises(KeyError, match="unknown tenant"):
            registry.get("acme")

    def test_duplicate_create_is_rejected(self):
        registry = TenantRegistry()
        registry.create("acme", SPEC)
        with pytest.raises(ValueError, match="already exists"):
            registry.create("acme", SPEC)

    @pytest.mark.parametrize("spec,error,match", [
        ({"name": "nope"}, ValueError, "unknown sampler"),
        ({"name": "bottom_k", "params": {"k": 0}}, ValueError, "positive"),
        ({"name": "bottom_k", "params": {"k": 4, "bogus": 1}}, TypeError,
         "bogus"),
        ({"name": "multi_stratified", "params": {"n_dims": 1, "k": 4}},
         ValueError, "strata= column"),
        ({"name": "grouped_distinct", "params": {"m": 2, "k": 4}},
         ValueError, "groups= column"),
        ({"name": "priority_layout"}, ValueError,
         "unknown sampler 'priority_layout'"),
        ({}, ValueError, "'name'"),
        ({"name": "bottom_k", "params": None}, TypeError, "'params'"),
    ], ids=["unknown", "bad_value", "unknown_param", "strata", "groups",
            "offline_design", "no_name", "params_none"])
    def test_spec_it_cannot_build_or_feed_is_refused(self, spec, error, match):
        """The spec is built before the tenant is registered; a sampler
        needing a column cluster blocks lack is refused by name."""
        registry = TenantRegistry()
        with pytest.raises(error, match=match):
            registry.create("acme", spec)
        assert "acme" not in registry and len(registry) == 0
        # Recovery rebuilds the namespace as written, without the check.
        revived = TenantRegistry.from_dict({"acme": {
            "tenant": "acme", "spec": {"name": "nope"},
        }})
        assert revived.get("acme").spec.name == "nope"

    def test_rejection_counters(self):
        registry = TenantRegistry()
        record = registry.create("acme", SPEC)
        record.reject("rate", 3)
        record.reject("backpressure")
        assert record.rejected == {
            "rate": 3, "share": 0, "backpressure": 1, "unavailable": 0,
        }
        with pytest.raises(ValueError, match="unknown rejection reason"):
            record.reject("gremlins")
        assert set(record.rejected) == set(REJECT_REASONS)

    def test_buckets_follow_quotas(self):
        clock = Clock()
        registry = TenantRegistry(clock=clock)
        registry.create("limited", SPEC,
                        quota=TenantQuota(events_per_sec=5.0))
        registry.create("free", SPEC)
        assert registry.bucket("free") is None
        bucket = registry.bucket("limited")
        assert bucket.try_acquire(5) and not bucket.try_acquire(1)

    def test_dict_round_trip_preserves_counters_not_buckets(self):
        clock = Clock()
        registry = TenantRegistry(clock=clock)
        record = registry.create(
            "acme", SPEC,
            quota=TenantQuota(events_per_sec=2.0), service="svc-0",
        )
        record.events_enqueued = 41
        record.reject("share", 2)
        registry.bucket("acme").try_acquire(2)  # drain the live bucket

        revived = TenantRegistry.from_dict(registry.to_dict(), clock=clock)
        copy = revived.get("acme")
        assert copy.events_enqueued == 41
        assert copy.rejected["share"] == 2
        assert copy.spec == SPEC and copy.service == "svc-0"
        # Buckets are runtime-only: the revived one starts full again.
        assert revived.bucket("acme").try_acquire(2)

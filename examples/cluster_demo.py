"""A multi-tenant serving cluster, front to back.

Three SaaS tenants — each with its own sampler spec and quota — share a
pool of two durable workers behind a :class:`repro.serve.cluster.Cluster`.
A network client speaks the length-prefixed frame protocol to a
:class:`ClusterFrontend` (JSON for control verbs, raw numpy columns for
numeric ingest blocks): it registers the tenants, streams their orders,
and queries each tenant's revenue with a confidence interval.  Mid-demo a
third worker joins the pool and the consistent-hash ring rebalances
tenants onto it **live** — after which every tenant's state is proven
bit-identical to an isolated control sampler fed the same events, and a
rate-limited tenant shows its quota rejections being counted rather than
silently dropped.

Run:  PYTHONPATH=src python examples/cluster_demo.py
"""

import asyncio
import tempfile

import numpy as np

from repro import SamplerSpec
from repro.serve.cluster import Cluster, ClusterClient, ClusterFrontend

TENANTS = {
    "acme": {"name": "bottom_k", "params": {"k": 256, "rng": 1}},
    "globex": {"name": "bottom_k", "params": {"k": 128, "rng": 2}},
    "initech": {"name": "weighted_distinct", "params": {"k": 128, "salt": 3}},
}
N = 20_000


def build_orders(tenant: str, i: int):
    rng = np.random.default_rng(100 + i)
    customers = rng.integers(0, 2_000, N)
    order_value = rng.lognormal(3.0, 0.8, N)
    return customers, order_value


def signature(sampler) -> tuple:
    sample = sampler.sample()
    return tuple(sorted(
        (repr(key), round(float(w), 9), round(float(t), 12))
        for key, w, t in zip(sample.keys, sample.weights, sample.thresholds)
    ))


async def main(root) -> None:
    async with Cluster(
        services=2, dir=root, batch_size=2_048, ring_salt=1
    ) as cluster:
        async with ClusterFrontend(cluster) as frontend:
            host, port = frontend.address
            client = await ClusterClient.connect(host, port)

            for tenant, spec in TENANTS.items():
                reply = await client.create_tenant(tenant, spec)
                print(f"tenant {tenant:>8} placed on {reply['service']}")

            orders = {}
            for i, tenant in enumerate(TENANTS):
                customers, order_value = build_orders(tenant, i)
                # initech counts distinct customers: its sketch keys
                # priorities on hash(key)/weight, so repeat customers
                # must arrive with a consistent weight — stream them
                # unweighted and let revenue tenants carry order values.
                weighted = tenant != "initech"
                orders[tenant] = (customers, order_value if weighted else None)
                for lo in range(0, N, 4_000):
                    await client.ingest_many(
                        tenant,
                        customers[lo:lo + 4_000],
                        weights=(
                            order_value[lo:lo + 4_000] if weighted else None
                        ),
                    )
            await client.admin("flush")

            print()
            for tenant in ("acme", "globex"):
                reply = await client.query(tenant, "sum", ci=0.95)
                lo, hi = reply["ci"]
                print(
                    f"{tenant:>8} revenue ~ {reply['estimate']:>12,.0f} "
                    f"(95% CI {lo:,.0f} .. {hi:,.0f}) from "
                    f"{reply['sample_size']} retained rows"
                )
            reply = await client.query("initech", "distinct")
            print(f" initech distinct customers ~ {reply['estimate']:,.0f} "
                  f"(true universe 2,000)")

            # Grow the pool live: the ring hands its share of tenants to
            # the new worker while the cluster keeps serving.
            grown = await client.admin("add_service")
            placements = {
                t: (await client.admin("describe_tenant", tenant=t))
                ["description"]["service"]
                for t in TENANTS
            }
            moved = [
                t for t, s in placements.items() if s == grown["service"]
            ]
            print(f"\nadded {grown['service']}: moved {len(moved)} of "
                  f"{len(TENANTS)} tenants -> {moved}")

            # Every tenant — moved or not — still equals an isolated
            # control sampler fed the same orders.
            identical = True
            for i, tenant in enumerate(TENANTS):
                customers, order_value = orders[tenant]
                control = SamplerSpec.from_dict(TENANTS[tenant]).build()
                control.update_many(customers, order_value)
                worker = cluster.service(placements[tenant])
                async with worker.snapshot():
                    mine = signature(worker.sampler.tenant_sampler(tenant))
                identical &= mine == signature(control)
            print(f"per-tenant isolation after rebalance: {identical}")

            # Quotas: a burst over the rate limit is rejected and
            # counted, never silently lost.
            await client.create_tenant(
                "freeloader",
                {"name": "bottom_k", "params": {"k": 16, "rng": 9}},
                quota={"events_per_sec": 100.0, "burst": 50.0},
            )
            admitted = 0
            for key in range(200):
                reply = await client.ingest("freeloader", key)
                admitted += reply["admitted"]
            described = await client.admin(
                "describe_tenant", tenant="freeloader"
            )
            rejected = described["description"]["rejected"]["rate"]
            print(
                f"\nfreeloader burst: {admitted} admitted, "
                f"{rejected} rate-rejected of 200 "
                f"(quota 100/s, burst 50)"
            )

            metrics = (await client.admin("metrics"))["metrics"]
            print(
                f"cluster totals: {metrics['total']['events_applied']:,} "
                f"events applied across "
                f"{len(metrics['services'])} services, "
                f"{len(metrics['tenants'])} tenants"
            )
            await client.aclose()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        asyncio.run(main(root))

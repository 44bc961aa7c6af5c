"""Per-tenant KV quota bookkeeping shared by both KV-cache managers.

A tenant's quota is a fraction of the cache's *configured* capacity, held as
a block cap ``floor(fraction * num_kv_cores * blocks_per_core)``: core
failures do not silently shrink a tenant's entitlement mid-run.  The ledger
charges blocks as a manager allocates them and refunds them on release; the
managers decide *when* to consult it (at admission and growth) and keep
their own failure counters.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError


class TenantQuotaLedger:
    """Base of the KV-cache managers: tenant caps, holdings and their checks."""

    def __init__(self, capacity_blocks: int) -> None:
        #: whether the most recent admission/growth failure was caused by a
        #: tenant quota rather than cache pressure.  The scheduler reads this
        #: to decide whether evicting *other* tenants could possibly help.
        self.last_failure_quota_bound = False
        self._quota_capacity = capacity_blocks
        #: per-tenant cap as the configured fraction of the cache
        self._tenant_quotas: dict[str, float] = {}
        #: per-tenant cap in blocks (floor of fraction x configured capacity)
        self._tenant_quota_blocks: dict[str, int] = {}
        #: blocks currently held per quota'd tenant
        self._tenant_used: dict[str, int] = {}

    def set_tenant_quotas(self, quotas: dict[str, float]) -> None:
        """Cap each listed tenant to a fraction of the configured capacity.

        A fraction of 0.0 is a valid cap that rejects every admission for
        that tenant.  Tenants not listed are uncapped.
        """
        for tenant, fraction in quotas.items():
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"tenant {tenant!r} kv_quota must lie in [0, 1], got {fraction}"
                )
        self._tenant_quotas = dict(quotas)
        self._tenant_quota_blocks = {
            tenant: int(fraction * self._quota_capacity)
            for tenant, fraction in self._tenant_quotas.items()
        }
        for tenant in self._tenant_quota_blocks:
            self._tenant_used.setdefault(tenant, 0)

    def tenant_quota_blocks(self, tenant: str) -> int | None:
        """Block cap of a tenant (None when uncapped)."""
        return self._tenant_quota_blocks.get(tenant)

    def tenant_used_blocks(self, tenant: str) -> int:
        """Blocks currently held by a quota'd tenant (0 when uncapped)."""
        return self._tenant_used.get(tenant, 0)

    def _quota_allows(self, tenant: str, blocks: int) -> bool:
        cap = self._tenant_quota_blocks.get(tenant)
        if cap is None:
            return True
        return self._tenant_used.get(tenant, 0) + blocks <= cap

    def _charge_tenant(self, tenant: str, blocks: int) -> None:
        """Charge (or, with negative ``blocks``, refund) a capped tenant."""
        if tenant in self._tenant_quota_blocks:
            self._tenant_used[tenant] += blocks

    def _quota_state(self) -> dict[str, Any]:
        """The ledger's part of a manager checkpoint."""
        return {
            "tenant_quotas": dict(self._tenant_quotas),
            "tenant_used": dict(self._tenant_used),
        }

    def _restore_quota_state(self, state: dict[str, Any]) -> None:
        self._tenant_used = dict(state.get("tenant_used", {}))
        self.set_tenant_quotas(dict(state.get("tenant_quotas", {})))
        self.last_failure_quota_bound = False

"""Tests for the inter-sequence scheduler (FCFS, eviction, suspension)."""

import pytest

from repro.errors import SchedulingError
from repro.workload.requests import Request, Sequence, SequencePhase
from repro.workload.scheduler import InterSequenceScheduler


class FakeKVProvider:
    """KV manager stub with a fixed sequence-slot capacity."""

    def __init__(self, capacity: int, token_capacity: int | None = None) -> None:
        self.capacity = capacity
        self.token_capacity = token_capacity
        self.resident: dict[int, int] = {}

    def try_admit(self, sequence: Sequence) -> bool:
        if len(self.resident) >= self.capacity:
            return False
        self.resident[sequence.sequence_id] = 0
        return True

    def release(self, sequence: Sequence) -> None:
        self.resident.pop(sequence.sequence_id, None)

    def append_tokens(self, sequence: Sequence, count: int = 1) -> bool:
        if self.token_capacity is not None:
            total = sum(self.resident.values()) + count
            if total > self.token_capacity:
                return False
        self.resident[sequence.sequence_id] = self.resident.get(sequence.sequence_id, 0) + count
        return True


def requests(n: int, prefill: int = 8, decode: int = 4) -> list[Request]:
    return [
        Request(request_id=i, prefill_length=prefill, decode_length=decode)
        for i in range(n)
    ]


def arriving_requests(arrivals: list[float], prefill: int = 8, decode: int = 4) -> list[Request]:
    return [
        Request(request_id=i, prefill_length=prefill, decode_length=decode, arrival_time=t)
        for i, t in enumerate(arrivals)
    ]


class TestAdmission:
    def test_fcfs_admission_order(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=3))
        scheduler.submit_all(requests(5))
        admitted = scheduler.fill()
        assert [seq.sequence_id for seq in admitted] == [0, 1, 2]
        assert scheduler.num_active == 3
        assert len(scheduler.waiting) == 2

    def test_admission_limited_by_max_active(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=10), max_active_sequences=2)
        scheduler.submit_all(requests(5))
        scheduler.fill()
        assert scheduler.num_active == 2

    def test_admitted_sequences_enter_prefill(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=2))
        scheduler.submit_all(requests(2))
        for seq in scheduler.fill():
            assert seq.phase is SequencePhase.PREFILL

    def test_rejected_admission_counted(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=1))
        scheduler.submit_all(requests(3))
        scheduler.fill()
        assert scheduler.stats.rejected_admissions == 1

    def test_rejection_counted_once_per_request_not_per_epoch(self):
        """A request blocked at the head of the queue across many fill() calls
        (one per epoch) is one rejected admission, not one per epoch."""
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=1))
        scheduler.submit_all(requests(3))
        for epoch in range(5):
            scheduler.fill(time=float(epoch))
        assert scheduler.stats.rejected_admissions == 1

    def test_each_blocked_request_rejected_once(self):
        provider = FakeKVProvider(capacity=1)
        scheduler = InterSequenceScheduler(provider)
        scheduler.submit_all(requests(3))
        scheduler.fill()
        assert scheduler.stats.rejected_admissions == 1
        # Head completes; the next request admits, the one behind it rejects.
        scheduler.complete(scheduler.active[0])
        scheduler.fill()
        scheduler.fill()
        assert scheduler.stats.rejected_admissions == 2

    def test_all_done(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=2))
        assert scheduler.all_done
        scheduler.submit_all(requests(1))
        assert not scheduler.all_done


class TestCompletion:
    def test_complete_releases_and_readmits(self):
        provider = FakeKVProvider(capacity=2)
        scheduler = InterSequenceScheduler(provider)
        scheduler.submit_all(requests(3))
        scheduler.fill()
        first = scheduler.active[0]
        scheduler.complete(first, time=1.0)
        assert first.is_complete
        assert first.completion_time == 1.0
        assert first.sequence_id not in provider.resident
        scheduler.fill()
        assert scheduler.num_active == 2

    def test_complete_unknown_sequence_rejected(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=2))
        scheduler.submit_all(requests(1))
        orphan = Sequence(Request(request_id=99, prefill_length=4, decode_length=1))
        with pytest.raises(SchedulingError):
            scheduler.complete(orphan)

    def test_stats_track_completions(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4))
        scheduler.submit_all(requests(2))
        scheduler.fill()
        for seq in list(scheduler.active):
            scheduler.complete(seq)
        assert scheduler.stats.completed == 2
        assert scheduler.all_done


class TestEviction:
    def test_evict_most_recent(self):
        provider = FakeKVProvider(capacity=3)
        scheduler = InterSequenceScheduler(provider)
        scheduler.submit_all(requests(3))
        scheduler.fill()
        for seq in scheduler.active:
            seq.advance_tokens(4)
        victim = scheduler.evict_most_recent()
        assert victim.sequence_id == 2
        assert victim.phase is SequencePhase.EVICTED
        assert scheduler.waiting[0] is victim
        assert scheduler.stats.evictions == 1

    def test_admission_suspended_after_eviction(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=3))
        scheduler.submit_all(requests(4))
        scheduler.fill()
        for seq in scheduler.active:
            seq.advance_tokens(2)
        scheduler.evict_most_recent()
        assert scheduler.fill() == []
        # Completing a request resumes admission.
        scheduler.complete(scheduler.active[0])
        assert scheduler.fill() != []

    def test_admission_resumes_when_nothing_active(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=2))
        scheduler.submit_all(requests(2))
        scheduler.fill()
        for seq in scheduler.active:
            seq.advance_tokens(2)
        scheduler.evict_most_recent()
        scheduler.evict_most_recent()
        assert scheduler.num_active == 0
        # Nothing active -> suspension lifts so the system cannot deadlock.
        assert scheduler.fill() != []

    def test_evict_with_no_active_returns_none(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=2))
        assert scheduler.evict_most_recent() is None

    def test_eviction_resets_rejection_dedup(self):
        """Regression: an evicted-and-requeued sequence keeps its id, so a
        post-eviction capacity rejection is a new blocked stint and must be
        counted again (the once-per-request dedup used to swallow it)."""
        provider = FakeKVProvider(capacity=0)
        scheduler = InterSequenceScheduler(provider)
        (sequence,) = scheduler.submit_all(requests(1))
        scheduler.fill()
        assert scheduler.stats.rejected_admissions == 1
        # Capacity appears; the request admits and makes some progress.
        provider.capacity = 1
        scheduler.fill()
        assert scheduler.is_active(sequence)
        sequence.advance_tokens(2)
        scheduler.evict_most_recent()
        # Capacity vanishes again (e.g. a failed KV core): the re-queued
        # victim's rejection is a fresh one and must show up in the stats.
        provider.capacity = 0
        scheduler.fill()
        assert scheduler.stats.rejected_admissions == 2


class TestGrowth:
    def test_growth_without_pressure(self):
        provider = FakeKVProvider(capacity=2, token_capacity=100)
        scheduler = InterSequenceScheduler(provider)
        scheduler.submit_all(requests(2))
        scheduler.fill()
        assert scheduler.grow_sequence(scheduler.active[0], 10)

    def test_growth_evicts_most_recent_under_pressure(self):
        provider = FakeKVProvider(capacity=3, token_capacity=10)
        scheduler = InterSequenceScheduler(provider)
        scheduler.submit_all(requests(3))
        scheduler.fill()
        for seq in scheduler.active:
            assert scheduler.grow_sequence(seq, 1)
            seq.advance_tokens(1)
        first = scheduler.active[0]
        # Needs 8 more tokens; capacity 10 already holds 3 -> evictions.
        assert scheduler.grow_sequence(first, 8)
        assert scheduler.stats.evictions >= 1
        assert first in scheduler.active

    def test_growth_fails_when_alone_and_oversized(self):
        provider = FakeKVProvider(capacity=1, token_capacity=4)
        scheduler = InterSequenceScheduler(provider)
        scheduler.submit_all(requests(1))
        scheduler.fill()
        assert not scheduler.grow_sequence(scheduler.active[0], 100)

    def test_growing_tail_sequence_evicts_second_most_recent(self):
        """Regression: growing the most recently admitted (tail) sequence while
        the cache is full must evict the one admitted just before it — with the
        full eviction bookkeeping — and never the growing sequence itself."""
        provider = FakeKVProvider(capacity=3, token_capacity=10)
        scheduler = InterSequenceScheduler(provider)
        scheduler.submit_all(requests(3))
        scheduler.fill()
        for seq in scheduler.active:
            assert scheduler.grow_sequence(seq, 3)
            seq.advance_tokens(3)
        tail = scheduler.active[-1]
        middle = scheduler.active[-2]
        assert scheduler.grow_sequence(tail, 3)
        assert scheduler.is_active(tail)
        assert not scheduler.is_active(middle)
        assert middle.phase is SequencePhase.EVICTED
        assert scheduler.waiting[0] is middle
        assert middle.sequence_id not in provider.resident
        assert scheduler.stats.evictions == 1
        assert scheduler.stats.recomputed_tokens == 3
        # Admission is suspended by the eviction, exactly like evict_most_recent.
        scheduler.submit_all(requests(1))
        assert scheduler.fill() == []


class TestArrivalGating:
    def test_future_requests_not_admitted(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4))
        scheduler.submit_all(arriving_requests([0.0, 1.0, 2.0]))
        admitted = scheduler.fill(time=0.5)
        assert [seq.sequence_id for seq in admitted] == [0]
        assert scheduler.stats.rejected_admissions == 0  # blocked, not rejected

    def test_admission_follows_the_clock(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4))
        scheduler.submit_all(arriving_requests([0.0, 1.0, 2.0]))
        scheduler.fill(time=0.0)
        assert scheduler.num_active == 1
        scheduler.fill(time=1.5)
        assert scheduler.num_active == 2
        scheduler.fill(time=10.0)
        assert scheduler.num_active == 3

    def test_arrival_exactly_at_clock_admits(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4))
        scheduler.submit_all(arriving_requests([1.0]))
        assert scheduler.fill(time=1.0) != []

    def test_admitted_at_arrival_records_admission_time(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4))
        scheduler.submit_all(arriving_requests([0.0, 3.0]))
        scheduler.fill(time=3.5)
        assert scheduler.active[1].admission_time == 3.5

    def test_next_arrival_time(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4))
        assert scheduler.next_arrival_time() is None
        scheduler.submit_all(arriving_requests([2.0, 5.0]))
        assert scheduler.next_arrival_time() == 2.0
        scheduler.fill(time=2.0)
        assert scheduler.next_arrival_time() == 5.0

    def test_next_arrival_follows_fcfs_head_not_earliest_arrival(self):
        """A later-submitted request that arrives earlier still waits behind
        the FCFS head, so the head's arrival is when admission can resume."""
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4))
        scheduler.submit_all(arriving_requests([10.0, 2.0]))
        assert scheduler.next_arrival_time() == 10.0
        assert not scheduler.has_arrived_waiting(5.0)
        # Jumping to the head's arrival really unblocks admission (the
        # engine relies on this to avoid a spurious capacity-stall error).
        assert len(scheduler.fill(time=10.0)) == 2

    def test_has_arrived_waiting_distinguishes_stall_kinds(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=0))
        scheduler.submit_all(arriving_requests([1.0]))
        assert not scheduler.has_arrived_waiting(0.5)  # not yet arrived
        assert scheduler.has_arrived_waiting(1.0)  # arrived but won't fit


# ---------------------------------------------------------------------------
# Pluggable scheduling policies (fcfs / wfq / priority)
# ---------------------------------------------------------------------------


from repro.errors import ConfigurationError  # noqa: E402
from repro.workload.policies import (  # noqa: E402
    FCFSPolicy,
    PriorityAgingPolicy,
    WFQPolicy,
    make_policy,
    validate_policy_name,
)


def tenant_requests(specs, prefill: int = 8, decode: int = 4) -> list[Request]:
    """Requests from (tenant, arrival[, weight[, priority]]) tuples, in order."""
    out = []
    for i, spec in enumerate(specs):
        tenant, arrival = spec[0], spec[1]
        weight = spec[2] if len(spec) > 2 else 1.0
        priority = spec[3] if len(spec) > 3 else 0
        out.append(
            Request(
                request_id=i,
                prefill_length=prefill,
                decode_length=decode,
                arrival_time=arrival,
                tenant=tenant,
                weight=weight,
                priority=priority,
            )
        )
    return out


class TestPolicyRegistry:
    def test_known_names(self):
        assert isinstance(make_policy("fcfs"), FCFSPolicy)
        assert isinstance(make_policy("wfq"), WFQPolicy)
        assert isinstance(make_policy("priority"), PriorityAgingPolicy)
        assert validate_policy_name("WFQ") == "wfq"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheduling policy"):
            make_policy("lifo")

    def test_negative_aging_rejected(self):
        with pytest.raises(ConfigurationError, match="aging"):
            PriorityAgingPolicy(aging_rate=-1.0)


class TestFCFSPolicyParity:
    """The explicit fcfs policy is bit-for-bit the historical scheduler."""

    def test_explicit_fcfs_matches_default(self):
        default = InterSequenceScheduler(FakeKVProvider(capacity=3))
        explicit = InterSequenceScheduler(FakeKVProvider(capacity=3), policy="fcfs")
        default.submit_all(requests(5))
        explicit.submit_all(requests(5))
        assert [s.sequence_id for s in default.fill()] == [
            s.sequence_id for s in explicit.fill()
        ]
        assert default.stats.rejected_admissions == explicit.stats.rejected_admissions

    def test_fcfs_head_blocks_arrived_later_request(self):
        """The defining FCFS behaviour the tenant-aware policies relax: an
        unarrived head gates an arrived request behind it."""
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4), policy="fcfs")
        scheduler.submit_all(
            tenant_requests([("a", 10.0), ("b", 0.0)])
        )
        assert scheduler.fill(time=0.0) == []
        assert scheduler.next_arrival_time() == 10.0


class TestWFQPolicy:
    def test_work_conserving_across_tenants(self):
        """WFQ admits any arrived tenant head: an unarrived head of one
        tenant no longer head-of-line-blocks another tenant's arrived work."""
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4), policy="wfq")
        scheduler.submit_all(tenant_requests([("a", 10.0), ("b", 0.0)]))
        admitted = scheduler.fill(time=0.0)
        assert [seq.request.tenant for seq in admitted] == ["b"]
        assert scheduler.next_arrival_time() == 10.0  # a's head remains

    def test_select_never_idles_while_arrived_work_exists(self):
        """Work conservation at the policy level: whenever any waiting
        request has arrived, select() proposes one."""
        policy = WFQPolicy()
        sequences = [
            Sequence(request)
            for request in tenant_requests(
                [("a", 0.0), ("a", 5.0), ("b", 1.0), ("c", 2.0)]
            )
        ]
        for sequence in sequences:
            policy.push(sequence)
        for time in (0.0, 0.5, 1.0, 2.0, 5.0, 100.0):
            arrived = [
                s for s in policy.waiting() if s.request.arrival_time <= time
            ]
            assert (policy.select(time) is not None) == bool(arrived)

    def test_token_cost_fairness_interleaves_tenants(self):
        """A tenant of expensive requests is admitted less often: admission
        virtual time advances by total_tokens / weight."""
        cheap = [("a", 0.0)] * 5  # 12 tokens each
        policy = WFQPolicy()
        sequences = [
            Sequence(request)
            for request in tenant_requests(cheap, prefill=8, decode=4)
        ] + [
            Sequence(request)
            for request in tenant_requests(
                [("b", 0.0)] * 3, prefill=96, decode=24
            )
        ]
        # Re-id so ids are unique across the two batches (submission order).
        sequences = [
            Sequence(
                Request(
                    request_id=i,
                    prefill_length=s.request.prefill_length,
                    decode_length=s.request.decode_length,
                    tenant=s.request.tenant,
                )
            )
            for i, s in enumerate(sequences)
        ]
        for sequence in sequences:
            policy.push(sequence)
        order = []
        while len(policy):
            candidate = policy.select(0.0)
            policy.pop(candidate, 0.0)
            order.append(candidate.request.tenant)
        # a admits 12-token requests until its virtual finish catches b's
        # single 120-token admission: one b early, the rest of a, then b.
        assert order == ["a", "b", "a", "a", "a", "a", "b", "b"]

    def test_weight_scales_share(self):
        """Doubling a tenant's weight halves its virtual cost: with weight
        2.0 the expensive tenant keeps pace with the cheap one."""
        policy = WFQPolicy()
        reqs = tenant_requests(
            [("a", 0.0), ("a", 0.0), ("a", 0.0), ("b", 0.0, 10.0), ("b", 0.0, 10.0)],
            prefill=8,
            decode=4,
        )
        # b's requests cost 12 / 10 = 1.2 virtual units vs a's 12.
        for request in reqs:
            policy.push(Sequence(request))
        order = []
        while len(policy):
            candidate = policy.select(0.0)
            policy.pop(candidate, 0.0)
            order.append(candidate.request.tenant)
        assert order == ["a", "b", "b", "a", "a"]

    def test_eviction_requeues_at_front_of_own_tenant(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4), policy="wfq")
        scheduler.submit_all(
            tenant_requests([("a", 0.0), ("a", 0.0), ("b", 0.0)])
        )
        scheduler.fill(time=0.0)
        victim = scheduler.active[-1]
        for seq in scheduler.active:
            seq.advance_tokens(2)
        scheduler.evict_most_recent()
        assert victim in scheduler.waiting
        # The victim leads its own tenant's queue: once admission resumes it
        # is that tenant's next candidate.
        scheduler.complete(scheduler.active[0])
        readmitted = scheduler.fill(time=0.0)
        assert victim in readmitted

    def test_single_tenant_degenerates_to_fcfs(self):
        fcfs = InterSequenceScheduler(FakeKVProvider(capacity=3), policy="fcfs")
        wfq = InterSequenceScheduler(FakeKVProvider(capacity=3), policy="wfq")
        for scheduler in (fcfs, wfq):
            scheduler.submit_all(requests(5))
        assert [s.sequence_id for s in fcfs.fill()] == [
            s.sequence_id for s in wfq.fill()
        ]


class TestPriorityAgingPolicy:
    def test_higher_priority_admitted_first(self):
        scheduler = InterSequenceScheduler(
            FakeKVProvider(capacity=4), policy="priority"
        )
        scheduler.submit_all(
            tenant_requests([("lo", 0.0, 1.0, 0), ("hi", 0.0, 1.0, 5)])
        )
        admitted = scheduler.fill(time=0.0)
        assert [seq.request.tenant for seq in admitted] == ["hi", "lo"]

    def test_aging_bounds_starvation(self):
        """A low-priority request overtakes any higher-priority request that
        arrives more than priority_gap / aging_rate seconds after it."""
        policy = PriorityAgingPolicy(aging_rate=1.0)
        lo, hi_early, hi_late = (
            Sequence(request)
            for request in tenant_requests(
                [("lo", 0.0, 1.0, 0), ("hi", 2.0, 1.0, 5), ("hi", 6.0, 1.0, 5)]
            )
        )
        policy.push(lo)
        policy.push(hi_early)
        # hi_early arrived only 2 s after lo (< the gap of 5): it wins at any
        # time, because both age at the same rate afterwards.
        assert policy.select(10.0) is hi_early
        policy.pop(hi_early, 10.0)
        policy.push(hi_late)
        # hi_late arrived 6 s after lo (> the gap of 5): lo has aged past its
        # effective priority and is served first -- bounded starvation.
        assert policy.select(10.0) is lo

    def test_zero_aging_is_strict_priority(self):
        policy = PriorityAgingPolicy(aging_rate=0.0)
        lo, hi = (
            Sequence(request)
            for request in tenant_requests(
                [("lo", 0.0, 1.0, 0), ("hi", 1000.0, 1.0, 5)]
            )
        )
        policy.push(lo)
        policy.push(hi)
        assert policy.select(2000.0) is hi  # lo starves, however long it waits

    def test_fifo_within_tenant(self):
        policy = PriorityAgingPolicy(aging_rate=1.0)
        first, second = (
            Sequence(request)
            for request in tenant_requests([("t", 0.0, 1.0, 3), ("t", 0.0, 1.0, 3)])
        )
        policy.push(first)
        policy.push(second)
        assert policy.select(5.0) is first


class TestPolicySchedulerIntegration:
    """The scheduler invariants hold under every policy."""

    @pytest.mark.parametrize("policy", ["fcfs", "wfq", "priority"])
    def test_admission_suspension_applies(self, policy):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=3), policy=policy)
        scheduler.submit_all(requests(4))
        scheduler.fill()
        for seq in scheduler.active:
            seq.advance_tokens(2)
        scheduler.evict_most_recent()
        assert scheduler.fill() == []
        scheduler.complete(scheduler.active[0])
        assert scheduler.fill() != []

    @pytest.mark.parametrize("policy", ["fcfs", "wfq", "priority"])
    def test_max_active_cap_applies(self, policy):
        scheduler = InterSequenceScheduler(
            FakeKVProvider(capacity=10), max_active_sequences=2, policy=policy
        )
        scheduler.submit_all(requests(5))
        scheduler.fill()
        assert scheduler.num_active == 2

    @pytest.mark.parametrize("policy", ["fcfs", "wfq", "priority"])
    def test_rejection_counted_once_per_stint(self, policy):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=1), policy=policy)
        scheduler.submit_all(requests(3))
        for epoch in range(5):
            scheduler.fill(time=float(epoch))
        assert scheduler.stats.rejected_admissions == 1

    @pytest.mark.parametrize("policy", ["fcfs", "wfq", "priority"])
    def test_all_submitted_eventually_complete(self, policy):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=2), policy=policy)
        scheduler.submit_all(
            tenant_requests(
                [("a", 0.0, 1.0, 1), ("b", 0.0, 2.0, 0), ("a", 0.0, 1.0, 1),
                 ("b", 0.0, 2.0, 0), ("a", 0.0, 1.0, 1)]
            )
        )
        completed = 0
        for _ in range(20):
            scheduler.fill(time=0.0)
            for seq in scheduler.active:
                scheduler.complete(seq)
                completed += 1
            if scheduler.all_done:
                break
        assert completed == 5 and scheduler.all_done


class SelectiveKVProvider(FakeKVProvider):
    """Rejects admission of requests longer than ``max_prefill`` (a stand-in
    for 'this request does not fit the remaining KV space')."""

    def __init__(self, capacity: int, max_prefill: int) -> None:
        super().__init__(capacity)
        self.max_prefill = max_prefill

    def try_admit(self, sequence: Sequence) -> bool:
        if sequence.request.prefill_length > self.max_prefill:
            return False
        return super().try_admit(sequence)


class TestCapacityBlockedCandidates:
    """A capacity-blocked candidate must not gate other tenants under the
    tenant-aware policies (it still gates everything under FCFS)."""

    def _two_tenant_scheduler(self, policy):
        provider = SelectiveKVProvider(capacity=4, max_prefill=50)
        scheduler = InterSequenceScheduler(provider, policy=policy)
        # The batch tenant's 200-token head is submitted first and does not
        # fit; the interactive tenant's 8-token request fits fine.
        big, small = tenant_requests([("batch", 0.0), ("chat", 0.0)])
        big = Request(request_id=0, prefill_length=200, decode_length=4,
                      tenant="batch")
        scheduler.submit(big)
        scheduler.submit(small)
        return scheduler

    def test_fcfs_blocked_head_gates_everything(self):
        scheduler = self._two_tenant_scheduler("fcfs")
        assert scheduler.fill(time=0.0) == []
        assert scheduler.stats.rejected_admissions == 1

    @pytest.mark.parametrize("policy", ["wfq", "priority"])
    def test_tenant_policies_skip_blocked_head(self, policy):
        scheduler = self._two_tenant_scheduler(policy)
        admitted = scheduler.fill(time=0.0)
        assert [seq.request.tenant for seq in admitted] == ["chat"]
        # The blocked batch head is still counted rejected (once).
        assert scheduler.stats.rejected_admissions == 1
        scheduler.fill(time=0.0)
        assert scheduler.stats.rejected_admissions == 1  # same stint, no recount


class TestNextFutureArrival:
    def test_fcfs_head_gates_future_arrivals(self):
        policy = FCFSPolicy()
        for request in tenant_requests([("a", 5.0), ("a", 1.0)]):
            policy.push(Sequence(request))
        assert policy.next_future_arrival(0.0) == 5.0  # head's arrival only
        assert policy.next_future_arrival(5.0) is None  # head arrived: no gate

    def test_tenant_policies_see_future_heads_past_blocked_ones(self):
        """An arrived (possibly capacity-blocked) head does not hide another
        tenant's future arrival: the engines must still split there."""
        for policy in (WFQPolicy(), PriorityAgingPolicy()):
            for request in tenant_requests([("a", 0.0), ("b", 3.0)]):
                policy.push(Sequence(request))
            assert policy.next_future_arrival(1.0) == 3.0
            assert policy.next_future_arrival(3.0) is None

    def test_scheduler_delegates(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=4), policy="wfq")
        scheduler.submit_all(tenant_requests([("a", 0.0), ("b", 2.0)]))
        scheduler.fill(time=0.0)
        assert scheduler.next_future_arrival(0.0) == 2.0


class TestPolicyNameNormalisation:
    def test_pipeline_config_normalises_case(self):
        from repro.pipeline.engine import PipelineConfig

        config = PipelineConfig(scheduling_policy="WFQ")
        assert config.scheduling_policy == "wfq"
        assert PipelineConfig(scheduling_policy="WFQ") == PipelineConfig(
            scheduling_policy="wfq"
        )


class TestActiveRows:
    """The scheduler's array state mirrors its active list column for column."""

    @staticmethod
    def assert_rows_match(scheduler):
        fresh = InterSequenceScheduler(FakeKVProvider(capacity=0))
        fresh.rows.resync(scheduler.active)
        assert scheduler.rows.state().tolist() == fresh.rows.state().tolist()
        assert scheduler.rows.size == scheduler.num_active

    def test_rows_follow_admission_eviction_and_completion(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=3, token_capacity=40))
        scheduler.submit_all(requests(6, prefill=8, decode=4))
        scheduler.fill()
        self.assert_rows_match(scheduler)
        # Advance the sequences like an epoch would, keeping the rows in step.
        for sequence in scheduler.active:
            assert scheduler.grow_sequence(sequence, 10)
            sequence.advance_tokens(10)
        scheduler.rows.resync(scheduler.active)
        first = scheduler.active[0]
        # Growth past the token capacity evicts the most recent admission.
        assert scheduler.grow_sequence(first, 12)
        assert scheduler.stats.evictions > 0
        self.assert_rows_match(scheduler)
        first.advance_tokens(12)
        scheduler.rows.resync(scheduler.active)
        scheduler.complete(first, 1.0)
        self.assert_rows_match(scheduler)
        scheduler.fill(1.0)  # the eviction suspension lifted on completion
        self.assert_rows_match(scheduler)
        assert scheduler.rows.state()[0].tolist() == [
            sequence.remaining_prefill for sequence in scheduler.active
        ]

    def test_rows_grow_past_their_initial_capacity(self):
        scheduler = InterSequenceScheduler(FakeKVProvider(capacity=200))
        scheduler.submit_all(requests(150))
        scheduler.fill()
        assert scheduler.num_active == 150
        self.assert_rows_match(scheduler)

/**
 * @file
 * Admission-control tests: quota vetting against hard ceilings,
 * make-room shedding that only ever touches strictly-lower-priority
 * tenants, and budget enforcement that sheds lowest-priority-first
 * with ties broken youngest-first.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "service/admission.h"
#include "service/daemon.h"
#include "service/registry.h"
#include "service/tenant.h"

namespace mhp {
namespace {

ProfilerConfig
smallConfig()
{
    ProfilerConfig config;
    config.intervalLength = 100;
    config.numHashTables = 2;
    config.totalHashEntries = 64;
    return config;
}

TenantQuota
quotaAt(uint32_t priority)
{
    TenantQuota quota;
    quota.priority = priority;
    quota.maxQueueEvents = 4096;
    return quota;
}

TenantSession *
admit(TenantRegistry &registry, const std::string &name,
      uint32_t priority)
{
    StatusOr<TenantSession *> created = registry.create(
        name, ProfileKind::Value, smallConfig(), quotaAt(priority));
    EXPECT_TRUE(created.isOk()) << created.status().toString();
    return *created;
}

TEST(TenantRegistry, ValidatesNamesAsFilenames)
{
    EXPECT_TRUE(checkTenantName("Tenant-7_x").isOk());
    EXPECT_FALSE(checkTenantName("").isOk());
    EXPECT_FALSE(checkTenantName("../escape").isOk());
    EXPECT_FALSE(checkTenantName("a/b").isOk());
    EXPECT_FALSE(checkTenantName("sp ace").isOk());
    EXPECT_FALSE(checkTenantName(std::string(65, 'a')).isOk());
    EXPECT_TRUE(checkTenantName(std::string(64, 'a')).isOk());
}

TEST(TenantRegistry, RefusesDuplicateNames)
{
    TenantRegistry registry;
    ASSERT_NE(admit(registry, "dup", 1), nullptr);
    const StatusOr<TenantSession *> again = registry.create(
        "dup", ProfileKind::Value, smallConfig(), quotaAt(1));
    EXPECT_EQ(again.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(AdmissionControl, VetEnforcesCeilings)
{
    AdmissionLimits limits;
    limits.maxQueueEvents = 1000;
    limits.maxIntervalsCeiling = 50;
    const AdmissionController controller(limits);

    // With an interval ceiling set, a tenant must declare a finite
    // interval quota at or below it.
    TenantQuota modest = quotaAt(0);
    modest.maxQueueEvents = 500;
    modest.maxIntervals = 50;
    EXPECT_TRUE(controller.vet(smallConfig(), modest).isOk());

    // With an interval ceiling set, "unlimited" is not an option.
    TenantQuota unbounded = modest;
    unbounded.maxIntervals = 0;
    EXPECT_EQ(controller.vet(smallConfig(), unbounded).code(),
              StatusCode::InvalidArgument);

    TenantQuota greedy = quotaAt(0);
    greedy.maxQueueEvents = 1001;
    EXPECT_EQ(controller.vet(smallConfig(), greedy).code(),
              StatusCode::InvalidArgument);

    TenantQuota everlasting = modest;
    everlasting.maxIntervals = 51;
    EXPECT_EQ(controller.vet(smallConfig(), everlasting).code(),
              StatusCode::InvalidArgument);

    ProfilerConfig broken = smallConfig();
    broken.intervalLength = 0;
    EXPECT_FALSE(controller.vet(broken, quotaAt(0)).isOk());
}

TEST(AdmissionControl, VetRefusesConfigsThatCannotProfile)
{
    const AdmissionController controller{AdmissionLimits{}};

    // 3000 entries over two tables is not a power of two per table:
    // building the tenant's profiler would abort the daemon.
    ProfilerConfig unbuildable = smallConfig();
    unbuildable.totalHashEntries = 3000;
    EXPECT_EQ(controller.vet(unbuildable, quotaAt(0)).code(),
              StatusCode::InvalidArgument);

    // 8-bit counters saturate at 255, below the 1M/1% threshold
    // count of 10000: the profile would be silently empty.
    ProfilerConfig narrow;
    narrow.counterBits = 8;
    narrow.intervalLength = 1'000'000;
    narrow.candidateThreshold = 0.01;
    EXPECT_EQ(controller.vet(narrow, quotaAt(0)).code(),
              StatusCode::InvalidArgument);

    // At 10K/1% the threshold count is 100: the same counters fit.
    narrow.intervalLength = 10'000;
    EXPECT_TRUE(controller.vet(narrow, quotaAt(0)).isOk());
}

TEST(AdmissionControl, UnbuildableHelloIsRefusedAndServiceKeepsServing)
{
    ServiceCore core{ServiceOptions{}};
    WireTenantHello hello;
    hello.kind = static_cast<uint8_t>(ProfileKind::Value);
    hello.config = smallConfig();
    hello.quota = quotaAt(1);

    hello.tenant = "good";
    const StatusOr<WireHelloAck> good = core.connectTenant(hello);
    ASSERT_TRUE(good.isOk()) << good.status().toString();

    hello.tenant = "bad";
    hello.config.totalHashEntries = 3000;
    const StatusOr<WireHelloAck> bad = core.connectTenant(hello);
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument)
        << bad.status().toString();
    EXPECT_EQ(core.registry().byName("bad"), nullptr);

    // The admitted tenant keeps streaming.
    const std::vector<Tuple> batch(500, Tuple{1, 2});
    const StatusOr<WireEventsAck> ack = core.ingest(
        good->tenantId, 1, TupleSpan(batch.data(), batch.size()), 0);
    ASSERT_TRUE(ack.isOk()) << ack.status().toString();
    EXPECT_EQ(ack->accepted, batch.size());
}

TEST(AdmissionControl, OversizedAccumulatorHelloIsRefusedBeforeTheProbe)
{
    // A 1e-9 threshold derives a 10^9-entry accumulator: building it
    // for the footprint probe used to throw std::bad_alloc and take
    // the daemon and every tenant down. Now the Hello is refused and
    // the admitted tenant keeps streaming.
    ServiceCore core{ServiceOptions{}};
    WireTenantHello hello;
    hello.kind = static_cast<uint8_t>(ProfileKind::Value);
    hello.config = smallConfig();
    hello.quota = quotaAt(1);

    hello.tenant = "good";
    const StatusOr<WireHelloAck> good = core.connectTenant(hello);
    ASSERT_TRUE(good.isOk()) << good.status().toString();

    hello.tenant = "huge";
    hello.config.candidateThreshold = 0.000000001;
    const StatusOr<WireHelloAck> huge = core.connectTenant(hello);
    EXPECT_EQ(huge.status().code(), StatusCode::InvalidArgument)
        << huge.status().toString();
    EXPECT_NE(huge.status().message().find("accumulator"),
              std::string::npos)
        << huge.status().toString();
    EXPECT_EQ(core.registry().byName("huge"), nullptr);

    const std::vector<Tuple> batch(500, Tuple{1, 2});
    const StatusOr<WireEventsAck> ack = core.ingest(
        good->tenantId, 1, TupleSpan(batch.data(), batch.size()), 0);
    ASSERT_TRUE(ack.isOk()) << ack.status().toString();
    EXPECT_EQ(ack->accepted, batch.size());
}

TEST(AdmissionControl, MakeRoomShedsLowestPriorityYoungestFirst)
{
    TenantRegistry registry;
    admit(registry, "a", 5); // id 0
    admit(registry, "b", 1); // id 1
    admit(registry, "c", 3); // id 2
    admit(registry, "d", 1); // id 3

    AdmissionLimits limits;
    limits.maxTenants = 4; // full house: admission must make room
    AdmissionController controller(limits);

    StatusOr<std::vector<uint64_t>> shed =
        controller.makeRoom(registry, 0, 10);
    ASSERT_TRUE(shed.isOk());
    // One seat is enough; the victim is the lowest priority (1) and,
    // within that tie, the youngest (id 3, not id 1).
    EXPECT_EQ(*shed, (std::vector<uint64_t>{3}));
    EXPECT_EQ(registry.byId(3)->state(), TenantState::Shed);
    EXPECT_EQ(registry.byId(1)->state(), TenantState::Active);
    EXPECT_EQ(registry.activeCount(), 3u);
}

TEST(AdmissionControl, MakeRoomNeverTouchesEqualOrHigherPriority)
{
    TenantRegistry registry;
    admit(registry, "a", 5);
    admit(registry, "b", 5);

    AdmissionLimits limits;
    limits.maxTenants = 2;
    AdmissionController controller(limits);

    // An equal-priority newcomer cannot evict its peers: refused,
    // and nobody was shed along the way.
    const StatusOr<std::vector<uint64_t>> shed =
        controller.makeRoom(registry, 0, 5);
    EXPECT_EQ(shed.status().code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(registry.activeCount(), 2u);

    // A higher-priority newcomer may.
    const StatusOr<std::vector<uint64_t>> forced =
        controller.makeRoom(registry, 0, 6);
    ASSERT_TRUE(forced.isOk());
    EXPECT_EQ(forced->size(), 1u);
    EXPECT_EQ(registry.activeCount(), 1u);
}

TEST(AdmissionControl, EnforceBudgetShedsUntilLiveMemoryFits)
{
    TenantRegistry registry;
    TenantSession *keep = admit(registry, "keep", 9);
    TenantSession *mid = admit(registry, "mid", 5);
    TenantSession *low = admit(registry, "low", 1);

    // Inflate every queue identically so memory per tenant is equal.
    std::vector<Tuple> burst(2000, Tuple{1, 2});
    for (TenantSession *tenant : {keep, mid, low})
        tenant->offer(TupleSpan(burst.data(), burst.size()), 0);
    const uint64_t each = keep->memoryBytes();
    ASSERT_GT(each, 0u);

    // Budget for two tenants: exactly one must go, lowest first.
    AdmissionLimits limits;
    limits.globalMemoryBudget = 2 * each;
    AdmissionController controller(limits);
    EXPECT_EQ(controller.enforceBudget(registry),
              (std::vector<uint64_t>{low->id()}));
    EXPECT_EQ(low->state(), TenantState::Shed);
    EXPECT_NE(low->stateReason().find("memory"), std::string::npos);
    EXPECT_EQ(registry.totalMemoryBytes(), 2 * each);

    // Budget for none: everyone goes, in priority order.
    AdmissionLimits harsh;
    harsh.globalMemoryBudget = 1;
    AdmissionController reaper(harsh);
    EXPECT_EQ(reaper.enforceBudget(registry),
              (std::vector<uint64_t>{mid->id(), keep->id()}));
    EXPECT_EQ(registry.totalMemoryBytes(), 0u);
    EXPECT_EQ(registry.activeCount(), 0u);
}

} // namespace
} // namespace mhp

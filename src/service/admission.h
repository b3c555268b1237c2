/**
 * @file
 * Admission control and load shedding for the profiling service.
 *
 * The daemon serves many tenants from one global memory budget. Two
 * mechanisms keep it inside that budget (docs/SERVICE.md):
 *
 *  - *admission*: a new tenant's requested quotas are vetted against
 *    hard ceilings, and room is made for its profiler by shedding
 *    strictly-lower-priority tenants — or the request is refused with
 *    ResourceExhausted, never queued;
 *  - *pressure shedding*: after every ingest tick, if live memory
 *    exceeds the budget, whole tenants are shed lowest-priority
 *    first (ties broken youngest-first, so long-running tenants
 *    survive their newer equals) until the budget holds again.
 *
 * Shedding is deliberately whole-tenant: surviving tenants' profiles
 * stay bit-identical to an unloaded run, because pressure never
 * touches their event streams — a degraded service returns fewer
 * profiles, not subtly wrong ones.
 */

#ifndef MHP_SERVICE_ADMISSION_H
#define MHP_SERVICE_ADMISSION_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/registry.h"
#include "support/status.h"

namespace mhp {

/** Global ceilings the daemon enforces across all tenants. */
struct AdmissionLimits
{
    /** Maximum concurrently Active tenants. */
    uint64_t maxTenants = 64;

    /** Global live-memory budget across all Active tenants. */
    uint64_t globalMemoryBudget = 256ull << 20;

    /** Hard ceiling on any tenant's requested queue bound. */
    uint64_t maxQueueEvents = 1ull << 20;

    /** Hard ceiling on any tenant's interval quota (0 = none). */
    uint64_t maxIntervalsCeiling = 0;

    /** Consecutive ingest failures before a tenant is quarantined. */
    unsigned poisonStrikes = 3;
};

/** Vets admissions and sheds tenants under global pressure. */
class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionLimits &limits)
        : ceilings(limits)
    {
    }

    /**
     * Validate a tenant's requested config (ProfilerConfig::
     * checkAtEdge(): one that cannot build or cannot promote is
     * refused here, before it can reach a profiler) and quotas
     * against the ceilings; InvalidArgument names the offending knob
     * and the cap.
     */
    Status vet(const ProfilerConfig &config,
               const TenantQuota &quota) const;

    /**
     * Make room to admit a tenant needing `bytes` at `priority`:
     * sheds strictly-lower-priority Active tenants (lowest priority
     * first, youngest first within a priority) until both the memory
     * budget and the tenant-count ceiling hold. ResourceExhausted
     * when room cannot be made without touching an equal-or-higher
     * priority tenant.
     *
     * @return Ids of the tenants shed to make room.
     */
    StatusOr<std::vector<uint64_t>>
    makeRoom(TenantRegistry &registry, uint64_t bytes,
             uint32_t priority);

    /**
     * Enforce the global budget after ingest growth: shed lowest-
     * priority Active tenants until total live memory fits. Never
     * fails; an empty result means no pressure.
     */
    std::vector<uint64_t> enforceBudget(TenantRegistry &registry);

    const AdmissionLimits &limits() const { return ceilings; }

  private:
    /** The next shedding victim below `maxPriority`, or null. */
    static TenantSession *victimBelow(TenantRegistry &registry,
                                      uint64_t maxPriority);

    AdmissionLimits ceilings;
};

} // namespace mhp

#endif // MHP_SERVICE_ADMISSION_H

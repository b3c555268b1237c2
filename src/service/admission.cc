#include "service/admission.h"

#include <cstdio>

namespace mhp {
namespace {

std::string
shedReason(const char *cause, uint64_t used, uint64_t budget)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "shed by admission control (%s: %llu of %llu "
                  "budget bytes in use)",
                  cause, static_cast<unsigned long long>(used),
                  static_cast<unsigned long long>(budget));
    return buf;
}

} // namespace

Status
AdmissionController::vet(const ProfilerConfig &config,
                         const TenantQuota &quota) const
{
    MHP_RETURN_IF_ERROR(config.checkAtEdge());
    if (quota.maxQueueEvents == 0)
        return Status::invalidArgument(
            "maxQueueEvents must be positive (the queue is the "
            "backpressure bound)");
    if (quota.maxQueueEvents > ceilings.maxQueueEvents) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "requested queue bound %llu exceeds this "
                      "daemon's %llu-event ceiling",
                      static_cast<unsigned long long>(
                          quota.maxQueueEvents),
                      static_cast<unsigned long long>(
                          ceilings.maxQueueEvents));
        return Status::invalidArgument(buf);
    }
    if (ceilings.maxIntervalsCeiling != 0 &&
        (quota.maxIntervals == 0 ||
         quota.maxIntervals > ceilings.maxIntervalsCeiling)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "interval quota %llu exceeds this daemon's "
                      "%llu-interval ceiling",
                      static_cast<unsigned long long>(
                          quota.maxIntervals),
                      static_cast<unsigned long long>(
                          ceilings.maxIntervalsCeiling));
        return Status::invalidArgument(buf);
    }
    return Status::ok();
}

TenantSession *
AdmissionController::victimBelow(TenantRegistry &registry,
                                 uint64_t maxPriority)
{
    TenantSession *victim = nullptr;
    for (TenantSession *session : registry.active()) {
        if (session->quota().priority >= maxPriority)
            continue;
        if (victim == nullptr ||
            session->quota().priority < victim->quota().priority ||
            (session->quota().priority == victim->quota().priority &&
             session->id() > victim->id()))
            victim = session;
    }
    return victim;
}

StatusOr<std::vector<uint64_t>>
AdmissionController::makeRoom(TenantRegistry &registry, uint64_t bytes,
                              uint32_t priority)
{
    std::vector<uint64_t> shedIds;

    while (registry.activeCount() >= ceilings.maxTenants ||
           registry.totalMemoryBytes() + bytes >
               ceilings.globalMemoryBudget) {
        TenantSession *victim = victimBelow(registry, priority);
        if (victim == nullptr) {
            char buf[192];
            std::snprintf(
                buf, sizeof(buf),
                "no room at priority %u: %llu of %llu budget bytes "
                "in use by %llu tenants of equal or higher priority",
                priority,
                static_cast<unsigned long long>(
                    registry.totalMemoryBytes()),
                static_cast<unsigned long long>(
                    ceilings.globalMemoryBudget),
                static_cast<unsigned long long>(
                    registry.activeCount()));
            return Status::resourceExhausted(buf);
        }
        victim->shed(shedReason("admitting a higher-priority tenant",
                                registry.totalMemoryBytes() + bytes,
                                ceilings.globalMemoryBudget));
        shedIds.push_back(victim->id());
    }
    return shedIds;
}

std::vector<uint64_t>
AdmissionController::enforceBudget(TenantRegistry &registry)
{
    std::vector<uint64_t> shedIds;
    while (registry.totalMemoryBytes() > ceilings.globalMemoryBudget) {
        TenantSession *victim =
            victimBelow(registry, UINT64_MAX);
        if (victim == nullptr)
            break;
        victim->shed(shedReason("global memory pressure",
                                registry.totalMemoryBytes(),
                                ceilings.globalMemoryBudget));
        shedIds.push_back(victim->id());
    }
    return shedIds;
}

} // namespace mhp

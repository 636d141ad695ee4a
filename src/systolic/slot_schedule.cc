#include "systolic/slot_schedule.h"

#include "common/logging.h"

namespace deepstore::systolic {

Cycles
SlotSchedule::computeCyclesPerFeature() const
{
    Cycles total = 0;
    for (const auto &b : bursts)
        total += b.computeCycles;
    return total;
}

SlotSchedule
slotSchedule(const ModelRun &run, std::int64_t features_per_slot)
{
    DS_ASSERT(features_per_slot >= 1);
    SlotSchedule sched;
    sched.featuresPerSlot = features_per_slot;
    sched.bursts.reserve(run.layers.size());
    for (const auto &layer : run.layers) {
        SlotBurst b;
        b.computeCycles = layer.totalCycles;
        b.dramReadBytes = layer.dramReadBytes;
        sched.bursts.push_back(b);
    }
    return sched;
}

} // namespace deepstore::systolic

/**
 * @file
 * Per-lockstep-slot schedule exported by the systolic timing model.
 *
 * The event-driven scan datapath does not consume a scalar
 * cycles-per-feature quotient: it replays the model layer by layer,
 * each layer a compute burst on the accelerator's array plus the DRAM
 * traffic (weights/ifmaps) that SCALE-Sim-style dataflow accounting
 * attributes to it. A SlotSchedule is that lowering — one SlotBurst
 * per layer, already amortized over the lockstep slot (the
 * weight-stationary group of features that share one weight
 * residency window).
 *
 * The analytic model (query_model.cc) keeps using the scalar
 * quotients; the live scheduler consumes this schedule, and the
 * parity tests pin the two against each other.
 */

#ifndef DEEPSTORE_SYSTOLIC_SLOT_SCHEDULE_H
#define DEEPSTORE_SYSTOLIC_SLOT_SCHEDULE_H

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "systolic/layer_run.h"

namespace deepstore::systolic {

/** One layer's share of a lockstep slot: an array-busy burst and the
 *  off-chip traffic that feeds it. */
struct SlotBurst
{
    Cycles computeCycles = 0;        ///< array occupancy, per feature
    std::uint64_t dramReadBytes = 0; ///< DRAM reads, per feature
};

/** The full per-slot schedule of one model on one placement. */
struct SlotSchedule
{
    /** Features sharing one weight residency window (wsGroupSize for
     *  weight-stationary placements, 1 otherwise). */
    std::int64_t featuresPerSlot = 1;

    /** One burst per layer, in execution order. */
    std::vector<SlotBurst> bursts;

    /** Scalar fold-back (cross-check against the analytic model). */
    Cycles computeCyclesPerFeature() const;
};

/**
 * Lower a ModelRun into a SlotSchedule. The ModelRun's per-layer
 * records are already amortized per feature (runModelWithSource
 * divides by the WS group size), so this is a straight projection of
 * (totalCycles, dramReadBytes) per layer.
 */
SlotSchedule slotSchedule(const ModelRun &run,
                          std::int64_t features_per_slot);

} // namespace deepstore::systolic

#endif // DEEPSTORE_SYSTOLIC_SLOT_SCHEDULE_H

/**
 * @file
 * Steady-state performance and energy model of a DeepStore query scan
 * at each accelerator placement level.
 *
 * A query that misses the Query Cache scans the whole feature
 * database: every accelerator streams its stripe of feature vectors
 * out of flash (through the FLASH_DFV queue) and runs the SCN per
 * feature. In steady state the per-feature cost at one accelerator is
 * the maximum of three supply rates:
 *
 *   compute      - SCN execution on the systolic array (SCALE-Sim
 *                  model, batch-1 per §4.5);
 *   flash        - DFV delivery through the accelerator's slice of
 *                  the flash hierarchy (plane rate vs bus rate);
 *   weight flow  - re-streaming the portion of the model weights
 *                  that does not stay resident: from SSD DRAM for the
 *                  SSD-level accelerator, from DRAM broadcast through
 *                  the shared L2 for channel-level accelerators
 *                  (32x reuse, §4.5), and over the channel bus in
 *                  lockstep for chip-level accelerators.
 *
 * The whole-SSD throughput divides by the accelerator count. The test
 * suite cross-checks the flash leg against the event-driven SSD
 * simulator.
 */

#ifndef DEEPSTORE_CORE_QUERY_MODEL_H
#define DEEPSTORE_CORE_QUERY_MODEL_H

#include <vector>

#include "core/placement.h"
#include "energy/energy_model.h"
#include "ssd/flash_params.h"
#include "systolic/layer_run.h"
#include "systolic/slot_schedule.h"
#include "workloads/apps.h"

namespace deepstore::core {

/** Performance/energy of one (level, application) pair. */
struct LevelPerf
{
    Placement placement;

    /** False when the level cannot execute the model (the chip-level
     *  accelerator lacks the on-chip memory for conv/im2col models
     *  such as ReId, §6.2). */
    bool supported = true;

    // Per-accelerator, per-feature service times (seconds).
    double computeSeconds = 0.0;
    double flashSeconds = 0.0;
    double weightStreamSeconds = 0.0;
    double perAccelSeconds = 0.0; ///< max of the three

    /** Whole-SSD per-feature time (perAccel / accelerator count). */
    double aggregateSeconds = 0.0;

    /** Per-feature energy across the system. */
    energy::EnergyBreakdown energyPerFeature;

    /** Power of the full accelerator complex while scanning. */
    double activePowerW = 0.0;

    /** Per-feature systolic traffic of one accelerator. */
    systolic::ModelRun modelRun;

    /** Per-lockstep-slot schedule of the model on this placement:
     *  per-layer compute bursts + DRAM traffic, the form the
     *  event-driven datapath consumes. */
    systolic::SlotSchedule slots;

    /** Non-resident weight bytes re-streamed from SSD DRAM per
     *  lockstep slot (0 = fully resident). */
    std::uint64_t excessWeightBytesPerSlot = 0;

    /** True when one DRAM weight stream is broadcast to every
     *  accelerator at this level (SSD single unit, channel shared
     *  L2, chip WS lockstep); false when each accelerator pulls a
     *  private copy. */
    bool weightBroadcast = false;
};

/**
 * Per-feature compute bursts (one per model layer) of `perf`'s model
 * run lowered onto the placement's array clock: the compute leg every
 * live scan submission (QuerySubmission::layerBurstTicksPerFeature)
 * replays on its unit's ComputeArbiter.
 */
std::vector<Tick> layerBurstTicks(const LevelPerf &perf);

/** Power drawn by the existing SSD hardware (controller, DRAM, flash
 *  standby) while a scan runs: ~20 W at peak operation (§4.5). It is
 *  charged to every in-storage configuration's active power. */
constexpr double kSsdBasePowerW = 20.0;

/** Analytic DeepStore model over a given SSD geometry. */
class DeepStoreModel
{
  public:
    explicit DeepStoreModel(ssd::FlashParams flash,
                            energy::EnergyParams eparams = {});

    const ssd::FlashParams &flash() const { return flash_; }

    /** Evaluate a placement level on an application's SCN. */
    LevelPerf evaluate(Level level,
                       const workloads::AppInfo &app) const;

    /** Same, for an explicitly provided model (QCN evaluation). */
    LevelPerf evaluateModel(Level level, const nn::Model &model,
                            std::uint64_t feature_bytes) const;

    /**
     * Evaluate an explicit placement (possibly a non-Table-3
     * candidate — the DSE and ablation paths use this).
     */
    LevelPerf evaluatePlacement(Placement placement,
                                const nn::Model &model,
                                std::uint64_t feature_bytes) const;

    /** Wall time for a full scan of `features` database entries. */
    double scanSeconds(Level level, const workloads::AppInfo &app,
                       std::uint64_t features) const;

  private:
    ssd::FlashParams flash_;
    energy::EnergyParams eparams_;
};

/**
 * Analytic steady-state latency of one query scattered across an
 * array (the closed-form mirror of ArrayCoordinator's event path,
 * used by the array parity tests).
 *
 * Sub-query 0 is the home node (no scatter leg, no merge leg); each
 * later sub-query's descriptor queues FCFS on the host fabric before
 * its node can start, and every remote node ships `merge_bytes` of
 * candidates back after its scan:
 *
 *   start_i = i * scatter_bytes / fabric_bw        (i = remote rank)
 *   total   = max_i(start_i + scan_i)
 *           + n_remote * merge_bytes / fabric_bw
 *
 * `node_scan_seconds[i]` is node i's analytic scan time over its own
 * shard (scanSeconds on that node's geometry); heterogeneous arrays
 * pass per-node values.
 */
double arrayQuerySeconds(const std::vector<double> &node_scan_seconds,
                         std::uint64_t scatter_bytes,
                         std::uint64_t merge_bytes,
                         double fabric_bandwidth);

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_QUERY_MODEL_H

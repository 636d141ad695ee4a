#include "core/query_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/clock.h"
#include "ssd/throughput.h"
#include "systolic/systolic_sim.h"

namespace deepstore::core {

DeepStoreModel::DeepStoreModel(ssd::FlashParams flash,
                               energy::EnergyParams eparams)
    : flash_(flash), eparams_(eparams)
{
    flash_.validate();
}

LevelPerf
DeepStoreModel::evaluate(Level level,
                         const workloads::AppInfo &app) const
{
    return evaluateModel(level, app.scn, app.featureBytes());
}

LevelPerf
DeepStoreModel::evaluateModel(Level level, const nn::Model &model,
                              std::uint64_t feature_bytes) const
{
    return evaluatePlacement(makePlacement(level, flash_), model,
                             feature_bytes);
}

LevelPerf
DeepStoreModel::evaluatePlacement(Placement placement,
                                  const nn::Model &model,
                                  std::uint64_t feature_bytes) const
{
    Level level = placement.level;
    LevelPerf perf;
    perf.placement = std::move(placement);
    const Placement &pl = perf.placement;

    // The chip-level accelerator cannot buffer im2col working sets
    // for convolutional models within its 512 KB scratchpad (§6.2:
    // it "can not execute ReId due to limited compute and on-chip
    // memory resources").
    if (level == Level::ChipLevel &&
        model.countLayers(nn::LayerKind::Conv2D) > 0) {
        perf.supported = false;
        return perf;
    }

    const std::uint64_t weight_bytes = model.totalWeightBytes();
    const bool weights_resident =
        weight_bytes <= pl.residentWeightBytes;
    const std::uint64_t excess_bytes =
        weights_resident ? 0 : weight_bytes - pl.residentWeightBytes;

    // Chip-level lockstep scheduling: when the weights stay pinned in
    // the chip scratchpad the controller double-buffers features
    // (group of 2); when weight tiles must stream through, every
    // feature walks the full fold sequence individually (§4.5).
    if (level == Level::ChipLevel && !weights_resident)
        perf.placement.wsGroupSize = 1;

    // ---- compute leg --------------------------------------------
    // Traffic/cycles of one inference. Weight streaming is accounted
    // separately below (the resident portion reads from scratchpad or
    // the shared L2), so the systolic model runs with on-chip
    // weights; the L2-vs-private split only affects energy, which the
    // channel configuration's sharedL2Bytes routes correctly.
    systolic::SystolicSim sim(pl.array);
    // Channel-level accelerators read weights through the shared
    // SSD-level scratchpad (their L2); the other levels stream from
    // their private scratchpads. The non-resident remainder's DRAM
    // traffic and supply time are added explicitly below.
    systolic::WeightSource source =
        level == Level::ChannelLevel
            ? systolic::WeightSource::SharedL2
            : systolic::WeightSource::Scratchpad;
    perf.modelRun =
        sim.runModelWithSource(model, source, pl.wsGroupSize);
    perf.computeSeconds =
        static_cast<double>(perf.modelRun.totalCycles()) /
        pl.array.frequencyHz;
    // Event-native exports: the per-slot schedule the live datapath
    // replays, plus the weight-stream shape (how much re-streams per
    // lockstep slot and whether one DRAM stream is broadcast).
    perf.slots = systolic::slotSchedule(
        perf.modelRun, perf.placement.wsGroupSize);
    perf.excessWeightBytesPerSlot = excess_bytes;
    switch (level) {
      case Level::SsdLevel:
        perf.weightBroadcast = true; // single consumer
        break;
      case Level::ChannelLevel:
        perf.weightBroadcast = pl.array.sharedL2Bytes > 0;
        break;
      case Level::ChipLevel:
        perf.weightBroadcast =
            pl.array.dataflow ==
            systolic::Dataflow::WeightStationary;
        break;
    }

    // ---- flash + weight legs ------------------------------------
    ssd::FeatureLayout layout{feature_bytes, flash_.pageBytes};
    switch (level) {
      case Level::SsdLevel: {
        // One consumer fed by the full internal flash bandwidth.
        perf.flashSeconds =
            1.0 / ssd::ssdInternalFeatureRate(flash_, feature_bytes);
        // Non-resident weights stream from DRAM once per feature
        // (fully pipelined with compute, §4.5).
        perf.weightStreamSeconds =
            static_cast<double>(excess_bytes) / flash_.dramBandwidth;
        break;
      }
      case Level::ChannelLevel: {
        perf.flashSeconds =
            1.0 / ssd::channelFeatureRate(flash_, feature_bytes);
        if (pl.array.sharedL2Bytes > 0) {
            // Non-resident weights broadcast from DRAM into the
            // shared L2; one stream serves every channel accelerator
            // in the same feature wave (32x reuse, §4.5).
            perf.weightStreamSeconds =
                static_cast<double>(excess_bytes) /
                flash_.dramBandwidth;
        } else {
            // No shared scratchpad: each accelerator pulls its own
            // weight copy through its DRAM bandwidth share.
            perf.weightStreamSeconds =
                static_cast<double>(excess_bytes) /
                (flash_.dramBandwidth /
                 static_cast<double>(pl.numAccelerators));
        }
        break;
      }
      case Level::ChipLevel: {
        // Each chip streams its own features, but the channel bus is
        // shared by the channel's chips *and* the lockstep weight
        // broadcast (the chip accelerator cannot master the bus,
        // §4.5).
        // The chip-level accelerator sits at the flash chip (Fig. 3)
        // and consumes pages straight from the chip's page buffers.
        // Its minimal controller re-reads a page per lockstep slot
        // (wsGroupSize features) rather than caching pages across
        // slots — which is why the paper's Fig. 12 shows chip-level
        // energy dominated by flash accesses.
        //
        // A lockstep slot of wsGroupSize features spans
        // ceil(wsGroupSize / featuresPerPage) pages, and every page
        // a slot touches costs one array read: when a page holds the
        // whole group the slot shares a single page-buffer read
        // (1/group per feature), but when featuresPerPage <
        // wsGroupSize the group straddles pages and the physical
        // floor is one plane read per page — the same charge the
        // live event-driven path makes (the old 1/group closed form
        // undercounted exactly this case; the parity test now pins
        // the chip level to the same 2% band as SSD/channel).
        double group = static_cast<double>(pl.wsGroupSize);
        double plane_rate = static_cast<double>(flash_.planesPerChip) /
                            flash_.readLatency;
        double dfv_pages_per_feature =
            feature_bytes <= flash_.pageBytes
                ? std::ceil(group / static_cast<double>(
                                        layout.featuresPerPage())) /
                      group
                : static_cast<double>(layout.pagesPerFeature());
        perf.flashSeconds = dfv_pages_per_feature / plane_rate;
        // Non-resident weights broadcast from SSD DRAM, scheduled in
        // lockstep by the channel-side controller (§4.5): one stream
        // serves every chip accelerator working on the same weight
        // tile, so a group of numAccelerators x wsGroupSize features
        // shares one pass over the excess weights. The lockstep
        // broadcast is a weight-stationary property — with any other
        // dataflow each chip must pull its own weight stream through
        // its share of the DRAM bandwidth (the dataflow ablation
        // exercises this).
        if (pl.array.dataflow ==
            systolic::Dataflow::WeightStationary) {
            perf.weightStreamSeconds =
                static_cast<double>(excess_bytes) /
                flash_.dramBandwidth / group;
        } else {
            perf.weightStreamSeconds =
                static_cast<double>(excess_bytes) /
                (flash_.dramBandwidth /
                 static_cast<double>(pl.numAccelerators));
        }
        break;
      }
    }

    // FLASH_DFV queue refill exposure (§4.4): the bounded prefetch
    // queue refills in bursts; each burst of `depth` pages exposes
    // one flash array-read latency that overlap cannot hide. This is
    // what makes Fig. 9's slow-flash points cost a few percent.
    //
    // The live DfvStream staggers a burst's page issues at the
    // steady-state page interval of its datapath (resolveScanPlan),
    // so the burst's last page completes at
    //   readLatency + transferTime + (k-1)*interval
    // while consuming the burst at steady cadence takes k*interval:
    // the exposed stall is readLatency + transferTime - interval.
    // For the bus-limited SSD/channel paths transferTime equals the
    // interval and the whole array read is exposed (the old full
    // readLatency charge was exact for them); the chip path consumes
    // straight from the page buffers (no bus transfer), so the
    // stagger hides one plane interval. Charging the chip level the
    // full readLatency is what held its parity band at 30% — the
    // exposure term is half of the chip's per-feature time.
    double pages_per_feature_supply =
        feature_bytes <= flash_.pageBytes
            ? 1.0 / static_cast<double>(layout.featuresPerPage())
            : static_cast<double>(layout.pagesPerFeature());
    double page_interval;
    double transfer_seconds;
    if (level == Level::ChipLevel) {
        page_interval = flash_.readLatency /
                        static_cast<double>(flash_.planesPerChip);
        transfer_seconds = 0.0;
    } else {
        page_interval = 1.0 / ssd::channelPageRate(
                                  flash_, layout.transferBytesPerPage());
        transfer_seconds =
            static_cast<double>(layout.transferBytesPerPage()) /
            flash_.channelBandwidth;
    }
    double exposed_per_burst = std::max(
        0.0, flash_.readLatency + transfer_seconds - page_interval);
    // The exposure is a property of the *flash* leg: it charges only
    // when flash supply is the bottleneck. When compute or the
    // weight stream dominates, the live datapath's bounded feature
    // FIFO keeps the FLASH_DFV a full burst ahead of the array, so
    // refills hide behind the slower leg and the burst cadence never
    // surfaces — hence flash-plus-exposure competes inside the max
    // rather than being added after it.
    double flash_with_refill =
        perf.flashSeconds +
        exposed_per_burst * pages_per_feature_supply /
            static_cast<double>(pl.dfvQueueDepthPages);
    perf.perAccelSeconds =
        std::max({perf.computeSeconds, flash_with_refill,
                  perf.weightStreamSeconds});

    perf.aggregateSeconds =
        perf.perAccelSeconds /
        static_cast<double>(pl.numAccelerators);

    // ---- energy --------------------------------------------------
    energy::AcceleratorEnergyModel emodel(eparams_, pl.array,
                                          pl.sramModel);
    // Flash array reads per feature (fractional for packed layouts).
    double pages_per_feature =
        feature_bytes <= flash_.pageBytes
            ? 1.0 / static_cast<double>(layout.featuresPerPage())
            : static_cast<double>(layout.pagesPerFeature());
    if (level == Level::ChipLevel &&
        feature_bytes <= flash_.pageBytes) {
        // Per-slot page re-reads (no page caching, see above): a
        // slot of wsGroupSize features re-reads every page it spans.
        double group = static_cast<double>(pl.wsGroupSize);
        pages_per_feature =
            std::ceil(group / static_cast<double>(
                                  layout.featuresPerPage())) /
            group;
    }
    systolic::LayerRun traffic = perf.modelRun.total;
    // Per-feature share of the non-resident weight DRAM stream.
    double excess_share = 0.0;
    switch (level) {
      case Level::SsdLevel:
        excess_share = static_cast<double>(excess_bytes);
        break;
      case Level::ChannelLevel:
        excess_share =
            pl.array.sharedL2Bytes > 0
                ? static_cast<double>(excess_bytes) /
                      static_cast<double>(pl.numAccelerators)
                : static_cast<double>(excess_bytes);
        break;
      case Level::ChipLevel:
        // One DRAM broadcast serves every chip's lockstep group.
        excess_share = static_cast<double>(excess_bytes) /
                       static_cast<double>(pl.numAccelerators *
                                           pl.wsGroupSize);
        break;
    }
    traffic.dramReadBytes +=
        static_cast<std::uint64_t>(excess_share);
    perf.energyPerFeature = emodel.energyOf(
        traffic, 0);
    perf.energyPerFeature.flashJ =
        pages_per_feature * eparams_.flashPageReadEnergy;

    // Active power: every accelerator finishes one feature each
    // perAccelSeconds; add leakage for all instances.
    double features_per_second =
        1.0 / perf.aggregateSeconds;
    perf.activePowerW =
        perf.energyPerFeature.total() * features_per_second +
        emodel.staticPower() *
            static_cast<double>(pl.numAccelerators) +
        kSsdBasePowerW;
    return perf;
}

std::vector<Tick>
layerBurstTicks(const LevelPerf &perf)
{
    sim::Clock clock(perf.placement.array.frequencyHz);
    std::vector<Tick> out;
    out.reserve(perf.slots.bursts.size());
    for (const auto &b : perf.slots.bursts)
        out.push_back(clock.cyclesToTicks(b.computeCycles));
    return out;
}

double
DeepStoreModel::scanSeconds(Level level, const workloads::AppInfo &app,
                            std::uint64_t features) const
{
    LevelPerf perf = evaluate(level, app);
    if (!perf.supported)
        fatal("level %s cannot execute %s", toString(level),
              app.name.c_str());
    return perf.aggregateSeconds * static_cast<double>(features);
}

double
arrayQuerySeconds(const std::vector<double> &node_scan_seconds,
                  std::uint64_t scatter_bytes,
                  std::uint64_t merge_bytes,
                  double fabric_bandwidth)
{
    DS_ASSERT(!node_scan_seconds.empty());
    DS_ASSERT(fabric_bandwidth > 0.0);
    const double sb =
        static_cast<double>(scatter_bytes) / fabric_bandwidth;
    const double mb =
        static_cast<double>(merge_bytes) / fabric_bandwidth;
    double total = node_scan_seconds.front(); // home: no fabric legs
    for (std::size_t i = 1; i < node_scan_seconds.size(); ++i) {
        const double start = static_cast<double>(i) * sb;
        total = std::max(total, start + node_scan_seconds[i]);
    }
    const double n_remote =
        static_cast<double>(node_scan_seconds.size() - 1);
    return total + n_remote * mb;
}

} // namespace deepstore::core

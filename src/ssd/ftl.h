/**
 * @file
 * Block-level Flash Translation Layer.
 *
 * DeepStore "employs a regular block-level FTL" (§4.4): the engine
 * asks it once for a database's starting physical address and the
 * accelerators compute page offsets directly, avoiding per-page
 * translation. We implement a superblock FTL: one logical superblock
 * (the same block index across every plane of every channel) maps to
 * one physical superblock. With the channel-major PPN striping in
 * Geometry, a superblock is a contiguous PPN range, so any page of a
 * sequentially written database is reachable by pure offset
 * arithmetic — exactly the property §4.4 relies on.
 *
 * Writes are expected to be append-style (intelligent-query databases
 * are write-once, read-many). An in-place overwrite forces a
 * read-modify-write migration of the containing superblock, which the
 * model charges and counts; erase counters provide wear statistics
 * and a greedy least-worn allocator provides wear leveling.
 *
 * With `FlashParams::wear` enabled the FTL also owns the flash
 * *lifecycle*: every physical superblock carries deterministic decay
 * counters (erases, reads since last program, data age, observed
 * errors) from which it derives a raw bit error rate. The SSD layer
 * feeds that RBER to the flash controllers as the per-page
 * uncorrectable probability, reports read outcomes back, and asks
 * `lifecycleAction()` whether the block has crossed the relocation
 * (copy valid pages to a fresh superblock in the background) or
 * retirement (take it out of service for good) thresholds. Relocation
 * is split into begin/finish/abort so the SSD can run the copy as
 * real flash commands over simulated time while reads keep hitting
 * the old mapping, and a mid-copy overwrite or power loss abandons
 * the job without corrupting the map. `mappingEpoch()` counts every
 * committed remapping so plan signatures built on physical addresses
 * can tell when they went stale.
 */

#ifndef DEEPSTORE_SSD_FTL_H
#define DEEPSTORE_SSD_FTL_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "ssd/geometry.h"

namespace deepstore::ssd {

/** Result of a page write through the FTL. */
struct WriteResult
{
    std::uint64_t ppn = 0;
    /** Pages migrated by a forced read-modify-write (0 normally). */
    std::uint64_t migratedPages = 0;
    /** Blocks erased as part of this write (0 normally). */
    std::uint64_t erasedBlocks = 0;
};

/** What the lifecycle model wants done about a physical superblock. */
enum class LifecycleAction
{
    None,     ///< healthy (or already being handled / not mapped)
    Relocate, ///< RBER crossed the relocation threshold
    Retire,   ///< RBER crossed the retirement threshold
};

/** An in-progress background relocation (begin/finish/abort). */
struct RelocationJob
{
    /** Logical superblock being moved. */
    std::uint32_t logicalSb = 0;
    /** Source physical superblock (still serving reads). */
    std::uint32_t oldPhys = 0;
    /** Destination physical superblock (allocated, not yet mapped). */
    std::uint32_t newPhys = 0;
    /** Page offsets within the superblock that hold valid data. */
    std::vector<std::uint64_t> validOffsets;
};

/** Superblock-granularity block-level FTL. */
class Ftl
{
  public:
    static constexpr std::uint32_t kUnmapped = 0xFFFFFFFFu;

    Ftl(const FlashParams &params, StatGroup &stats);

    /** Pages per superblock (contiguous PPN run). */
    std::uint64_t superblockPages() const { return superPages_; }

    /** Number of superblocks in the logical and physical spaces. */
    std::uint32_t superblockCount() const { return superCount_; }

    /** True when the LPN has been written and not trimmed. */
    bool isMapped(std::uint64_t lpn) const;

    /**
     * Translate a mapped LPN to its PPN.
     * fatal() on an unmapped page (a read of never-written data is a
     * host error).
     */
    std::uint64_t translate(std::uint64_t lpn) const;

    /**
     * Record a write to `lpn`, allocating a physical superblock on
     * first touch. Rewriting an already-valid page triggers a
     * superblock migration (see file comment). `now` timestamps the
     * program for the retention model (0 is fine when wear modeling
     * is disabled).
     */
    WriteResult write(std::uint64_t lpn, Tick now = 0);

    /**
     * Invalidate `count` pages starting at `lpn_start`. Superblocks
     * whose pages all become invalid are erased and returned to the
     * free pool.
     * @return the physical superblocks that were erased.
     */
    std::vector<std::uint32_t> trim(std::uint64_t lpn_start,
                                    std::uint64_t count);

    /** Superblocks currently free. */
    std::uint32_t freeSuperblocks() const;

    /** Total erases across all physical superblocks. */
    std::uint64_t totalErases() const;

    /** Max minus min per-superblock erase count across in-service
     *  (non-retired) superblocks; 0 when none remain. */
    std::uint64_t eraseSpread() const;

    // ---- lifecycle model (FlashParams::wear) ---------------------

    /** Note a completed page read (read-disturb accounting). */
    void noteRead(std::uint64_t ppn);
    /** Note an ECC-uncorrectable read of this page. */
    void noteUncorrectable(std::uint64_t ppn);
    /** Note a read that needed the retry ladder. */
    void noteRetried(std::uint64_t ppn);

    /**
     * Deterministic per-page uncorrectable probability (RBER) of the
     * superblock containing `ppn` at tick `now` — the linear decay
     * model of WearConfig, clamped to [0, 1]. 0 when wear modeling
     * is disabled.
     */
    double uncorrectableProbability(std::uint64_t ppn, Tick now) const;

    /** Threshold check for the superblock containing nothing but
     *  `phys`'s pages; None for unmapped, retired, or already
     *  relocating superblocks. */
    LifecycleAction lifecycleAction(std::uint32_t phys, Tick now) const;

    /**
     * Start relocating `phys`: allocates a destination superblock
     * and snapshots the valid page offsets. The mapping is *not*
     * changed — reads keep hitting `phys` until finishRelocation()
     * commits. nullopt when the block is not eligible (unmapped,
     * retired, already relocating) or no free superblock exists.
     */
    std::optional<RelocationJob> beginRelocation(std::uint32_t phys);

    /**
     * Commit a relocation: atomically remap the logical superblock
     * to the copy, then erase — or, when `retire_old` is set, retire
     * — the source. Returns false (and releases the destination)
     * when the mapping moved underneath the job (a concurrent
     * overwrite migration); the copy is then abandoned.
     */
    bool finishRelocation(const RelocationJob &job, bool retire_old,
                          Tick now);

    /** Abandon an in-flight relocation (power loss): the source
     *  keeps serving, the destination returns to the free pool. */
    void abortRelocation(const RelocationJob &job);

    /** Take a physical superblock out of service permanently. It
     *  must not be mapped. Idempotent. */
    void retireSuperblock(std::uint32_t phys);

    // ---- lifecycle introspection ---------------------------------

    std::uint64_t eraseCount(std::uint32_t phys) const;
    bool retired(std::uint32_t phys) const;
    std::uint32_t retiredSuperblocks() const;
    /** Physical superblock mapped to `logical` (kUnmapped if none). */
    std::uint32_t mappedPhysical(std::uint32_t logical) const;
    /** Bumped on every committed remapping (migration, trim-erase,
     *  relocation, retirement): physical-address-derived plan
     *  signatures mix it in so they go stale with the map. */
    std::uint64_t mappingEpoch() const { return mappingEpoch_; }

  private:
    std::uint32_t allocateSuperblock();
    void eraseSuperblock(std::uint32_t phys);

    FlashParams params_;
    StatGroup &stats_;
    std::uint64_t superPages_ = 0;
    std::uint32_t superCount_ = 0;

    /** logical superblock -> physical superblock (or kUnmapped). */
    std::vector<std::uint32_t> map_;
    /** physical superblock -> free? */
    std::vector<bool> freeSb_;
    /** physical superblock erase counters (wear). */
    std::vector<std::uint64_t> eraseCount_;
    /** valid-page bitmap, indexed by LPN. */
    std::vector<bool> valid_;
    /** count of valid pages per logical superblock. */
    std::vector<std::uint64_t> validCount_;

    // ---- lifecycle state (per physical superblock) ---------------

    /** physical -> logical back-map (kUnmapped when unmapped). */
    std::vector<std::uint32_t> physToLogical_;
    /** reads since last program (read-disturb). */
    std::vector<std::uint64_t> readCount_;
    /** tick of the most recent program (retention age). */
    std::vector<Tick> programTick_;
    /** observed uncorrectable reads since last program. */
    std::vector<std::uint64_t> errorCount_;
    /** observed retried reads since last program. */
    std::vector<std::uint64_t> retriedCount_;
    /** permanently out of service. */
    std::vector<bool> retired_;
    /** relocation in progress (source side). */
    std::vector<bool> relocating_;
    std::uint64_t mappingEpoch_ = 0;
};

} // namespace deepstore::ssd

#endif // DEEPSTORE_SSD_FTL_H

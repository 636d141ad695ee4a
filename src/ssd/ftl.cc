#include "ssd/ftl.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace deepstore::ssd {

namespace {

/**
 * Arrhenius acceleration of retention loss at temperature `celsius`
 * relative to the 25 C reference: exp((Ea/kB) * (1/T0 - 1/T)) with
 * Ea = 1.1 eV (JEDEC-style charge de-trapping) and T0 = 298.15 K.
 * Exactly 1.0 at 25 C so default schedules replay bit-identical.
 */
double
retentionTempFactor(double celsius)
{
    if (celsius == 25.0)
        return 1.0;
    constexpr double kEaOverKb = 1.1 / 8.617333262e-5; // Ea/kB in K
    constexpr double kT0 = 298.15;                     // 25 C in K
    double t = celsius + 273.15;
    if (t <= 0.0)
        fatal("WearConfig::tempCelsius below absolute zero");
    return std::exp(kEaOverKb * (1.0 / kT0 - 1.0 / t));
}

} // namespace

Ftl::Ftl(const FlashParams &params, StatGroup &stats)
    : params_(params), stats_(stats)
{
    params_.validate();
    superPages_ = static_cast<std::uint64_t>(params_.channels) *
                  params_.chipsPerChannel * params_.planesPerChip *
                  params_.pagesPerBlock;
    superCount_ = params_.blocksPerPlane;
    map_.assign(superCount_, kUnmapped);
    freeSb_.assign(superCount_, true);
    eraseCount_.assign(superCount_, 0);
    valid_.assign(params_.totalPages(), false);
    validCount_.assign(superCount_, 0);
    physToLogical_.assign(superCount_, kUnmapped);
    readCount_.assign(superCount_, 0);
    programTick_.assign(superCount_, 0);
    errorCount_.assign(superCount_, 0);
    retriedCount_.assign(superCount_, 0);
    retired_.assign(superCount_, false);
    relocating_.assign(superCount_, false);
}

bool
Ftl::isMapped(std::uint64_t lpn) const
{
    if (lpn >= valid_.size())
        return false;
    std::uint64_t sb = lpn / superPages_;
    return map_[sb] != kUnmapped && valid_[lpn];
}

std::uint64_t
Ftl::translate(std::uint64_t lpn) const
{
    if (lpn >= valid_.size())
        fatal("LPN %llu beyond device capacity",
              static_cast<unsigned long long>(lpn));
    std::uint64_t sb = lpn / superPages_;
    std::uint64_t off = lpn % superPages_;
    if (map_[sb] == kUnmapped || !valid_[lpn])
        fatal("read of unmapped LPN %llu",
              static_cast<unsigned long long>(lpn));
    return static_cast<std::uint64_t>(map_[sb]) * superPages_ + off;
}

std::uint32_t
Ftl::allocateSuperblock()
{
    // Wear-leveling allocator: among free superblocks, pick the least
    // erased one.
    std::uint32_t best = kUnmapped;
    for (std::uint32_t i = 0; i < superCount_; ++i) {
        if (!freeSb_[i])
            continue;
        if (best == kUnmapped || eraseCount_[i] < eraseCount_[best])
            best = i;
    }
    if (best == kUnmapped)
        fatal("SSD out of free superblocks (device full)");
    freeSb_[best] = false;
    return best;
}

void
Ftl::eraseSuperblock(std::uint32_t phys)
{
    DS_ASSERT(phys < superCount_);
    ++eraseCount_[phys];
    // A program/erase cycle resets the per-program decay state.
    physToLogical_[phys] = kUnmapped;
    readCount_[phys] = 0;
    programTick_[phys] = 0;
    errorCount_[phys] = 0;
    retriedCount_[phys] = 0;
    stats_.get("ftl.superblockErases") += 1;
    if (params_.wear.enabled && params_.wear.maxEraseCount > 0 &&
        eraseCount_[phys] >= params_.wear.maxEraseCount) {
        // Endurance budget exhausted: this erase was the block's
        // last — it leaves service instead of rejoining the pool.
        freeSb_[phys] = false;
        retireSuperblock(phys);
        return;
    }
    freeSb_[phys] = true;
}

WriteResult
Ftl::write(std::uint64_t lpn, Tick now)
{
    if (lpn >= valid_.size())
        fatal("write to LPN %llu beyond device capacity",
              static_cast<unsigned long long>(lpn));
    WriteResult res;
    std::uint64_t sb = lpn / superPages_;
    std::uint64_t off = lpn % superPages_;

    if (map_[sb] == kUnmapped) {
        map_[sb] = allocateSuperblock();
        physToLogical_[map_[sb]] = static_cast<std::uint32_t>(sb);
    }

    if (valid_[lpn]) {
        // In-place overwrite: block-level mapping forces a
        // read-modify-write migration to a fresh superblock.
        std::uint32_t old_phys = map_[sb];
        std::uint32_t new_phys = allocateSuperblock();
        res.migratedPages = validCount_[sb] - 1; // all but the page
        res.erasedBlocks = 1;
        stats_.get("ftl.migratedPages") +=
            static_cast<double>(res.migratedPages);
        // A relocation of the old physical block (if any) is now
        // stale; finishRelocation() will notice the map moved.
        relocating_[old_phys] = false;
        eraseSuperblock(old_phys);
        map_[sb] = new_phys;
        physToLogical_[new_phys] = static_cast<std::uint32_t>(sb);
        ++mappingEpoch_;
    } else {
        valid_[lpn] = true;
        ++validCount_[sb];
    }

    programTick_[map_[sb]] = now;
    stats_.get("ftl.pageWrites") += 1;
    res.ppn = static_cast<std::uint64_t>(map_[sb]) * superPages_ + off;
    return res;
}

std::vector<std::uint32_t>
Ftl::trim(std::uint64_t lpn_start, std::uint64_t count)
{
    std::vector<std::uint32_t> erased;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t lpn = lpn_start + i;
        if (lpn >= valid_.size())
            break;
        if (!valid_[lpn])
            continue;
        valid_[lpn] = false;
        std::uint64_t sb = lpn / superPages_;
        DS_ASSERT(validCount_[sb] > 0);
        if (--validCount_[sb] == 0 && map_[sb] != kUnmapped) {
            erased.push_back(map_[sb]);
            relocating_[map_[sb]] = false; // any copy is now moot
            eraseSuperblock(map_[sb]);
            map_[sb] = kUnmapped;
            ++mappingEpoch_;
        }
    }
    return erased;
}

std::uint32_t
Ftl::freeSuperblocks() const
{
    return static_cast<std::uint32_t>(
        std::count(freeSb_.begin(), freeSb_.end(), true));
}

std::uint64_t
Ftl::totalErases() const
{
    std::uint64_t total = 0;
    for (auto e : eraseCount_)
        total += e;
    return total;
}

std::uint64_t
Ftl::eraseSpread() const
{
    // Retired superblocks stop being erased; including them would
    // make the spread grow without bound as the drive ages.
    bool any = false;
    std::uint64_t mn = 0, mx = 0;
    for (std::uint32_t i = 0; i < superCount_; ++i) {
        if (retired_[i])
            continue;
        if (!any) {
            mn = mx = eraseCount_[i];
            any = true;
        } else {
            mn = std::min(mn, eraseCount_[i]);
            mx = std::max(mx, eraseCount_[i]);
        }
    }
    return any ? mx - mn : 0;
}

// ---- lifecycle model -------------------------------------------

void
Ftl::noteRead(std::uint64_t ppn)
{
    ++readCount_[ppn / superPages_];
}

void
Ftl::noteUncorrectable(std::uint64_t ppn)
{
    ++errorCount_[ppn / superPages_];
}

void
Ftl::noteRetried(std::uint64_t ppn)
{
    ++retriedCount_[ppn / superPages_];
}

double
Ftl::uncorrectableProbability(std::uint64_t ppn, Tick now) const
{
    const WearConfig &w = params_.wear;
    if (!w.enabled)
        return 0.0;
    std::uint64_t phys = ppn / superPages_;
    DS_ASSERT(phys < superCount_);
    Tick age =
        now > programTick_[phys] ? now - programTick_[phys] : 0;
    double rber =
        w.baseRber +
        w.rberPerErase * static_cast<double>(eraseCount_[phys]) +
        w.rberPerRead * static_cast<double>(readCount_[phys]) +
        w.rberPerSecond * ticksToSeconds(age) *
            retentionTempFactor(w.tempCelsius) +
        w.rberPerUncorrectable *
            static_cast<double>(errorCount_[phys]) +
        w.rberPerRetriedRead *
            static_cast<double>(retriedCount_[phys]);
    if (rber < 0.0)
        return 0.0;
    return rber > 1.0 ? 1.0 : rber;
}

LifecycleAction
Ftl::lifecycleAction(std::uint32_t phys, Tick now) const
{
    const WearConfig &w = params_.wear;
    if (!w.enabled || phys >= superCount_)
        return LifecycleAction::None;
    if (retired_[phys] || relocating_[phys] ||
        physToLogical_[phys] == kUnmapped)
        return LifecycleAction::None;
    double rber = uncorrectableProbability(
        static_cast<std::uint64_t>(phys) * superPages_, now);
    if (w.retireRberThreshold < 1.0 &&
        rber >= w.retireRberThreshold)
        return LifecycleAction::Retire;
    if (w.relocateRberThreshold < 1.0 &&
        rber >= w.relocateRberThreshold)
        return LifecycleAction::Relocate;
    return LifecycleAction::None;
}

std::optional<RelocationJob>
Ftl::beginRelocation(std::uint32_t phys)
{
    if (phys >= superCount_ || retired_[phys] || relocating_[phys] ||
        physToLogical_[phys] == kUnmapped)
        return std::nullopt;
    if (freeSuperblocks() == 0)
        return std::nullopt; // nowhere to move it
    RelocationJob job;
    job.logicalSb = physToLogical_[phys];
    job.oldPhys = phys;
    job.newPhys = allocateSuperblock();
    for (std::uint64_t off = 0; off < superPages_; ++off) {
        std::uint64_t lpn =
            static_cast<std::uint64_t>(job.logicalSb) * superPages_ +
            off;
        if (valid_[lpn])
            job.validOffsets.push_back(off);
    }
    relocating_[phys] = true;
    return job;
}

bool
Ftl::finishRelocation(const RelocationJob &job, bool retire_old,
                      Tick now)
{
    relocating_[job.oldPhys] = false;
    if (map_[job.logicalSb] != job.oldPhys) {
        // The mapping moved underneath the copy (overwrite migration
        // or trim): abandon — erase the half-written destination
        // back into the pool.
        eraseSuperblock(job.newPhys);
        return false;
    }
    map_[job.logicalSb] = job.newPhys;
    physToLogical_[job.newPhys] = job.logicalSb;
    physToLogical_[job.oldPhys] = kUnmapped;
    programTick_[job.newPhys] = now;
    ++mappingEpoch_;
    stats_.get("ftl.relocations") += 1;
    stats_.get("ftl.relocatedPages") +=
        static_cast<double>(job.validOffsets.size());
    if (retire_old) {
        freeSb_[job.oldPhys] = false;
        retireSuperblock(job.oldPhys);
    } else {
        eraseSuperblock(job.oldPhys);
    }
    return true;
}

void
Ftl::abortRelocation(const RelocationJob &job)
{
    // Power loss mid-copy: the source mapping never changed, so the
    // device stays consistent; the destination (possibly partially
    // programmed) simply returns to the pool — it will be erased by
    // allocateSuperblock's next consumer via the normal write path.
    relocating_[job.oldPhys] = false;
    physToLogical_[job.newPhys] = kUnmapped;
    freeSb_[job.newPhys] = true;
}

void
Ftl::retireSuperblock(std::uint32_t phys)
{
    DS_ASSERT(phys < superCount_);
    if (retired_[phys])
        return;
    DS_ASSERT(physToLogical_[phys] == kUnmapped);
    DS_ASSERT(!freeSb_[phys]);
    retired_[phys] = true;
    relocating_[phys] = false;
    stats_.get("ftl.retiredSuperblocks") += 1;
}

std::uint64_t
Ftl::eraseCount(std::uint32_t phys) const
{
    DS_ASSERT(phys < superCount_);
    return eraseCount_[phys];
}

bool
Ftl::retired(std::uint32_t phys) const
{
    DS_ASSERT(phys < superCount_);
    return retired_[phys];
}

std::uint32_t
Ftl::retiredSuperblocks() const
{
    return static_cast<std::uint32_t>(
        std::count(retired_.begin(), retired_.end(), true));
}

std::uint32_t
Ftl::mappedPhysical(std::uint32_t logical) const
{
    DS_ASSERT(logical < superCount_);
    return map_[logical];
}

} // namespace deepstore::ssd

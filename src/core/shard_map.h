/**
 * @file
 * The array's shard map: the one module that knows the placement
 * format.
 *
 * Every database is striped into contiguous feature chunks (shards),
 * one per alive node at ingest; each shard has up to R placements
 * (copies) on distinct nodes, [0] the primary, and each placement
 * lays its features out from a fresh page boundary so heterogeneous
 * page sizes never split a feature across nodes. The map owns
 * striping, append growth, the range → shard overlap walk, per-node
 * page counts and the serialized form the superblock carries; the
 * query plane and the maintenance unit only read it (repair adds
 * placements through addPlacement()).
 */

#ifndef DEEPSTORE_CORE_SHARD_MAP_H
#define DEEPSTORE_CORE_SHARD_MAP_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/ssd_node.h"

namespace deepstore::core {

/** One page run an ingest must write (per shard placement). */
struct IngestPart
{
    std::uint32_t shard = 0;
    std::uint32_t node = 0;
    std::uint64_t lpnStart = 0;
    std::uint64_t pages = 0;
    /** The shard's feature count once this part is written. */
    std::uint64_t features = 0;
};

/** One page run a readDB must fetch. */
struct ReadSegment
{
    std::uint32_t node = 0;
    std::uint64_t lpnStart = 0;
    std::uint64_t pages = 0;
};

/** One per-node sub-query the scatter stage creates. */
struct SubTarget
{
    std::uint32_t shard = 0;
    std::uint32_t node = 0;
    /** Node-local view of the shard (startLpn/startPpn local to the
     *  placement; numFeatures = shard features). */
    DbMetadata localMd;
    /** Sub-range within the shard, in shard-local feature coords. */
    std::uint64_t localStart = 0;
    std::uint64_t localEnd = 0;
    /** True for the first sub-query (runs the QC probe, pays no
     *  fabric scatter). */
    bool home = false;
};

/** The shards a feature range overlaps. */
struct ShardOverlap
{
    /** Each overlapping shard that has an alive placement, in shard
     *  order, on its first alive placement; [0] is the home. */
    std::vector<SubTarget> targets;
    /** Overlapping shards with no alive placement, and their
     *  features inside the range. */
    std::uint32_t lostShards = 0;
    std::uint64_t lostFeatures = 0;
};

class ShardMap
{
  public:
    using Nodes = std::vector<std::unique_ptr<SsdNode>>;

    /** One placement (copy) of a shard. */
    struct ShardPlacement
    {
        std::uint32_t node = 0;
        std::uint64_t lpnStart = 0;
        std::uint64_t startPpn = 0; ///< captured at write time
    };

    /** One contiguous feature chunk of a database. */
    struct DbShard
    {
        std::uint64_t startFeature = 0;
        std::uint64_t numFeatures = 0;
        std::vector<ShardPlacement> placements; ///< [0] = primary
    };

    struct DbInfo
    {
        std::uint64_t featureBytes = 0;
        std::vector<DbShard> shards;
    };

    /** `replication` is already normalised (>= 1). */
    ShardMap(const Nodes &nodes, std::uint32_t replication);

    std::uint32_t replication() const { return replication_; }
    /** Indices of the alive nodes, ascending. */
    std::vector<std::uint32_t> aliveNodes() const;
    std::uint32_t aliveCount() const
    {
        return static_cast<std::uint32_t>(aliveNodes().size());
    }

    /** Allocate page runs for a new database: one contiguous feature
     *  chunk per alive node, each chunk placed on its primary plus
     *  R-1 replica nodes. */
    std::vector<IngestPart> stripeDb(std::uint64_t feature_bytes,
                                     std::uint64_t count);

    /** Register the shard map once the parts have been written. */
    void bindDb(std::uint64_t db_id, std::uint64_t feature_bytes,
                const std::vector<IngestPart> &parts);

    /**
     * Grow the database's last shard by `extra` features; returns the
     * page runs to program (may be empty). Dead placements are left
     * alone. A live placement at the top of its node's LPN space
     * grows in place; one that is not is rewritten as one fresh run
     * on its own node (the old run is abandoned). Call bindRuns()
     * once the parts are written.
     */
    std::vector<IngestPart> growDb(std::uint64_t db_id,
                                   std::uint64_t extra);

    /** Capture the write-time start PPN of every part that begins its
     *  placement's run (a fresh stripe, or a rewritten placement). */
    void bindRuns(std::uint64_t db_id,
                  const std::vector<IngestPart> &parts);

    /** The shards [start, end) overlaps (see ShardOverlap). */
    ShardOverlap overlap(std::uint64_t db_id, std::uint64_t start,
                         std::uint64_t end) const;

    /** Page runs covering features [start, start+num), read from
     *  each shard's first alive placement. */
    std::vector<ReadSegment> readSegments(std::uint64_t db_id,
                                          std::uint64_t start,
                                          std::uint64_t num) const;

    /** Sub-target for [local_start, local_end) of shard `shard_i` on
     *  its placement `pl`. */
    SubTarget target(std::uint64_t db_id, std::uint32_t shard_i,
                     const ShardPlacement &pl, std::uint64_t local_start,
                     std::uint64_t local_end) const;

    /** First alive placement of `shard` not on a `tried` node; null
     *  when none survives. */
    const ShardPlacement *
    alivePlacement(const DbShard &shard,
                   const std::vector<std::uint32_t> &tried) const;

    /** Pages `features` features of `feature_bytes` take on node
     *  `node_i`. */
    std::uint64_t pagesOn(std::uint32_t node_i,
                          std::uint64_t feature_bytes,
                          std::uint64_t features) const;

    /** Add a written copy of a shard (repair), capturing its start
     *  PPN. */
    void addPlacement(std::uint64_t db_id, std::uint32_t shard_i,
                      std::uint32_t node_i, std::uint64_t lpn_start);

    const DbInfo &db(std::uint64_t db_id) const;
    const std::map<std::uint64_t, DbInfo> &dbs() const { return dbs_; }

    /**
     * Serialize the shard map (every db's shards, placements, and
     * each node's allocator high-water mark) for the replicated
     * superblock image. Round-trips exactly through
     * restoreShardMap().
     */
    std::vector<std::uint8_t> serializeShardMap() const;

    /**
     * Replace the shard map with a serialized image (power-loss
     * recovery). Node allocator marks restore monotonically
     * (max(current, stored)) so an older epoch never un-allocates
     * pages the device already handed out. fatal() on a malformed
     * blob — callers validate the superblock checksum first.
     */
    void restoreShardMap(const std::vector<std::uint8_t> &blob);

  private:
    const Nodes &nodes_;
    std::uint32_t replication_;
    std::map<std::uint64_t, DbInfo> dbs_;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_SHARD_MAP_H

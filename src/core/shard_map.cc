#include "core/shard_map.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "ssd/throughput.h"

namespace deepstore::core {

namespace {

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const auto *b = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), b, b + sizeof(v));
}

} // namespace

ShardMap::ShardMap(const Nodes &nodes, std::uint32_t replication)
    : nodes_(nodes), replication_(replication)
{
    DS_ASSERT(replication_ >= 1);
}

std::vector<std::uint32_t>
ShardMap::aliveNodes() const
{
    std::vector<std::uint32_t> alive;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i]->alive())
            alive.push_back(i);
    return alive;
}

std::uint64_t
ShardMap::pagesOn(std::uint32_t node_i, std::uint64_t feature_bytes,
                  std::uint64_t features) const
{
    return ssd::FeatureLayout{feature_bytes,
                              nodes_[node_i]->flash().pageBytes}
        .pagesForFeatures(features);
}

// ---- ingest ------------------------------------------------------

std::vector<IngestPart>
ShardMap::stripeDb(std::uint64_t feature_bytes, std::uint64_t count)
{
    DS_ASSERT(count > 0);
    const std::vector<std::uint32_t> alive = aliveNodes();
    if (alive.empty())
        fatal("writeDB: every array node is dead");
    const std::uint32_t n =
        static_cast<std::uint32_t>(alive.size());
    const std::uint32_t copies = std::min(replication_, n);

    // Contiguous feature chunks, one per alive node; shard i's
    // primary is alive[i], replicas on the next copies-1 alive
    // nodes. Every placement gets its own page run.
    std::vector<IngestPart> parts;
    const std::uint64_t base = count / n;
    const std::uint64_t rem = count % n;
    std::uint64_t offset = 0;
    for (std::uint32_t i = 0; i < n && offset < count; ++i) {
        const std::uint64_t chunk = base + (i < rem ? 1 : 0);
        for (std::uint32_t c = 0; c < copies; ++c) {
            const std::uint32_t node_i = alive[(i + c) % n];
            IngestPart part;
            part.shard = i;
            part.node = node_i;
            part.pages = pagesOn(node_i, feature_bytes, chunk);
            part.lpnStart = nodes_[node_i]->allocatePages(part.pages);
            part.features = chunk;
            parts.push_back(part);
        }
        offset += chunk;
    }
    return parts;
}

void
ShardMap::bindDb(std::uint64_t db_id, std::uint64_t feature_bytes,
                 const std::vector<IngestPart> &parts)
{
    DbInfo info;
    info.featureBytes = feature_bytes;
    std::uint64_t offset = 0;
    for (const IngestPart &part : parts) {
        if (part.shard == info.shards.size()) {
            info.shards.push_back(DbShard{offset, part.features, {}});
            offset += part.features;
        }
        info.shards.back().placements.push_back(
            ShardPlacement{part.node, part.lpnStart, 0});
    }
    auto [it, inserted] = dbs_.emplace(db_id, std::move(info));
    if (!inserted)
        fatal("db %llu already bound to the array",
              static_cast<unsigned long long>(db_id));
    bindRuns(db_id, parts);
}

std::vector<IngestPart>
ShardMap::growDb(std::uint64_t db_id, std::uint64_t extra)
{
    DS_ASSERT(extra > 0);
    auto it = dbs_.find(db_id);
    if (it == dbs_.end())
        fatal("unknown db %llu",
              static_cast<unsigned long long>(db_id));
    DbInfo &info = it->second;
    DbShard &last = info.shards.back();
    const std::uint64_t grown = last.numFeatures + extra;
    std::vector<IngestPart> parts;
    for (ShardPlacement &pl : last.placements) {
        SsdNode &nd = *nodes_[pl.node];
        if (!nd.alive())
            continue; // a dead drive takes no writes
        const std::uint64_t old_pages =
            pagesOn(pl.node, info.featureBytes, last.numFeatures);
        const std::uint64_t new_pages =
            pagesOn(pl.node, info.featureBytes, grown);
        if (new_pages == old_pages)
            continue;
        IngestPart part;
        part.shard =
            static_cast<std::uint32_t>(info.shards.size() - 1);
        part.node = pl.node;
        part.features = grown;
        if (pl.lpnStart + old_pages == nd.nextFreeLpn()) {
            // Buffered append (§4.7.2): the run grows in place.
            part.pages = new_pages - old_pages;
            part.lpnStart = nd.allocatePages(part.pages);
            DS_ASSERT(part.lpnStart == pl.lpnStart + old_pages);
        } else {
            // A later database or a repair copy sits above the run:
            // rewrite the whole shard as one fresh run. The old run
            // stays allocated (the allocator is append-only).
            part.pages = new_pages;
            part.lpnStart = nd.allocatePages(part.pages);
            pl.lpnStart = part.lpnStart;
        }
        parts.push_back(part);
    }
    last.numFeatures = grown;
    return parts;
}

void
ShardMap::bindRuns(std::uint64_t db_id,
                   const std::vector<IngestPart> &parts)
{
    DbInfo &info = dbs_.at(db_id);
    for (const IngestPart &part : parts) {
        for (ShardPlacement &pl : info.shards[part.shard].placements) {
            // Write-time physical start, exactly like the single-SSD
            // engine recorded md.startPpn right after the ingest.
            if (pl.node == part.node && pl.lpnStart == part.lpnStart)
                pl.startPpn = nodes_[pl.node]->translate(pl.lpnStart);
        }
    }
}

void
ShardMap::addPlacement(std::uint64_t db_id, std::uint32_t shard_i,
                       std::uint32_t node_i, std::uint64_t lpn_start)
{
    dbs_.at(db_id).shards.at(shard_i).placements.push_back(
        ShardPlacement{node_i, lpn_start,
                       nodes_[node_i]->translate(lpn_start)});
}

// ---- lookup ------------------------------------------------------

const ShardMap::DbInfo &
ShardMap::db(std::uint64_t db_id) const
{
    auto it = dbs_.find(db_id);
    if (it == dbs_.end())
        fatal("unknown db %llu",
              static_cast<unsigned long long>(db_id));
    return it->second;
}

const ShardMap::ShardPlacement *
ShardMap::alivePlacement(const DbShard &shard,
                         const std::vector<std::uint32_t> &tried) const
{
    for (const ShardPlacement &pl : shard.placements)
        if (nodes_[pl.node]->alive() &&
            std::find(tried.begin(), tried.end(), pl.node) == tried.end())
            return &pl;
    return nullptr;
}

SubTarget
ShardMap::target(std::uint64_t db_id, std::uint32_t shard_i,
                 const ShardPlacement &pl, std::uint64_t local_start,
                 std::uint64_t local_end) const
{
    const DbInfo &info = db(db_id);
    const DbShard &shard = info.shards[shard_i];
    SubTarget t;
    t.shard = shard_i;
    t.node = pl.node;
    t.localMd.dbId = db_id;
    t.localMd.featureBytes = info.featureBytes;
    t.localMd.numFeatures = shard.numFeatures;
    t.localMd.startLpn = pl.lpnStart;
    t.localMd.startPpn = pl.startPpn;
    t.localStart = local_start;
    t.localEnd = local_end;
    return t;
}

ShardOverlap
ShardMap::overlap(std::uint64_t db_id, std::uint64_t start,
                  std::uint64_t end) const
{
    const DbInfo &info = db(db_id);
    ShardOverlap out;
    for (std::uint32_t si = 0; si < info.shards.size(); ++si) {
        const DbShard &shard = info.shards[si];
        const std::uint64_t lo = std::max(start, shard.startFeature);
        const std::uint64_t hi =
            std::min(end, shard.startFeature + shard.numFeatures);
        if (lo >= hi)
            continue;
        const ShardPlacement *pl = alivePlacement(shard, {});
        if (pl == nullptr) {
            ++out.lostShards;
            out.lostFeatures += hi - lo;
            continue;
        }
        SubTarget t = target(db_id, si, *pl, lo - shard.startFeature,
                             hi - shard.startFeature);
        t.home = out.targets.empty();
        out.targets.push_back(std::move(t));
    }
    return out;
}

std::vector<ReadSegment>
ShardMap::readSegments(std::uint64_t db_id, std::uint64_t start,
                       std::uint64_t num) const
{
    // Lost shards contribute no segment; their functional contents
    // are still served.
    std::vector<ReadSegment> segs;
    for (const SubTarget &t : overlap(db_id, start, start + num).targets) {
        const ssd::FeatureLayout layout{
            t.localMd.featureBytes, nodes_[t.node]->flash().pageBytes};
        const std::uint64_t first =
            layout.featureBytes <= layout.pageBytes
                ? t.localStart / layout.featuresPerPage()
                : t.localStart * layout.pagesPerFeature();
        segs.push_back(
            ReadSegment{t.node, t.localMd.startLpn + first,
                        layout.pagesForFeatures(t.localEnd) - first});
    }
    return segs;
}

// ---- serialized form ---------------------------------------------

std::vector<std::uint8_t>
ShardMap::serializeShardMap() const
{
    std::vector<std::uint8_t> out;
    putU64(out, dbs_.size());
    for (const auto &[db_id, info] : dbs_) {
        putU64(out, db_id);
        putU64(out, info.featureBytes);
        putU64(out, info.shards.size());
        for (const DbShard &shard : info.shards) {
            putU64(out, shard.startFeature);
            putU64(out, shard.numFeatures);
            putU64(out, shard.placements.size());
            for (const ShardPlacement &pl : shard.placements) {
                putU64(out, pl.node);
                putU64(out, pl.lpnStart);
                putU64(out, pl.startPpn);
            }
        }
    }
    putU64(out, nodes_.size());
    for (const auto &nd : nodes_)
        putU64(out, nd->nextFreeLpn());
    return out;
}

void
ShardMap::restoreShardMap(const std::vector<std::uint8_t> &blob)
{
    std::size_t pos = 0;
    auto next = [&blob, &pos]() -> std::uint64_t {
        if (pos + sizeof(std::uint64_t) > blob.size())
            fatal("shard-map blob truncated at byte %zu", pos);
        std::uint64_t v;
        std::memcpy(&v, blob.data() + pos, sizeof(v));
        pos += sizeof(v);
        return v;
    };
    std::map<std::uint64_t, DbInfo> restored;
    const std::uint64_t n_dbs = next();
    for (std::uint64_t d = 0; d < n_dbs; ++d) {
        const std::uint64_t db_id = next();
        DbInfo info;
        info.featureBytes = next();
        const std::uint64_t n_shards = next();
        for (std::uint64_t s = 0; s < n_shards; ++s) {
            DbShard shard;
            shard.startFeature = next();
            shard.numFeatures = next();
            const std::uint64_t n_pl = next();
            for (std::uint64_t p = 0; p < n_pl; ++p) {
                ShardPlacement pl;
                const std::uint64_t node = next();
                pl.lpnStart = next();
                pl.startPpn = next();
                if (node >= nodes_.size())
                    fatal("shard-map blob names unknown node %llu",
                          static_cast<unsigned long long>(node));
                pl.node = static_cast<std::uint32_t>(node);
                shard.placements.push_back(pl);
            }
            info.shards.push_back(std::move(shard));
        }
        restored.emplace(db_id, std::move(info));
    }
    const std::uint64_t n_nodes = next();
    if (n_nodes != nodes_.size())
        fatal("shard-map blob describes a %llu-node array; this "
              "array has %llu nodes",
              static_cast<unsigned long long>(n_nodes),
              static_cast<unsigned long long>(nodes_.size()));
    for (std::uint64_t i = 0; i < n_nodes; ++i)
        nodes_[i]->restoreNextFreeLpn(next());
    if (pos != blob.size())
        fatal("shard-map blob carries %zu trailing bytes",
              blob.size() - pos);
    dbs_ = std::move(restored);
}

} // namespace deepstore::core

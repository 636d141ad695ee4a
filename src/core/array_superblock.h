/**
 * @file
 * Versioned, checksummed superblock-0 image replicated on every array
 * node (DESIGN.md §12).
 *
 * The image bundles the engine's `MetadataStore` table with the
 * coordinator's serialized shard map under one epoch-stamped,
 * checksummed header. `persistMetadata()` writes the encoded image to
 * the reserved metadata block of *every* alive node through real
 * flash programs; recovery reads the image back from each node,
 * discards torn or corrupt copies by checksum, and adopts the highest
 * surviving epoch — so the array rebuilds its striping from any
 * surviving majority, including after node-0 death.
 *
 * Decoding is deliberately *non-fatal*: a capacitor-backed flush that
 * lost power mid-write leaves a torn image (some pages new, some
 * stale) whose checksum no longer matches, and recovery must treat
 * that as "this replica is gone", not as a crash.
 */

#ifndef DEEPSTORE_CORE_ARRAY_SUPERBLOCK_H
#define DEEPSTORE_CORE_ARRAY_SUPERBLOCK_H

#include <cstdint>
#include <optional>
#include <vector>

namespace deepstore::core {

/** One decoded superblock-0 image. */
struct SuperblockImage
{
    /** Monotonic persistence epoch; highest valid copy wins. */
    std::uint64_t epoch = 0;
    /** MetadataStore::serialize() payload. */
    std::vector<std::uint8_t> metadataBlob;
    /** ShardMap::serializeShardMap() payload. */
    std::vector<std::uint8_t> shardMapBlob;
};

/**
 * Encode an image: 40-byte header (magic, epoch, blob lengths,
 * checksum) followed by the two payloads. The checksum covers the
 * epoch, both lengths, and every payload byte, so any torn or
 * bit-flipped copy is detected.
 */
std::vector<std::uint8_t>
encodeSuperblock(const SuperblockImage &image);

/**
 * Decode an encoded image. Returns nullopt — never fatals — when the
 * bytes are truncated, carry the wrong magic, or fail the checksum
 * (all three are what a torn flush looks like on recovery).
 */
std::optional<SuperblockImage>
decodeSuperblock(const std::vector<std::uint8_t> &bytes);

/**
 * Total encoded byte length promised by a header fragment (its magic
 * plus the two blob lengths). nullopt when the fragment is short,
 * mis-magicked, or claims an implausible length. Recovery uses it to
 * size the remainder read from each replica; the value is untrusted
 * until the assembled image passes decodeSuperblock().
 */
std::optional<std::uint64_t>
superblockImageBytes(const std::vector<std::uint8_t> &bytes);

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_ARRAY_SUPERBLOCK_H

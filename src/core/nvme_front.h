/**
 * @file
 * NVMe-style front end for the DeepStore API.
 *
 * The paper's programming APIs "internally use new NVMe commands to
 * interact with the query engine" (§4.7.2). This module models that
 * wire level: vendor-specific opcodes alongside the standard I/O set,
 * a bounded submission queue, completion entries with NVMe-like
 * status codes (host errors surface as failed completions, not
 * exceptions), and a PRP-style handle registry standing in for host
 * memory buffers.
 *
 * Query commands are **asynchronous at the wire level**: process()
 * validates and submits them to the engine, but their completion
 * entries post to the completion queue only when the in-storage
 * scheduler finishes the scan — out of order across queries, in
 * simulated-latency order. Hosts drive the device clock with pump()
 * (the doorbell/interrupt loop) and may poll partial progress with
 * GetResults, which returns the retryable InProgress status while
 * the scan is still running.
 */

#ifndef DEEPSTORE_CORE_NVME_FRONT_H
#define DEEPSTORE_CORE_NVME_FRONT_H

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/deepstore.h"

namespace deepstore::core {

/** Command opcodes: the standard NVMe I/O set plus DeepStore's
 *  vendor-specific extensions (Table 2). */
enum class NvmeOpcode : std::uint8_t
{
    Write = 0x01,
    Read = 0x02,
    Dsm = 0x09, ///< dataset management (trim)

    // Vendor-specific (0xC0+): the DeepStore command set.
    WriteDB = 0xC0,
    ReadDB = 0xC1,
    AppendDB = 0xC2,
    LoadModel = 0xC3,
    Query = 0xC4,
    GetResults = 0xC5,
    SetQC = 0xC6,
    AbortQuery = 0xC7,
    ArrayInfo = 0xC8,
};

/** NVMe-like status codes returned in completions. */
enum class NvmeStatus : std::uint16_t
{
    Success = 0x0,
    InvalidField = 0x2,
    InternalError = 0x6,
    CommandAborted = 0x7,
    /** Vendor-specific, retryable: the referenced query is still
     *  executing in-storage; poll again after pump(). */
    InProgress = 0x1C0,
    /** Vendor-specific: the query terminated Degraded — partial
     *  results are available (coverageFraction < 1). */
    DegradedSuccess = 0x1C1,
    /** Vendor-specific: the query's deadline fired before the scan
     *  finished; partial results are available. */
    DeadlineExceeded = 0x1C2,
    /** Vendor-specific: the query was aborted via AbortQuery (or
     *  engine-side cancel); partial results are available. */
    Aborted = 0x1C3,
};

/** A 64-byte-SQE-shaped command. */
struct NvmeCommand
{
    NvmeOpcode opcode = NvmeOpcode::Read;
    std::uint16_t cid = 0; ///< command identifier (host-chosen)
    std::uint64_t prp = 0; ///< host buffer handle (see buffers below)
    /** Command dwords; meaning depends on the opcode:
     *  WriteDB:   cdw0 = feature dim (floats)
     *  AppendDB:  cdw0 = db_id
     *  ReadDB:    cdw0 = db_id, cdw1 = start, cdw2 = count
     *  Query:     cdw0 = k, cdw1 = model_id, cdw2 = db_id,
     *             cdw3 = db_start, cdw4 = db_end,
     *             cdw5 low 32 bits = level+1 (0 = engine default),
     *             cdw5 high 32 bits = deadline in microseconds
     *             (0 = no deadline)
     *  GetResults:cdw0 = query_id
     *  AbortQuery:cdw0 = query_id
     *  SetQC:     cdw0 = qcn model_id, cdw1 = threshold * 1e4,
     *             cdw2 = accuracy * 1e4, cdw3 = capacity
     *  ArrayInfo: prp buffer receives, per node: [index, alive,
     *             channels, chipsPerChannel, nocWaitTicks,
     *             scrubPagesScanned, repairPagesCopied]; the
     *             completion's result = node count, with the
     *             replication factor in the top 16 bits */
    std::uint64_t cdw[6] = {0, 0, 0, 0, 0, 0};
};

/** Completion-queue entry. */
struct NvmeCompletion
{
    std::uint16_t cid = 0;
    NvmeStatus status = NvmeStatus::Success;
    /** Opcode-specific result (db_id / model_id / query_id / count). */
    std::uint64_t result = 0;
};

/** Host-memory stand-in: float buffers addressed by PRP handles. */
class HostBufferRegistry
{
  public:
    /** Register a buffer; returns its PRP handle. */
    std::uint64_t add(std::vector<float> data);

    const std::vector<float> *find(std::uint64_t prp) const;
    /** The buffer behind a handle; fatal if the handle is unknown. */
    std::vector<float> &at(std::uint64_t prp);
    void release(std::uint64_t prp);

  private:
    std::map<std::uint64_t, std::vector<float>> buffers_;
    std::uint64_t next_ = 0x1000;
};

/** Bounded submission queue + completion queue over a DeepStore. */
class NvmeFrontEnd
{
  public:
    explicit NvmeFrontEnd(DeepStore &store,
                          std::size_t sq_depth = 256);

    HostBufferRegistry &buffers() { return buffers_; }

    /** Ring the doorbell with one command.
     *  @return false when the submission queue is full. */
    bool submit(const NvmeCommand &cmd);

    /**
     * Process every queued command in order (the engine runs on the
     * embedded cores between doorbell writes). Synchronous commands
     * post their completions immediately; Query commands post theirs
     * when the scan completes in simulated time (see pump()).
     */
    void process();

    /**
     * Advance the device clock until at least one completion entry is
     * available (the host-side interrupt wait). @return true when a
     * completion is ready, false when the device is fully idle with
     * an empty completion queue.
     */
    bool pump();

    /** Pop the oldest completion, if any. Does not advance time. */
    std::optional<NvmeCompletion> pollCompletion();

    /** The engine query_id behind a previously submitted Query
     *  command (nullopt for unknown cids or failed submissions). */
    std::optional<std::uint64_t> queryIdForCid(std::uint16_t cid) const;

    std::size_t submissionDepth() const { return sqDepth_; }
    std::size_t pending() const { return sq_.size(); }

  private:
    /** Execute one command. Returns the completion for synchronous
     *  commands; nullopt when the completion was deferred (Query
     *  accepted by the engine — it posts to cq_ on its own). */
    std::optional<NvmeCompletion> execute(const NvmeCommand &cmd);

    DeepStore &store_;
    std::size_t sqDepth_;
    std::deque<NvmeCommand> sq_;
    std::deque<NvmeCompletion> cq_;
    HostBufferRegistry buffers_;
    /** cid -> engine query_id for accepted Query commands. */
    std::map<std::uint16_t, std::uint64_t> queryCids_;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_NVME_FRONT_H

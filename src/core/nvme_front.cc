#include "core/nvme_front.h"

#include <cstring>

#include "common/logging.h"

namespace deepstore::core {

namespace {

/** Map a terminal query outcome onto its NVMe completion status. */
NvmeStatus
statusForOutcome(QueryOutcome outcome)
{
    switch (outcome) {
    case QueryOutcome::Success:
        return NvmeStatus::Success;
    case QueryOutcome::DeadlineExceeded:
        return NvmeStatus::DeadlineExceeded;
    case QueryOutcome::Aborted:
        return NvmeStatus::Aborted;
    case QueryOutcome::Degraded:
    case QueryOutcome::PowerLoss:
    default:
        // Power loss surfaces like degradation: the host gets the
        // honest partial result and may resubmit after recovery.
        return NvmeStatus::DegradedSuccess;
    }
}

} // namespace

std::uint64_t
HostBufferRegistry::add(std::vector<float> data)
{
    std::uint64_t prp = next_;
    next_ += 0x1000;
    buffers_[prp] = std::move(data);
    return prp;
}

const std::vector<float> *
HostBufferRegistry::find(std::uint64_t prp) const
{
    auto it = buffers_.find(prp);
    return it == buffers_.end() ? nullptr : &it->second;
}

std::vector<float> &
HostBufferRegistry::at(std::uint64_t prp)
{
    auto it = buffers_.find(prp);
    if (it == buffers_.end())
        fatal("no host buffer at prp 0x%llx",
              static_cast<unsigned long long>(prp));
    return it->second;
}

void
HostBufferRegistry::release(std::uint64_t prp)
{
    buffers_.erase(prp);
}

NvmeFrontEnd::NvmeFrontEnd(DeepStore &store, std::size_t sq_depth)
    : store_(store), sqDepth_(sq_depth)
{
    if (sq_depth == 0)
        fatal("submission queue depth must be positive");
}

bool
NvmeFrontEnd::submit(const NvmeCommand &cmd)
{
    if (sq_.size() >= sqDepth_)
        return false; // queue full: host must back off
    sq_.push_back(cmd);
    return true;
}

void
NvmeFrontEnd::process()
{
    while (!sq_.empty()) {
        NvmeCommand cmd = sq_.front();
        sq_.pop_front();
        if (auto done = execute(cmd))
            cq_.push_back(*done);
        // else: Query accepted; its completion posts asynchronously.
    }
}

bool
NvmeFrontEnd::pump()
{
    while (cq_.empty() && store_.step()) {
    }
    return !cq_.empty();
}

std::optional<NvmeCompletion>
NvmeFrontEnd::pollCompletion()
{
    if (cq_.empty())
        return std::nullopt;
    NvmeCompletion c = cq_.front();
    cq_.pop_front();
    return c;
}

std::optional<std::uint64_t>
NvmeFrontEnd::queryIdForCid(std::uint16_t cid) const
{
    auto it = queryCids_.find(cid);
    if (it == queryCids_.end())
        return std::nullopt;
    return it->second;
}

std::optional<NvmeCompletion>
NvmeFrontEnd::execute(const NvmeCommand &cmd)
{
    NvmeCompletion done;
    done.cid = cmd.cid;
    try {
        switch (cmd.opcode) {
          // The host buffer is the flat feature block; the source
          // rejects a non-positive dim or a partial feature.
          case NvmeOpcode::WriteDB:
            done.result = store_.writeDB(
                std::make_shared<VectorFeatureSource>(
                    buffers_.at(cmd.prp),
                    static_cast<std::int64_t>(cmd.cdw[0])));
            break;
          case NvmeOpcode::AppendDB: {
            auto dim = static_cast<std::int64_t>(
                store_.databaseInfo(cmd.cdw[0]).featureBytes /
                kBytesPerFloat);
            store_.appendDB(cmd.cdw[0],
                            std::make_shared<VectorFeatureSource>(
                                buffers_.at(cmd.prp), dim));
            done.result = cmd.cdw[0];
            break;
          }
          case NvmeOpcode::ReadDB:
            store_.readDB(cmd.cdw[0], cmd.cdw[1], cmd.cdw[2],
                          buffers_.at(cmd.prp));
            done.result = cmd.cdw[2];
            break;
          case NvmeOpcode::LoadModel: {
            // prp references a serialized model blob packed into the
            // float buffer (4 bytes per element).
            const auto &buf = buffers_.at(cmd.prp);
            // cdw0 is the blob length in bytes; it must fit the
            // buffer the host handed over.
            if (cmd.cdw[0] > buf.size() * 4) {
                done.status = NvmeStatus::InvalidField;
                break;
            }
            std::vector<std::uint8_t> blob(buf.size() * 4);
            std::memcpy(blob.data(), buf.data(), blob.size());
            blob.resize(static_cast<std::size_t>(cmd.cdw[0]));
            done.result = store_.loadModel(blob);
            break;
          }
          case NvmeOpcode::Query: {
            const auto &qfv = buffers_.at(cmd.prp);
            std::optional<Level> level;
            const std::uint64_t level_field =
                cmd.cdw[5] & 0xFFFFFFFFULL;
            if (level_field != 0)
                level = static_cast<Level>(level_field - 1);
            // cdw5 high 32 bits: optional deadline in microseconds.
            const double deadline_seconds =
                static_cast<double>(cmd.cdw[5] >> 32) * 1e-6;
            std::uint64_t qid = store_.query(
                qfv, static_cast<std::size_t>(cmd.cdw[0]),
                cmd.cdw[1], cmd.cdw[2], cmd.cdw[3], cmd.cdw[4],
                level, deadline_seconds);
            queryCids_[cmd.cid] = qid;
            // Defer the completion entry until the in-storage
            // scheduler finishes the query; entries post in
            // simulated-latency order, not submission order. A
            // degraded/aborted/overdue query completes with the
            // matching vendor status, not an error — partial results
            // stay retrievable through GetResults.
            std::uint16_t cid = cmd.cid;
            store_.onComplete(
                qid, [this, cid, qid](const QueryResult &res) {
                    cq_.push_back(NvmeCompletion{
                        cid, statusForOutcome(res.outcome), qid});
                });
            return std::nullopt;
          }
          case NvmeOpcode::GetResults: {
            auto &out = buffers_.at(cmd.prp);
            FetchResult fr = store_.tryGetResults(cmd.cdw[0]);
            if (fr.status == FetchStatus::Unknown) {
                done.status = NvmeStatus::InvalidField;
                break;
            }
            if (fr.status == FetchStatus::InFlight) {
                // Retryable: the host should pump() and resubmit.
                done.status = NvmeStatus::InProgress;
                done.result = cmd.cdw[0];
                break;
            }
            const QueryResult &res = *fr.result;
            out.clear();
            for (const auto &r : res.topK) {
                out.push_back(static_cast<float>(r.featureId));
                out.push_back(r.score);
            }
            done.status = statusForOutcome(res.outcome);
            done.result = res.topK.size();
            break;
          }
          case NvmeOpcode::AbortQuery: {
            if (!store_.poll(cmd.cdw[0])) {
                done.status = NvmeStatus::InvalidField;
                break;
            }
            // Idempotent at the wire level: aborting an
            // already-terminal query succeeds without effect (its
            // results keep their original status).
            store_.cancel(cmd.cdw[0]);
            done.result = cmd.cdw[0];
            break;
          }
          case NvmeOpcode::ArrayInfo: {
            // Array topology + per-node health for host-side
            // placement decisions (mirrors `nvme list`-style admin
            // introspection, vendor-shaped).
            auto &out = buffers_.at(cmd.prp);
            const auto &array = store_.array();
            const auto &upkeep = array.maintenance().stats();
            out.clear();
            for (std::uint32_t i = 0; i < array.nodeCount(); ++i) {
                const auto &node = array.node(i);
                out.push_back(static_cast<float>(i));
                out.push_back(node.alive() ? 1.0f : 0.0f);
                out.push_back(
                    static_cast<float>(node.flash().channels));
                out.push_back(static_cast<float>(
                    node.flash().chipsPerChannel));
                out.push_back(
                    static_cast<float>(node.nocWaitTicks()));
                out.push_back(static_cast<float>(
                    upkeep.scrubPagesScannedOn.at(i)));
                out.push_back(static_cast<float>(
                    upkeep.repairPagesCopiedTo.at(i)));
            }
            done.result =
                static_cast<std::uint64_t>(array.nodeCount()) |
                (static_cast<std::uint64_t>(array.replication())
                 << 16);
            break;
          }
          case NvmeOpcode::SetQC:
            store_.setQC(cmd.cdw[0],
                         static_cast<double>(cmd.cdw[1]) / 1e4,
                         static_cast<double>(cmd.cdw[2]) / 1e4,
                         static_cast<std::size_t>(cmd.cdw[3]));
            break;
          case NvmeOpcode::Read:
          case NvmeOpcode::Write:
          case NvmeOpcode::Dsm: {
            // Standard I/O path: cdw0 = LPN, cdw1 = page count.
            // Step the shared clock until this request's completion
            // callback fires; in-flight queries keep progressing.
            bool ok = false;
            auto cb = [&ok](Tick) { ok = true; };
            if (cmd.opcode == NvmeOpcode::Read)
                store_.hostRead(cmd.cdw[0], cmd.cdw[1], cb);
            else if (cmd.opcode == NvmeOpcode::Write)
                store_.hostWrite(cmd.cdw[0], cmd.cdw[1], cb);
            else
                store_.hostTrim(cmd.cdw[0], cmd.cdw[1], cb);
            while (!ok && store_.step()) {
            }
            done.status = ok ? NvmeStatus::Success
                             : NvmeStatus::InternalError;
            break;
          }
          default:
            done.status = NvmeStatus::InvalidField;
        }
    } catch (const FatalError &) {
        done.status = NvmeStatus::InvalidField;
    } catch (const PanicError &) {
        done.status = NvmeStatus::InternalError;
    }
    return done;
}

} // namespace deepstore::core

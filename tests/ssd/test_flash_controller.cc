/** @file Unit tests for the per-channel flash controller timing. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sim/event_queue.h"
#include "ssd/flash_controller.h"

namespace deepstore::ssd {
namespace {

FlashParams
params()
{
    FlashParams p;
    p.channels = 2;
    p.chipsPerChannel = 2;
    p.planesPerChip = 2;
    p.blocksPerPlane = 8;
    p.pagesPerBlock = 4;
    p.readLatency = 50e-6;
    p.programLatency = 500e-6;
    p.eraseLatency = 3e-3;
    p.channelBandwidth = 800e6;
    return p;
}

struct Fixture
{
    sim::EventQueue events;
    StatGroup stats{"test"};
};

TEST(FlashController, SingleReadLatency)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    Tick done = 0;
    FlashCommand cmd;
    cmd.op = FlashOp::Read;
    cmd.addr = {0, 0, 0, 0, 0};
    cmd.transferBytes = 16 * 1024;
    cmd.onComplete = [&](Tick t, FlashStatus) { done = t; };
    ctrl.issue(std::move(cmd));
    f.events.run();
    // 50us array read + 16KB / 800MB/s = 20.48us transfer.
    double seconds = ticksToSeconds(done);
    EXPECT_NEAR(seconds, 50e-6 + 20.48e-6, 1e-9);
}

TEST(FlashController, PartialTransferIsFaster)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    Tick done = 0;
    FlashCommand cmd;
    cmd.op = FlashOp::Read;
    cmd.addr = {0, 0, 0, 0, 0};
    cmd.transferBytes = 1024; // small feature, column read
    cmd.onComplete = [&](Tick t, FlashStatus) { done = t; };
    ctrl.issue(std::move(cmd));
    f.events.run();
    EXPECT_NEAR(ticksToSeconds(done), 50e-6 + 1024.0 / 800e6, 1e-9);
}

TEST(FlashController, SamePlaneReadsSerialize)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    std::vector<Tick> done;
    for (int i = 0; i < 2; ++i) {
        FlashCommand cmd;
        cmd.op = FlashOp::Read;
        cmd.addr = {0, 0, 0, 0, static_cast<std::uint32_t>(i)};
        cmd.transferBytes = 16 * 1024;
        cmd.onComplete = [&](Tick t, FlashStatus) { done.push_back(t); };
        ctrl.issue(std::move(cmd));
    }
    f.events.run();
    ASSERT_EQ(done.size(), 2u);
    // The second array read starts only after the first array read
    // finishes (the plane is busy), but overlaps with the first
    // transfer (cache-read behaviour): 2 reads + 1 exposed transfer.
    EXPECT_NEAR(ticksToSeconds(done[1]),
                2 * 50e-6 + 20.48e-6, 1e-8);
}

TEST(FlashController, DifferentPlanesOverlapReads)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    std::vector<Tick> done;
    for (std::uint32_t plane = 0; plane < 2; ++plane) {
        FlashCommand cmd;
        cmd.op = FlashOp::Read;
        cmd.addr = {0, 0, plane, 0, 0};
        cmd.transferBytes = 16 * 1024;
        cmd.onComplete = [&](Tick t, FlashStatus) { done.push_back(t); };
        ctrl.issue(std::move(cmd));
    }
    f.events.run();
    ASSERT_EQ(done.size(), 2u);
    // Array reads overlap; only the bus serializes the transfers.
    EXPECT_NEAR(ticksToSeconds(done[1]), 50e-6 + 2 * 20.48e-6, 1e-8);
}

TEST(FlashController, BusBoundStreamingHitsChannelBandwidth)
{
    // Stream many full pages across all planes: steady state must be
    // bus-limited at ~800 MB/s.
    Fixture f;
    FlashParams p = params();
    FlashController ctrl(f.events, p, 0, f.stats);
    const int n = 200;
    Tick last = 0;
    for (int i = 0; i < n; ++i) {
        FlashCommand cmd;
        cmd.op = FlashOp::Read;
        auto idx = static_cast<std::uint32_t>(i);
        cmd.addr = {0, idx % 2, (idx / 2) % 2, (idx / 4) % 8,
                    (idx / 32) % 4};
        cmd.transferBytes = p.pageBytes;
        cmd.onComplete = [&](Tick t, FlashStatus) { last = std::max(last, t); };
        ctrl.issue(std::move(cmd));
    }
    f.events.run();
    double seconds = ticksToSeconds(last);
    double bytes = static_cast<double>(n) * 16 * 1024;
    double bw = bytes / seconds;
    EXPECT_GT(bw, 0.90 * 800e6);
    EXPECT_LE(bw, 800e6 * 1.001);
}

TEST(FlashController, ProgramTakesProgramLatency)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    Tick done = 0;
    FlashCommand cmd;
    cmd.op = FlashOp::Program;
    cmd.addr = {0, 0, 0, 0, 0};
    cmd.transferBytes = 16 * 1024;
    cmd.onComplete = [&](Tick t, FlashStatus) { done = t; };
    ctrl.issue(std::move(cmd));
    f.events.run();
    EXPECT_NEAR(ticksToSeconds(done), 20.48e-6 + 500e-6, 1e-8);
}

TEST(FlashController, EraseOccupiesPlane)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    Tick erase_done = 0, read_done = 0;
    FlashCommand er;
    er.op = FlashOp::Erase;
    er.addr = {0, 0, 0, 0, 0};
    er.onComplete = [&](Tick t, FlashStatus) { erase_done = t; };
    ctrl.issue(std::move(er));
    FlashCommand rd;
    rd.op = FlashOp::Read;
    rd.addr = {0, 0, 0, 1, 0}; // same plane, different block
    rd.transferBytes = 1024;
    rd.onComplete = [&](Tick t, FlashStatus) { read_done = t; };
    ctrl.issue(std::move(rd));
    f.events.run();
    EXPECT_NEAR(ticksToSeconds(erase_done), 3e-3, 1e-8);
    EXPECT_GT(read_done, erase_done); // read waited for the erase
}

TEST(FlashController, RejectsWrongChannel)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    FlashCommand cmd;
    cmd.addr = {1, 0, 0, 0, 0};
    EXPECT_THROW(ctrl.issue(std::move(cmd)), PanicError);
}

TEST(FlashController, RejectsOversizedTransfer)
{
    Fixture f;
    FlashController ctrl(f.events, params(), 0, f.stats);
    FlashCommand cmd;
    cmd.addr = {0, 0, 0, 0, 0};
    cmd.transferBytes = 1ull << 40;
    EXPECT_THROW(ctrl.issue(std::move(cmd)), FatalError);
}

TEST(FlashController, CountsStats)
{
    Fixture f;
    StatGroup stats("s");
    FlashController ctrl(f.events, params(), 0, stats);
    FlashCommand cmd;
    cmd.op = FlashOp::Read;
    cmd.addr = {0, 0, 0, 0, 0};
    cmd.transferBytes = 2048;
    ctrl.issue(std::move(cmd));
    f.events.run();
    EXPECT_DOUBLE_EQ(stats.find("flash.pageReads")->value(), 1.0);
    EXPECT_DOUBLE_EQ(stats.find("flash.readBytes")->value(), 2048.0);

    // A page population under the legacy retry ladder and injected
    // uncorrectable reads: issue() produces both RetriedOk and
    // Uncorrectable completions and counts them.
    FlashParams p = params();
    p.readRetryProbability = 0.5; // deterministic hash per address
    p.faults.seed = 99;
    p.faults.uncorrectableReadProbability = 0.25;
    FlashController faulty(f.events, p, 0, f.stats);
    int retried = 0, uncorrectable = 0;
    for (std::uint32_t page = 0; page < 4; ++page) {
        for (std::uint32_t block = 0; block < 8; ++block) {
            FlashCommand rd;
            rd.op = FlashOp::Read;
            rd.addr = {0, block % 2, (block / 2) % 2, block, page};
            rd.transferBytes = 4096;
            rd.onComplete = [&](Tick, FlashStatus st) {
                retried += st == FlashStatus::RetriedOk;
                uncorrectable += st == FlashStatus::Uncorrectable;
            };
            faulty.issue(std::move(rd));
            f.events.run();
        }
    }
    EXPECT_GT(retried, 0);
    EXPECT_GT(uncorrectable, 0);
    EXPECT_GT(f.stats.find("flash.readRetries")->value(), 0.0);
    EXPECT_GT(f.stats.find("flash.uncorrectableReads")->value(), 0.0);
}

TEST(FlashController, UncorrectableReadSkipsTheBusTransfer)
{
    // A blacklisted page costs the full retry ladder on the array
    // but never occupies the channel bus; completion lands at
    // read_done with status Uncorrectable.
    FlashParams p = params();
    PageAddress bad{0, 0, 0, 2, 1};
    p.faults.pageBlacklist = {faultKey(bad)};
    Fixture f;
    FlashController ctrl(f.events, p, 0, f.stats);
    Tick done = 0;
    FlashStatus status = FlashStatus::Ok;
    FlashCommand cmd;
    cmd.op = FlashOp::Read;
    cmd.addr = bad;
    cmd.transferBytes = 16 * 1024;
    cmd.onComplete = [&](Tick t, FlashStatus st) {
        done = t;
        status = st;
    };
    ctrl.issue(std::move(cmd));
    f.events.run();
    EXPECT_EQ(status, FlashStatus::Uncorrectable);
    // Full ladder: readLatency * (1 + penalty), no transfer term.
    EXPECT_EQ(done, secondsToTicks(p.readLatency *
                                   (1.0 + p.readRetryPenalty)));
    EXPECT_DOUBLE_EQ(
        f.stats.find("flash.uncorrectableReads")->value(), 1.0);
    EXPECT_EQ(f.stats.find("flash.readBytes"), nullptr);
}

} // namespace
} // namespace deepstore::ssd

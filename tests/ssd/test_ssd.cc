/** @file Integration tests for the top-level SSD model. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "ssd/ssd.h"
#include "ssd/throughput.h"

namespace deepstore::ssd {
namespace {

FlashParams
smallParams()
{
    FlashParams p;
    p.channels = 4;
    p.chipsPerChannel = 2;
    p.planesPerChip = 2;
    p.blocksPerPlane = 16;
    p.pagesPerBlock = 8;
    return p;
}

TEST(Ssd, WriteThenReadCompletes)
{
    sim::EventQueue events;
    Ssd ssd(events, smallParams());
    bool wrote = false, read = false;
    ssd.hostWrite(0, 8, [&](Tick) { wrote = true; });
    events.run();
    ASSERT_TRUE(wrote);
    Tick start = events.now();
    Tick done = 0;
    ssd.hostRead(0, 8, [&](Tick t) {
        read = true;
        done = t;
    });
    events.run();
    EXPECT_TRUE(read);
    // Nothing defers a lone host read: command overhead + array
    // read + transfer only.
    EXPECT_LT(ticksToSeconds(done - start), 200e-6);
}

TEST(Ssd, ReadBeforeWriteIsFatal)
{
    sim::EventQueue events;
    Ssd ssd(events, smallParams());
    ssd.hostRead(0, 1, nullptr);
    EXPECT_THROW(events.run(), FatalError);
}

TEST(Ssd, HostReadBoundByExternalBandwidth)
{
    sim::EventQueue events;
    FlashParams p = smallParams();
    p.externalBandwidth = 100e6; // artificially slow host link
    Ssd ssd(events, p);
    const std::uint64_t n = 64;
    ssd.hostWrite(0, n, nullptr);
    events.run();
    Tick start = events.now();
    Tick done = 0;
    ssd.hostRead(0, n, [&](Tick t) { done = t; });
    events.run();
    double secs = ticksToSeconds(done - start);
    double bytes = static_cast<double>(n * p.pageBytes);
    double bw = bytes / secs;
    // Must be limited by (and close to) the external link.
    EXPECT_LE(bw, 100e6 * 1.001);
    EXPECT_GT(bw, 0.8 * 100e6);
}

TEST(Ssd, InternalReadsBypassExternalInterface)
{
    sim::EventQueue events;
    FlashParams p = smallParams();
    p.externalBandwidth = 1e3; // would take ~hours over the host link
    Ssd ssd(events, p);
    ssd.hostWrite(0, 4, nullptr);
    events.run();
    Tick start = events.now();
    std::uint64_t ppn = ssd.ftl().translate(0);
    Tick done = 0;
    ssd.internalRead(ppn, 4096, [&](Tick t) { done = t; });
    events.run();
    // Internal read: array latency + bus only.
    EXPECT_LT(ticksToSeconds(done - start), 100e-6);
}

TEST(Ssd, StripedWriteSpreadsAcrossChannels)
{
    sim::EventQueue events;
    Ssd ssd(events, smallParams());
    ssd.hostWrite(0, 8, nullptr);
    events.run();
    std::vector<int> per_channel(4, 0);
    for (std::uint64_t lpn = 0; lpn < 8; ++lpn)
        ++per_channel[ssd.physicalAddress(lpn).channel];
    for (int c : per_channel)
        EXPECT_EQ(c, 2);
}

TEST(Ssd, PayloadRoundTrip)
{
    sim::EventQueue events;
    Ssd ssd(events, smallParams());
    std::vector<std::uint8_t> data{1, 2, 3, 4};
    ssd.storePayload(7, data);
    const auto *got = ssd.payload(7);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, data);
    EXPECT_EQ(ssd.payload(8), nullptr);
}

TEST(Ssd, OversizedPayloadIsFatal)
{
    sim::EventQueue events;
    Ssd ssd(events, smallParams());
    std::vector<std::uint8_t> data(64 * 1024, 0);
    EXPECT_THROW(ssd.storePayload(0, data), FatalError);
}

TEST(Ssd, ControllerOutOfRangePanics)
{
    sim::EventQueue events;
    Ssd ssd(events, smallParams());
    EXPECT_THROW(ssd.controller(99), PanicError);
}

// Cross-validation: the closed-form channel feature rate matches the
// event-driven controller within a few percent for steady streaming.
class ThroughputXVal : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ThroughputXVal, ClosedFormMatchesEventModel)
{
    std::uint64_t feature_bytes = GetParam();
    FlashParams p; // full-size default geometry
    p.channels = 1;

    sim::EventQueue events;
    StatGroup stats("x");
    FlashController ctrl(events, p, 0, stats);

    FeatureLayout layout{feature_bytes, p.pageBytes};
    const std::uint64_t features = 2000;
    std::uint64_t pages = layout.pagesForFeatures(features);
    std::uint64_t xfer = layout.transferBytesPerPage();

    Geometry g(p);
    Tick last = 0;
    for (std::uint64_t i = 0; i < pages; ++i) {
        FlashCommand cmd;
        cmd.op = FlashOp::Read;
        cmd.addr = g.decode(i);
        cmd.transferBytes = xfer;
        cmd.onComplete = [&](Tick t, FlashStatus) { last = std::max(last, t); };
        ctrl.issue(std::move(cmd));
    }
    events.run();

    double measured =
        static_cast<double>(features) / ticksToSeconds(last);
    double predicted = channelFeatureRate(p, feature_bytes);
    EXPECT_NEAR(measured / predicted, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(FeatureSizes, ThroughputXVal,
                         ::testing::Values(800,    // TextQA
                                           2048,   // MIR / TIR
                                           16384,  // ESTP
                                           45056)); // ReId (3 pages)

TEST(Throughput, LayoutArithmetic)
{
    FeatureLayout small{800, 16384};
    EXPECT_EQ(small.featuresPerPage(), 20u);
    EXPECT_EQ(small.pagesPerFeature(), 1u);
    EXPECT_EQ(small.pagesForFeatures(41), 3u);

    FeatureLayout reid{45056, 16384}; // 44 KB
    EXPECT_EQ(reid.pagesPerFeature(), 3u);
    EXPECT_EQ(reid.pagesForFeatures(10), 30u);
}

TEST(Throughput, SmallFeaturesArePlaneLimited)
{
    FlashParams p;
    // 20 TextQA features per page, partial transfer 16000 bytes:
    // bus rate = 800e6/16000 = 50K pages/s;
    // plane rate = 32 planes / 53us = 603K pages/s -> bus-limited.
    double rate = channelFeatureRate(p, 800);
    EXPECT_NEAR(rate, 50e3 * 20, 1e3);
}

TEST(Throughput, WholeSsdScalesWithChannels)
{
    FlashParams p;
    double one = channelFeatureRate(p, 2048);
    EXPECT_NEAR(ssdInternalFeatureRate(p, 2048), 32 * one, 1.0);
}

} // namespace
} // namespace deepstore::ssd

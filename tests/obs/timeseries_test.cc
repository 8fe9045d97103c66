/**
 * @file
 * Time-series sampler tests: the drained sample stream is
 * bit-identical for any worker thread count (the (trial, signal, t)
 * sort contract), sampling is armed only by the cadence knob, the
 * columnar store indexes channels contiguously, and LTTB
 * downsampling is a deterministic, endpoint-preserving pure function.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/obs.hh"
#include "sim/random.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

using obs::SeriesPoint;
using obs::SignalId;
using obs::SignalSample;
using obs::TimeSeriesSink;
using obs::TimeSeriesStore;

constexpr std::uint64_t kSeed = 2014;
constexpr std::uint64_t kTrials = 6;

AnnualCampaignSpec
dgSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0, fromMinutes(4.0),
                      true};
    spec.config = dgSmallPUpsConfig();
    return spec;
}

bool
sameSamples(const std::vector<SignalSample> &a,
            const std::vector<SignalSample> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].trial != b[i].trial || a[i].t != b[i].t ||
            a[i].signal != b[i].signal ||
            std::memcmp(&a[i].value, &b[i].value, sizeof(double)) != 0)
            return false;
    }
    return true;
}

std::vector<SignalSample>
runSampled(int threads, Time cadence,
           std::uint64_t window = std::numeric_limits<std::uint64_t>::max())
{
    obs::Context evidence;
    evidence.sampleCadence = cadence;
    evidence.sampleTrials = window;
    ShardOptions opts;
    opts.threads = threads;
    opts.obs = &evidence;
    runAnnualShard(dgSpec(), shardOf(kSeed, kTrials, 0, 1), opts);
    return evidence.samples();
}

TEST(TimeSeries, SamplerCoversEverySignalAtTheCadence)
{
    constexpr Time kCadence = 24 * kHour;
    const auto rows = runSampled(1, kCadence);
    ASSERT_FALSE(rows.empty());

    // One sample per signal per cadence tick per trial: ticks at
    // t = 0, cadence, ..., kYear inclusive.
    constexpr std::uint64_t kTicks = 365 + 1;
    EXPECT_EQ(rows.size(), kTrials * obs::kSignalCount * kTicks);

    for (const auto &r : rows) {
        EXPECT_LT(r.trial, kTrials);
        EXPECT_EQ(r.t % kCadence, 0);
    }
    // Spot physical invariants on a stream that includes outages.
    for (const auto &r : rows) {
        if (r.signal == SignalId::BatterySoc) {
            EXPECT_GE(r.value, 0.0);
            EXPECT_LE(r.value, 1.0 + 1e-12);
        }
        if (r.signal == SignalId::ServersActive) {
            EXPECT_GE(r.value, 0.0);
            EXPECT_LE(r.value, 4.0);
        }
    }
}

TEST(TimeSeries, BitIdenticalForAnyThreadCount)
{
    constexpr Time kCadence = 24 * kHour;
    const auto serial = runSampled(1, kCadence);
    ASSERT_FALSE(serial.empty());
    for (const int threads : {4, 16}) {
        EXPECT_TRUE(sameSamples(serial, runSampled(threads, kCadence)))
            << "sample stream differs at " << threads << " threads";
    }
}

TEST(TimeSeries, ZeroCadenceSchedulesNoSampling)
{
    const auto rows = runSampled(1, 0);
    EXPECT_TRUE(rows.empty());
}

TEST(TimeSeries, SampleWindowLimitsTheSampledTrials)
{
    constexpr Time kCadence = 24 * kHour;
    const auto all = runSampled(1, kCadence);
    const auto windowed = runSampled(4, kCadence, 2);
    std::vector<SignalSample> want;
    for (const auto &r : all)
        if (r.trial < 2)
            want.push_back(r);
    ASSERT_FALSE(want.empty());
    EXPECT_TRUE(sameSamples(windowed, want));
}

TEST(TimeSeries, EmitIsANoOpWhileDisabled)
{
    ASSERT_FALSE(obs::enabled());
    EXPECT_EQ(obs::sampleCadence(), 0);
    TimeSeriesSink::emit(SignalId::LoadW, 1, 2.0);
    obs::TrialRecord record;
    record.sampleCadence = kHour;
    {
        const obs::TrialScope scope(0, &record);
        EXPECT_EQ(obs::sampleCadence(), kHour);
    }
    EXPECT_TRUE(record.samples.empty());
}

TEST(TimeSeriesStore, ChannelsAreContiguousAndSorted)
{
    const auto rows = runSampled(1, 7 * 24 * kHour);
    const auto store = TimeSeriesStore::fromSamples(rows);
    ASSERT_EQ(store.rows(), rows.size());

    std::size_t covered = 0;
    std::tuple<std::uint64_t, int> prev{0, -1};
    for (const auto &ch : store.channels()) {
        EXPECT_EQ(ch.begin, covered);
        ASSERT_LT(ch.begin, ch.end);
        covered = ch.end;
        // Channel keys strictly increase in (trial, signal).
        const std::tuple<std::uint64_t, int> key{
            ch.trial, static_cast<int>(ch.signal)};
        EXPECT_GT(key, prev);
        prev = key;
        for (std::size_t i = ch.begin; i < ch.end; ++i) {
            EXPECT_EQ(store.trials()[i], ch.trial);
            EXPECT_EQ(store.signals()[i], ch.signal);
            if (i > ch.begin) {
                EXPECT_GT(store.times()[i], store.times()[i - 1]);
            }
        }
    }
    EXPECT_EQ(covered, store.rows());
    // One channel per (trial, signal) pair.
    EXPECT_EQ(store.channels().size(), kTrials * obs::kSignalCount);
}

TEST(TimeSeriesCsv, HeaderAndOneRowPerSample)
{
    std::vector<SignalSample> rows = {
        {0, 0, SignalId::LoadW, 100.0},
        {0, 1000000, SignalId::LoadW, 150.5},
        {1, 0, SignalId::BatterySoc, 1.0},
    };
    std::ostringstream os;
    writeTimeSeriesCsv(os, TimeSeriesStore::fromSamples(rows));
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("trial,signal,sim_us,value\n", 0), 0u);
    EXPECT_NE(text.find("0,load_w,0,100\n"), std::string::npos);
    EXPECT_NE(text.find("0,load_w,1000000,150.5\n"), std::string::npos);
    EXPECT_NE(text.find("1,battery_soc,0,1\n"), std::string::npos);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

// ---------------------------------------------------------------------
// LTTB

std::vector<SeriesPoint>
sinePoints(std::size_t n)
{
    std::vector<SeriesPoint> pts(n);
    for (std::size_t i = 0; i < n; ++i)
        pts[i] = {static_cast<Time>(i * 1000),
                  std::sin(static_cast<double>(i) * 0.05)};
    return pts;
}

TEST(Lttb, KeepsEndpointsAndHonorsBudget)
{
    const auto pts = sinePoints(5000);
    for (const std::size_t budget : {3u, 10u, 100u, 999u}) {
        const auto ds = obs::lttb(pts, budget);
        ASSERT_EQ(ds.size(), budget);
        EXPECT_EQ(ds.front().t, pts.front().t);
        EXPECT_EQ(ds.back().t, pts.back().t);
        // Timestamps stay strictly increasing.
        for (std::size_t i = 1; i < ds.size(); ++i)
            EXPECT_GT(ds[i].t, ds[i - 1].t);
    }
}

TEST(Lttb, PassesSmallInputsThrough)
{
    const auto pts = sinePoints(50);
    const auto same = obs::lttb(pts, 50);
    ASSERT_EQ(same.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(same[i].t, pts[i].t);
        EXPECT_EQ(same[i].value, pts[i].value);
    }
    EXPECT_EQ(obs::lttb(pts, 100).size(), pts.size());
    EXPECT_EQ(obs::lttb({}, 10).size(), 0u);
}

TEST(Lttb, KeepsExtremesOfASpike)
{
    auto pts = sinePoints(1000);
    pts[500].value = 100.0; // a spike LTTB must not smooth away
    const auto ds = obs::lttb(pts, 50);
    const bool kept =
        std::any_of(ds.begin(), ds.end(), [](const SeriesPoint &p) {
            return p.value == 100.0;
        });
    EXPECT_TRUE(kept);
}

} // namespace
} // namespace bpsim

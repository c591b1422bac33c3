#include "colorbars/baseline/fsk.hpp"
#include "colorbars/baseline/ook.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "colorbars/util/rng.hpp"

namespace colorbars::baseline {
namespace {

TEST(Ook, ModulateProducesOneSegmentPerBit) {
  const std::vector<std::uint8_t> bits{1, 0, 1, 1, 0};
  OokConfig config;
  const led::EmissionTrace trace = ook_modulate(bits, config);
  EXPECT_EQ(trace.segment_count(), 5u);
  EXPECT_GT(trace.sample(0.0001).sum(), 0.0);                      // bit 1: lit
  EXPECT_DOUBLE_EQ(trace.sample(1.5 / config.symbol_rate_hz).sum(), 0.0);  // bit 0: dark
}

TEST(Ook, ObservedBitsAreMostlyCorrect) {
  OokConfig config;
  config.symbol_rate_hz = 1000.0;
  const OokRunResult result =
      ook_run(config, camera::ideal_profile(), {}, 2000, 101);
  EXPECT_GT(result.bits_observed, 1000);
  EXPECT_LT(result.ber(), 0.02);
}

TEST(Ook, LossMatchesInterFrameGap) {
  OokConfig config;
  config.symbol_rate_hz = 1000.0;
  const camera::SensorProfile profile = camera::nexus5_profile();
  const OokRunResult result = ook_run(config, profile, {}, 3000, 102);
  const double observed_fraction =
      static_cast<double>(result.bits_observed) / static_cast<double>(result.bits_sent);
  EXPECT_NEAR(observed_fraction, 1.0 - profile.inter_frame_loss_ratio, 0.08);
}

TEST(Ook, ThroughputIsOneBitPerSymbol) {
  // OOK at S sym/s over a camera with loss l delivers ~(1-l)S bps —
  // far below CSK's C bits per symbol.
  OokConfig config;
  config.symbol_rate_hz = 2000.0;
  const OokRunResult result = ook_run(config, camera::ideal_profile(), {}, 4000, 103);
  EXPECT_GT(result.throughput_bps(), 1000.0);
  EXPECT_LT(result.throughput_bps(), 2000.0);
}

TEST(Ook, DemodulateDropsSlotsOfCorruptFrameTimes) {
  // A frame stamped before the stream (negative slots) or 10^5 s on
  // (beyond rx::kMaxSlotGap of bit 0 and of the slots before it) is
  // dropped: nothing is written before the result, the result is not
  // sized for every slot up to it, and the other frames decode as
  // without it, wherever it arrives.
  OokConfig config;
  util::Xoshiro256 rng(106);
  std::vector<std::uint8_t> bits(600);
  for (auto& bit : bits) bit = static_cast<std::uint8_t>(rng.below(2));
  camera::RollingShutterCamera camera(camera::ideal_profile(), {}, 107);
  const std::vector<camera::Frame> frames = camera.capture_video(ook_modulate(bits, config));
  ASSERT_GE(frames.size(), 3u);
  const OokDecodeResult clean = ook_demodulate(frames, config);
  ASSERT_GT(clean.slots_total, 0);
  for (const double start_time_s : {-100.0, 1e5}) {
    camera::Frame corrupt = frames[1];
    corrupt.start_time_s = start_time_s;
    const OokDecodeResult alone = ook_demodulate({corrupt}, config);
    EXPECT_EQ(alone.slots_total, 0) << start_time_s;
    EXPECT_TRUE(alone.bits.empty()) << start_time_s;
    for (const std::size_t position : {std::size_t{0}, std::size_t{1}, frames.size()}) {
      std::vector<camera::Frame> mixed = frames;
      mixed.insert(mixed.begin() + static_cast<std::ptrdiff_t>(position), corrupt);
      const OokDecodeResult decoded = ook_demodulate(mixed, config);
      EXPECT_EQ(decoded.slots_total, clean.slots_total) << start_time_s << " at " << position;
      EXPECT_EQ(decoded.bits, clean.bits) << start_time_s << " at " << position;
      EXPECT_EQ(decoded.observed, clean.observed) << start_time_s << " at " << position;
    }
  }
}

TEST(Fsk, BitsPerSymbolIsLog2OfAlphabet) {
  FskConfig config;
  EXPECT_EQ(config.bits_per_symbol(), 3);
  config.frequencies = {500, 1000, 1500, 2000};
  EXPECT_EQ(config.bits_per_symbol(), 2);
}

TEST(Fsk, ModulateHoldsDwellPerSymbol) {
  FskConfig config;
  const led::EmissionTrace trace = fsk_modulate({0, 3, 7}, config);
  EXPECT_NEAR(trace.duration(), 3.0 * config.dwell_s, 1e-9);
}

TEST(Fsk, SquareWaveAlternates) {
  FskConfig config;
  config.frequencies = {600};
  const led::EmissionTrace trace = fsk_modulate({0}, config);
  // At 600 Hz the first half-period (0.83 ms) is lit, the next dark.
  EXPECT_GT(trace.sample(0.0004).sum(), 0.0);
  EXPECT_DOUBLE_EQ(trace.sample(0.0012).sum(), 0.0);
}

TEST(Fsk, InvalidConfigIsRejected) {
  // Each of these made fsk_modulate loop without end (a negative or
  // infinite slice, an infinite dwell) or append a NaN-length segment.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<FskConfig> configs(1);
  configs.back().frequencies.clear();
  for (const double frequency : {-900.0, 0.0, kNan, kInf}) {
    configs.emplace_back().frequencies[1] = frequency;
  }
  for (const double dwell_s : {-1.0 / 30.0, 0.0, kNan, kInf}) {
    configs.emplace_back().dwell_s = dwell_s;
  }
  for (const FskConfig& config : configs) {
    EXPECT_THROW(config.validate(), std::invalid_argument);
    EXPECT_THROW((void)fsk_modulate({0}, config), std::invalid_argument);
    EXPECT_THROW((void)fsk_run(config, camera::ideal_profile(), {}, 4, 108),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(FskConfig{}.validate());
}

TEST(Fsk, TooManyHalfPeriodsPerDwellIsRejected) {
  // At 1e300 Hz the half-period is below an ulp of the dwell left, so
  // fsk_modulate's loop never ended; at 1e6 Hz one 1/30 s dwell holds
  // 66,667 half-periods, and a 1e9 s dwell holds 1.2e12 at 600 Hz.
  std::vector<FskConfig> configs(3);
  configs[0].frequencies[1] = 1e300;
  configs[1].frequencies[1] = 1e6;
  configs[2].dwell_s = 1e9;
  for (const FskConfig& config : configs) {
    EXPECT_THROW(config.validate(), std::invalid_argument);
    // No symbols: were the bound gone, these calls would return rather
    // than append segments without end.
    EXPECT_THROW((void)fsk_modulate({}, config), std::invalid_argument);
    EXPECT_THROW((void)fsk_run(config, camera::ideal_profile(), {}, 0, 108),
                 std::invalid_argument);
  }
  FskConfig fast;
  fast.frequencies = {9e5};  // 60,000 half-periods per 1/30 s dwell
  EXPECT_NO_THROW(fast.validate());
}

TEST(Fsk, FrameWithoutPixelsDecodesAsNoSymbol) {
  camera::Frame empty;
  empty.row_time_s = 1e-5;
  camera::Frame no_columns = empty;
  no_columns.rows = 16;
  EXPECT_EQ(fsk_demodulate({empty, no_columns}, FskConfig{}), (std::vector<int>{-1, -1}));
}

TEST(Fsk, DecodesMostSymbolsCorrectly) {
  FskConfig config;
  const FskRunResult result = fsk_run(config, camera::ideal_profile(), {}, 60, 104);
  EXPECT_GT(result.symbols_decoded, 40);
  EXPECT_LT(result.ser(), 0.15);
}

TEST(Fsk, ThroughputIsFarBelowCsk) {
  // The paper's motivation: FSK baselines deliver ~11 bytes/s (~90 bps).
  FskConfig config;
  const FskRunResult result = fsk_run(config, camera::nexus5_profile(), {}, 90, 105);
  EXPECT_LT(result.throughput_bps(), 150.0);
  EXPECT_GT(result.throughput_bps(), 30.0);
}

}  // namespace
}  // namespace colorbars::baseline

#include "colorbars/core/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "colorbars/tx/transmitter.hpp"

namespace colorbars::core {
namespace {

TEST(DeriveLinkCode, PacketFitsOneFramePeriod) {
  for (const csk::CskOrder order : csk::all_orders()) {
    for (const double rate : {1000.0, 2000.0, 3000.0, 4000.0}) {
      const rs::CodeParameters code = derive_link_code(order, rate, 30.0, 0.25, 0.8);
      ASSERT_GT(code.k, 0);
      ASSERT_LT(code.k, code.n);
      const csk::Constellation constellation(order);
      const protocol::Packetizer packetizer({order, 0.8}, constellation);
      const int slots = packetizer.data_packet_slots(code.n);
      EXPECT_LE(slots, static_cast<int>(rate / 30.0) + 1)
          << "order " << static_cast<int>(order) << " rate " << rate;
    }
  }
}

TEST(DeriveLinkCode, HigherLossMeansMoreParity) {
  const rs::CodeParameters low = derive_link_code(csk::CskOrder::kCsk8, 4000, 30, 0.23, 0.8);
  const rs::CodeParameters high = derive_link_code(csk::CskOrder::kCsk8, 4000, 30, 0.37, 0.8);
  EXPECT_GT(high.n - high.k, low.n - low.k);
}

TEST(DeriveLinkCode, MatchesIntegerSizingAndSurvivesExtremeRates) {
  // The sizing rule as integer arithmetic, valid while every conversion
  // is in range: derive_link_code must agree with it exactly there.
  const auto reference = [](csk::CskOrder order, double rate, double fps, double loss,
                            double phi) {
    const int bits = csk::bits_per_symbol(order);
    const double slots = rate / fps;
    const int overhead = static_cast<int>(protocol::delimiter_sequence().size() +
                                          protocol::data_flag_sequence().size()) +
                         protocol::size_field_symbols(order);
    const int payload = std::max(static_cast<int>(std::floor(slots)) - overhead, 8);
    const int data = std::max(static_cast<int>(std::floor(payload * phi)), 4);
    const int n = std::clamp(data * bits / 8, 3, 255);
    const double parity_bits = 1.25 * phi * bits * loss * slots;
    const int parity = std::clamp(static_cast<int>(std::ceil(parity_bits / 8.0)), 2, n - 1);
    return rs::CodeParameters{n, n - parity};
  };
  for (const csk::CskOrder order : csk::all_orders()) {
    for (const double rate : {1.0, 250.0, 999.5, 2000.0, 4500.0, 12345.0, 2e5}) {
      for (const double loss : {0.0, 0.2312, 0.3727, 0.9}) {
        for (const double phi : {0.05, 0.5, 0.8, 1.0}) {
          const rs::CodeParameters expected = reference(order, rate, 30.0, loss, phi);
          const rs::CodeParameters code = derive_link_code(order, rate, 30.0, loss, phi);
          EXPECT_EQ(code.n, expected.n) << rate << " " << loss << " " << phi;
          EXPECT_EQ(code.k, expected.k) << rate << " " << loss << " " << phi;
        }
      }
    }
  }
  // Rates whose slot counts overflow an int, and NaN, saturate instead
  // of overflowing a conversion.
  for (const double rate : {1e300, HUGE_VAL, std::nan("")}) {
    const rs::CodeParameters code = derive_link_code(csk::CskOrder::kCsk16, rate, 30.0,
                                                     0.2312, 0.8);
    EXPECT_GE(code.n, 3) << rate;
    EXPECT_LE(code.n, 255) << rate;
    EXPECT_GE(code.k, 1) << rate;
    EXPECT_LE(code.k, code.n - 2) << rate;
  }
}

TEST(LinkConfig, TransmitterAndReceiverAgree) {
  LinkConfig config;
  config.order = csk::CskOrder::kCsk16;
  config.symbol_rate_hz = 3000;
  const auto tx = config.transmitter_config();
  const auto rx = config.receiver_config();
  EXPECT_EQ(tx.rs_n, rx.rs_n);
  EXPECT_EQ(tx.rs_k, rx.rs_k);
  EXPECT_EQ(tx.format.order, rx.format.order);
  EXPECT_DOUBLE_EQ(tx.format.illumination_ratio, rx.format.illumination_ratio);
}

TEST(LinkSimulator, PayloadTransferRecoversMostBytes) {
  // Recovery is quantized to whole RS blocks (k bytes each) and any
  // single realization swings widely with the frame-gap phase, so
  // assert on the mean over a few seeds rather than one lucky draw.
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  double recovered = 0.0;
  for (const std::uint64_t seed : {0x9a10adULL, 0x9a10aeULL, 0x9a10afULL}) {
    LinkConfig config;
    config.order = csk::CskOrder::kCsk8;
    config.symbol_rate_hz = 2000;
    config.profile = camera::ideal_profile();
    config.seed = seed;
    LinkSimulator sim(config);
    const LinkRunResult result = sim.run_payload(payload);
    recovered += static_cast<double>(result.recovered_bytes);
    EXPECT_GT(result.goodput_bps(), 0.0) << "seed " << seed;
  }
  EXPECT_GT(recovered / 3.0, static_cast<double>(payload.size()) / 3.0);
}

TEST(LinkSimulator, SerIsLowForSmallConstellations) {
  // Fig. 9 headline: 4/8-CSK stay near zero SER.
  for (const csk::CskOrder order : {csk::CskOrder::kCsk4, csk::CskOrder::kCsk8}) {
    LinkConfig config;
    config.order = order;
    config.symbol_rate_hz = 2000;
    LinkSimulator sim(config);
    const SerResult result = sim.run_ser(1500);
    EXPECT_LT(result.ser(), 0.01) << "order " << static_cast<int>(order);
  }
}

TEST(LinkSimulator, SerGrowsWithOrder) {
  double previous = -1.0;
  for (const csk::CskOrder order : {csk::CskOrder::kCsk8, csk::CskOrder::kCsk32}) {
    LinkConfig config;
    config.order = order;
    config.symbol_rate_hz = 4000;
    LinkSimulator sim(config);
    const SerResult result = sim.run_ser(1500);
    EXPECT_GT(result.ser(), previous);
    previous = result.ser();
  }
}

TEST(LinkSimulator, MeasuredLossMatchesProfile) {
  for (const auto& profile : {camera::nexus5_profile(), camera::iphone5s_profile()}) {
    LinkConfig config;
    config.profile = profile;
    config.symbol_rate_hz = 2000;
    LinkSimulator sim(config);
    const SerResult result = sim.run_ser(2000);
    EXPECT_NEAR(result.inter_frame_loss_ratio, profile.inter_frame_loss_ratio, 0.05)
        << profile.name;
  }
}

TEST(LinkSimulator, EmptySerRunReportsZeroLoss) {
  // 0 symbols sent used to yield a NaN loss ratio (0/0); it must be 0.
  LinkConfig config;
  LinkSimulator sim(config);
  const SerResult result = sim.run_ser(0);
  EXPECT_EQ(result.symbols_sent, 0);
  EXPECT_DOUBLE_EQ(result.inter_frame_loss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(result.ser(), 0.0);
}

TEST(LinkSimulator, ReceiverConfigCarriesProfileFrameRate) {
  LinkConfig config;
  config.profile = camera::ideal_profile();
  config.profile.fps = 48.0;
  EXPECT_DOUBLE_EQ(config.receiver_config().frame_rate_hz, 48.0);
}

TEST(LinkSimulator, ThroughputScalesWithBitsPerSymbol) {
  double previous = 0.0;
  for (const csk::CskOrder order :
       {csk::CskOrder::kCsk4, csk::CskOrder::kCsk8, csk::CskOrder::kCsk16}) {
    LinkConfig config;
    config.order = order;
    config.symbol_rate_hz = 2000;
    LinkSimulator sim(config);
    const ThroughputResult result = sim.run_throughput(1.0);
    EXPECT_GT(result.throughput_bps(), previous) << static_cast<int>(order);
    previous = result.throughput_bps();
  }
}

TEST(LinkSimulator, ThroughputExcludesWhiteSlots) {
  LinkConfig config;
  config.order = csk::CskOrder::kCsk8;
  config.symbol_rate_hz = 2000;
  config.illumination_ratio = 0.8;
  LinkSimulator sim(config);
  const ThroughputResult result = sim.run_throughput(1.0);
  // Data slots sent should be ~phi * S * duration.
  EXPECT_NEAR(static_cast<double>(result.data_slots_sent), 0.8 * 2000.0, 25.0);
}

TEST(LinkSimulator, NexusOutperformsIphoneOnThroughput) {
  // Fig. 10: despite the iPhone's better color fidelity, its larger
  // inter-frame gap costs it raw throughput.
  LinkConfig nexus;
  nexus.order = csk::CskOrder::kCsk16;
  nexus.symbol_rate_hz = 3000;
  nexus.profile = camera::nexus5_profile();
  LinkConfig iphone = nexus;
  iphone.profile = camera::iphone5s_profile();
  const ThroughputResult nexus_result = LinkSimulator(nexus).run_throughput(1.5);
  const ThroughputResult iphone_result = LinkSimulator(iphone).run_throughput(1.5);
  EXPECT_GT(nexus_result.throughput_bps(), iphone_result.throughput_bps());
}

TEST(LinkSimulator, GoodputIsPositiveAtModerateRates) {
  LinkConfig config;
  config.order = csk::CskOrder::kCsk8;
  config.symbol_rate_hz = 3000;
  LinkSimulator sim(config);
  const LinkRunResult result = sim.run_goodput(1.5);
  EXPECT_GT(result.goodput_bps(), 500.0);
}

TEST(LinkSimulator, TinyCalibrationRateMeansNeverAndNonFiniteIsRejected) {
  // 3000 / 1e-300 slots is far past 2^63: the calibration interval must
  // read as "never", as a rate of 0 does, instead of overflowing a
  // long long conversion (undefined behaviour that the sanitizer build's
  // float-cast-overflow check halts on). The run finishes, and it sends
  // exactly what a never-calibrating run sends.
  LinkConfig config;
  config.order = csk::CskOrder::kCsk8;
  config.symbol_rate_hz = 3000;
  config.calibration_rate_hz = 1e-300;
  EXPECT_NO_THROW(config.validate());
  const tx::Transmitter tiny_tx(config.transmitter_config());
  const std::vector<std::uint8_t> payload(600, 0x5a);
  const std::vector<protocol::ChannelSymbol> tiny_slots = tiny_tx.transmit(payload).slots;
  const LinkRunResult tiny = LinkSimulator(config).run_goodput(1.5);

  config.calibration_rate_hz = 0.0;
  const tx::Transmitter never_tx(config.transmitter_config());
  EXPECT_EQ(tiny_slots, never_tx.transmit(payload).slots);
  const LinkRunResult never = LinkSimulator(config).run_goodput(1.5);
  EXPECT_EQ(tiny.report.calibration_packets, never.report.calibration_packets);
  EXPECT_EQ(tiny.recovered_bytes, never.recovered_bytes);
  EXPECT_GT(tiny.recovered_bytes, 0u);

  // The default 5 Hz cadence does add periodic packets to the same run.
  config.calibration_rate_hz = 5.0;
  const tx::Transmitter periodic_tx(config.transmitter_config());
  EXPECT_GT(periodic_tx.transmit(payload).slots.size(), tiny_slots.size());

  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
    config.calibration_rate_hz = rate;
    EXPECT_THROW(config.validate(), std::invalid_argument) << rate;
    EXPECT_THROW((void)LinkSimulator(config), std::invalid_argument) << rate;
  }
}

/// Durations no run can take: negative, not finite, or so long that the
/// slot count passes INT_MAX (converting 1e300 s × rate to an integer
/// is undefined behaviour).
const double kImpossibleDurations[] = {-1.0,
                                       -1e-300,
                                       std::numeric_limits<double>::quiet_NaN(),
                                       std::numeric_limits<double>::infinity(),
                                       -std::numeric_limits<double>::infinity(),
                                       1e300,
                                       (std::numeric_limits<int>::max() + 1.0) / 2000.0};

TEST(LinkSimulator, RunSerRejectsANegativeCount) {
  LinkConfig config;
  config.symbol_rate_hz = 2000;
  LinkSimulator simulator(config);
  EXPECT_THROW((void)simulator.run_ser(-1), std::invalid_argument);
  EXPECT_THROW(validate_trial_size(-1, 0.0, 2000.0), std::invalid_argument);
  EXPECT_NO_THROW(validate_trial_size(0, 0.0, 2000.0));
}

TEST(LinkSimulator, RunThroughputRejectsImpossibleDurations) {
  LinkConfig config;
  config.symbol_rate_hz = 2000;
  LinkSimulator simulator(config);
  for (const double duration : kImpossibleDurations) {
    EXPECT_THROW((void)simulator.run_throughput(duration), std::invalid_argument) << duration;
    EXPECT_THROW(validate_trial_size(0, duration, 2000.0), std::invalid_argument) << duration;
  }
  // The bound is exact: INT_MAX slots fit, one more does not.
  const double max_slots = std::numeric_limits<int>::max();
  EXPECT_EQ(slots_in(max_slots, 1.0), std::numeric_limits<int>::max());
  EXPECT_THROW((void)slots_in(max_slots + 1.0, 1.0), std::invalid_argument);
  EXPECT_EQ(slots_in(0.0, 2000.0), 0);
  EXPECT_EQ(slots_in(0.0004, 2000.0), 1);
}

TEST(LinkSimulator, RunGoodputRejectsImpossibleDurations) {
  LinkConfig config;
  config.symbol_rate_hz = 2000;
  LinkSimulator simulator(config);
  util::Xoshiro256 rng(1);
  for (const double duration : kImpossibleDurations) {
    EXPECT_THROW((void)simulator.run_goodput(duration), std::invalid_argument) << duration;
    EXPECT_THROW((void)draw_burst_payload(config, duration, rng), std::invalid_argument)
        << duration;
  }
  // A zero-length burst still carries one packet.
  EXPECT_EQ(draw_burst_payload(config, 0.0, rng).size(),
            static_cast<std::size_t>(config.code().k));
}

TEST(LinkSimulator, ResultsAreReproducibleForSameSeed) {
  LinkConfig config;
  config.symbol_rate_hz = 2000;
  config.seed = 777;
  const SerResult a = LinkSimulator(config).run_ser(800);
  const SerResult b = LinkSimulator(config).run_ser(800);
  EXPECT_EQ(a.symbols_observed, b.symbols_observed);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
}

}  // namespace
}  // namespace colorbars::core

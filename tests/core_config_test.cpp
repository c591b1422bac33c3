#include <gtest/gtest.h>

#include "colorbars/core/link.hpp"

namespace colorbars::core {
namespace {

TEST(LinkConfigKnobs, ClassifierPropagatesToReceiver) {
  LinkConfig config;
  config.matching_space = rx::MatchingSpace::kRgb;
  const rx::ReceiverConfig receiver = config.receiver_config();
  EXPECT_EQ(receiver.matching_space, rx::MatchingSpace::kRgb);
  EXPECT_EQ(rx::Receiver(receiver).store().matching_space(), rx::MatchingSpace::kRgb);
}

TEST(LinkConfigKnobs, AblationFlagsPropagate) {
  LinkConfig config;
  config.enable_dephasing_pad = false;
  config.use_erasure_decoding = false;
  EXPECT_FALSE(config.transmitter_config().enable_dephasing_pad);
  EXPECT_FALSE(config.receiver_config().use_erasure_decoding);
}

TEST(LinkConfigKnobs, IlluminationRatioReachesBothSides) {
  LinkConfig config;
  config.illumination_ratio = 0.65;
  EXPECT_DOUBLE_EQ(config.transmitter_config().format.illumination_ratio, 0.65);
  EXPECT_DOUBLE_EQ(config.receiver_config().format.illumination_ratio, 0.65);
}

TEST(DeriveLinkCode, HigherOrderCarriesMoreBytesPerPacket) {
  // Same slot budget, more bits per symbol -> larger codewords.
  const auto csk8 = derive_link_code(csk::CskOrder::kCsk8, 3000, 30, 0.25, 0.8);
  const auto csk32 = derive_link_code(csk::CskOrder::kCsk32, 3000, 30, 0.25, 0.8);
  EXPECT_GT(csk32.n, csk8.n);
}

TEST(DeriveLinkCode, RateScalesCodewordSize) {
  const auto slow = derive_link_code(csk::CskOrder::kCsk8, 1000, 30, 0.25, 0.8);
  const auto fast = derive_link_code(csk::CskOrder::kCsk8, 4000, 30, 0.25, 0.8);
  EXPECT_GT(fast.n, slow.n);
  EXPECT_GT(fast.k, slow.k);
}

TEST(DeriveLinkCode, MoreIlluminationMeansFewerDataBytes) {
  const auto dense = derive_link_code(csk::CskOrder::kCsk8, 3000, 30, 0.25, 0.9);
  const auto sparse = derive_link_code(csk::CskOrder::kCsk8, 3000, 30, 0.25, 0.6);
  EXPECT_GT(dense.n, sparse.n);
}

}  // namespace
}  // namespace colorbars::core

// Wire-protocol tests for the trial service (colorbars::svc): exact
// JSON numeric round-trips, frame codec hostile-input behaviour, full
// LinkConfig serialization across every knob, message envelopes, and a
// deterministic mutation-fuzz pass over the decoder + parser (the
// protocol-fuzz corpus pattern) — malformed input must yield errors,
// never UB.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "colorbars/svc/json.hpp"
#include "colorbars/svc/service.hpp"
#include "colorbars/svc/sweep.hpp"
#include "colorbars/svc/wire.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::svc {
namespace {

// --- JSON model ---

TEST(SvcWire, JsonDoubleRoundTripIsBitExact) {
  for (const double value :
       {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324, -0.0, 1e-300, 3.14159265358979,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min()}) {
    const std::string text = Json::number(value).dump();
    std::string error;
    const Json parsed = Json::parse(text, &error);
    ASSERT_TRUE(parsed.is_number()) << text << ": " << error;
    EXPECT_EQ(std::signbit(parsed.as_double()), std::signbit(value));
    EXPECT_EQ(parsed.as_double(), value) << text;
    // And re-serialization is byte-stable (token preserved).
    EXPECT_EQ(parsed.dump(), text);
  }
}

TEST(SvcWire, JsonUint64AboveDoublePrecisionRoundTrips) {
  const std::uint64_t seeds[] = {0xc01055eedULL, 0xffffffffffffffffULL,
                                 (1ULL << 53) + 1, 0x9e3779b97f4a7c15ULL};
  for (const std::uint64_t seed : seeds) {
    const std::string text = Json::unsigned_integer(seed).dump();
    const Json parsed = Json::parse(text);
    ASSERT_TRUE(parsed.is_number());
    EXPECT_EQ(parsed.as_uint64(), seed) << text;
    EXPECT_EQ(parsed.dump(), text);
  }
}

TEST(SvcWire, JsonStringEscapesRoundTrip) {
  Json object = Json::object();
  object.set("text", Json::string("line\nquote\"slash\\tab\tnul\x01"));
  object.set("unicode", Json::string("caf\xc3\xa9"));
  std::string error;
  const Json parsed = Json::parse(object.dump(), &error);
  ASSERT_TRUE(parsed.is_object()) << error;
  EXPECT_EQ(parsed["text"].as_string(), "line\nquote\"slash\\tab\tnul\x01");
  EXPECT_EQ(parsed["unicode"].as_string(), "caf\xc3\xa9");
}

TEST(SvcWire, JsonParserRejectsHostileInput) {
  std::string error;
  // Depth bomb: one past the cap must fail, the cap itself must pass.
  std::string deep;
  for (int i = 0; i <= Json::kMaxDepth; ++i) deep += "[";
  for (int i = 0; i <= Json::kMaxDepth; ++i) deep += "]";
  EXPECT_TRUE(Json::parse(deep, &error).is_null());
  EXPECT_FALSE(error.empty());

  std::string ok_depth;
  for (int i = 0; i < Json::kMaxDepth; ++i) ok_depth += "[";
  for (int i = 0; i < Json::kMaxDepth; ++i) ok_depth += "]";
  EXPECT_TRUE(Json::parse(ok_depth, &error).is_array());

  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "01", "1e", "\"unterminated", "tru",
        "nul", "[1] trailing", "{\"a\" 1}", "\"\\u12\"", "nan", "+1"}) {
    error.clear();
    EXPECT_TRUE(Json::parse(bad, &error).is_null()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- frame codec ---

TEST(SvcWire, FrameCodecRoundTripsAcrossSplitFeeds) {
  const std::string a = encode_frame("first");
  const std::string b = encode_frame(std::string(1000, 'x'));
  const std::string stream = a + b;
  FrameDecoder decoder;
  // Byte-at-a-time delivery must produce exactly the two payloads.
  std::vector<std::string> payloads;
  for (const char byte : stream) {
    decoder.feed(&byte, 1);
    while (auto payload = decoder.next()) payloads.push_back(*payload);
  }
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "first");
  EXPECT_EQ(payloads[1], std::string(1000, 'x'));
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(SvcWire, FrameDecoderPoisonsOnOversizedPrefix) {
  FrameDecoder decoder;
  const char oversized[4] = {0x7f, 0x00, 0x00, 0x00};  // ~2 GiB claim
  decoder.feed(oversized, 4);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_NE(decoder.error().find("kMaxFramePayload"), std::string::npos);
  // Poisoned decoders stay poisoned: later feeds are ignored.
  const std::string good = encode_frame("x");
  decoder.feed(good.data(), good.size());
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(SvcWire, FrameDecoderPoisonsOnZeroLengthPrefix) {
  FrameDecoder decoder;
  const char zero[4] = {0, 0, 0, 0};
  decoder.feed(zero, 4);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.poisoned());
}

TEST(SvcWire, TruncatedFrameNeverCompletes) {
  const std::string frame = encode_frame("hello world");
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size() - 1);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.poisoned());
  EXPECT_EQ(decoder.buffered_bytes(), frame.size() - 1);
}

// --- LinkConfig serialization, every knob off its default ---

core::LinkConfig exercised_config() {
  core::LinkConfig config;
  config.order = csk::CskOrder::kCsk64;
  config.symbol_rate_hz = 3333.0;
  config.illumination_ratio = 0.65;
  config.profile = camera::iphone5s_profile();
  config.profile.rows = 720;
  config.profile.xyz_to_sensor_rgb(1, 2) = -0.125;
  config.profile.frame_start_jitter_s = 0.0009;
  config.channel.distance.distance_m = 0.5;
  config.channel.distance.reference_distance_m = 0.04;
  config.channel.ambient.level = 0.02;
  config.channel.ambient.chromaticity = {0.3, 0.32};
  config.channel.flicker.frequency_hz = 120.0;
  config.channel.flicker.modulation_depth = 0.2;
  config.channel.flicker.phase_rad = 0.7;
  config.channel.occlusion.rate_hz = 0.5;
  config.channel.occlusion.mean_duration_s = 0.02;
  config.channel.occlusion.transmission = 0.1;
  config.channel.isi.delay_spread_s = 0.0004;
  config.channel.isi.taps = 6;
  config.channel.isi.tap_spacing_s = 0.0002;
  config.channel.frame.drop_probability = 0.01;
  config.channel.frame.gain_wobble_sigma = 0.05;
  config.frontend = frontend::FrontendKind::kPhotodiode;
  config.pd.sample_rate_hz = 150000.0;
  config.pd.adc_bits = 10;
  config.pd.channels[0].responsivity = 1.25;
  config.pd.channels[1].filter_xyz = {0.25, 0.5, 0.25};
  config.pd.min_transitions = 48;
  config.led.peak_radiance = 0.8;
  config.led.max_symbol_rate_hz = 4200.0;
  config.led.gamut = color::GamutTriangle({0.68, 0.31}, {0.25, 0.70}, {0.14, 0.05});
  config.calibration_rate_hz = 7.5;
  config.classifier.off_lightness = 33.0;
  config.classifier.off_max_chroma = 21.0;
  config.classifier.confident_delta_e = 4.5;
  config.classifier.matching_space = rx::MatchingSpace::kCielab94;
  config.engine.kind = eq::EngineKind::kLinearMmse;
  config.engine.channel_taps = 4;
  config.engine.equalizer_taps = 10;
  config.engine.mmse_lambda = 2e-3;
  config.engine.dft_size = 64;
  config.engine.max_tap_norm = 16.0;
  config.engine.reference_prior = 0.3;
  config.engine.train_iterations = 2;
  config.enable_dephasing_pad = false;
  config.use_erasure_decoding = false;
  config.pipeline_lookahead = 3;
  config.seed = 0xdeadbeefcafef00dULL;
  return config;
}

TEST(SvcWire, LinkConfigRoundTripsEveryKnob) {
  const core::LinkConfig config = exercised_config();
  const Json encoded = link_config_to_json(config);
  std::string error;
  const auto decoded = link_config_from_json(encoded, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  // encode(parse(encode(x))) == encode(x): with exact numeric tokens
  // this single check covers every field bit for bit.
  EXPECT_EQ(link_config_to_json(*decoded).dump(), encoded.dump());
  // Spot-check representative fields of each subsystem anyway, so a
  // symmetrical serializer bug (same field dropped on both sides)
  // cannot hide behind the dump comparison.
  EXPECT_EQ(decoded->order, csk::CskOrder::kCsk64);
  EXPECT_EQ(decoded->frontend, frontend::FrontendKind::kPhotodiode);
  EXPECT_EQ(decoded->profile.rows, 720);
  EXPECT_EQ(decoded->profile.xyz_to_sensor_rgb(1, 2), -0.125);
  EXPECT_EQ(decoded->channel.isi.taps, 6);
  EXPECT_EQ(decoded->channel.flicker.frequency_hz, 120.0);
  EXPECT_EQ(decoded->pd.channels[1].filter_xyz.y, 0.5);
  EXPECT_EQ(decoded->led.gamut.green().y, 0.70);
  EXPECT_EQ(decoded->classifier.matching_space, rx::MatchingSpace::kCielab94);
  EXPECT_EQ(decoded->engine.kind, eq::EngineKind::kLinearMmse);
  EXPECT_FALSE(decoded->enable_dephasing_pad);
  EXPECT_FALSE(decoded->use_erasure_decoding);
  EXPECT_EQ(decoded->pipeline_lookahead, 3);
  EXPECT_EQ(decoded->seed, 0xdeadbeefcafef00dULL);
}

TEST(SvcWire, LinkConfigParseRejectsBadInput) {
  const Json good = link_config_to_json(core::LinkConfig{});
  std::string error;

  // Missing field.
  {
    Json broken = Json::parse(good.dump());
    Json replacement = Json::object();
    for (const auto& [key, value] : broken.members()) {
      if (key != "seed") replacement.set(key, value);
    }
    EXPECT_FALSE(link_config_from_json(replacement, &error).has_value());
    EXPECT_NE(error.find("seed"), std::string::npos);
  }
  // Unknown enum labels.
  {
    Json broken = Json::parse(good.dump());
    broken.set("frontend", Json::string("telescope"));
    EXPECT_FALSE(link_config_from_json(broken, &error).has_value());
  }
  {
    Json broken = Json::parse(good.dump());
    broken.set("order", Json::integer(7));
    EXPECT_FALSE(link_config_from_json(broken, &error).has_value());
  }
  // Out-of-range value the subsystem validators reject.
  {
    Json broken = Json::parse(good.dump());
    Json channel = broken["channel"];
    Json distance = channel["distance"];
    distance.set("distance_m", Json::number(-1.0));
    channel.set("distance", std::move(distance));
    broken.set("channel", std::move(channel));
    error.clear();
    EXPECT_FALSE(link_config_from_json(broken, &error).has_value());
    EXPECT_NE(error.find("validation"), std::string::npos);
  }
  // An impossible sensor profile: a negative well capacity would make
  // the worker's shot-noise sigma NaN.
  {
    Json broken = Json::parse(good.dump());
    Json profile = broken["profile"];
    profile.set("well_capacity", Json::number(-1.0));
    broken.set("profile", std::move(profile));
    error.clear();
    EXPECT_FALSE(link_config_from_json(broken, &error).has_value());
    EXPECT_NE(error.find("well_capacity"), std::string::npos) << error;
    // An adaptive job carries its own profile across the same boundary.
    Json adaptive = adaptive_config_to_json(adapt::AdaptiveLinkConfig{});
    adaptive.set("profile", broken["profile"]);
    error.clear();
    EXPECT_FALSE(adaptive_config_from_json(adaptive, &error).has_value());
    EXPECT_NE(error.find("well_capacity"), std::string::npos) << error;
  }
  // Not an object at all.
  EXPECT_FALSE(link_config_from_json(Json::integer(3), &error).has_value());
}

// --- message envelopes ---

TEST(SvcWire, JobMessageRoundTrips) {
  JobRequest job;
  job.id = 42;
  job.kind = TrialKind::kThroughput;
  job.point = 7;
  job.trial_begin = 3;
  job.trial_end = 6;
  job.duration_s = 1.75;
  job.config = exercised_config();
  const std::string payload = encode_job(job);
  std::string error;
  const auto message = parse_message(payload, &error);
  ASSERT_TRUE(message.has_value()) << error;
  ASSERT_EQ(message->type, "job");
  EXPECT_EQ(message->job.id, 42);
  EXPECT_EQ(message->job.kind, TrialKind::kThroughput);
  EXPECT_EQ(message->job.point, 7);
  EXPECT_EQ(message->job.trial_begin, 3);
  EXPECT_EQ(message->job.trial_end, 6);
  EXPECT_EQ(message->job.duration_s, 1.75);
  EXPECT_FALSE(message->job.is_adaptive);
  EXPECT_EQ(link_config_to_json(message->job.config).dump(),
            link_config_to_json(job.config).dump());
  // Round-trip stability at the message level.
  EXPECT_EQ(encode_job(message->job), payload);
}

TEST(SvcWire, AdaptiveJobMessageRoundTrips) {
  JobRequest job;
  job.id = 9;
  job.point = 9;
  job.is_adaptive = true;
  job.adaptive.ladder = adapt::default_ladder(eq::EngineKind::kFrequencyDomain);
  job.adaptive.initial_rung = 2;
  job.adaptive.control_interval_s = 0.3;
  job.adaptive.recalibration_cost_s = 0.25;
  job.adaptive.controller.switch_cost_intervals = 1.5;
  job.adaptive.feedback.delay_intervals = 2;
  job.adaptive.feedback.loss_probability = 0.1;
  job.adaptive.monitor.alpha = 0.4;
  job.adaptive.seed = (1ULL << 60) + 12345;
  job.trajectory = adapt::walkaway_trajectory();
  const std::string payload = encode_job(job);
  std::string error;
  const auto message = parse_message(payload, &error);
  ASSERT_TRUE(message.has_value()) << error;
  ASSERT_TRUE(message->job.is_adaptive);
  EXPECT_EQ(message->job.adaptive.ladder.size(), job.adaptive.ladder.size());
  EXPECT_EQ(message->job.adaptive.recalibration_cost_s, 0.25);
  EXPECT_EQ(message->job.adaptive.controller.switch_cost_intervals, 1.5);
  EXPECT_EQ(message->job.adaptive.seed, job.adaptive.seed);
  EXPECT_EQ(message->job.trajectory.segments.size(),
            job.trajectory.segments.size());
  EXPECT_EQ(encode_job(message->job), payload);
}

TEST(SvcWire, ResultHelloHeartbeatShutdownRoundTrip) {
  JobResultMessage result;
  result.id = 5;
  result.worker = 1;
  result.trials_kind = TrialKind::kSer;
  TrialResult trial;
  trial.ser.symbols_sent = 1000;
  trial.ser.symbols_observed = 900;
  trial.ser.symbol_errors = 17;
  trial.ser.inter_frame_loss_ratio = 0.1;
  trial.ser.engine_decisions = 900;
  trial.ser.engine_tap_norm = 1.5;
  result.trials.push_back(trial);
  std::string error;
  const auto parsed = parse_message(encode_job_result(result), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->type, "result");
  ASSERT_EQ(parsed->result.trials.size(), 1u);
  EXPECT_EQ(parsed->result.trials[0].ser.symbol_errors, 17);
  EXPECT_EQ(parsed->result.trials[0].ser.engine_tap_norm, 1.5);

  const auto hello = parse_message(encode_hello({3, 2, 12345}), &error);
  ASSERT_TRUE(hello.has_value()) << error;
  EXPECT_EQ(hello->type, "hello");
  EXPECT_EQ(hello->hello.worker, 3);
  EXPECT_EQ(hello->hello.generation, 2);
  EXPECT_EQ(hello->hello.pid, 12345);

  const auto beat = parse_message(encode_heartbeat({1, 77}), &error);
  ASSERT_TRUE(beat.has_value()) << error;
  EXPECT_EQ(beat->type, "heartbeat");
  EXPECT_EQ(beat->heartbeat.job_id, 77);

  const auto shutdown = parse_message(encode_shutdown(), &error);
  ASSERT_TRUE(shutdown.has_value()) << error;
  EXPECT_EQ(shutdown->type, "shutdown");
}

TEST(SvcWire, ParseMessageRejectsMalformedEnvelopes) {
  std::string error;
  EXPECT_FALSE(parse_message("not json", &error).has_value());
  EXPECT_FALSE(parse_message("[]", &error).has_value());
  EXPECT_FALSE(parse_message("{\"type\":\"martian\"}", &error).has_value());
  EXPECT_FALSE(parse_message("{\"type\":\"job\",\"id\":1}", &error).has_value());
  EXPECT_FALSE(
      parse_message("{\"type\":\"result\",\"id\":1,\"worker\":0,\"kind\":\"ser\"}",
                    &error)
          .has_value());
}

// --- mutation fuzz: hostile bytes through decoder + parser, no UB ---

TEST(SvcWire, MutationFuzzNeverCrashes) {
  // Corpus: real frames of every message type.
  JobRequest job;
  job.id = 1;
  job.trial_end = 2;
  job.symbols_per_trial = 100;
  const std::string corpus[] = {
      encode_frame(encode_hello({0, 0, 1})),
      encode_frame(encode_heartbeat({0, -1})),
      encode_frame(encode_job(job)),
      encode_frame(encode_shutdown()),
  };
  util::Xoshiro256 rng(0xf022);
  for (int round = 0; round < 400; ++round) {
    std::string bytes = corpus[rng.below(4)];
    // Mutate: flip bytes, truncate, duplicate, or splice garbage.
    const int mutations = 1 + static_cast<int>(rng.below(8));
    for (int m = 0; m < mutations; ++m) {
      if (bytes.empty()) break;
      switch (rng.below(4)) {
        case 0:
          bytes[rng.below(bytes.size())] =
              static_cast<char>(rng.below(256));
          break;
        case 1:
          bytes.resize(rng.below(bytes.size()) + 1);
          break;
        case 2:
          bytes += bytes.substr(0, rng.below(bytes.size()) + 1);
          break;
        default:
          bytes.insert(rng.below(bytes.size()),
                       std::string(1 + rng.below(16), static_cast<char>(rng.below(256))));
          break;
      }
    }
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    // Drain everything the decoder yields through the parser. Any
    // outcome is acceptable except a crash or sanitizer report.
    while (auto payload = decoder.next()) {
      std::string error;
      (void)parse_message(*payload, &error);
    }
  }
}

// --- sweep decomposition sanity ---

TEST(SvcWire, MakeJobsShardsTrialsExactly) {
  SweepSpec spec;
  SweepPoint point;
  point.trials = 5;
  spec.points.assign(2, point);
  spec.trials_per_job = 2;
  const std::vector<JobRequest> jobs = make_jobs(spec);
  ASSERT_EQ(jobs.size(), 6u);  // per point: [0,2) [2,4) [4,5)
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<long long>(i));
  }
  EXPECT_EQ(jobs[2].trial_begin, 4);
  EXPECT_EQ(jobs[2].trial_end, 5);
  EXPECT_EQ(jobs[3].point, 1);
  EXPECT_EQ(jobs[3].trial_begin, 0);
  // Whole-point jobs when no grain is set.
  spec.trials_per_job = 0;
  const std::vector<JobRequest> whole = make_jobs(spec);
  ASSERT_EQ(whole.size(), 2u);
  EXPECT_EQ(whole[0].trial_end, 5);
}

}  // namespace
}  // namespace colorbars::svc

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
#include <optional>
#include <string>
#include <string_view>

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
    EXPECT_EQ(parsed.as_uint64(), std::optional<std::uint64_t>(seed)) << text;
    EXPECT_EQ(parsed.dump(), text);
  }
}

TEST(SvcWire, JsonIntegerAccessorsAcceptOnlyFittingIntegerLiterals) {
  const auto int64 = [](const char* token) { return Json::parse(token).as_int64(); };
  const auto uint64 = [](const char* token) { return Json::parse(token).as_uint64(); };
  EXPECT_EQ(int64("-9223372036854775808"), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(int64("4294967299"), 4294967299LL);
  EXPECT_EQ(uint64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  // Fractions, exponents, overflow and (unsigned) negatives are not
  // integers, even when the double they spell is integral or huge.
  for (const char* token : {"1.5", "720.0", "7e2", "1e300", "1e999", "-1e999",
                            "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_EQ(int64(token), std::nullopt) << token;
  }
  for (const char* token : {"-1", "-0", "1.5", "1e300", "18446744073709551616"}) {
    EXPECT_EQ(uint64(token), std::nullopt) << token;
  }
  EXPECT_EQ(Json::string("7").as_int64(), std::nullopt);
  EXPECT_EQ(Json().as_uint64(), std::nullopt);
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

/// A member path from the root: object keys, or array indices written
/// as decimal strings.
using Path = std::vector<std::string>;

/// `json` with the value at `path` replaced by `value`, or removed when
/// `value` is empty. Members and elements keep their order.
Json replaced(const Json& json, const Path& path, const std::optional<Json>& value,
              std::size_t depth = 0) {
  // The new value of the child on the path; empty drops it.
  const auto child = [&](const Json& old) -> std::optional<Json> {
    if (depth + 1 < path.size()) return replaced(old, path, value, depth + 1);
    return value;
  };
  if (json.is_array()) {
    Json out = Json::array();
    for (std::size_t i = 0; i < json.size(); ++i) {
      if (std::to_string(i) != path[depth]) {
        out.push_back(json.at(i));
      } else if (auto element = child(json.at(i))) {
        out.push_back(std::move(*element));
      }
    }
    return out;
  }
  Json out = Json::object();
  for (const auto& [key, member] : json.members()) {
    if (key != path[depth]) {
      out.set(key, member);
    } else if (auto kept = child(member)) {
      out.set(key, std::move(*kept));
    }
  }
  return out;
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

  // Integer fields take only integer literals that fit the field's type;
  // none of these may be coerced (to 720, 720, 0 or 2^64 - 1).
  for (const auto& [path, token] :
       std::initializer_list<std::pair<Path, const char*>>{
           {{"profile", "rows"}, "4294968016"},
           {{"profile", "rows"}, "720.9"},
           {{"seed"}, "1.5"},
           {{"seed"}, "-1"}}) {
    error.clear();
    EXPECT_FALSE(link_config_from_json(replaced(good, path, Json::parse(token)), &error)
                     .has_value())
        << path.back() << " = " << token;
    EXPECT_NE(error.find(path.back()), std::string::npos) << error;
  }

  // Values LinkConfig::validate rejects fail at the wire, not inside a
  // worker's first trial. The simulator refuses the same configs at
  // construction.
  const auto rejected = [&](Path path, double value) {
    error.clear();
    EXPECT_FALSE(link_config_from_json(replaced(good, path, Json::number(value)), &error)
                     .has_value())
        << path.back() << " = " << value;
    EXPECT_NE(error.find("validation"), std::string::npos) << error;
  };
  rejected({"symbol_rate_hz"}, 0.0);
  rejected({"symbol_rate_hz"}, -2000.0);
  rejected({"symbol_rate_hz"}, 4500.5);  // above led.max_symbol_rate_hz
  rejected({"illumination_ratio"}, 0.0);
  rejected({"illumination_ratio"}, 1.5);
  rejected({"led", "peak_radiance"}, 0.0);
  rejected({"led", "max_symbol_rate_hz"}, 0.0);
  for (const auto& mutate : std::initializer_list<void (*)(core::LinkConfig&)>{
           [](core::LinkConfig& c) { c.symbol_rate_hz = 0.0; },
           [](core::LinkConfig& c) { c.symbol_rate_hz = 4500.5; },
           [](core::LinkConfig& c) { c.symbol_rate_hz = 1e300; },
           [](core::LinkConfig& c) { c.illumination_ratio = 0.0; },
           [](core::LinkConfig& c) { c.illumination_ratio = 1.5; },
           [](core::LinkConfig& c) { c.led.peak_radiance = 0.0; },
           [](core::LinkConfig& c) { c.led.max_symbol_rate_hz = -1.0; },
           [](core::LinkConfig& c) { c.led.max_symbol_rate_hz = HUGE_VAL; }}) {
    core::LinkConfig config;
    mutate(config);
    EXPECT_THROW((void)core::LinkSimulator(config), std::invalid_argument);
  }
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
  // Integer fields: exponent, fractional and out-of-range tokens are
  // errors that name the field, never a cast (casting 1e300 or 1e999 to
  // an integer is undefined behaviour).
  for (const char* worker : {"1e300", "1e999", "-1e999", "4294967299", "0.5", "1e0"}) {
    error.clear();
    const std::string hello = std::string("{\"type\":\"hello\",\"worker\":") + worker +
                              ",\"generation\":0,\"pid\":1}";
    EXPECT_FALSE(parse_message(hello, &error).has_value()) << hello;
    EXPECT_NE(error.find("worker"), std::string::npos) << error;
  }
  EXPECT_FALSE(
      parse_message("{\"type\":\"heartbeat\",\"worker\":0,\"job_id\":9223372036854775808}",
                    &error)
          .has_value());
  EXPECT_NE(error.find("job_id"), std::string::npos) << error;
  // Trial sizes no run can take — a negative SER count, a duration whose
  // slot count passes INT_MAX — fail at the boundary, not in a worker.
  JobRequest job;
  job.trial_end = 1;
  ASSERT_TRUE(parse_message(encode_job(job), &error).has_value()) << error;
  job.symbols_per_trial = -1;
  EXPECT_FALSE(parse_message(encode_job(job), &error).has_value());
  EXPECT_NE(error.find("trial size"), std::string::npos) << error;
  job.symbols_per_trial = 0;
  job.kind = TrialKind::kGoodput;
  job.duration_s = 1e300;
  EXPECT_FALSE(parse_message(encode_job(job), &error).has_value());
  EXPECT_NE(error.find("trial size"), std::string::npos) << error;
}

// --- frozen wire bytes ---

/// FNV-1a 64 over a payload's bytes.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

JobRequest exercised_link_job() {
  JobRequest job;
  job.id = 42;
  job.kind = TrialKind::kGoodput;
  job.point = 7;
  job.trial_begin = 3;
  job.trial_end = 6;
  job.symbols_per_trial = 500;
  job.duration_s = 1.75;
  job.config = exercised_config();
  return job;
}

JobRequest exercised_adaptive_job() {
  JobRequest job;
  job.id = 9;
  job.point = 9;
  job.is_adaptive = true;
  job.adaptive.ladder = adapt::default_ladder(eq::EngineKind::kFrequencyDomain);
  job.adaptive.initial_rung = 2;
  job.adaptive.adaptation_enabled = false;
  job.adaptive.control_interval_s = 0.3;
  job.adaptive.recalibration_cost_s = 0.25;
  job.adaptive.profile = camera::iphone5s_profile();
  job.adaptive.illumination_ratio = 0.7;
  job.adaptive.calibration_rate_hz = 6.0;
  job.adaptive.classifier.matching_space = rx::MatchingSpace::kRgb;
  job.adaptive.pipeline_lookahead = 4;
  job.adaptive.monitor.alpha = 0.4;
  job.adaptive.controller.up_confirm_intervals = 3;
  job.adaptive.controller.switch_cost_intervals = 1.5;
  job.adaptive.feedback.delay_intervals = 2;
  job.adaptive.feedback.loss_probability = 0.1;
  job.adaptive.seed = (1ULL << 60) + 12345;
  job.trajectory = adapt::walkaway_trajectory();
  return job;
}

JobResultMessage exercised_result(TrialKind kind) {
  JobResultMessage result;
  result.id = 5;
  result.worker = 1;
  result.trials_kind = kind;
  for (long long row = 1; row <= 2; ++row) {
    TrialResult trial;
    trial.ser = {1000 * row, 900 * row, 17 * row, 0.1 * row, 880, 12, 2, 1, 1.5};
    trial.throughput = {4000 * row, 3100, 2.0 / 3.0, 4};
    trial.goodput = {(1LL << 40) * row, 7777, 0.5, 9, 2};
    result.trials.push_back(trial);
  }
  return result;
}

JobResultMessage exercised_adaptive_result() {
  JobResultMessage result;
  result.id = 11;
  result.worker = 3;
  result.is_adaptive = true;
  adapt::AdaptiveRunResult& run = result.adaptive;
  for (int i = 0; i < 2; ++i) {
    adapt::IntervalRecord record;
    record.interval = (1LL << 35) + i;
    record.epoch = 2 + i;
    record.rung = 4;
    record.segment = i;
    record.start_time_s = 0.4 * i;
    record.air_time_s = 0.45;
    record.payload_bytes = 600;
    record.recovered_bytes = 512 - i;
    record.packets_sent = 20;
    record.packets_ok = 17;
    record.packets_failed = 5;
    record.header_losses = 6;
    record.corrected_symbols = 33;
    record.desired_rung = 8 - i;
    record.command_sent = i == 0;
    record.command_lost = i == 1;
    run.intervals.push_back(record);
  }
  run.total_time_s = 0.9;
  run.payload_bytes = 1200;
  run.recovered_bytes = 1023;
  run.epochs = 3;
  run.upshifts = 1;
  run.downshifts = 2;
  run.commands_sent = 4;
  run.commands_lost = 1;
  run.final_rung = 1;
  return result;
}

/// Encodes a parsed message again, dispatching on its type.
std::string reencode(const Message& message) {
  if (message.type == "hello") return encode_hello(message.hello);
  if (message.type == "heartbeat") return encode_heartbeat(message.heartbeat);
  if (message.type == "job") return encode_job(message.job);
  if (message.type == "result") return encode_job_result(message.result);
  return encode_shutdown();
}

TEST(SvcWire, EncodingIsFrozen) {
  // Hashes of the wire bytes of every message type. Round-trip tests
  // cannot see a renamed key, a reordered field or an integer emitted as
  // a double; these hashes can, so they change only with a deliberate
  // change of the wire format. A mismatch prints the payload to diff.
  struct Case {
    const char* name;
    std::string payload;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"link job", encode_job(exercised_link_job()), 0x2222deb2e313600bULL},
      {"adaptive job", encode_job(exercised_adaptive_job()), 0xe9fd3693760646a0ULL},
      {"ser result", encode_job_result(exercised_result(TrialKind::kSer)),
       0xba133e201ba605a7ULL},
      {"throughput result", encode_job_result(exercised_result(TrialKind::kThroughput)),
       0xefe86769327144c2ULL},
      {"goodput result", encode_job_result(exercised_result(TrialKind::kGoodput)),
       0x3ddd32a9c5855cc1ULL},
      {"adaptive result", encode_job_result(exercised_adaptive_result()),
       0x90b56a1998466c68ULL},
      {"hello", encode_hello({3, 2, 1LL << 40}), 0x3a39ae41c65b9a46ULL},
      {"heartbeat", encode_heartbeat({1, -1}), 0x8ad39b78ec93ffb9ULL},
      {"shutdown", encode_shutdown(), 0x6f69c2b65c81caadULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(fnv1a(c.payload), c.hash)
        << c.name << " hashes to 0x" << std::hex << fnv1a(c.payload)
        << "; payload: " << c.payload;
    // The decoder reads back exactly what the encoder wrote.
    std::string error;
    const auto message = parse_message(c.payload, &error);
    ASSERT_TRUE(message.has_value()) << c.name << ": " << error;
    EXPECT_EQ(reencode(*message), c.payload) << c.name;
  }
}

// --- a hostile value at every encoded leaf ---

/// Appends the path of every scalar leaf under `json`.
void collect_leaves(const Json& json, Path& path, std::vector<Path>& leaves) {
  const auto descend = [&](const std::string& step, const Json& child) {
    path.push_back(step);
    collect_leaves(child, path, leaves);
    path.pop_back();
  };
  if (json.is_object()) {
    for (const auto& [key, member] : json.members()) descend(key, member);
  } else if (json.is_array()) {
    for (std::size_t i = 0; i < json.size(); ++i) descend(std::to_string(i), json.at(i));
  } else {
    leaves.push_back(path);
  }
}

/// The value at `path` under `json` (a shared null if absent).
const Json& at_path(const Json& json, const Path& path) {
  const Json* node = &json;
  for (const std::string& step : path) {
    node = node->is_array() ? &node->at(std::stoul(step)) : &(*node)[step];
  }
  return *node;
}

TEST(SvcWire, HostileValueAtEveryLeafIsRejectedOrSafe) {
  // The sweep walks the encoded messages, so a new knob is covered with
  // no edit here. Each leaf in turn is dropped or replaced by a hostile
  // token. The parser must return an error, or a message that carries
  // the value unchanged (reject, never coerce), re-encodes stably, and
  // holds a link or adaptive config its simulator accepts.
  const std::string payloads[] = {
      encode_job(exercised_link_job()),
      encode_job(exercised_adaptive_job()),
      encode_job_result(exercised_result(TrialKind::kSer)),
      encode_job_result(exercised_result(TrialKind::kThroughput)),
      encode_job_result(exercised_result(TrialKind::kGoodput)),
      encode_job_result(exercised_adaptive_result()),
      encode_hello({3, 2, 12345}),
      encode_heartbeat({1, 77}),
  };
  std::vector<std::optional<Json>> hostile = {std::nullopt, Json::string("x")};
  for (const char* token : {"0", "-1", "2.5", "1e300", "1e999", "4294967299"}) {
    hostile.push_back(Json::parse(token));
  }
  int accepted = 0;
  int rejected = 0;
  for (const std::string& payload : payloads) {
    const Json message = Json::parse(payload);
    std::vector<Path> leaves;
    Path path;
    collect_leaves(message, path, leaves);
    for (const Path& leaf : leaves) {
      for (const std::optional<Json>& value : hostile) {
        std::string where;
        for (const std::string& step : leaf) where += "/" + step;
        where += " = " + (value ? value->dump() : std::string("<missing>"));
        std::string error;
        const auto parsed = parse_message(replaced(message, leaf, value).dump(), &error);
        if (!parsed) {
          ++rejected;
          EXPECT_FALSE(error.empty()) << where;
          continue;
        }
        ++accepted;
        if (parsed->type == "job" && !parsed->job.is_adaptive) {
          EXPECT_NO_THROW((void)core::LinkSimulator(parsed->job.config)) << where;
        }
        if (parsed->type == "job" && parsed->job.is_adaptive) {
          EXPECT_NO_THROW((void)adapt::AdaptiveLinkSimulator(parsed->job.adaptive,
                                                             parsed->job.trajectory))
              << where;
        }
        const std::string again = reencode(*parsed);
        if (value) {
          const Json echoed = Json::parse(again);
          EXPECT_EQ(at_path(echoed, leaf).kind(), value->kind()) << where;
          EXPECT_EQ(at_path(echoed, leaf).as_double(), value->as_double()) << where;
          EXPECT_EQ(at_path(echoed, leaf).as_string(), value->as_string()) << where;
        }
        const auto reparsed = parse_message(again, &error);
        ASSERT_TRUE(reparsed.has_value()) << where << ": " << error;
        EXPECT_EQ(reencode(*reparsed), again) << where;
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 1000);
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

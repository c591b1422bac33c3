#include "colorbars/svc/wire.hpp"

#include <cmath>
#include <concepts>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>

namespace colorbars::svc {

// --- framing ---

std::string encode_frame(std::string_view payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(payload.size() + 4);
  frame.push_back(static_cast<char>((size >> 24) & 0xff));
  frame.push_back(static_cast<char>((size >> 16) & 0xff));
  frame.push_back(static_cast<char>((size >> 8) & 0xff));
  frame.push_back(static_cast<char>(size & 0xff));
  frame.append(payload.data(), payload.size());
  return frame;
}

void FrameDecoder::feed(const char* data, std::size_t size) {
  if (poisoned_) return;
  buffer_.append(data, size);
}

std::optional<std::string> FrameDecoder::next() {
  if (poisoned_) return std::nullopt;
  if (buffer_.size() < 4) return std::nullopt;
  const auto b = [&](std::size_t i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[i]));
  };
  const std::uint32_t length = (b(0) << 24) | (b(1) << 16) | (b(2) << 8) | b(3);
  if (length == 0 || length > kMaxFramePayload) {
    poisoned_ = true;
    error_ = length == 0 ? "zero-length frame"
                         : "frame exceeds kMaxFramePayload (" +
                               std::to_string(length) + " bytes)";
    return std::nullopt;
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) return std::nullopt;
  std::string payload = buffer_.substr(4, length);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  return payload;
}

namespace {

// --- field lists ---
//
// One list per serialized struct: a v("key", s.member) line per field,
// in wire order. Is<T> admits T and const T, so the same list drives the
// encoder (const) and the strict decoder below; adding a knob to a
// struct is one line here.

template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

void fields(Is<camera::SensorProfile> auto& s, auto& v) {
  v("name", s.name);
  v("rows", s.rows);
  v("columns", s.columns);
  v("fps", s.fps);
  v("inter_frame_loss_ratio", s.inter_frame_loss_ratio);
  v("xyz_to_sensor_rgb", s.xyz_to_sensor_rgb);
  v("read_noise", s.read_noise);
  v("well_capacity", s.well_capacity);
  v("min_exposure_s", s.min_exposure_s);
  v("max_exposure_s", s.max_exposure_s);
  v("min_iso", s.min_iso);
  v("max_iso", s.max_iso);
  v("auto_exposure_target", s.auto_exposure_target);
  v("vignette_strength", s.vignette_strength);
  v("frame_start_jitter_s", s.frame_start_jitter_s);
  v("sensitivity", s.sensitivity);
}

void fields(Is<channel::DistanceSpec> auto& s, auto& v) {
  v("distance_m", s.distance_m);
  v("reference_distance_m", s.reference_distance_m);
}

void fields(Is<channel::AmbientSpec> auto& s, auto& v) {
  v("chromaticity", s.chromaticity);
  v("level", s.level);
}

void fields(Is<channel::FlickerSpec> auto& s, auto& v) {
  v("frequency_hz", s.frequency_hz);
  v("modulation_depth", s.modulation_depth);
  v("phase_rad", s.phase_rad);
}

void fields(Is<channel::OcclusionSpec> auto& s, auto& v) {
  v("rate_hz", s.rate_hz);
  v("mean_duration_s", s.mean_duration_s);
  v("transmission", s.transmission);
}

void fields(Is<channel::IsiSpec> auto& s, auto& v) {
  v("delay_spread_s", s.delay_spread_s);
  v("taps", s.taps);
  v("tap_spacing_s", s.tap_spacing_s);
}

void fields(Is<channel::FrameImpairmentSpec> auto& s, auto& v) {
  v("drop_probability", s.drop_probability);
  v("gain_wobble_sigma", s.gain_wobble_sigma);
}

void fields(Is<channel::ChannelSpec> auto& s, auto& v) {
  v("distance", s.distance);
  v("ambient", s.ambient);
  v("flicker", s.flicker);
  v("occlusion", s.occlusion);
  v("isi", s.isi);
  v("frame", s.frame);
}

void fields(Is<pd::PdChannelSpec> auto& s, auto& v) {
  v("filter_xyz", s.filter_xyz);
  v("rgb_weight", s.rgb_weight);
  v("responsivity", s.responsivity);
}

void fields(Is<pd::PdConfig> auto& s, auto& v) {
  v("channels", s.channels);
  v("sample_rate_hz", s.sample_rate_hz);
  v("adc_bits", s.adc_bits);
  v("read_noise", s.read_noise);
  v("shot_noise", s.shot_noise);
  v("agc_target", s.agc_target);
  v("agc_window_s", s.agc_window_s);
  v("block_samples", s.block_samples);
  v("lookahead_blocks", s.lookahead_blocks);
  v("transition_threshold", s.transition_threshold);
  v("guard_fraction", s.guard_fraction);
  v("min_coverage", s.min_coverage);
  v("min_transitions", s.min_transitions);
  v("max_acquisition_slots", s.max_acquisition_slots);
}

/// GamutTriangle keeps its vertices private behind a validating
/// constructor, so it travels as this proxy.
struct GamutVertices {
  color::Chromaticity red, green, blue;
};

void fields(Is<GamutVertices> auto& s, auto& v) {
  v("red", s.red);
  v("green", s.green);
  v("blue", s.blue);
}

void fields(Is<led::TriLedConfig> auto& s, auto& v) {
  v("gamut", s.gamut);
  v("peak_radiance", s.peak_radiance);
  v("max_symbol_rate_hz", s.max_symbol_rate_hz);
}

void fields(Is<rx::ClassifierConfig> auto& s, auto& v) {
  v("off_lightness", s.off_lightness);
  v("off_max_chroma", s.off_max_chroma);
  v("confident_delta_e", s.confident_delta_e);
  v("matching_space", s.matching_space);
}

void fields(Is<eq::EngineConfig> auto& s, auto& v) {
  v("kind", s.kind);
  v("channel_taps", s.channel_taps);
  v("equalizer_taps", s.equalizer_taps);
  v("mmse_lambda", s.mmse_lambda);
  v("dft_size", s.dft_size);
  v("max_tap_norm", s.max_tap_norm);
  v("reference_prior", s.reference_prior);
  v("train_iterations", s.train_iterations);
}

void fields(Is<core::LinkConfig> auto& s, auto& v) {
  v("order", s.order);
  v("symbol_rate_hz", s.symbol_rate_hz);
  v("illumination_ratio", s.illumination_ratio);
  v("profile", s.profile);
  v("channel", s.channel);
  v("frontend", s.frontend);
  v("pd", s.pd);
  v("led", s.led);
  v("calibration_rate_hz", s.calibration_rate_hz);
  v("classifier", s.classifier);
  v("engine", s.engine);
  v("enable_dephasing_pad", s.enable_dephasing_pad);
  v("use_erasure_decoding", s.use_erasure_decoding);
  v("pipeline_lookahead", s.pipeline_lookahead);
  v("seed", s.seed);
}

void fields(Is<adapt::Rung> auto& s, auto& v) {
  v("order", s.order);
  v("symbol_rate_hz", s.symbol_rate_hz);
}

void fields(Is<adapt::TrajectorySegment> auto& s, auto& v) {
  v("name", s.name);
  v("duration_s", s.duration_s);
  v("channel", s.channel);
}

void fields(Is<adapt::Trajectory> auto& s, auto& v) { v("segments", s.segments); }

void fields(Is<adapt::MonitorConfig> auto& s, auto& v) { v("alpha", s.alpha); }

void fields(Is<adapt::ControllerConfig> auto& s, auto& v) {
  v("down_success", s.down_success);
  v("collapse_success", s.collapse_success);
  v("up_success", s.up_success);
  v("min_margin", s.min_margin);
  v("up_confirm_intervals", s.up_confirm_intervals);
  v("max_up_confirm_intervals", s.max_up_confirm_intervals);
  v("probe_settle_intervals", s.probe_settle_intervals);
  v("switch_cost_intervals", s.switch_cost_intervals);
}

void fields(Is<adapt::FeedbackConfig> auto& s, auto& v) {
  v("delay_intervals", s.delay_intervals);
  v("loss_probability", s.loss_probability);
}

void fields(Is<adapt::AdaptiveLinkConfig> auto& s, auto& v) {
  v("ladder", s.ladder);
  v("initial_rung", s.initial_rung);
  v("adaptation_enabled", s.adaptation_enabled);
  v("control_interval_s", s.control_interval_s);
  v("recalibration_cost_s", s.recalibration_cost_s);
  v("profile", s.profile);
  v("illumination_ratio", s.illumination_ratio);
  v("calibration_rate_hz", s.calibration_rate_hz);
  v("classifier", s.classifier);
  v("pipeline_lookahead", s.pipeline_lookahead);
  v("monitor", s.monitor);
  v("controller", s.controller);
  v("feedback", s.feedback);
  v("seed", s.seed);
}

/// Every IntervalRecord scalar; the monitor sample and smoothed quality
/// snapshots stay in the worker, since no consumer reads them across the
/// wire.
void fields(Is<adapt::IntervalRecord> auto& s, auto& v) {
  v("interval", s.interval);
  v("epoch", s.epoch);
  v("rung", s.rung);
  v("segment", s.segment);
  v("start_time_s", s.start_time_s);
  v("air_time_s", s.air_time_s);
  v("payload_bytes", s.payload_bytes);
  v("recovered_bytes", s.recovered_bytes);
  v("packets_sent", s.packets_sent);
  v("packets_ok", s.packets_ok);
  v("packets_failed", s.packets_failed);
  v("header_losses", s.header_losses);
  v("corrected_symbols", s.corrected_symbols);
  v("desired_rung", s.desired_rung);
  v("command_sent", s.command_sent);
  v("command_lost", s.command_lost);
}

void fields(Is<adapt::AdaptiveRunResult> auto& s, auto& v) {
  v("intervals", s.intervals);
  v("total_time_s", s.total_time_s);
  v("payload_bytes", s.payload_bytes);
  v("recovered_bytes", s.recovered_bytes);
  v("epochs", s.epochs);
  v("upshifts", s.upshifts);
  v("downshifts", s.downshifts);
  v("commands_sent", s.commands_sent);
  v("commands_lost", s.commands_lost);
  v("final_rung", s.final_rung);
}

void fields(Is<core::SerResult> auto& s, auto& v) {
  v("symbols_sent", s.symbols_sent);
  v("symbols_observed", s.symbols_observed);
  v("symbol_errors", s.symbol_errors);
  v("inter_frame_loss_ratio", s.inter_frame_loss_ratio);
  v("engine_decisions", s.engine_decisions);
  v("engine_fallback_decisions", s.engine_fallback_decisions);
  v("engine_retrains", s.engine_retrains);
  v("engine_train_fallbacks", s.engine_train_fallbacks);
  v("engine_tap_norm", s.engine_tap_norm);
}

void fields(Is<core::ThroughputResult> auto& s, auto& v) {
  v("data_slots_sent", s.data_slots_sent);
  v("data_slots_observed", s.data_slots_observed);
  v("air_time_s", s.air_time_s);
  v("bits_per_symbol", s.bits_per_symbol);
}

void fields(Is<GoodputTrial> auto& s, auto& v) {
  v("payload_bytes", s.payload_bytes);
  v("recovered_bytes", s.recovered_bytes);
  v("air_time_s", s.air_time_s);
  v("packets_ok", s.packets_ok);
  v("packets_failed", s.packets_failed);
}

void fields(Is<HelloMessage> auto& s, auto& v) {
  v("worker", s.worker);
  v("generation", s.generation);
  v("pid", s.pid);
}

void fields(Is<HeartbeatMessage> auto& s, auto& v) {
  v("worker", s.worker);
  v("job_id", s.job_id);
}

/// The job header; the envelope adds the config or adaptive payload.
void fields(Is<JobRequest> auto& s, auto& v) {
  v("id", s.id);
  v("kind", s.kind);
  v("point", s.point);
  v("trial_begin", s.trial_begin);
  v("trial_end", s.trial_end);
  v("symbols_per_trial", s.symbols_per_trial);
  v("duration_s", s.duration_s);
}

/// The result header; the envelope adds the trial rows or adaptive run.
void fields(Is<JobResultMessage> auto& s, auto& v) {
  v("id", s.id);
  v("worker", s.worker);
}

// --- leaf shapes ---

/// Fixed-length number arrays: visits each component in wire order.
void components(Is<util::Vec3> auto& s, auto&& f) {
  f(s.x);
  f(s.y);
  f(s.z);
}

void components(Is<color::Chromaticity> auto& s, auto&& f) {
  f(s.x);
  f(s.y);
}

void components(Is<util::Mat3> auto& s, auto&& f) {
  for (auto& row : s.rows) {
    for (auto& value : row) f(value);
  }
}

template <typename T>
concept NumberArray = requires(T& s) { components(s, [](auto&) {}); };

/// One {value, label} table per enum, read both ways. CskOrder travels
/// as its integer order instead.
template <typename E>
struct Label {
  E value;
  const char* name;
};

template <typename E>
std::span<const Label<E>> labels() {
  if constexpr (std::is_same_v<E, frontend::FrontendKind>) {
    static constexpr Label<E> table[] = {{E::kCamera, "camera"}, {E::kPhotodiode, "pd"}};
    return table;
  } else if constexpr (std::is_same_v<E, rx::MatchingSpace>) {
    static constexpr Label<E> table[] = {
        {E::kCielabAB, "lab_ab"}, {E::kCielab94, "lab94"}, {E::kRgb, "rgb"}};
    return table;
  } else if constexpr (std::is_same_v<E, eq::EngineKind>) {
    static constexpr Label<E> table[] = {{E::kNearestReference, "nearest"},
                                         {E::kLinearMmse, "mmse"},
                                         {E::kFrequencyDomain, "freq"}};
    return table;
  } else {
    static_assert(std::is_same_v<E, TrialKind>);
    static constexpr Label<E> table[] = {
        {E::kSer, "ser"}, {E::kThroughput, "throughput"}, {E::kGoodput, "goodput"}};
    return table;
  }
}

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Calls f with the TrialResult member a row of `kind` fills.
void with_row(TrialKind kind, Is<TrialResult> auto& trial, auto&& f) {
  switch (kind) {
    case TrialKind::kSer: return f(trial.ser);
    case TrialKind::kThroughput: return f(trial.throughput);
    case TrialKind::kGoodput: return f(trial.goodput);
  }
}

// --- the walker: encode ---

template <typename T>
Json encode(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return Json::boolean(value);
  } else if constexpr (std::is_same_v<T, double>) {
    return Json::number(value);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    return Json::unsigned_integer(value);
  } else if constexpr (std::is_integral_v<T>) {
    return Json::integer(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Json::string(value);
  } else if constexpr (std::is_same_v<T, csk::CskOrder>) {
    return Json::integer(static_cast<int>(value));
  } else if constexpr (std::is_enum_v<T>) {
    for (const auto& [entry, name] : labels<T>()) {
      if (entry == value) return Json::string(name);
    }
    return Json();
  } else if constexpr (NumberArray<T>) {
    Json array = Json::array();
    components(value, [&](double component) { array.push_back(Json::number(component)); });
    return array;
  } else if constexpr (kIsVector<T>) {
    Json array = Json::array();
    for (const auto& element : value) array.push_back(encode(element));
    return array;
  } else if constexpr (std::is_same_v<T, color::GamutTriangle>) {
    return encode(GamutVertices{value.red(), value.green(), value.blue()});
  } else {
    Json object = Json::object();
    auto put = [&](std::string_view key, const auto& member) {
      object.set(key, encode(member));
    };
    fields(value, put);
    return object;
  }
}

// --- the walker: strict decode ---

/// Boundary checks run on every decoded config: the checks the
/// simulators run at construction.
void check(const core::LinkConfig& config) { config.validate(); }
void check(const adapt::AdaptiveLinkConfig& config) { config.validate(); }
void check(const adapt::Trajectory& trajectory) { trajectory.validate(); }

/// Strict decoder. Every read checks the JSON kind and the field type's
/// range: integers must be integer literals that fit, doubles finite,
/// labels known, configs valid. The first failure is kept, prefixed
/// with the field's path, and every later read is a no-op.
class Decoder {
 public:
  explicit Decoder(std::string* error) : error_(error) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  void fail(const std::string& what) {
    if (!ok_) return;
    ok_ = false;
    if (error_ != nullptr) *error_ = path_.empty() ? what : "field '" + path_ + "': " + what;
  }

  /// Runs `body` with `name` appended to the error path.
  template <typename F>
  void at(std::string_view name, F&& body) {
    if (!ok_) return;
    const std::size_t mark = path_.size();
    if (mark > 0 && name.front() != '[') path_ += '.';
    path_ += name;
    body();
    path_.resize(mark);
  }

  /// Reads member `key` of `object` into `out`.
  template <typename T>
  void field(const Json& object, std::string_view key, T& out) {
    at(key, [&] { read(object[key], out); });
  }

  /// Reads each element of an array through `item(element)`.
  template <typename F>
  void elements(const Json& json, F&& item) {
    if (!json.is_array()) return fail("expected an array");
    for (std::size_t i = 0; ok_ && i < json.size(); ++i) {
      at("[" + std::to_string(i) + "]", [&] { item(json.at(i)); });
    }
  }

  template <typename T>
  void read(const Json& json, T& out) {
    if (!ok_) return;
    if (json.is_null()) return fail("missing");
    if constexpr (std::is_same_v<T, bool>) {
      if (!json.is_bool()) return fail("expected true or false");
      out = json.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      if (!json.is_number() || !std::isfinite(json.as_double())) {
        return fail("expected a finite number");
      }
      out = json.as_double();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      const auto value = json.as_uint64();
      if (!value) return fail("expected an integer in [0, 2^64)");
      out = *value;
    } else if constexpr (std::is_integral_v<T>) {
      using Limits = std::numeric_limits<T>;
      const auto value = json.as_int64();
      if (!value || *value < Limits::min() || *value > Limits::max()) {
        return fail("expected an integer in [" + std::to_string(Limits::min()) + ", " +
                    std::to_string(Limits::max()) + "]");
      }
      out = static_cast<T>(*value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (!json.is_string()) return fail("expected a string");
      out = json.as_string();
    } else if constexpr (std::is_same_v<T, csk::CskOrder>) {
      int order = 0;
      read(json, order);
      if (!ok_) return;
      const auto parsed = csk::order_from_int(order);
      if (!parsed) return fail("unknown CSK order " + std::to_string(order));
      out = *parsed;
    } else if constexpr (std::is_enum_v<T>) {
      if (!json.is_string()) return fail("expected a label");
      for (const auto& [entry, name] : labels<T>()) {
        if (json.as_string() == name) {
          out = entry;
          return;
        }
      }
      fail("unknown label '" + json.as_string() + "'");
    } else if constexpr (NumberArray<T>) {
      std::size_t i = 0;
      components(out, [&](double&) { ++i; });
      if (!json.is_array() || json.size() != i) {
        return fail("expected " + std::to_string(i) + " numbers");
      }
      i = 0;
      components(out, [&](double& component) { read(json.at(i++), component); });
    } else if constexpr (kIsVector<T>) {
      out.clear();
      elements(json, [&](const Json& element) { read(element, out.emplace_back()); });
    } else if constexpr (std::is_same_v<T, color::GamutTriangle>) {
      GamutVertices vertices;
      read(json, vertices);
      guard("", [&] { out = color::GamutTriangle(vertices.red, vertices.green, vertices.blue); });
    } else {
      if (!json.is_object()) return fail("expected an object");
      auto get = [&](std::string_view key, auto& member) { field(json, key, member); };
      fields(out, get);
      if constexpr (requires { check(out); }) guard("config validation: ", [&] { check(out); });
    }
  }

  /// Runs `body` unless a read failed; a std::invalid_argument it throws
  /// becomes the error.
  void guard(const char* prefix, auto&& body) {
    if (!ok_) return;
    try {
      body();
    } catch (const std::invalid_argument& invalid) {
      fail(prefix + std::string(invalid.what()));
    }
  }

 private:
  std::string* error_;
  std::string path_;
  bool ok_ = true;
};

template <typename T>
std::optional<T> decode(const Json& json, std::string* error) {
  Decoder decoder(error);
  T value;
  decoder.read(json, value);
  if (!decoder.ok()) return std::nullopt;
  return value;
}

/// A message object: the type tag, then the body's fields.
Json tagged(const char* type, const auto& body) {
  Json json = Json::object();
  json.set("type", Json::string(type));
  auto put = [&](std::string_view key, const auto& member) { json.set(key, encode(member)); };
  fields(body, put);
  return json;
}

}  // namespace

// --- public serializers ---

Json link_config_to_json(const core::LinkConfig& config) { return encode(config); }

std::optional<core::LinkConfig> link_config_from_json(const Json& json,
                                                      std::string* error) {
  return decode<core::LinkConfig>(json, error);
}

Json adaptive_config_to_json(const adapt::AdaptiveLinkConfig& config) {
  return encode(config);
}

std::optional<adapt::AdaptiveLinkConfig> adaptive_config_from_json(
    const Json& json, std::string* error) {
  return decode<adapt::AdaptiveLinkConfig>(json, error);
}

Json adaptive_result_to_json(const adapt::AdaptiveRunResult& result) {
  return encode(result);
}

// --- message envelopes ---

std::string encode_hello(const HelloMessage& hello) { return tagged("hello", hello).dump(); }

std::string encode_heartbeat(const HeartbeatMessage& heartbeat) {
  return tagged("heartbeat", heartbeat).dump();
}

std::string encode_job(const JobRequest& job) {
  Json json = tagged("job", job);
  if (job.is_adaptive) {
    json.set("adaptive", encode(job.adaptive));
    json.set("trajectory", encode(job.trajectory));
  } else {
    json.set("config", encode(job.config));
  }
  return json.dump();
}

std::string encode_job_result(const JobResultMessage& result) {
  Json json = tagged("result", result);
  if (result.is_adaptive) {
    json.set("adaptive", encode(result.adaptive));
  } else {
    // The trial kind travels with the result so the parser knows which
    // member of TrialResult each row fills.
    json.set("kind", encode(result.trials_kind));
    Json trials = Json::array();
    for (const TrialResult& trial : result.trials) {
      with_row(result.trials_kind, trial,
               [&](const auto& row) { trials.push_back(encode(row)); });
    }
    json.set("trials", std::move(trials));
  }
  return json.dump();
}

std::string encode_shutdown() {
  Json json = Json::object();
  json.set("type", Json::string("shutdown"));
  return json.dump();
}

std::optional<Message> parse_message(std::string_view payload, std::string* error) {
  std::string parse_error;
  const Json json = Json::parse(payload, &parse_error);
  if (json.is_null() && !parse_error.empty()) {
    if (error != nullptr) *error = "bad JSON: " + parse_error;
    return std::nullopt;
  }
  Decoder decoder(error);
  if (!json.is_object()) {
    decoder.fail("message is not an object");
    return std::nullopt;
  }
  Message message;
  decoder.field(json, "type", message.type);
  if (message.type == "hello") {
    decoder.read(json, message.hello);
  } else if (message.type == "heartbeat") {
    decoder.read(json, message.heartbeat);
  } else if (message.type == "job") {
    JobRequest& job = message.job;
    decoder.read(json, job);
    job.is_adaptive = json.has("adaptive");
    if (job.is_adaptive) {
      decoder.field(json, "adaptive", job.adaptive);
      decoder.field(json, "trajectory", job.trajectory);
    } else {
      decoder.field(json, "config", job.config);
      decoder.guard("trial size: ", [&] {
        core::validate_trial_size(job.symbols_per_trial, job.duration_s,
                                  job.config.symbol_rate_hz);
      });
    }
  } else if (message.type == "result") {
    JobResultMessage& result = message.result;
    decoder.read(json, result);
    result.is_adaptive = json.has("adaptive");
    if (result.is_adaptive) {
      decoder.field(json, "adaptive", result.adaptive);
    } else {
      decoder.field(json, "kind", result.trials_kind);
      decoder.at("trials", [&] {
        decoder.elements(json["trials"], [&](const Json& row) {
          with_row(result.trials_kind, result.trials.emplace_back(),
                   [&](auto& member) { decoder.read(row, member); });
        });
      });
    }
  } else if (message.type != "shutdown") {
    decoder.fail("unknown message type '" + message.type + "'");
  }
  if (!decoder.ok()) return std::nullopt;
  return message;
}

}  // namespace colorbars::svc

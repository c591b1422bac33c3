#include "colorbars/svc/wire.hpp"

#include <cstring>
#include <stdexcept>

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

// --- parse helpers ---

namespace {

/// Strict field reader: every accessor records the first failure, so a
/// parse routine can chain reads and check once at the end.
class Reader {
 public:
  explicit Reader(std::string* error) : error_(error) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  void fail(const std::string& message) {
    if (!ok_) return;
    ok_ = false;
    if (error_ != nullptr) *error_ = message;
  }

  double number(const Json& object, std::string_view key) {
    const Json& value = object[key];
    if (!value.is_number()) {
      fail("missing or non-numeric field '" + std::string(key) + "'");
      return 0.0;
    }
    return value.as_double();
  }

  long long integer(const Json& object, std::string_view key) {
    const Json& value = object[key];
    if (!value.is_number()) {
      fail("missing or non-numeric field '" + std::string(key) + "'");
      return 0;
    }
    return value.as_int64();
  }

  std::uint64_t uint64(const Json& object, std::string_view key) {
    const Json& value = object[key];
    if (!value.is_number()) {
      fail("missing or non-numeric field '" + std::string(key) + "'");
      return 0;
    }
    return value.as_uint64();
  }

  bool boolean(const Json& object, std::string_view key) {
    const Json& value = object[key];
    if (!value.is_bool()) {
      fail("missing or non-boolean field '" + std::string(key) + "'");
      return false;
    }
    return value.as_bool();
  }

  std::string text(const Json& object, std::string_view key) {
    const Json& value = object[key];
    if (!value.is_string()) {
      fail("missing or non-string field '" + std::string(key) + "'");
      return {};
    }
    return value.as_string();
  }

  const Json& child(const Json& object, std::string_view key) {
    const Json& value = object[key];
    if (!value.is_object()) {
      fail("missing or non-object field '" + std::string(key) + "'");
    }
    return value;
  }

  const Json& array(const Json& object, std::string_view key) {
    const Json& value = object[key];
    if (!value.is_array()) {
      fail("missing or non-array field '" + std::string(key) + "'");
    }
    return value;
  }

 private:
  std::string* error_;
  bool ok_ = true;
};

Json vec3_to_json(const util::Vec3& v) {
  Json array = Json::array();
  array.push_back(Json::number(v.x));
  array.push_back(Json::number(v.y));
  array.push_back(Json::number(v.z));
  return array;
}

util::Vec3 vec3_from_json(const Json& json, Reader& reader, std::string_view what) {
  if (!json.is_array() || json.size() != 3 || !json.at(0).is_number() ||
      !json.at(1).is_number() || !json.at(2).is_number()) {
    reader.fail("field '" + std::string(what) + "' is not a 3-vector");
    return {};
  }
  return {json.at(0).as_double(), json.at(1).as_double(), json.at(2).as_double()};
}

Json mat3_to_json(const util::Mat3& m) {
  Json array = Json::array();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) array.push_back(Json::number(m(r, c)));
  }
  return array;
}

util::Mat3 mat3_from_json(const Json& json, Reader& reader, std::string_view what) {
  util::Mat3 m;
  if (!json.is_array() || json.size() != 9) {
    reader.fail("field '" + std::string(what) + "' is not a 9-element matrix");
    return m;
  }
  for (std::size_t i = 0; i < 9; ++i) {
    if (!json.at(i).is_number()) {
      reader.fail("field '" + std::string(what) + "' has a non-numeric element");
      return m;
    }
    m(i / 3, i % 3) = json.at(i).as_double();
  }
  return m;
}

Json chromaticity_to_json(const color::Chromaticity& c) {
  Json array = Json::array();
  array.push_back(Json::number(c.x));
  array.push_back(Json::number(c.y));
  return array;
}

color::Chromaticity chromaticity_from_json(const Json& json, Reader& reader,
                                           std::string_view what) {
  if (!json.is_array() || json.size() != 2 || !json.at(0).is_number() ||
      !json.at(1).is_number()) {
    reader.fail("field '" + std::string(what) + "' is not an xy pair");
    return {};
  }
  return {json.at(0).as_double(), json.at(1).as_double()};
}

const char* matching_space_name(rx::MatchingSpace space) noexcept {
  switch (space) {
    case rx::MatchingSpace::kCielabAB: return "lab_ab";
    case rx::MatchingSpace::kCielab94: return "lab94";
    case rx::MatchingSpace::kRgb: return "rgb";
  }
  return "lab_ab";
}

std::optional<rx::MatchingSpace> matching_space_from_name(std::string_view name) {
  if (name == "lab_ab") return rx::MatchingSpace::kCielabAB;
  if (name == "lab94") return rx::MatchingSpace::kCielab94;
  if (name == "rgb") return rx::MatchingSpace::kRgb;
  return std::nullopt;
}

std::optional<csk::CskOrder> order_from_int(long long value) {
  switch (value) {
    case 4: return csk::CskOrder::kCsk4;
    case 8: return csk::CskOrder::kCsk8;
    case 16: return csk::CskOrder::kCsk16;
    case 32: return csk::CskOrder::kCsk32;
    case 64: return csk::CskOrder::kCsk64;
    default: return std::nullopt;
  }
}

std::optional<eq::EngineKind> engine_kind_from_name(std::string_view name) {
  if (name == "nearest") return eq::EngineKind::kNearestReference;
  if (name == "mmse") return eq::EngineKind::kLinearMmse;
  if (name == "freq") return eq::EngineKind::kFrequencyDomain;
  return std::nullopt;
}

// --- sub-config serializers ---

Json profile_to_json(const camera::SensorProfile& p) {
  Json json = Json::object();
  json.set("name", Json::string(p.name));
  json.set("rows", Json::integer(p.rows));
  json.set("columns", Json::integer(p.columns));
  json.set("fps", Json::number(p.fps));
  json.set("inter_frame_loss_ratio", Json::number(p.inter_frame_loss_ratio));
  json.set("xyz_to_sensor_rgb", mat3_to_json(p.xyz_to_sensor_rgb));
  json.set("read_noise", Json::number(p.read_noise));
  json.set("well_capacity", Json::number(p.well_capacity));
  json.set("min_exposure_s", Json::number(p.min_exposure_s));
  json.set("max_exposure_s", Json::number(p.max_exposure_s));
  json.set("min_iso", Json::number(p.min_iso));
  json.set("max_iso", Json::number(p.max_iso));
  json.set("auto_exposure_target", Json::number(p.auto_exposure_target));
  json.set("vignette_strength", Json::number(p.vignette_strength));
  json.set("frame_start_jitter_s", Json::number(p.frame_start_jitter_s));
  json.set("sensitivity", Json::number(p.sensitivity));
  return json;
}

camera::SensorProfile profile_from_json(const Json& json, Reader& reader) {
  camera::SensorProfile p;
  p.name = reader.text(json, "name");
  p.rows = static_cast<int>(reader.integer(json, "rows"));
  p.columns = static_cast<int>(reader.integer(json, "columns"));
  p.fps = reader.number(json, "fps");
  p.inter_frame_loss_ratio = reader.number(json, "inter_frame_loss_ratio");
  p.xyz_to_sensor_rgb =
      mat3_from_json(json["xyz_to_sensor_rgb"], reader, "xyz_to_sensor_rgb");
  p.read_noise = reader.number(json, "read_noise");
  p.well_capacity = reader.number(json, "well_capacity");
  p.min_exposure_s = reader.number(json, "min_exposure_s");
  p.max_exposure_s = reader.number(json, "max_exposure_s");
  p.min_iso = reader.number(json, "min_iso");
  p.max_iso = reader.number(json, "max_iso");
  p.auto_exposure_target = reader.number(json, "auto_exposure_target");
  p.vignette_strength = reader.number(json, "vignette_strength");
  p.frame_start_jitter_s = reader.number(json, "frame_start_jitter_s");
  p.sensitivity = reader.number(json, "sensitivity");
  return p;
}

Json channel_to_json(const channel::ChannelSpec& c) {
  Json json = Json::object();
  Json distance = Json::object();
  distance.set("distance_m", Json::number(c.distance.distance_m));
  distance.set("reference_distance_m", Json::number(c.distance.reference_distance_m));
  json.set("distance", std::move(distance));
  Json ambient = Json::object();
  ambient.set("chromaticity", chromaticity_to_json(c.ambient.chromaticity));
  ambient.set("level", Json::number(c.ambient.level));
  json.set("ambient", std::move(ambient));
  Json flicker = Json::object();
  flicker.set("frequency_hz", Json::number(c.flicker.frequency_hz));
  flicker.set("modulation_depth", Json::number(c.flicker.modulation_depth));
  flicker.set("phase_rad", Json::number(c.flicker.phase_rad));
  json.set("flicker", std::move(flicker));
  Json occlusion = Json::object();
  occlusion.set("rate_hz", Json::number(c.occlusion.rate_hz));
  occlusion.set("mean_duration_s", Json::number(c.occlusion.mean_duration_s));
  occlusion.set("transmission", Json::number(c.occlusion.transmission));
  json.set("occlusion", std::move(occlusion));
  Json isi = Json::object();
  isi.set("delay_spread_s", Json::number(c.isi.delay_spread_s));
  isi.set("taps", Json::integer(c.isi.taps));
  isi.set("tap_spacing_s", Json::number(c.isi.tap_spacing_s));
  json.set("isi", std::move(isi));
  Json frame = Json::object();
  frame.set("drop_probability", Json::number(c.frame.drop_probability));
  frame.set("gain_wobble_sigma", Json::number(c.frame.gain_wobble_sigma));
  json.set("frame", std::move(frame));
  return json;
}

channel::ChannelSpec channel_from_json(const Json& json, Reader& reader) {
  channel::ChannelSpec c;
  const Json& distance = reader.child(json, "distance");
  c.distance.distance_m = reader.number(distance, "distance_m");
  c.distance.reference_distance_m = reader.number(distance, "reference_distance_m");
  const Json& ambient = reader.child(json, "ambient");
  c.ambient.chromaticity =
      chromaticity_from_json(ambient["chromaticity"], reader, "ambient.chromaticity");
  c.ambient.level = reader.number(ambient, "level");
  const Json& flicker = reader.child(json, "flicker");
  c.flicker.frequency_hz = reader.number(flicker, "frequency_hz");
  c.flicker.modulation_depth = reader.number(flicker, "modulation_depth");
  c.flicker.phase_rad = reader.number(flicker, "phase_rad");
  const Json& occlusion = reader.child(json, "occlusion");
  c.occlusion.rate_hz = reader.number(occlusion, "rate_hz");
  c.occlusion.mean_duration_s = reader.number(occlusion, "mean_duration_s");
  c.occlusion.transmission = reader.number(occlusion, "transmission");
  const Json& isi = reader.child(json, "isi");
  c.isi.delay_spread_s = reader.number(isi, "delay_spread_s");
  c.isi.taps = static_cast<int>(reader.integer(isi, "taps"));
  c.isi.tap_spacing_s = reader.number(isi, "tap_spacing_s");
  const Json& frame = reader.child(json, "frame");
  c.frame.drop_probability = reader.number(frame, "drop_probability");
  c.frame.gain_wobble_sigma = reader.number(frame, "gain_wobble_sigma");
  return c;
}

Json pd_to_json(const pd::PdConfig& p) {
  Json json = Json::object();
  Json channels = Json::array();
  for (const pd::PdChannelSpec& channel : p.channels) {
    Json entry = Json::object();
    entry.set("filter_xyz", vec3_to_json(channel.filter_xyz));
    entry.set("rgb_weight", vec3_to_json(channel.rgb_weight));
    entry.set("responsivity", Json::number(channel.responsivity));
    channels.push_back(std::move(entry));
  }
  json.set("channels", std::move(channels));
  json.set("sample_rate_hz", Json::number(p.sample_rate_hz));
  json.set("adc_bits", Json::integer(p.adc_bits));
  json.set("read_noise", Json::number(p.read_noise));
  json.set("shot_noise", Json::number(p.shot_noise));
  json.set("agc_target", Json::number(p.agc_target));
  json.set("agc_window_s", Json::number(p.agc_window_s));
  json.set("block_samples", Json::integer(p.block_samples));
  json.set("lookahead_blocks", Json::integer(p.lookahead_blocks));
  json.set("transition_threshold", Json::number(p.transition_threshold));
  json.set("guard_fraction", Json::number(p.guard_fraction));
  json.set("min_coverage", Json::number(p.min_coverage));
  json.set("min_transitions", Json::integer(p.min_transitions));
  json.set("max_acquisition_slots", Json::integer(p.max_acquisition_slots));
  return json;
}

pd::PdConfig pd_from_json(const Json& json, Reader& reader) {
  pd::PdConfig p;
  const Json& channels = reader.array(json, "channels");
  if (!reader.ok()) return p;
  p.channels.clear();
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const Json& entry = channels.at(i);
    if (!entry.is_object()) {
      reader.fail("pd.channels element is not an object");
      return p;
    }
    pd::PdChannelSpec channel;
    channel.filter_xyz = vec3_from_json(entry["filter_xyz"], reader, "filter_xyz");
    channel.rgb_weight = vec3_from_json(entry["rgb_weight"], reader, "rgb_weight");
    channel.responsivity = reader.number(entry, "responsivity");
    p.channels.push_back(channel);
  }
  p.sample_rate_hz = reader.number(json, "sample_rate_hz");
  p.adc_bits = static_cast<int>(reader.integer(json, "adc_bits"));
  p.read_noise = reader.number(json, "read_noise");
  p.shot_noise = reader.number(json, "shot_noise");
  p.agc_target = reader.number(json, "agc_target");
  p.agc_window_s = reader.number(json, "agc_window_s");
  p.block_samples = static_cast<int>(reader.integer(json, "block_samples"));
  p.lookahead_blocks = static_cast<int>(reader.integer(json, "lookahead_blocks"));
  p.transition_threshold = reader.number(json, "transition_threshold");
  p.guard_fraction = reader.number(json, "guard_fraction");
  p.min_coverage = reader.number(json, "min_coverage");
  p.min_transitions = static_cast<int>(reader.integer(json, "min_transitions"));
  p.max_acquisition_slots =
      static_cast<int>(reader.integer(json, "max_acquisition_slots"));
  return p;
}

Json led_to_json(const led::TriLedConfig& l) {
  Json json = Json::object();
  Json gamut = Json::object();
  gamut.set("red", chromaticity_to_json(l.gamut.red()));
  gamut.set("green", chromaticity_to_json(l.gamut.green()));
  gamut.set("blue", chromaticity_to_json(l.gamut.blue()));
  json.set("gamut", std::move(gamut));
  json.set("peak_radiance", Json::number(l.peak_radiance));
  json.set("max_symbol_rate_hz", Json::number(l.max_symbol_rate_hz));
  return json;
}

led::TriLedConfig led_from_json(const Json& json, Reader& reader) {
  led::TriLedConfig l;
  const Json& gamut = reader.child(json, "gamut");
  if (!reader.ok()) return l;
  const color::Chromaticity red =
      chromaticity_from_json(gamut["red"], reader, "gamut.red");
  const color::Chromaticity green =
      chromaticity_from_json(gamut["green"], reader, "gamut.green");
  const color::Chromaticity blue =
      chromaticity_from_json(gamut["blue"], reader, "gamut.blue");
  if (!reader.ok()) return l;
  try {
    l.gamut = color::GamutTriangle(red, green, blue);
  } catch (const std::invalid_argument& error) {
    reader.fail(std::string("led.gamut: ") + error.what());
    return l;
  }
  l.peak_radiance = reader.number(json, "peak_radiance");
  l.max_symbol_rate_hz = reader.number(json, "max_symbol_rate_hz");
  return l;
}

Json classifier_to_json(const rx::ClassifierConfig& c) {
  Json json = Json::object();
  json.set("off_lightness", Json::number(c.off_lightness));
  json.set("off_max_chroma", Json::number(c.off_max_chroma));
  json.set("confident_delta_e", Json::number(c.confident_delta_e));
  json.set("matching_space", Json::string(matching_space_name(c.matching_space)));
  return json;
}

rx::ClassifierConfig classifier_from_json(const Json& json, Reader& reader) {
  rx::ClassifierConfig c;
  c.off_lightness = reader.number(json, "off_lightness");
  c.off_max_chroma = reader.number(json, "off_max_chroma");
  c.confident_delta_e = reader.number(json, "confident_delta_e");
  const std::string space = reader.text(json, "matching_space");
  if (const auto parsed = matching_space_from_name(space)) {
    c.matching_space = *parsed;
  } else if (reader.ok()) {
    reader.fail("unknown matching_space '" + space + "'");
  }
  return c;
}

Json engine_to_json(const eq::EngineConfig& e) {
  Json json = Json::object();
  json.set("kind", Json::string(eq::engine_name(e.kind)));
  json.set("channel_taps", Json::integer(e.channel_taps));
  json.set("equalizer_taps", Json::integer(e.equalizer_taps));
  json.set("mmse_lambda", Json::number(e.mmse_lambda));
  json.set("dft_size", Json::integer(e.dft_size));
  json.set("max_tap_norm", Json::number(e.max_tap_norm));
  json.set("reference_prior", Json::number(e.reference_prior));
  json.set("train_iterations", Json::integer(e.train_iterations));
  return json;
}

eq::EngineConfig engine_from_json(const Json& json, Reader& reader) {
  eq::EngineConfig e;
  const std::string kind = reader.text(json, "kind");
  if (const auto parsed = engine_kind_from_name(kind)) {
    e.kind = *parsed;
  } else if (reader.ok()) {
    reader.fail("unknown engine kind '" + kind + "'");
  }
  e.channel_taps = static_cast<int>(reader.integer(json, "channel_taps"));
  e.equalizer_taps = static_cast<int>(reader.integer(json, "equalizer_taps"));
  e.mmse_lambda = reader.number(json, "mmse_lambda");
  e.dft_size = static_cast<int>(reader.integer(json, "dft_size"));
  e.max_tap_norm = reader.number(json, "max_tap_norm");
  e.reference_prior = reader.number(json, "reference_prior");
  e.train_iterations = static_cast<int>(reader.integer(json, "train_iterations"));
  return e;
}

}  // namespace

// --- LinkConfig ---

Json link_config_to_json(const core::LinkConfig& config) {
  Json json = Json::object();
  json.set("order", Json::integer(static_cast<int>(config.order)));
  json.set("symbol_rate_hz", Json::number(config.symbol_rate_hz));
  json.set("illumination_ratio", Json::number(config.illumination_ratio));
  json.set("profile", profile_to_json(config.profile));
  json.set("channel", channel_to_json(config.channel));
  json.set("frontend",
           Json::string(config.frontend == frontend::FrontendKind::kPhotodiode
                            ? "pd"
                            : "camera"));
  json.set("pd", pd_to_json(config.pd));
  json.set("led", led_to_json(config.led));
  json.set("calibration_rate_hz", Json::number(config.calibration_rate_hz));
  json.set("classifier", classifier_to_json(config.classifier));
  json.set("engine", engine_to_json(config.engine));
  json.set("enable_dephasing_pad", Json::boolean(config.enable_dephasing_pad));
  json.set("use_erasure_decoding", Json::boolean(config.use_erasure_decoding));
  json.set("pipeline_lookahead", Json::integer(config.pipeline_lookahead));
  json.set("seed", Json::unsigned_integer(config.seed));
  return json;
}

std::optional<core::LinkConfig> link_config_from_json(const Json& json,
                                                      std::string* error) {
  Reader reader(error);
  if (!json.is_object()) {
    reader.fail("link config is not an object");
    return std::nullopt;
  }
  core::LinkConfig config;
  const long long order = reader.integer(json, "order");
  if (const auto parsed = order_from_int(order)) {
    config.order = *parsed;
  } else if (reader.ok()) {
    reader.fail("unknown CSK order " + std::to_string(order));
  }
  config.symbol_rate_hz = reader.number(json, "symbol_rate_hz");
  config.illumination_ratio = reader.number(json, "illumination_ratio");
  config.profile = profile_from_json(reader.child(json, "profile"), reader);
  config.channel = channel_from_json(reader.child(json, "channel"), reader);
  const std::string frontend_name = reader.text(json, "frontend");
  if (frontend_name == "camera") {
    config.frontend = frontend::FrontendKind::kCamera;
  } else if (frontend_name == "pd") {
    config.frontend = frontend::FrontendKind::kPhotodiode;
  } else if (reader.ok()) {
    reader.fail("unknown frontend '" + frontend_name + "'");
  }
  config.pd = pd_from_json(reader.child(json, "pd"), reader);
  config.led = led_from_json(reader.child(json, "led"), reader);
  config.calibration_rate_hz = reader.number(json, "calibration_rate_hz");
  config.classifier = classifier_from_json(reader.child(json, "classifier"), reader);
  config.engine = engine_from_json(reader.child(json, "engine"), reader);
  config.enable_dephasing_pad = reader.boolean(json, "enable_dephasing_pad");
  config.use_erasure_decoding = reader.boolean(json, "use_erasure_decoding");
  config.pipeline_lookahead = static_cast<int>(reader.integer(json, "pipeline_lookahead"));
  config.seed = reader.uint64(json, "seed");
  if (!reader.ok()) return std::nullopt;
  // Run the subsystem validators the simulators would run, so a
  // malformed config is rejected at the protocol boundary instead of
  // throwing deep inside a worker's trial.
  try {
    config.profile.validate();
    config.channel.validate();
    config.pd.validate();
    config.engine.validate();
  } catch (const std::invalid_argument& invalid) {
    reader.fail(std::string("config validation: ") + invalid.what());
    return std::nullopt;
  }
  return config;
}

// --- trial kinds + results ---

const char* trial_kind_name(TrialKind kind) noexcept {
  switch (kind) {
    case TrialKind::kSer: return "ser";
    case TrialKind::kThroughput: return "throughput";
    case TrialKind::kGoodput: return "goodput";
  }
  return "ser";
}

std::optional<TrialKind> trial_kind_from_name(std::string_view name) {
  if (name == "ser") return TrialKind::kSer;
  if (name == "throughput") return TrialKind::kThroughput;
  if (name == "goodput") return TrialKind::kGoodput;
  return std::nullopt;
}

namespace {

Json trial_result_to_json(TrialKind kind, const TrialResult& trial) {
  Json json = Json::object();
  switch (kind) {
    case TrialKind::kSer: {
      const core::SerResult& r = trial.ser;
      json.set("symbols_sent", Json::integer(r.symbols_sent));
      json.set("symbols_observed", Json::integer(r.symbols_observed));
      json.set("symbol_errors", Json::integer(r.symbol_errors));
      json.set("inter_frame_loss_ratio", Json::number(r.inter_frame_loss_ratio));
      json.set("engine_decisions", Json::integer(r.engine_decisions));
      json.set("engine_fallback_decisions", Json::integer(r.engine_fallback_decisions));
      json.set("engine_retrains", Json::integer(r.engine_retrains));
      json.set("engine_train_fallbacks", Json::integer(r.engine_train_fallbacks));
      json.set("engine_tap_norm", Json::number(r.engine_tap_norm));
      break;
    }
    case TrialKind::kThroughput: {
      const core::ThroughputResult& r = trial.throughput;
      json.set("data_slots_sent", Json::integer(r.data_slots_sent));
      json.set("data_slots_observed", Json::integer(r.data_slots_observed));
      json.set("air_time_s", Json::number(r.air_time_s));
      json.set("bits_per_symbol", Json::integer(r.bits_per_symbol));
      break;
    }
    case TrialKind::kGoodput: {
      const GoodputTrial& r = trial.goodput;
      json.set("payload_bytes", Json::integer(r.payload_bytes));
      json.set("recovered_bytes", Json::integer(r.recovered_bytes));
      json.set("air_time_s", Json::number(r.air_time_s));
      json.set("packets_ok", Json::integer(r.packets_ok));
      json.set("packets_failed", Json::integer(r.packets_failed));
      break;
    }
  }
  return json;
}

TrialResult trial_result_from_json(TrialKind kind, const Json& json, Reader& reader) {
  TrialResult trial;
  if (!json.is_object()) {
    reader.fail("trial result is not an object");
    return trial;
  }
  switch (kind) {
    case TrialKind::kSer: {
      core::SerResult& r = trial.ser;
      r.symbols_sent = reader.integer(json, "symbols_sent");
      r.symbols_observed = reader.integer(json, "symbols_observed");
      r.symbol_errors = reader.integer(json, "symbol_errors");
      r.inter_frame_loss_ratio = reader.number(json, "inter_frame_loss_ratio");
      r.engine_decisions = reader.integer(json, "engine_decisions");
      r.engine_fallback_decisions = reader.integer(json, "engine_fallback_decisions");
      r.engine_retrains = reader.integer(json, "engine_retrains");
      r.engine_train_fallbacks = reader.integer(json, "engine_train_fallbacks");
      r.engine_tap_norm = reader.number(json, "engine_tap_norm");
      break;
    }
    case TrialKind::kThroughput: {
      core::ThroughputResult& r = trial.throughput;
      r.data_slots_sent = reader.integer(json, "data_slots_sent");
      r.data_slots_observed = reader.integer(json, "data_slots_observed");
      r.air_time_s = reader.number(json, "air_time_s");
      r.bits_per_symbol = static_cast<int>(reader.integer(json, "bits_per_symbol"));
      break;
    }
    case TrialKind::kGoodput: {
      GoodputTrial& r = trial.goodput;
      r.payload_bytes = reader.integer(json, "payload_bytes");
      r.recovered_bytes = reader.integer(json, "recovered_bytes");
      r.air_time_s = reader.number(json, "air_time_s");
      r.packets_ok = static_cast<int>(reader.integer(json, "packets_ok"));
      r.packets_failed = static_cast<int>(reader.integer(json, "packets_failed"));
      break;
    }
  }
  return trial;
}

Json rung_to_json(const adapt::Rung& rung) {
  Json json = Json::object();
  json.set("order", Json::integer(static_cast<int>(rung.order)));
  json.set("symbol_rate_hz", Json::number(rung.symbol_rate_hz));
  return json;
}

adapt::Rung rung_from_json(const Json& json, Reader& reader) {
  adapt::Rung rung;
  if (!json.is_object()) {
    reader.fail("ladder rung is not an object");
    return rung;
  }
  const long long order = reader.integer(json, "order");
  if (const auto parsed = order_from_int(order)) {
    rung.order = *parsed;
  } else if (reader.ok()) {
    reader.fail("unknown CSK order in rung");
  }
  rung.symbol_rate_hz = reader.number(json, "symbol_rate_hz");
  return rung;
}

}  // namespace

// --- adaptive specs ---

Json trajectory_to_json(const adapt::Trajectory& trajectory) {
  Json segments = Json::array();
  for (const adapt::TrajectorySegment& segment : trajectory.segments) {
    Json entry = Json::object();
    entry.set("name", Json::string(segment.name));
    entry.set("duration_s", Json::number(segment.duration_s));
    entry.set("channel", channel_to_json(segment.channel));
    segments.push_back(std::move(entry));
  }
  Json json = Json::object();
  json.set("segments", std::move(segments));
  return json;
}

std::optional<adapt::Trajectory> trajectory_from_json(const Json& json,
                                                      std::string* error) {
  Reader reader(error);
  adapt::Trajectory trajectory;
  const Json& segments = reader.array(json, "segments");
  if (!reader.ok()) return std::nullopt;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Json& entry = segments.at(i);
    if (!entry.is_object()) {
      reader.fail("trajectory segment is not an object");
      return std::nullopt;
    }
    adapt::TrajectorySegment segment;
    segment.name = reader.text(entry, "name");
    segment.duration_s = reader.number(entry, "duration_s");
    segment.channel = channel_from_json(reader.child(entry, "channel"), reader);
    trajectory.segments.push_back(std::move(segment));
  }
  if (!reader.ok()) return std::nullopt;
  return trajectory;
}

Json adaptive_config_to_json(const adapt::AdaptiveLinkConfig& config) {
  Json json = Json::object();
  Json ladder = Json::array();
  for (const adapt::Rung& rung : config.ladder) ladder.push_back(rung_to_json(rung));
  json.set("ladder", std::move(ladder));
  json.set("initial_rung", Json::integer(config.initial_rung));
  json.set("adaptation_enabled", Json::boolean(config.adaptation_enabled));
  json.set("control_interval_s", Json::number(config.control_interval_s));
  json.set("recalibration_cost_s", Json::number(config.recalibration_cost_s));
  json.set("profile", profile_to_json(config.profile));
  json.set("illumination_ratio", Json::number(config.illumination_ratio));
  json.set("calibration_rate_hz", Json::number(config.calibration_rate_hz));
  json.set("classifier", classifier_to_json(config.classifier));
  json.set("pipeline_lookahead", Json::integer(config.pipeline_lookahead));
  Json monitor = Json::object();
  monitor.set("alpha", Json::number(config.monitor.alpha));
  json.set("monitor", std::move(monitor));
  Json controller = Json::object();
  controller.set("down_success", Json::number(config.controller.down_success));
  controller.set("collapse_success", Json::number(config.controller.collapse_success));
  controller.set("up_success", Json::number(config.controller.up_success));
  controller.set("min_margin", Json::number(config.controller.min_margin));
  controller.set("up_confirm_intervals",
                 Json::integer(config.controller.up_confirm_intervals));
  controller.set("max_up_confirm_intervals",
                 Json::integer(config.controller.max_up_confirm_intervals));
  controller.set("probe_settle_intervals",
                 Json::integer(config.controller.probe_settle_intervals));
  controller.set("switch_cost_intervals",
                 Json::number(config.controller.switch_cost_intervals));
  json.set("controller", std::move(controller));
  Json feedback = Json::object();
  feedback.set("delay_intervals", Json::integer(config.feedback.delay_intervals));
  feedback.set("loss_probability", Json::number(config.feedback.loss_probability));
  json.set("feedback", std::move(feedback));
  json.set("seed", Json::unsigned_integer(config.seed));
  return json;
}

std::optional<adapt::AdaptiveLinkConfig> adaptive_config_from_json(
    const Json& json, std::string* error) {
  Reader reader(error);
  if (!json.is_object()) {
    reader.fail("adaptive config is not an object");
    return std::nullopt;
  }
  adapt::AdaptiveLinkConfig config;
  const Json& ladder = reader.array(json, "ladder");
  if (!reader.ok()) return std::nullopt;
  config.ladder.clear();
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    config.ladder.push_back(rung_from_json(ladder.at(i), reader));
  }
  config.initial_rung = static_cast<int>(reader.integer(json, "initial_rung"));
  config.adaptation_enabled = reader.boolean(json, "adaptation_enabled");
  config.control_interval_s = reader.number(json, "control_interval_s");
  config.recalibration_cost_s = reader.number(json, "recalibration_cost_s");
  config.profile = profile_from_json(reader.child(json, "profile"), reader);
  config.illumination_ratio = reader.number(json, "illumination_ratio");
  config.calibration_rate_hz = reader.number(json, "calibration_rate_hz");
  config.classifier = classifier_from_json(reader.child(json, "classifier"), reader);
  config.pipeline_lookahead = static_cast<int>(reader.integer(json, "pipeline_lookahead"));
  const Json& monitor = reader.child(json, "monitor");
  config.monitor.alpha = reader.number(monitor, "alpha");
  const Json& controller = reader.child(json, "controller");
  config.controller.down_success = reader.number(controller, "down_success");
  config.controller.collapse_success = reader.number(controller, "collapse_success");
  config.controller.up_success = reader.number(controller, "up_success");
  config.controller.min_margin = reader.number(controller, "min_margin");
  config.controller.up_confirm_intervals =
      static_cast<int>(reader.integer(controller, "up_confirm_intervals"));
  config.controller.max_up_confirm_intervals =
      static_cast<int>(reader.integer(controller, "max_up_confirm_intervals"));
  config.controller.probe_settle_intervals =
      static_cast<int>(reader.integer(controller, "probe_settle_intervals"));
  config.controller.switch_cost_intervals =
      reader.number(controller, "switch_cost_intervals");
  const Json& feedback = reader.child(json, "feedback");
  config.feedback.delay_intervals =
      static_cast<int>(reader.integer(feedback, "delay_intervals"));
  config.feedback.loss_probability = reader.number(feedback, "loss_probability");
  config.seed = reader.uint64(json, "seed");
  if (!reader.ok()) return std::nullopt;
  try {
    config.profile.validate();
  } catch (const std::invalid_argument& invalid) {
    reader.fail(std::string("config validation: ") + invalid.what());
    return std::nullopt;
  }
  return config;
}

Json adaptive_result_to_json(const adapt::AdaptiveRunResult& result) {
  Json json = Json::object();
  Json intervals = Json::array();
  for (const adapt::IntervalRecord& record : result.intervals) {
    Json entry = Json::object();
    entry.set("interval", Json::integer(record.interval));
    entry.set("epoch", Json::integer(record.epoch));
    entry.set("rung", Json::integer(record.rung));
    entry.set("segment", Json::integer(record.segment));
    entry.set("start_time_s", Json::number(record.start_time_s));
    entry.set("air_time_s", Json::number(record.air_time_s));
    entry.set("payload_bytes", Json::integer(record.payload_bytes));
    entry.set("recovered_bytes", Json::integer(record.recovered_bytes));
    entry.set("packets_sent", Json::integer(record.packets_sent));
    entry.set("packets_ok", Json::integer(record.packets_ok));
    entry.set("packets_failed", Json::integer(record.packets_failed));
    entry.set("header_losses", Json::integer(record.header_losses));
    entry.set("corrected_symbols", Json::integer(record.corrected_symbols));
    entry.set("desired_rung", Json::integer(record.desired_rung));
    entry.set("command_sent", Json::boolean(record.command_sent));
    entry.set("command_lost", Json::boolean(record.command_lost));
    intervals.push_back(std::move(entry));
  }
  json.set("intervals", std::move(intervals));
  json.set("total_time_s", Json::number(result.total_time_s));
  json.set("payload_bytes", Json::integer(result.payload_bytes));
  json.set("recovered_bytes", Json::integer(result.recovered_bytes));
  json.set("epochs", Json::integer(result.epochs));
  json.set("upshifts", Json::integer(result.upshifts));
  json.set("downshifts", Json::integer(result.downshifts));
  json.set("commands_sent", Json::integer(result.commands_sent));
  json.set("commands_lost", Json::integer(result.commands_lost));
  json.set("final_rung", Json::integer(result.final_rung));
  return json;
}

std::optional<adapt::AdaptiveRunResult> adaptive_result_from_json(
    const Json& json, std::string* error) {
  Reader reader(error);
  if (!json.is_object()) {
    reader.fail("adaptive result is not an object");
    return std::nullopt;
  }
  adapt::AdaptiveRunResult result;
  const Json& intervals = reader.array(json, "intervals");
  if (!reader.ok()) return std::nullopt;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const Json& entry = intervals.at(i);
    if (!entry.is_object()) {
      reader.fail("interval record is not an object");
      return std::nullopt;
    }
    adapt::IntervalRecord record;
    record.interval = reader.integer(entry, "interval");
    record.epoch = static_cast<int>(reader.integer(entry, "epoch"));
    record.rung = static_cast<int>(reader.integer(entry, "rung"));
    record.segment = static_cast<int>(reader.integer(entry, "segment"));
    record.start_time_s = reader.number(entry, "start_time_s");
    record.air_time_s = reader.number(entry, "air_time_s");
    record.payload_bytes = reader.integer(entry, "payload_bytes");
    record.recovered_bytes = reader.integer(entry, "recovered_bytes");
    record.packets_sent = static_cast<int>(reader.integer(entry, "packets_sent"));
    record.packets_ok = static_cast<int>(reader.integer(entry, "packets_ok"));
    record.packets_failed = static_cast<int>(reader.integer(entry, "packets_failed"));
    record.header_losses = static_cast<int>(reader.integer(entry, "header_losses"));
    record.corrected_symbols = reader.integer(entry, "corrected_symbols");
    record.desired_rung = static_cast<int>(reader.integer(entry, "desired_rung"));
    record.command_sent = reader.boolean(entry, "command_sent");
    record.command_lost = reader.boolean(entry, "command_lost");
    result.intervals.push_back(record);
  }
  result.total_time_s = reader.number(json, "total_time_s");
  result.payload_bytes = reader.integer(json, "payload_bytes");
  result.recovered_bytes = reader.integer(json, "recovered_bytes");
  result.epochs = static_cast<int>(reader.integer(json, "epochs"));
  result.upshifts = static_cast<int>(reader.integer(json, "upshifts"));
  result.downshifts = static_cast<int>(reader.integer(json, "downshifts"));
  result.commands_sent = reader.integer(json, "commands_sent");
  result.commands_lost = reader.integer(json, "commands_lost");
  result.final_rung = static_cast<int>(reader.integer(json, "final_rung"));
  if (!reader.ok()) return std::nullopt;
  return result;
}

// --- message envelopes ---

std::string encode_hello(const HelloMessage& hello) {
  Json json = Json::object();
  json.set("type", Json::string("hello"));
  json.set("worker", Json::integer(hello.worker));
  json.set("generation", Json::integer(hello.generation));
  json.set("pid", Json::integer(hello.pid));
  return json.dump();
}

std::string encode_heartbeat(const HeartbeatMessage& heartbeat) {
  Json json = Json::object();
  json.set("type", Json::string("heartbeat"));
  json.set("worker", Json::integer(heartbeat.worker));
  json.set("job_id", Json::integer(heartbeat.job_id));
  return json.dump();
}

std::string encode_job(const JobRequest& job) {
  Json json = Json::object();
  json.set("type", Json::string("job"));
  json.set("id", Json::integer(job.id));
  json.set("kind", Json::string(trial_kind_name(job.kind)));
  json.set("point", Json::integer(job.point));
  json.set("trial_begin", Json::integer(job.trial_begin));
  json.set("trial_end", Json::integer(job.trial_end));
  json.set("symbols_per_trial", Json::integer(job.symbols_per_trial));
  json.set("duration_s", Json::number(job.duration_s));
  if (job.is_adaptive) {
    json.set("adaptive", adaptive_config_to_json(job.adaptive));
    json.set("trajectory", trajectory_to_json(job.trajectory));
  } else {
    json.set("config", link_config_to_json(job.config));
  }
  return json.dump();
}

std::string encode_job_result(const JobResultMessage& result) {
  Json json = Json::object();
  json.set("type", Json::string("result"));
  json.set("id", Json::integer(result.id));
  json.set("worker", Json::integer(result.worker));
  if (result.is_adaptive) {
    json.set("adaptive", adaptive_result_to_json(result.adaptive));
  } else {
    // The trial kind travels with the result so the parser knows which
    // member of TrialResult each row fills.
    Json trials = Json::array();
    json.set("kind", Json::string(trial_kind_name(result.trials_kind)));
    for (const TrialResult& trial : result.trials) {
      trials.push_back(trial_result_to_json(result.trials_kind, trial));
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
  Reader reader(error);
  if (!json.is_object()) {
    reader.fail("message is not an object");
    return std::nullopt;
  }
  Message message;
  message.type = reader.text(json, "type");
  if (!reader.ok()) return std::nullopt;
  if (message.type == "hello") {
    message.hello.worker = static_cast<int>(reader.integer(json, "worker"));
    message.hello.generation = static_cast<int>(reader.integer(json, "generation"));
    message.hello.pid = reader.integer(json, "pid");
  } else if (message.type == "heartbeat") {
    message.heartbeat.worker = static_cast<int>(reader.integer(json, "worker"));
    message.heartbeat.job_id = reader.integer(json, "job_id");
  } else if (message.type == "job") {
    JobRequest& job = message.job;
    job.id = reader.integer(json, "id");
    const std::string kind = reader.text(json, "kind");
    if (const auto parsed = trial_kind_from_name(kind)) {
      job.kind = *parsed;
    } else if (reader.ok()) {
      reader.fail("unknown trial kind '" + kind + "'");
    }
    job.point = static_cast<int>(reader.integer(json, "point"));
    job.trial_begin = static_cast<int>(reader.integer(json, "trial_begin"));
    job.trial_end = static_cast<int>(reader.integer(json, "trial_end"));
    job.symbols_per_trial = static_cast<int>(reader.integer(json, "symbols_per_trial"));
    job.duration_s = reader.number(json, "duration_s");
    if (!reader.ok()) return std::nullopt;
    if (json.has("adaptive")) {
      job.is_adaptive = true;
      auto adaptive = adaptive_config_from_json(json["adaptive"], error);
      auto trajectory = trajectory_from_json(json["trajectory"], error);
      if (!adaptive || !trajectory) return std::nullopt;
      job.adaptive = std::move(*adaptive);
      job.trajectory = std::move(*trajectory);
    } else {
      auto config = link_config_from_json(json["config"], error);
      if (!config) return std::nullopt;
      job.config = std::move(*config);
    }
  } else if (message.type == "result") {
    JobResultMessage& result = message.result;
    result.id = reader.integer(json, "id");
    result.worker = static_cast<int>(reader.integer(json, "worker"));
    if (!reader.ok()) return std::nullopt;
    if (json.has("adaptive")) {
      result.is_adaptive = true;
      auto adaptive = adaptive_result_from_json(json["adaptive"], error);
      if (!adaptive) return std::nullopt;
      result.adaptive = std::move(*adaptive);
    } else {
      const std::string kind = reader.text(json, "kind");
      const auto parsed = trial_kind_from_name(kind);
      if (!parsed) {
        reader.fail("unknown trial kind '" + kind + "' in result");
        return std::nullopt;
      }
      result.trials_kind = *parsed;
      const Json& trials = reader.array(json, "trials");
      if (!reader.ok()) return std::nullopt;
      for (std::size_t i = 0; i < trials.size(); ++i) {
        result.trials.push_back(trial_result_from_json(*parsed, trials.at(i), reader));
      }
    }
  } else if (message.type == "shutdown") {
    // No fields.
  } else {
    reader.fail("unknown message type '" + message.type + "'");
  }
  if (!reader.ok()) return std::nullopt;
  return message;
}

}  // namespace colorbars::svc

#include "colorbars/scene/simulator.hpp"

#include <algorithm>

#include "colorbars/channel/stages.hpp"
#include "colorbars/runtime/seed.hpp"

namespace colorbars::scene {

namespace {

/// Sub-stream indices of the scene's stochastic components, derived from
/// the run's camera seed (the same per-capture derivation discipline as
/// core/link.cpp, with fresh constants — a scene run is a new experiment,
/// not a byte-compat replay of the single-LED one).
constexpr std::uint64_t kSceneAmbientStream = 0x5ce2ea6b;
constexpr std::uint64_t kSceneStageStream = 0x5ce2f5a9;
constexpr std::uint64_t kSceneLuminaireStream = 0x5ce21ed5;

}  // namespace

SceneSimulator::SceneSimulator(SceneConfig config)
    : config_(std::move(config)), rng_(config_.link.seed) {
  config_.scene.validate(config_.link.profile);
  config_.link.channel.validate();
}

SceneRunResult SceneSimulator::run_goodput(double duration_s) {
  const std::size_t luminaire_count = config_.scene.luminaires.size();
  const tx::Transmitter transmitter(config_.link.transmitter_config());

  // Each luminaire streams its own independent payload; the draws happen
  // in luminaire order from the one member RNG, so a scene run is a
  // single repeatable experiment.
  std::vector<std::vector<std::uint8_t>> payloads(luminaire_count);
  std::vector<tx::Transmission> transmissions;
  transmissions.reserve(luminaire_count);
  for (std::size_t i = 0; i < luminaire_count; ++i) {
    payloads[i] = core::draw_burst_payload(config_.link, duration_s, rng_);
    transmissions.push_back(transmitter.transmit(payloads[i]));
  }

  const std::uint64_t camera_seed = rng_();
  const double start_offset = rng_.uniform(0.0, config_.link.profile.frame_period_s());

  // The camera's own channel is the scene's background path (ambient
  // light, frame-domain impairments); each luminaire's signal crosses
  // its placement's channel.
  camera::RollingShutterCamera camera(
      config_.link.profile,
      channel::OpticalChannel(config_.link.channel,
                              runtime::derive_stream_seed(camera_seed, kSceneAmbientStream)),
      camera_seed);
  const std::uint64_t luminaire_base =
      runtime::derive_stream_seed(camera_seed, kSceneLuminaireStream);
  std::vector<channel::OpticalChannel> optics;
  optics.reserve(luminaire_count);
  for (std::size_t i = 0; i < luminaire_count; ++i) {
    optics.emplace_back(config_.scene.luminaires[i].channel,
                        runtime::derive_stream_seed(luminaire_base,
                                                    static_cast<std::uint64_t>(i)));
  }

  std::vector<camera::RegionEmitter> emitters;
  emitters.reserve(luminaire_count);
  double scene_duration = 0.0;
  for (std::size_t i = 0; i < luminaire_count; ++i) {
    emitters.push_back({&transmissions[i].trace, &optics[i],
                        config_.scene.luminaires[i].region});
    scene_duration = std::max(scene_duration, transmissions[i].duration_s());
  }

  SceneReceiverConfig receiver_config;
  receiver_config.receiver = config_.link.receiver_config();
  receiver_config.tracker = config_.tracker;
  receiver_config.column_margin = config_.column_margin;
  SceneReceiver receiver(receiver_config);

  const channel::StageChain stages(
      config_.link.channel, runtime::derive_stream_seed(camera_seed, kSceneStageStream));
  pipeline::BufferPool pool;
  pipeline::SourceConfig source_config;
  source_config.lookahead = config_.link.pipeline_lookahead;
  SceneFrameRenderer renderer(camera, std::move(emitters), scene_duration, start_offset);
  pipeline::FrameSource source(renderer, pool, source_config);
  while (camera::Frame* frame = source.next()) {
    if (pipeline::apply_stages(stages.stages(), *frame)) receiver.consume(*frame);
  }
  receiver.on_stream_end();

  SceneRunResult result;
  result.lanes_opened = static_cast<int>(receiver.lanes().size());
  result.frames = receiver.frames_consumed();
  result.air_time_s = scene_duration;
  result.luminaires.resize(luminaire_count);

  // Attribute each decode lane to the placement its tracked columns
  // overlap most (lanes in ID order; first lane to claim a luminaire
  // wins — later spurious lanes for the same placement are ignored).
  for (const RoiDecodeLane& lane : receiver.lanes()) {
    int best = -1;
    int best_overlap = 0;
    for (std::size_t i = 0; i < luminaire_count; ++i) {
      const int overlap =
          lane.region.column_overlap(config_.scene.luminaires[i].region);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) continue;
    LuminaireOutcome& outcome = result.luminaires[static_cast<std::size_t>(best)];
    if (outcome.lane_id >= 0) continue;
    outcome.lane_id = lane.roi_id;
    outcome.region = lane.region;
    // Credit ground-truth-verified bytes only, so a miscorrected or
    // cross-luminaire packet is never credited.
    const auto& truth = transmissions[static_cast<std::size_t>(best)].packet_messages;
    std::size_t next_truth = 0;
    for (const rx::PacketRecord& record : lane.receiver->report().packets) {
      ++outcome.packets;
      if (record.ok) ++outcome.packets_ok;
      outcome.recovered_bytes += core::credit_packet(record, truth, next_truth);
    }
  }

  for (std::size_t i = 0; i < luminaire_count; ++i) {
    LuminaireOutcome& outcome = result.luminaires[i];
    outcome.luminaire = static_cast<int>(i);
    outcome.sent_bytes = payloads[i].size();
    result.sent_bytes += outcome.sent_bytes;
    result.recovered_bytes += outcome.recovered_bytes;
  }
  return result;
}

}  // namespace colorbars::scene

#include "colorbars/frontend/frontend.hpp"

#include "colorbars/runtime/seed.hpp"

namespace colorbars::frontend {

CameraFrontend::CameraFrontend(const CameraFrontendConfig& config,
                               const led::EmissionTrace& trace,
                               std::uint64_t capture_seed)
    : symbol_rate_hz_(config.symbol_rate_hz),
      extractor_(config.extractor),
      camera_(config.profile,
              channel::OpticalChannel(
                  config.channel,
                  runtime::derive_stream_seed(capture_seed, kOpticalSeedStream)),
              capture_seed),
      stages_(config.channel,
              runtime::derive_stream_seed(capture_seed, kFrameStageSeedStream)),
      renderer_(camera_, trace, config.source.start_offset_s),
      source_(renderer_, pool_, config.source) {}

bool CameraFrontend::next_block(std::vector<rx::SlotObservation>& out) {
  out.clear();
  // Pull until a frame survives the stage chain — a dropped frame never
  // reaches the reduction.
  while (camera::Frame* frame = source_.next()) {
    if (!pipeline::apply_stages(stages_.stages(), *frame)) {
      ++frames_dropped_;
      continue;
    }
    ++frames_delivered_;
    out = rx::extract_slots(*frame, symbol_rate_hz_, 0, frame->columns, arena_,
                            extractor_);
    return true;
  }
  return false;
}

void run_frontend(SlotObservationSource& source, rx::StreamingReceiver& receiver) {
  std::vector<rx::SlotObservation> block;
  while (source.next_block(block)) receiver.push_observations(block);
}

rx::SlotTimeline collect_timeline(SlotObservationSource& source) {
  std::vector<rx::SlotObservation> all;
  std::vector<rx::SlotObservation> block;
  while (source.next_block(block)) {
    all.insert(all.end(), block.begin(), block.end());
  }
  return rx::assemble_timeline(all);
}

}  // namespace colorbars::frontend

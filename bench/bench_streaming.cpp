// Demonstrates that the incremental StreamingReceiver has O(1) amortized
// per-poll() cost and window-bounded memory over a long live capture.
//
// A 60 s transmission of back-to-back data packets (plus the periodic
// calibration packets) is captured frame by frame; every frame is pushed
// and polled immediately, timing each poll. With the sliding-window
// parser the mean poll cost of the last second matches the first second
// (the acceptance bound is 2x) and the peak retained window is a few
// frame periods, independent of capture length. The pre-rework receiver
// re-parsed the full history on every poll: cost grew linearly per poll
// (quadratic overall) and retained observations grew without bound.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <numeric>

#include "bench_util.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/rx/streaming.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"

using namespace colorbars;

namespace {

double mean_us(const std::vector<double>& seconds) {
  if (seconds.empty()) return 0.0;
  return 1e6 * std::accumulate(seconds.begin(), seconds.end(), 0.0) /
         static_cast<double>(seconds.size());
}

}  // namespace

int main(int argc, char** argv) {
  const double duration_s = argc > 1 ? std::atof(argv[1]) : 60.0;
  bench::print_header("Streaming receiver: per-poll cost over a long capture");

  core::LinkConfig link;
  link.order = csk::CskOrder::kCsk8;
  link.symbol_rate_hz = 2000.0;
  link.profile = camera::ideal_profile();
  // Narrow sensor: the close-range LED lights every column identically,
  // so fewer simulated columns only speeds up the camera model.
  link.profile.columns = 8;

  // Payload sized to fill the duration with back-to-back packets.
  const tx::TransmitterConfig tx_config = link.transmitter_config();
  const tx::Transmitter transmitter(tx_config);
  const protocol::Packetizer& packetizer = transmitter.packetizer();
  const int packet_slots = packetizer.data_packet_slots(tx_config.rs_n);
  const auto packet_count = static_cast<std::size_t>(
      duration_s * link.symbol_rate_hz / packet_slots);
  util::Xoshiro256 rng(0xbe7c);
  std::vector<std::uint8_t> payload(packet_count *
                                    static_cast<std::size_t>(tx_config.rs_k));
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
  const tx::Transmission transmission = transmitter.transmit(payload);
  std::printf("capture: %.0f s, %zu packets, %.0f Hz, %.0f fps\n", duration_s,
              packet_count, link.symbol_rate_hz, link.profile.fps);

  // Capture through the streaming frame pipeline: a FrameSource renders
  // the capture plan a bounded lookahead at a time into pooled buffers,
  // so a minute of video never has to be held in memory.
  camera::RollingShutterCamera camera(
      link.profile, channel::OpticalChannel(link.channel), 0x5eed);
  rx::StreamingReceiver streaming(link.receiver_config());
  const double period = link.profile.frame_period_s();
  pipeline::BufferPool pool;
  pipeline::FrameSource source(camera, transmission.trace, pool, {});

  // Interleaved calibration packets stretch the transmission slightly
  // past duration_s, so the per-second buckets grow on demand.
  std::vector<std::vector<double>> poll_s_by_second;
  std::size_t packets_reported = 0;
  while (const camera::Frame* frame = source.next()) {
    const double nominal = (source.frames_emitted() - 1) * period;
    streaming.push_frame(*frame);
    const auto started = std::chrono::steady_clock::now();
    packets_reported += streaming.poll().size();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
    const auto second = static_cast<std::size_t>(nominal);
    if (second >= poll_s_by_second.size()) poll_s_by_second.resize(second + 1);
    poll_s_by_second[second].push_back(elapsed);
  }
  packets_reported += streaming.finish().size();

  const rx::StreamingStats& stats = streaming.stats();
  const pipeline::BufferPoolStats pool_stats = pool.stats();
  const double first_us = mean_us(poll_s_by_second.front());
  double last_us = 0.0;
  for (auto it = poll_s_by_second.rbegin(); it != poll_s_by_second.rend(); ++it) {
    if (!it->empty()) {
      last_us = mean_us(*it);
      break;
    }
  }

  std::printf("\nframes ingested      %d\n", streaming.frames_ingested());
  std::printf("packets reported     %zu\n", packets_reported);
  std::printf("payload bytes        %zu / %zu sent\n", streaming.payload().size(),
              payload.size());
  std::printf("slots ingested       %lld\n", stats.slots_ingested);
  std::printf("slots scanned        %lld (%.2fx ingested)\n", stats.slots_scanned,
              static_cast<double>(stats.slots_scanned) /
                  static_cast<double>(stats.slots_ingested));
  std::printf("slots evicted        %lld\n", stats.slots_evicted);
  std::printf("peak window          %lld slots (holdback %lld + tail %lld)\n",
              stats.peak_window_slots, streaming.holdback_slots(),
              streaming.tail_keep_slots());
  std::printf("total parse time     %.1f ms\n", 1e3 * stats.parse_time_s);
  std::printf("pipeline refills     %lld (lookahead %d)\n", source.refills(),
              pipeline::SourceConfig{}.lookahead);
  std::printf("pool frame reuse     %lld hits / %lld misses\n", pool_stats.frame_hits,
              pool_stats.frame_misses);
  std::printf("peak resident frames %lld\n", pool_stats.peak_outstanding_frames);
  std::printf("mean poll, first 1 s %8.2f us\n", first_us);
  std::printf("mean poll, last 1 s  %8.2f us\n", last_us);
  const double ratio = first_us > 0.0 ? last_us / first_us : 0.0;
  std::printf("last/first ratio     %8.2f  (flat <= 2.0 => O(1) amortized)\n", ratio);

  const bool flat = ratio <= 2.0;
  const bool bounded =
      stats.peak_window_slots <
      3 * (streaming.holdback_slots() + streaming.tail_keep_slots());
  // The pool never allocates more frames than one lookahead batch, no
  // matter how long the capture runs.
  const bool pooled =
      pool_stats.peak_outstanding_frames <= pipeline::SourceConfig{}.lookahead;
  std::printf("\n%s: per-poll cost %s, window %s, frames %s\n",
              flat && bounded && pooled ? "PASS" : "FAIL", flat ? "flat" : "GREW",
              bounded ? "bounded" : "UNBOUNDED", pooled ? "pooled" : "UNPOOLED");
  return flat && bounded && pooled ? 0 : 1;
}

// Workload runner of the repository benchmark. run.py builds this
// binary, runs one workload per invocation and turns the report it
// writes into metrics; README.md in this directory describes the
// workloads and metrics.
//
//   cb_perfbench --workload grid_svc|rx_replay --seed N
//                --seconds S --threads T --out REPORT.json
//                [--trace --spans SPANS.tsv] [--setup-only]
//                [--socket PATH]
//
// T is the pool size, and on grid_svc also the worker count. Every
// input derives from --seed, and the amount of work from --seconds
// alone, never from elapsed time: every run of a seed times the same
// inputs, however fast the program is. Runs time the public entry
// points (svc::run_sweep, StreamingReceiver::push_frame + poll). Traced
// runs also compose the same public calls the way LinkSimulator and
// CameraFrontend do, with spans around each call into a layer, and must
// reproduce the untraced results byte for byte.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "colorbars/channel/stages.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/frontend/frontend.hpp"
#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/protocol/packetizer.hpp"
#include "colorbars/runtime/seed.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/rx/streaming.hpp"
#include "colorbars/simd/simd.hpp"
#include "colorbars/svc/json.hpp"
#include "colorbars/svc/service.hpp"
#include "colorbars/svc/sweep.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"
#include "trace.hpp"

using namespace colorbars;
using perfbench::Span;
using svc::Json;

namespace {

// Grid slice of Figs. 9 and 11: {Nexus 5, iPhone 5S} x {CSK8, CSK16,
// CSK32} x {2, 4 kHz}, one SER point and one goodput point per cell,
// two trials per point as the figure benches run them. Trials are
// shorter than the benches' so a run holds several passes.
constexpr int kTrialsPerPoint = 2;
constexpr double kSerDataSeconds = 0.25;
constexpr double kGoodputSeconds = 0.5;
constexpr double kWarmupSeconds = 0.1;
// A grid round is kSummaryPasses passes, each with its own point seeds;
// the run's SER, goodput and fingerprint cover one round. A run makes
// one round per kGridRoundSeconds of --seconds (at least one), and
// pass p reuses the seeds of pass p % kSummaryPasses, so every round
// times the same inputs and must reproduce the first round's results.
// One round through the service takes 12-26 s with four workers on a
// 4-vCPU Xeon host, depending on its neighbours.
constexpr int kSummaryPasses = 6;
constexpr double kGridRoundSeconds = 15.0;

// rx_replay: a Nexus 5 CSK16 @ 4 kHz capture (the paper's peak-goodput
// point), long enough that the frames do not fit in the last-level
// cache, decoded in one pass per kReplayPassSeconds of --seconds, and
// in at least enough passes to time kMinTimedFrames frames — one p99
// window of run.py's, ten frames beyond its p99. A pass takes
// 0.5-0.75 s on the same host.
constexpr double kReplaySeconds = 8.0;
constexpr double kReplayPassSeconds = 0.75;
constexpr int kMinTimedFrames = 1000;

// Seed streams the workload inputs derive from.
constexpr std::uint64_t kReplayStream = 0x7e91a7;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 1;
  bool trace = false;
  bool setup_only = false;
  std::string out;
  std::string spans;
  std::string socket;
};

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double rusage_cpu_s(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// CPU seconds of this process plus every reaped child (svc workers).
double cpu_s() { return rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN); }

/// Largest resident set of this process or any reaped child, MB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// FNV-1a 64 of an exact-token serialization, as 16 hex digits.
std::string hash_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

std::string token(double value) { return Json::number(value).dump(); }
// ---------------------------------------------------------------------
// Per-layer counters of traced runs (summed over trials or passes).

struct Counters {
  long long trials = 0;
  long long frames = 0;
  long long refills = 0;
  long long pool_misses = 0;
  long long peak_resident_frames = 0;
  long long slots_scanned = 0;
  long long slots_ingested = 0;
  long long peak_window_slots = 0;
  long long decisions = 0;
  long long fallback_decisions = 0;
  double margin_sum = 0.0;
  long long margin_count = 0;
  long long packets_ok = 0;
  long long header_lost = 0;
  long long rs_failed = 0;
  long long truncated = 0;
  long long not_calibrated = 0;
  long long calibration_packets = 0;
  long long rs_errors = 0;
  long long rs_erasures = 0;

  void add(const Counters& o) {
    trials += o.trials;
    frames += o.frames;
    refills += o.refills;
    pool_misses += o.pool_misses;
    peak_resident_frames = std::max(peak_resident_frames, o.peak_resident_frames);
    slots_scanned += o.slots_scanned;
    slots_ingested += o.slots_ingested;
    peak_window_slots = std::max(peak_window_slots, o.peak_window_slots);
    decisions += o.decisions;
    fallback_decisions += o.fallback_decisions;
    margin_sum += o.margin_sum;
    margin_count += o.margin_count;
    packets_ok += o.packets_ok;
    header_lost += o.header_lost;
    rs_failed += o.rs_failed;
    truncated += o.truncated;
    not_calibrated += o.not_calibrated;
    calibration_packets += o.calibration_packets;
    rs_errors += o.rs_errors;
    rs_erasures += o.rs_erasures;
  }

  void add_source(const pipeline::FrameSource& source) {
    frames += source.frames_emitted();
    refills += source.refills();
    const pipeline::BufferPoolStats pool = source.pool().stats();
    pool_misses += pool.frame_misses;
    peak_resident_frames = std::max(peak_resident_frames, pool.peak_outstanding_frames);
  }

  void add_stream(const rx::StreamingReceiver& receiver) {
    const rx::StreamingStats& stats = receiver.stats();
    slots_scanned += stats.slots_scanned;
    slots_ingested += stats.slots_ingested;
    peak_window_slots = std::max(peak_window_slots, stats.peak_window_slots);
    decisions += stats.engine_decisions;
    fallback_decisions += stats.engine_fallback_decisions;
    margin_sum += stats.engine_margin_sum;
    margin_count += stats.engine_margin_count;
    const rx::ReceiverReport& report = receiver.report();
    calibration_packets += report.calibration_packets;
    for (const rx::PacketRecord& record : report.packets) {
      if (record.kind != protocol::PacketKind::kData) continue;
      switch (record.failure) {
        case rx::PacketFailure::kNone:
          if (record.ok) {
            ++packets_ok;
            rs_errors += record.corrected_errors;
            rs_erasures += record.corrected_erasures;
          }
          break;
        case rx::PacketFailure::kHeaderLost: ++header_lost; break;
        case rx::PacketFailure::kRsFailure: ++rs_failed; break;
        case rx::PacketFailure::kTruncated: ++truncated; break;
        case rx::PacketFailure::kNotCalibrated: ++not_calibrated; break;
      }
    }
  }

  [[nodiscard]] Json to_json() const {
    Json json = Json::object();
    json.set("trials", Json::integer(trials));
    json.set("frames", Json::integer(frames));
    json.set("refills", Json::integer(refills));
    json.set("pool_misses", Json::integer(pool_misses));
    json.set("peak_resident_frames", Json::integer(peak_resident_frames));
    json.set("slots_scanned", Json::integer(slots_scanned));
    json.set("slots_ingested", Json::integer(slots_ingested));
    json.set("peak_window_slots", Json::integer(peak_window_slots));
    json.set("decisions", Json::integer(decisions));
    json.set("fallback_decisions", Json::integer(fallback_decisions));
    json.set("margin_sum", Json::number(margin_sum));
    json.set("margin_count", Json::integer(margin_count));
    json.set("packets_ok", Json::integer(packets_ok));
    json.set("header_lost", Json::integer(header_lost));
    json.set("rs_failed", Json::integer(rs_failed));
    json.set("truncated", Json::integer(truncated));
    json.set("not_calibrated", Json::integer(not_calibrated));
    json.set("calibration_packets", Json::integer(calibration_packets));
    json.set("rs_errors", Json::integer(rs_errors));
    json.set("rs_erasures", Json::integer(rs_erasures));
    return json;
  }
};

// ---------------------------------------------------------------------
// Traced composition of the camera frontend (CameraFrontend's members
// and construction order), with the renderer wrapped for timing.

/// Times every FrameRenderer::render a FrameSource refill issues. The
/// refill may run on pool threads, so the parent span and trial id are
/// handed over explicitly before each FrameSource::next.
class TimedRenderer final : public pipeline::FrameRenderer {
 public:
  TimedRenderer(camera::RollingShutterCamera& camera, const led::EmissionTrace& trace,
                double start_offset_s)
      : inner_(camera, trace, start_offset_s) {}

  [[nodiscard]] const camera::CapturePlan& plan() const noexcept override {
    return inner_.plan();
  }
  void render(int frame_index, camera::Frame& out,
              camera::RenderScratch& scratch) const override {
    const Span span("camera.render", parent_.load(std::memory_order_relaxed),
                    trial_.load(std::memory_order_relaxed));
    inner_.render(frame_index, out, scratch);
  }
  void attach(std::uint32_t parent, std::int64_t trial) noexcept {
    parent_.store(parent, std::memory_order_relaxed);
    trial_.store(trial, std::memory_order_relaxed);
  }

 private:
  pipeline::CameraTraceRenderer inner_;
  std::atomic<std::uint32_t> parent_{0};
  std::atomic<std::int64_t> trial_{-1};
};

class TracedFrontend {
 public:
  TracedFrontend(const core::LinkConfig& config, const led::EmissionTrace& trace,
                 double start_offset_s, std::uint64_t capture_seed)
      : symbol_rate_hz_(config.symbol_rate_hz),
        extractor_(config.receiver_config().extractor),
        camera_(config.profile,
                channel::OpticalChannel(config.channel,
                                        runtime::derive_stream_seed(
                                            capture_seed, frontend::kOpticalSeedStream)),
                capture_seed),
        stages_(config.channel,
                runtime::derive_stream_seed(capture_seed, frontend::kFrameStageSeedStream)),
        renderer_(camera_, trace, start_offset_s),
        source_(renderer_, pool_, source_config(config.pipeline_lookahead)) {}

  /// CameraFrontend::next_block with the frame pull and the three
  /// reduction steps of rx::extract_slots timed separately.
  bool next_block(std::vector<rx::SlotObservation>& out) {
    out.clear();
    for (;;) {
      camera::Frame* frame = nullptr;
      {
        Span span("pipeline.next");
        renderer_.attach(span.id(), perfbench::thread_trial());
        frame = source_.next();
        span.set_count(frame != nullptr ? 1 : 0);
      }
      if (frame == nullptr) return false;
      bool keep = true;
      for (pipeline::FrameStage* stage : stages_.stages()) {
        if (!stage->process(*frame)) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      out = extract(*frame, symbol_rate_hz_, extractor_, arena_);
      return true;
    }
  }

  [[nodiscard]] const pipeline::FrameSource& source() const noexcept { return source_; }

  /// rx::extract_slots (arena variant), one span per step.
  static std::vector<rx::SlotObservation> extract(const camera::Frame& frame,
                                                  double symbol_rate_hz,
                                                  const rx::ExtractorConfig& extractor,
                                                  util::CaptureArena& arena) {
    std::span<const rx::ScanlineColor> scanlines;
    {
      const Span span("rx.reduce");
      scanlines = rx::reduce_to_scanlines(frame, 0, frame.columns, arena);
    }
    std::vector<rx::Band> bands;
    {
      const Span span("rx.segment");
      bands = rx::segment_bands(frame, scanlines, extractor);
    }
    const Span span("rx.slotmap");
    return rx::bands_to_slots(bands, symbol_rate_hz);
  }

 private:
  static pipeline::SourceConfig source_config(int lookahead) {
    pipeline::SourceConfig source;
    source.lookahead = lookahead;
    return source;
  }

  double symbol_rate_hz_;
  rx::ExtractorConfig extractor_;
  camera::RollingShutterCamera camera_;
  channel::StageChain stages_;
  pipeline::BufferPool pool_;
  TimedRenderer renderer_;
  pipeline::FrameSource source_;
  util::CaptureArena arena_;
};

// ---------------------------------------------------------------------
// Grid workloads.

/// The grid of pass `pass`: the passes of a round draw their own point
/// seeds, so a round averages kTrialsPerPoint * kSummaryPasses trials
/// per point into the run's SER and goodput.
svc::SweepSpec grid_spec(std::uint64_t seed, int pass) {
  const std::uint64_t pass_seed =
      runtime::derive_stream_seed(seed, static_cast<std::uint64_t>(pass % kSummaryPasses));
  svc::SweepSpec spec;
  spec.trials_per_job = 1;
  std::uint64_t index = 0;
  for (const camera::SensorProfile& profile :
       {camera::nexus5_profile(), camera::iphone5s_profile()}) {
    for (const csk::CskOrder order :
         {csk::CskOrder::kCsk8, csk::CskOrder::kCsk16, csk::CskOrder::kCsk32}) {
      for (const double rate : {2000.0, 4000.0}) {
        for (const svc::TrialKind kind : {svc::TrialKind::kSer, svc::TrialKind::kGoodput}) {
          svc::SweepPoint point;
          point.config.order = order;
          point.config.symbol_rate_hz = rate;
          point.config.profile = profile;
          point.config.seed = runtime::derive_stream_seed(pass_seed, index++);
          point.kind = kind;
          point.trials = kTrialsPerPoint;
          if (kind == svc::TrialKind::kSer) {
            point.symbols_per_trial = static_cast<int>(rate * kSerDataSeconds);
          } else {
            point.duration_s = kGoodputSeconds;
          }
          spec.points.push_back(std::move(point));
        }
      }
    }
  }
  return spec;
}

/// The svc wire projection of one goodput trial (svc::run_job_trials).
svc::TrialResult goodput_row(const core::LinkRunResult& run) {
  svc::TrialResult row;
  row.goodput.payload_bytes = static_cast<long long>(run.payload_bytes);
  row.goodput.recovered_bytes = static_cast<long long>(run.recovered_bytes);
  row.goodput.air_time_s = run.air_time_s;
  row.goodput.packets_ok = run.report.data_packets_ok;
  row.goodput.packets_failed = run.report.data_packets_failed;
  return row;
}

/// One pass of the grid through the batch trial APIs, as the figure
/// benches call them: one point at a time, its trials on the pool.
std::vector<svc::PointResult> inproc_pass(const svc::SweepSpec& spec) {
  std::vector<svc::PointResult> results;
  results.reserve(spec.points.size());
  for (const svc::SweepPoint& point : spec.points) {
    const core::LinkSimulator simulator(point.config);
    svc::PointResult result;
    if (point.kind == svc::TrialKind::kSer) {
      const core::SerBatchResult batch =
          simulator.run_ser_trials(point.trials, point.symbols_per_trial);
      for (const core::SerResult& trial : batch.trials) {
        svc::TrialResult row;
        row.ser = trial;
        result.trials.push_back(row);
      }
      result.primary = batch.ser;
      result.loss_ratio = batch.inter_frame_loss_ratio;
    } else {
      const core::GoodputBatchResult batch =
          simulator.run_goodput_trials(point.trials, point.duration_s);
      for (const core::LinkRunResult& trial : batch.trials) {
        result.trials.push_back(goodput_row(trial));
      }
      result.primary = batch.goodput_bps;
    }
    results.push_back(std::move(result));
  }
  return results;
}

/// LinkSimulator::run_ser composed from public calls, with spans.
svc::TrialResult traced_ser_trial(const core::LinkConfig& point_config, int trial,
                                  int symbol_count, Counters& counters) {
  core::LinkConfig config = point_config;
  config.seed = runtime::derive_stream_seed(point_config.seed, static_cast<std::uint64_t>(trial));
  util::Xoshiro256 rng(config.seed);
  const Span trial_span("trial");

  std::vector<int> symbols(static_cast<std::size_t>(symbol_count));
  std::optional<led::EmissionTrace> trace;
  long long data_start = 0;
  std::uint64_t capture_seed = 0;
  {
    const Span span("tx.transmit");
    const tx::Transmitter transmitter(config.transmitter_config());
    const int order_size = csk::symbol_count(config.order);
    for (int& s : symbols) {
      s = static_cast<int>(rng.below(static_cast<std::uint64_t>(order_size)));
    }
    const tx::Transmission transmission = transmitter.transmit_raw_symbols(symbols);
    capture_seed = rng();
    std::vector<protocol::ChannelSymbol> slots;
    const std::vector<protocol::ChannelSymbol> packets[] = {
        transmitter.packetizer().build_calibration_packet(),
        transmitter.packetizer().build_reversed_calibration_packet(),
        transmitter.packetizer().build_rotated_calibration_packet(),
    };
    for (int repeat = 0; repeat < 24; ++repeat) {
      const auto& packet = packets[repeat % 3];
      slots.insert(slots.end(), packet.begin(), packet.end());
      std::uint64_t state = static_cast<std::uint64_t>(repeat) + 0xca1;
      const int pad = static_cast<int>(
          util::splitmix64_next(state) %
          (static_cast<std::uint64_t>(config.symbol_rate_hz / config.profile.fps / 2) + 1));
      slots.insert(slots.end(), static_cast<std::size_t>(pad),
                   protocol::ChannelSymbol::white());
    }
    data_start = static_cast<long long>(slots.size()) +
                 static_cast<long long>(transmission.slots.size() - symbols.size());
    slots.insert(slots.end(), transmission.slots.begin(), transmission.slots.end());
    trace = transmitter.led().emit(protocol::drives_of(slots, transmitter.constellation()),
                                   config.symbol_rate_hz);
  }

  std::optional<rx::Receiver> receiver;
  {
    const Span span("rx.setup");
    receiver.emplace(config.receiver_config());
  }
  rx::SlotTimeline timeline;
  {
    std::unique_ptr<TracedFrontend> source;
    {
      const Span span("camera.plan");
      source = std::make_unique<TracedFrontend>(config, *trace, 0.0, capture_seed);
    }
    std::vector<rx::SlotObservation> all;
    std::vector<rx::SlotObservation> block;
    while (source->next_block(block)) all.insert(all.end(), block.begin(), block.end());
    counters.add_source(source->source());
    const Span span("rx.assemble");
    timeline = rx::assemble_timeline(all);
  }
  {
    const Span span("rx.parse");
    (void)receiver->parse(timeline);
  }

  core::SerResult result;
  result.symbols_sent = static_cast<long long>(symbols.size());
  {
    Span span("eq.classify");
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      const long long offset = data_start + static_cast<long long>(i) - timeline.base_slot;
      if (offset < 0 || offset >= static_cast<long long>(timeline.slots.size())) continue;
      if (!timeline.slots[static_cast<std::size_t>(offset)].has_value()) continue;
      ++result.symbols_observed;
      if (receiver->classify_data(timeline, static_cast<std::size_t>(offset)) != symbols[i]) {
        ++result.symbol_errors;
      }
    }
    span.set_count(result.symbols_observed);
  }
  const eq::DecisionStats& decisions = receiver->engine().stats();
  const eq::EqualizerState& equalizer = receiver->store().equalizer();
  result.engine_decisions = decisions.decisions;
  result.engine_fallback_decisions = decisions.fallback_decisions;
  result.engine_retrains = equalizer.retrains;
  result.engine_train_fallbacks = equalizer.train_fallbacks;
  result.engine_tap_norm = equalizer.tap_norm();
  result.inter_frame_loss_ratio =
      result.symbols_sent > 0 ? 1.0 - static_cast<double>(result.symbols_observed) /
                                          static_cast<double>(result.symbols_sent)
                              : 0.0;
  counters.trials += 1;
  counters.decisions += decisions.decisions;
  counters.fallback_decisions += decisions.fallback_decisions;
  counters.margin_sum += decisions.margin_sum;
  counters.margin_count += decisions.margin_count;

  svc::TrialResult row;
  row.ser = result;
  return row;
}

/// LinkSimulator::run_goodput's payload: as many RS messages as fit in
/// `duration_s` of back-to-back data packets, bytes drawn from `rng`.
std::vector<std::uint8_t> goodput_payload(const core::LinkConfig& config, double duration_s,
                                          util::Xoshiro256& rng) {
  const tx::TransmitterConfig tx_config = config.transmitter_config();
  const protocol::Packetizer packetizer(tx_config.format, csk::Constellation(config.order));
  const auto total_slots = static_cast<long long>(std::ceil(duration_s * config.symbol_rate_hz));
  const long long packet_count =
      std::max<long long>(1, total_slots / packetizer.data_packet_slots(tx_config.rs_n));
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(packet_count) *
                                    static_cast<std::size_t>(tx_config.rs_k));
  for (std::uint8_t& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
  return payload;
}

/// LinkSimulator::run_goodput (and run_payload) composed from public
/// calls, with spans.
svc::TrialResult traced_goodput_trial(const core::LinkConfig& point_config, int trial,
                                      double duration_s, Counters& counters) {
  core::LinkConfig config = point_config;
  config.seed = runtime::derive_stream_seed(point_config.seed, static_cast<std::uint64_t>(trial));
  util::Xoshiro256 rng(config.seed);
  const Span trial_span("trial");

  std::optional<tx::Transmission> transmission;
  std::size_t payload_bytes = 0;
  std::uint64_t capture_seed = 0;
  double start_offset = 0.0;
  {
    const Span span("tx.transmit");
    const std::vector<std::uint8_t> payload = goodput_payload(config, duration_s, rng);
    payload_bytes = payload.size();
    const tx::Transmitter transmitter(config.transmitter_config());
    transmission.emplace(transmitter.transmit(payload));
    capture_seed = rng();
    start_offset = rng.uniform(0.0, config.profile.frame_period_s());
  }

  std::optional<rx::StreamingReceiver> receiver;
  {
    const Span span("rx.setup");
    receiver.emplace(config.receiver_config());
  }
  {
    std::unique_ptr<TracedFrontend> source;
    {
      const Span span("camera.plan");
      source = std::make_unique<TracedFrontend>(config, transmission->trace, start_offset,
                                                capture_seed);
    }
    std::vector<rx::SlotObservation> block;
    while (source->next_block(block)) {
      const Span span("rx.drain");
      receiver->push_observations(block);
    }
    counters.add_source(source->source());
  }
  {
    const Span span("rx.finish");
    receiver->on_stream_end();
  }

  const rx::ReceiverReport& report = receiver->report();
  std::size_t recovered = 0;
  std::size_t next_truth = 0;
  for (const rx::PacketRecord& record : report.packets) {
    if (record.kind != protocol::PacketKind::kData || !record.ok) continue;
    for (std::size_t truth = next_truth; truth < transmission->packet_messages.size();
         ++truth) {
      if (record.payload == transmission->packet_messages[truth]) {
        recovered += record.payload.size();
        next_truth = truth + 1;
        break;
      }
    }
  }
  counters.trials += 1;
  counters.add_stream(*receiver);

  svc::TrialResult row;
  row.goodput.payload_bytes = static_cast<long long>(payload_bytes);
  row.goodput.recovered_bytes = static_cast<long long>(recovered);
  row.goodput.air_time_s = transmission->duration_s();
  row.goodput.packets_ok = report.data_packets_ok;
  row.goodput.packets_failed = report.data_packets_failed;
  return row;
}

/// One traced pass: points in order, each point's trials on the pool
/// (LinkSimulator::run_trials' schedule), aggregated as svc does.
std::vector<svc::PointResult> traced_pass(const svc::SweepSpec& spec, int pass,
                                          Counters& counters) {
  std::vector<svc::PointResult> results;
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const svc::SweepPoint& point = spec.points[p];
    std::vector<svc::TrialResult> rows(static_cast<std::size_t>(point.trials));
    std::vector<Counters> trial_counters(rows.size());
    runtime::parallel_for(0, point.trials, 1, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t t = lo; t < hi; ++t) {
        const auto i = static_cast<std::size_t>(t);
        perfbench::set_thread_trial((static_cast<std::int64_t>(pass) * 1000 +
                                     static_cast<std::int64_t>(p)) * 100 + t);
        rows[i] = point.kind == svc::TrialKind::kSer
                      ? traced_ser_trial(point.config, static_cast<int>(t),
                                         point.symbols_per_trial, trial_counters[i])
                      : traced_goodput_trial(point.config, static_cast<int>(t),
                                             point.duration_s, trial_counters[i]);
        perfbench::set_thread_trial(-1);
      }
    });
    for (const Counters& c : trial_counters) counters.add(c);
    results.push_back(svc::aggregate_point(point, std::move(rows)));
  }
  return results;
}

/// Exact-token serialization of every trial row and point aggregate
/// (bench_extension_grid's fingerprint).
std::string grid_tokens(const svc::SweepSpec& spec, const std::vector<svc::PointResult>& results) {
  std::string out;
  for (std::size_t i = 0; i < results.size(); ++i) {
    svc::JobResultMessage message;
    message.trials_kind = spec.points[i].kind;
    message.trials = results[i].trials;
    out += svc::encode_job_result(message);
    out += token(results[i].primary.mean);
    out += token(results[i].primary.stddev);
    out += token(results[i].loss_ratio.mean);
    out += '\n';
  }
  return out;
}

/// Deterministic summary of grid passes: simulated air time (SER data
/// symbols; goodput transmissions) and the point means behind the
/// run's SER and goodput.
struct GridSummary {
  double air_s = 0.0;
  long long trials = 0;
  /// Goodput trials whose OK packets did not all match a transmitted
  /// message (recovered bytes short of packets_ok * k).
  long long mismatched = 0;
  double ser_sum = 0.0;
  int ser_points = 0;
  double goodput_sum = 0.0;
  int goodput_points = 0;

  void add(const svc::SweepSpec& spec, const std::vector<svc::PointResult>& results) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const svc::SweepPoint& point = spec.points[i];
      trials += static_cast<long long>(results[i].trials.size());
      if (point.kind == svc::TrialKind::kSer) {
        ser_sum += results[i].primary.mean;
        ++ser_points;
        for (const svc::TrialResult& row : results[i].trials) {
          air_s += static_cast<double>(row.ser.symbols_sent) / point.config.symbol_rate_hz;
        }
      } else {
        goodput_sum += results[i].primary.mean;
        ++goodput_points;
        const long long k = point.config.code().k;
        for (const svc::TrialResult& row : results[i].trials) {
          air_s += row.goodput.air_time_s;
          if (row.goodput.recovered_bytes !=
              static_cast<long long>(row.goodput.packets_ok) * k) {
            ++mismatched;
          }
        }
      }
    }
  }
  [[nodiscard]] double ser() const { return ser_points > 0 ? ser_sum / ser_points : 0.0; }
  [[nodiscard]] double goodput_bps() const {
    return goodput_points > 0 ? goodput_sum / goodput_points : 0.0;
  }
};

std::vector<svc::PointResult> svc_pass(const svc::SweepSpec& spec, const Options& options,
                                       svc::SvcStats* stats,
                                       svc::ServiceConfig service = {}) {
  service.workers = options.threads;
  service.socket_path = options.socket;
  return svc::run_sweep(spec, service, stats);
}

/// Fills static tables, constellation packings, pool threads and their
/// scratch: tiny goodput trials of every (profile, order) on all pool
/// threads.
void warm_up_inproc(const Options& options) {
  for (const camera::SensorProfile& profile :
       {camera::nexus5_profile(), camera::iphone5s_profile()}) {
    for (const csk::CskOrder order :
         {csk::CskOrder::kCsk8, csk::CskOrder::kCsk16, csk::CskOrder::kCsk32}) {
      core::LinkConfig config;
      config.order = order;
      config.symbol_rate_hz = 4000.0;
      config.profile = profile;
      config.seed = runtime::derive_stream_seed(options.seed, 0x3a3a);
      (void)core::LinkSimulator(config).run_goodput_trials(options.threads, kWarmupSeconds);
    }
  }
}

/// Spawns the workers once and completes one tiny job on each. A worker
/// exits only after its heartbeat thread wakes, so a sweep's teardown
/// waits up to one heartbeat interval; with the default 0.25 s that
/// wait flips between ~0 and ~0.25 s with the job's phase. Set-up is
/// spawn, hello and a first job, so its sweep heartbeats every 10 ms;
/// the timed sweeps keep the default and pay the wait as users do.
void warm_up_svc(const Options& options) {
  svc::ServiceConfig service;
  service.heartbeat_interval_s = 0.01;
  svc::SweepSpec spec;
  spec.trials_per_job = 1;
  svc::SweepPoint point;
  point.config.order = csk::CskOrder::kCsk16;
  point.config.symbol_rate_hz = 4000.0;
  point.config.seed = runtime::derive_stream_seed(options.seed, 0x3a3b);
  point.kind = svc::TrialKind::kGoodput;
  point.trials = options.threads;
  point.duration_s = kWarmupSeconds;
  spec.points.push_back(point);
  (void)svc_pass(spec, options, nullptr, service);
}

/// Per-job cost of the svc wire layer on the workload's own jobs:
/// encode_job + encode_frame, parse_message of a job, and
/// encode_job_result + parse_message of its one-trial result.
Json time_wire(const svc::SweepSpec& spec, const std::vector<svc::PointResult>& results) {
  constexpr int kRounds = 20;
  const std::vector<svc::JobRequest> jobs = svc::make_jobs(spec);
  std::vector<std::string> payloads;
  std::vector<svc::JobResultMessage> replies;
  for (const svc::JobRequest& job : jobs) {
    payloads.push_back(svc::encode_job(job));
    svc::JobResultMessage reply;
    reply.id = job.id;
    reply.worker = 0;
    reply.trials_kind = job.kind;
    const auto& trials = results[static_cast<std::size_t>(job.point)].trials;
    reply.trials.assign(trials.begin() + job.trial_begin, trials.begin() + job.trial_end);
    replies.push_back(std::move(reply));
  }
  const double per_job = 1e6 / static_cast<double>(kRounds * jobs.size());
  std::size_t sink = 0;

  double start = now_s();
  for (int round = 0; round < kRounds; ++round) {
    for (const svc::JobRequest& job : jobs) sink += svc::encode_frame(svc::encode_job(job)).size();
  }
  const double encode_us = (now_s() - start) * per_job;

  bool parsed_all = true;
  start = now_s();
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& payload : payloads) {
      const std::optional<svc::Message> message = svc::parse_message(payload);
      parsed_all = parsed_all && message.has_value() && message->type == "job";
    }
  }
  const double parse_us = (now_s() - start) * per_job;

  start = now_s();
  for (int round = 0; round < kRounds; ++round) {
    for (const svc::JobResultMessage& reply : replies) {
      const std::optional<svc::Message> message =
          svc::parse_message(svc::encode_job_result(reply));
      parsed_all = parsed_all && message.has_value() && message->type == "result";
    }
  }
  const double result_us = (now_s() - start) * per_job;

  Json json = Json::object();
  json.set("jobs", Json::integer(static_cast<std::int64_t>(jobs.size())));
  json.set("encode_us_per_job", Json::number(encode_us));
  json.set("parse_us_per_job", Json::number(parse_us));
  json.set("result_us_per_job", Json::number(result_us));
  json.set("wire_ok", Json::boolean(parsed_all && sink > 0));
  return json;
}

Json svc_stats_json(const svc::SvcStats& stats) {
  double busy_s = 0.0;
  for (const svc::WorkerStats& worker : stats.per_worker) busy_s += worker.busy_s;
  Json json = Json::object();
  json.set("jobs", Json::integer(stats.jobs_total));
  json.set("bytes", Json::integer(stats.bytes_sent + stats.bytes_received));
  json.set("busy_s", Json::number(busy_s));
  json.set("wall_s", Json::number(stats.wall_time_s));
  json.set("max_queue_depth", Json::integer(stats.max_queue_depth));
  json.set("retries", Json::integer(stats.retries));
  json.set("respawns", Json::integer(stats.respawns));
  return json;
}

Json string_array(const std::vector<std::string>& items) {
  Json json = Json::array();
  for (const std::string& item : items) json.push_back(Json::string(item));
  return json;
}

Json number_array(const std::vector<double>& values) {
  Json json = Json::array();
  for (const double value : values) json.push_back(Json::number(value));
  return json;
}

/// Units of work in `seconds`: one per `unit_seconds`, at least
/// `min_units`.
int units_in(double seconds, double unit_seconds, int min_units) {
  return std::max(min_units, static_cast<int>(std::lround(seconds / unit_seconds)));
}

/// The per-layer part of a traced grid run. Trials inside svc workers
/// are out of the spans' reach, so the first round runs again in this
/// process: once untraced through LinkSimulator::run_*_trials (pass 0,
/// also the input of the wire timing), then composed from public calls
/// with spans (traced_pass). Both must reproduce the service's results.
void trace_grid_round(const Options& options, const std::vector<std::string>& round_tokens,
                      Counters& counters, Json& report, std::vector<std::string>& errors) {
  const svc::SweepSpec first = grid_spec(options.seed, 0);
  const std::vector<svc::PointResult> untraced = inproc_pass(first);
  if (grid_tokens(first, untraced) != round_tokens.front()) {
    errors.push_back("LinkSimulator's pass 0 differs from the service's");
  }
  report.set("wire", time_wire(first, untraced));
  perfbench::set_tracing(true);
  for (std::size_t pass = 0; pass < round_tokens.size(); ++pass) {
    const svc::SweepSpec spec = grid_spec(options.seed, static_cast<int>(pass));
    if (grid_tokens(spec, traced_pass(spec, static_cast<int>(pass), counters)) !=
        round_tokens[pass]) {
      errors.push_back("traced pass " + std::to_string(pass) + " differs from the service's");
    }
  }
  perfbench::set_tracing(false);
}

void run_grid(const Options& options, double process_start_s, Json& report) {
  // Workers inherit the environment; the server's own pool is already
  // pinned to --threads.
  ::setenv("COLORBARS_THREADS", "1", 1);

  if (options.trace) warm_up_inproc(options);
  warm_up_svc(options);
  report.set("setup_s", Json::number(now_s() - process_start_s));
  if (options.setup_only) return;

  std::vector<std::string> errors;
  GridSummary summary;
  std::vector<std::string> round_tokens;
  Json svc_passes = Json::array();
  std::vector<double> pass_wall_s;
  std::vector<double> pass_cpu_s;
  std::vector<double> pass_air_s;
  long long attempted = 0;
  long long failed = 0;
  const int passes = kSummaryPasses * units_in(options.seconds, kGridRoundSeconds, 1);
  for (int pass = 0; pass < passes; ++pass) {
    const svc::SweepSpec spec = grid_spec(options.seed, pass);
    std::vector<svc::PointResult> results;
    const double cpu_before = cpu_s();
    const double wall_before = now_s();
    try {
      svc::SvcStats stats;
      results = svc_pass(spec, options, &stats);
      failed += stats.retries + stats.respawns;
      svc_passes.push_back(svc_stats_json(stats));
    } catch (const std::exception& error) {
      errors.push_back(std::string("pass threw: ") + error.what());
      const auto trials = static_cast<long long>(spec.points.size()) * kTrialsPerPoint;
      attempted += trials;
      failed += trials;
      break;
    }
    pass_wall_s.push_back(now_s() - wall_before);
    pass_cpu_s.push_back(cpu_s() - cpu_before);

    GridSummary pass_summary;
    pass_summary.add(spec, results);
    pass_air_s.push_back(pass_summary.air_s);
    attempted += pass_summary.trials;
    failed += pass_summary.mismatched;
    const std::string tokens = grid_tokens(spec, results);
    if (pass < kSummaryPasses) {
      summary.add(spec, results);
      round_tokens.push_back(tokens);
    } else if (tokens != round_tokens[static_cast<std::size_t>(pass % kSummaryPasses)]) {
      errors.push_back("pass " + std::to_string(pass) + " differs from pass " +
                       std::to_string(pass % kSummaryPasses) + ", which ran the same inputs");
    }
  }
  if (options.trace && errors.empty()) {
    Counters counters;
    trace_grid_round(options, round_tokens, counters, report, errors);
    report.set("counters", counters.to_json());
  }

  std::string summary_tokens;
  for (const std::string& tokens : round_tokens) summary_tokens += tokens;
  report.set("fingerprint", Json::string(hash_hex(summary_tokens)));
  report.set("passes", Json::integer(static_cast<std::int64_t>(pass_wall_s.size())));
  report.set("pass_wall_s", number_array(pass_wall_s));
  report.set("pass_cpu_s", number_array(pass_cpu_s));
  report.set("pass_air_s", number_array(pass_air_s));
  report.set("frame_rate_hz", Json::number(camera::nexus5_profile().fps));
  report.set("attempted", Json::integer(attempted));
  report.set("failed", Json::integer(failed));
  report.set("ser", Json::number(summary.ser()));
  report.set("goodput_bps", Json::number(summary.goodput_bps()));
  report.set("svc_passes", svc_passes);
  report.set("errors", string_array(errors));
}

// ---------------------------------------------------------------------
// rx_replay.

struct Capture {
  core::LinkConfig config;
  std::vector<std::vector<std::uint8_t>> messages;  // ground truth, in order
  std::set<std::vector<std::uint8_t>> message_set;  // the same, for lookup
  double air_s = 0.0;                               // transmission duration
  double captured_s = 0.0;                          // frames x frame period
  std::vector<camera::Frame> frames;
};

/// Renders the replay capture (the camera path LinkSimulator::run_goodput
/// takes, on the pool) and keeps every frame in memory.
Capture render_capture(std::uint64_t seed) {
  Capture capture;
  core::LinkConfig& config = capture.config;
  config.order = csk::CskOrder::kCsk16;
  config.symbol_rate_hz = 4000.0;
  config.profile = camera::nexus5_profile();
  config.seed = runtime::derive_stream_seed(seed, kReplayStream);
  util::Xoshiro256 rng(config.seed);

  const tx::Transmitter transmitter(config.transmitter_config());
  const tx::Transmission transmission =
      transmitter.transmit(goodput_payload(config, kReplaySeconds, rng));
  capture.messages = transmission.packet_messages;
  capture.message_set.insert(capture.messages.begin(), capture.messages.end());
  capture.air_s = transmission.duration_s();

  const std::uint64_t capture_seed = rng();
  pipeline::SourceConfig source_config;
  source_config.lookahead = config.pipeline_lookahead;
  source_config.start_offset_s = rng.uniform(0.0, config.profile.frame_period_s());
  camera::RollingShutterCamera camera(
      config.profile,
      channel::OpticalChannel(config.channel, runtime::derive_stream_seed(
                                                  capture_seed, frontend::kOpticalSeedStream)),
      capture_seed);
  pipeline::BufferPool pool;
  pipeline::FrameSource source(camera, transmission.trace, pool, source_config);
  capture.frames.reserve(static_cast<std::size_t>(source.total_frames()));
  while (const camera::Frame* frame = source.next()) capture.frames.push_back(*frame);
  capture.captured_s =
      static_cast<double>(capture.frames.size()) * config.profile.frame_period_s();
  return capture;
}

/// Exact tokens of every packet record, the decoded payload and the
/// report counters.
std::string packet_tokens(const rx::ReceiverReport& report) {
  std::string out;
  auto bytes = [&out](const std::vector<std::uint8_t>& data) {
    for (const std::uint8_t byte : data) out += std::to_string(byte) + ' ';
    out += '\n';
  };
  for (const rx::PacketRecord& r : report.packets) {
    for (const long long field :
         {static_cast<long long>(r.kind), static_cast<long long>(r.ok),
          static_cast<long long>(r.failure), r.start_slot, static_cast<long long>(r.epoch),
          static_cast<long long>(r.corrected_errors),
          static_cast<long long>(r.corrected_erasures),
          static_cast<long long>(r.erased_slots)}) {
      out += std::to_string(field) + ',';
    }
    bytes(r.payload);
  }
  bytes(report.payload);
  for (const long long field :
       {report.slots_observed, report.slot_span, static_cast<long long>(report.calibration_packets),
        static_cast<long long>(report.data_packets_ok),
        static_cast<long long>(report.data_packets_failed)}) {
    out += std::to_string(field) + ',';
  }
  return out;
}

/// True when an OK data packet among `records` matches no transmitted
/// message.
bool any_unmatched(const Capture& capture, const std::vector<rx::PacketRecord>& records) {
  return std::any_of(records.begin(), records.end(), [&](const rx::PacketRecord& record) {
    return record.kind == protocol::PacketKind::kData && record.ok &&
           capture.message_set.count(record.payload) == 0;
  });
}

struct ReplayPass {
  std::string tokens;
  long long failed_frames = 0;
  double decode_s = 0.0;
  double cpu_s = 0.0;
  Counters counters;
  long long recovered_bytes = 0;
  long long rs_symbols = 0;  // n per OK data packet
};

/// One decode pass with a fresh receiver. Untraced: push_frame + poll
/// per frame, each timed into `frame_ms`. Traced: the same decode
/// composed as the extract steps + push_observations + poll, with spans.
ReplayPass replay_pass(const Capture& capture, bool traced, std::vector<double>* frame_ms) {
  ReplayPass pass;
  const rx::ReceiverConfig rx_config = capture.config.receiver_config();
  const double cpu_start = cpu_s();
  const double start = now_s();
  std::optional<Span> pass_span;
  if (traced) pass_span.emplace("pass");
  std::optional<rx::StreamingReceiver> receiver;
  {
    const Span span("rx.setup");
    receiver.emplace(rx_config);
  }
  util::CaptureArena arena;
  for (const camera::Frame& frame : capture.frames) {
    std::vector<rx::PacketRecord> records;
    if (traced) {
      const std::vector<rx::SlotObservation> slots = TracedFrontend::extract(
          frame, rx_config.symbol_rate_hz, rx_config.extractor, arena);
      {
        const Span span("rx.drain");
        receiver->push_observations(slots);
      }
      const Span span("rx.poll");
      records = receiver->poll();
    } else {
      const auto frame_start = std::chrono::steady_clock::now();
      receiver->push_frame(frame);
      records = receiver->poll();
      const auto frame_end = std::chrono::steady_clock::now();
      if (frame_ms != nullptr) {
        frame_ms->push_back(
            std::chrono::duration<double, std::milli>(frame_end - frame_start).count());
      }
    }
    if (any_unmatched(capture, records)) ++pass.failed_frames;
  }
  std::vector<rx::PacketRecord> tail;
  {
    const Span span("rx.finish");
    tail = receiver->finish();
  }
  if (any_unmatched(capture, tail)) ++pass.failed_frames;
  pass_span.reset();
  pass.decode_s = now_s() - start;
  pass.cpu_s = cpu_s() - cpu_start;

  const rx::ReceiverReport& report = receiver->report();
  pass.tokens = packet_tokens(report);
  pass.counters.add_stream(*receiver);
  pass.counters.trials = 1;
  pass.counters.frames = static_cast<long long>(capture.frames.size());
  std::size_t next_truth = 0;
  for (const rx::PacketRecord& record : report.packets) {
    if (record.kind != protocol::PacketKind::kData || !record.ok) continue;
    pass.rs_symbols += rx_config.rs_n;
    for (std::size_t truth = next_truth; truth < capture.messages.size(); ++truth) {
      if (record.payload == capture.messages[truth]) {
        pass.recovered_bytes += static_cast<long long>(record.payload.size());
        next_truth = truth + 1;
        break;
      }
    }
  }
  return pass;
}

void run_replay(const Options& options, double process_start_s, Json& report) {
  const Capture capture = render_capture(options.seed);
  // The first pass warms arenas, tables and page mappings, and is the
  // reference every later pass must reproduce; it is not timed.
  const ReplayPass first = replay_pass(capture, false, nullptr);
  report.set("setup_s", Json::number(now_s() - process_start_s));
  if (options.setup_only) return;

  // The timed part runs on one thread.
  runtime::ThreadPool::set_shared_thread_count(1);
  std::vector<std::string> errors;
  std::vector<double> frame_ms;
  std::vector<double> pass_wall_s;
  std::vector<double> pass_cpu_s;
  Counters counters;
  long long failed = 0;
  const auto frames = static_cast<int>(capture.frames.size());
  const int passes =
      units_in(options.seconds, kReplayPassSeconds, (kMinTimedFrames + frames - 1) / frames);
  perfbench::set_tracing(options.trace);
  for (int pass = 0; pass < passes; ++pass) {
    const ReplayPass result = replay_pass(capture, options.trace, &frame_ms);
    if (result.tokens != first.tokens) {
      errors.push_back("pass " + std::to_string(pass) + " decoded different bytes");
    }
    failed += result.failed_frames;
    pass_wall_s.push_back(result.decode_s);
    pass_cpu_s.push_back(result.cpu_s);
    counters.add(result.counters);
  }
  perfbench::set_tracing(false);

  const double rs_ratio =
      first.rs_symbols > 0
          ? static_cast<double>(first.counters.rs_errors + first.counters.rs_erasures) /
                static_cast<double>(first.rs_symbols)
          : 0.0;
  report.set("fingerprint", Json::string(hash_hex(first.tokens)));
  report.set("passes", Json::integer(passes));
  report.set("frames", Json::integer(frames));
  report.set("pass_wall_s", number_array(pass_wall_s));
  report.set("pass_cpu_s", number_array(pass_cpu_s));
  report.set("pass_air_s",
             number_array(std::vector<double>(pass_wall_s.size(), capture.captured_s)));
  report.set("frame_rate_hz", Json::number(capture.config.profile.fps));
  report.set("attempted", Json::integer(static_cast<std::int64_t>(frames) * passes));
  report.set("failed", Json::integer(failed));
  report.set("goodput_bps",
             Json::number(8.0 * static_cast<double>(first.recovered_bytes) / capture.air_s));
  report.set("ser", Json::number(rs_ratio));
  report.set("frame_ms", number_array(frame_ms));
  if (options.trace) report.set("counters", counters.to_json());
  report.set("errors", string_array(errors));
}

// ---------------------------------------------------------------------

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--seed") {
      options.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value());
    } else if (flag == "--threads") {
      options.threads = std::stoi(value());
    } else if (flag == "--out") {
      options.out = value();
    } else if (flag == "--spans") {
      options.spans = value();
    } else if (flag == "--socket") {
      options.socket = value();
    } else if (flag == "--trace") {
      options.trace = true;
    } else if (flag == "--setup-only") {
      options.setup_only = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload != "grid_svc" && options.workload != "rx_replay") {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (options.out.empty()) throw std::invalid_argument("--out is required");
  if (options.threads < 1 || !(options.seconds > 0.0)) {
    throw std::invalid_argument("--threads and --seconds must be positive");
  }
  if (options.trace && options.spans.empty()) {
    throw std::invalid_argument("--trace needs --spans");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  svc::maybe_run_worker();  // svc workers re-execute this binary
  const double process_start_s = now_s();
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cb_perfbench: %s\n", error.what());
    return 2;
  }
  runtime::ThreadPool::set_shared_thread_count(static_cast<unsigned>(options.threads));

  Json report = Json::object();
  report.set("workload", Json::string(options.workload));
  report.set("seed", Json::unsigned_integer(options.seed));
  report.set("threads", Json::integer(options.threads));
  report.set("workers", Json::integer(options.workload == "grid_svc" ? options.threads : 0));
  report.set("simd", Json::string(simd::backend_name(simd::active_backend())));
  report.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  report.set("traced", Json::boolean(options.trace));
  try {
    if (options.workload == "rx_replay") {
      run_replay(options, process_start_s, report);
    } else {
      run_grid(options, process_start_s, report);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cb_perfbench: %s\n", error.what());
    return 1;
  }
  report.set("peak_rss_mb", Json::number(peak_rss_mb()));
  if (options.trace && !perfbench::write_spans(options.spans)) {
    std::fprintf(stderr, "cb_perfbench: cannot write %s\n", options.spans.c_str());
    return 1;
  }
  std::FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cb_perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }
  const std::string text = report.dump();
  const bool written = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  return std::fclose(out) == 0 && written ? 0 : 1;
}

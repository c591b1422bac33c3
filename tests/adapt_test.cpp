#include "colorbars/adapt/simulator.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>

#include "colorbars/camera/camera.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/svc/service.hpp"
#include "colorbars/svc/wire.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::adapt {
namespace {

LinkQualitySample good_sample() {
  LinkQualitySample sample;
  sample.packets_sent = 10;
  sample.packets_decided = 10;
  sample.packets_ok = 10;
  sample.margin_sum = 50.0;
  sample.margin_count = 10;
  sample.frames_streamed = 20;
  return sample;
}

LinkQualitySample dead_sample() {
  LinkQualitySample sample;
  sample.packets_sent = 10;  // sent but nothing decided: success() == 0
  sample.frames_streamed = 20;
  return sample;
}

// ---------------------------------------------------------------- monitor

TEST(Adapt, SampleSuccessSemantics) {
  EXPECT_DOUBLE_EQ(good_sample().success(), 1.0);
  // Sent-but-undecided is a dead link, not missing evidence.
  EXPECT_DOUBLE_EQ(dead_sample().success(), 0.0);
  // An idle interval reads as healthy.
  EXPECT_DOUBLE_EQ(LinkQualitySample{}.success(), 1.0);
}

TEST(Adapt, MonitorRejectsBadAlpha) {
  EXPECT_THROW(LinkMonitor({.alpha = 0.0}), std::invalid_argument);
  EXPECT_THROW(LinkMonitor({.alpha = 1.5}), std::invalid_argument);
  EXPECT_NO_THROW(LinkMonitor({.alpha = 1.0}));
}

TEST(Adapt, MonitorFirstSampleInitializesOutright) {
  LinkMonitor monitor({.alpha = 0.5});
  EXPECT_FALSE(monitor.quality().valid());
  monitor.observe(dead_sample());
  // Not blended against the optimistic default of 1.0: a dead first
  // interval must read as dead immediately.
  EXPECT_DOUBLE_EQ(monitor.quality().packet_success, 0.0);
  EXPECT_TRUE(monitor.quality().valid());
}

TEST(Adapt, MonitorBlendsWithEwma) {
  LinkMonitor monitor({.alpha = 0.5});
  monitor.observe(good_sample());
  EXPECT_DOUBLE_EQ(monitor.quality().packet_success, 1.0);
  EXPECT_TRUE(monitor.quality().margin_valid);
  EXPECT_DOUBLE_EQ(monitor.quality().margin, 5.0);
  monitor.observe(dead_sample());
  EXPECT_DOUBLE_EQ(monitor.quality().packet_success, 0.5);
  // The dead interval classified no payload slots, so the margin
  // estimate must hold rather than decay toward zero.
  EXPECT_DOUBLE_EQ(monitor.quality().margin, 5.0);
  EXPECT_EQ(monitor.quality().samples, 2);
}

TEST(Adapt, MonitorResetClearsEstimate) {
  LinkMonitor monitor;
  monitor.observe(good_sample());
  monitor.reset();
  EXPECT_FALSE(monitor.quality().valid());
  EXPECT_FALSE(monitor.quality().margin_valid);
}

TEST(Adapt, MonitorRatioSignalsInitializeOnFirstEvidence) {
  LinkMonitor monitor({.alpha = 0.5});
  // Idle intervals first: they carry no margin, so the margin estimate
  // stays invalid instead of being dragged toward zero.
  monitor.observe(LinkQualitySample{});
  monitor.observe(LinkQualitySample{});
  EXPECT_FALSE(monitor.quality().margin_valid);

  // The first interval with margins initializes the estimate outright,
  // not blended against the default the idle intervals left behind.
  monitor.observe(good_sample());
  EXPECT_TRUE(monitor.quality().margin_valid);
  EXPECT_DOUBLE_EQ(monitor.quality().margin, 5.0);
  EXPECT_EQ(monitor.quality().samples, 3);
}

// -------------------------------------------------------------- controller

TEST(Adapt, LadderValidation) {
  EXPECT_THROW(validate_ladder({}, 4500.0), std::invalid_argument);
  // Above the LED switching limit.
  EXPECT_THROW(validate_ladder({{csk::CskOrder::kCsk8, 5000.0}}, 4500.0),
               std::invalid_argument);
  // Not strictly ascending in raw bitrate (CSK16@1k == CSK8@2k == 4 kbps... no:
  // 4*1000 vs 3*2000; use an actual tie: CSK4@3k == CSK8@2k == 6 kbps).
  EXPECT_THROW(validate_ladder({{csk::CskOrder::kCsk4, 3000.0},
                                {csk::CskOrder::kCsk8, 2000.0}},
                               4500.0),
               std::invalid_argument);
  EXPECT_NO_THROW(validate_ladder(default_ladder(), 4500.0));
}

TEST(Adapt, DefaultLadderAscendsInRawBitrate) {
  const std::vector<Rung> ladder = default_ladder();
  ASSERT_GE(ladder.size(), 2u);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder[i].raw_bitrate_bps(), ladder[i - 1].raw_bitrate_bps());
  }
  EXPECT_EQ(rung_name(ladder.front()), "CSK8@1000Hz");
}

TEST(Adapt, EngineGatedLadderExtendsWithSupportedRungs) {
  // The extension rungs are gated on what the decision engine can
  // decode: every engine gets CSK32@4kHz above the paper's peak, but
  // CSK64@4kHz appears only for the equalized engines — offering it to
  // the plain scan would hand the controller a rung it can only fail on.
  const std::vector<Rung> base = default_ladder();
  const std::vector<Rung> nearest = default_ladder(eq::EngineKind::kNearestReference);
  ASSERT_EQ(nearest.size(), base.size() + 1);
  EXPECT_EQ(nearest.back(), (Rung{csk::CskOrder::kCsk32, 4000.0}));
  for (const eq::EngineKind kind :
       {eq::EngineKind::kLinearMmse, eq::EngineKind::kFrequencyDomain}) {
    const std::vector<Rung> equalized = default_ladder(kind);
    ASSERT_EQ(equalized.size(), base.size() + 2);
    EXPECT_EQ(equalized[equalized.size() - 2], (Rung{csk::CskOrder::kCsk32, 4000.0}));
    EXPECT_EQ(equalized.back(), (Rung{csk::CskOrder::kCsk64, 4000.0}));
    EXPECT_NO_THROW(validate_ladder(equalized, 4500.0));
  }
}

TEST(Adapt, DominatedRungIsNeverProbedTwiceInARow) {
  // The equalized ladder tops out at CSK64@4kHz. Under a channel where
  // that rung is dominated (higher order, but ISI collapses its
  // goodput), every probe into it fails — and the AIMD backoff must
  // keep the controller from bouncing straight back: after a failed
  // probe the confirmation requirement doubles, so the dominated rung
  // is never probed on two consecutive intervals.
  ControllerConfig config;
  config.up_confirm_intervals = 2;
  const std::vector<Rung> ladder = default_ladder(eq::EngineKind::kLinearMmse);
  const int top = static_cast<int>(ladder.size()) - 1;
  ASSERT_EQ(ladder[top].order, csk::CskOrder::kCsk64);
  RateController controller(ladder, config, top - 1);

  LinkQuality good;
  good.samples = 1;
  good.packet_success = 1.0;
  good.margin_valid = true;
  good.margin = 10.0;
  LinkQuality collapse;
  collapse.samples = 1;
  collapse.packet_success = 0.0;

  // Climb into the dominated rung.
  EXPECT_EQ(controller.decide(good), top - 1);  // streak 1 of 2
  EXPECT_EQ(controller.decide(good), top);      // probe up
  // The probe collapses; the requirement doubles.
  EXPECT_LT(controller.decide(collapse), top);
  EXPECT_EQ(controller.required_streak(), 2 * config.up_confirm_intervals);
  // Never twice in a row: the immediately following good interval must
  // not land back on the dominated rung, nor any interval until the
  // doubled streak has been re-earned below it.
  for (int i = 0; i < controller.required_streak(); ++i) {
    EXPECT_LT(controller.decide(good), top)
        << "re-probed the dominated rung after only " << i << " good intervals";
  }
}

TEST(Adapt, ControllerRejectsBadConstruction) {
  EXPECT_THROW(RateController(default_ladder(), {}, -1), std::invalid_argument);
  EXPECT_THROW(RateController(default_ladder(), {}, 99), std::invalid_argument);
  ControllerConfig config;
  config.up_confirm_intervals = 4;
  config.max_up_confirm_intervals = 2;
  EXPECT_THROW(RateController(default_ladder(), config, 0), std::invalid_argument);
}

TEST(Adapt, InvalidQualityLeavesDecisionUnchanged) {
  RateController controller(default_ladder(), {}, 2);
  EXPECT_EQ(controller.decide(LinkQuality{}), 2);
}

TEST(Adapt, CollapseDropsTwoRungsPartialDropsOne) {
  RateController controller(default_ladder(), {}, 3);
  LinkQuality quality;
  quality.samples = 1;
  quality.packet_success = 0.0;  // collapse
  EXPECT_EQ(controller.decide(quality), 1);
  quality.packet_success = 0.6;  // degraded but alive
  EXPECT_EQ(controller.decide(quality), 0);
  // Clamped at the bottom rung.
  quality.packet_success = 0.0;
  EXPECT_EQ(controller.decide(quality), 0);
}

TEST(Adapt, UpshiftNeedsConfirmationStreakAndMargin) {
  ControllerConfig config;
  config.up_confirm_intervals = 2;
  RateController controller(default_ladder(), config, 0);
  LinkQuality quality;
  quality.samples = 1;
  quality.packet_success = 1.0;
  quality.margin_valid = true;
  quality.margin = 10.0;
  EXPECT_EQ(controller.decide(quality), 0);  // streak 1 of 2
  EXPECT_EQ(controller.decide(quality), 1);  // confirmed: probe up

  // A thin margin gates the streak even at perfect success.
  RateController gated(default_ladder(), config, 0);
  quality.margin = 0.5;
  EXPECT_EQ(gated.decide(quality), 0);
  EXPECT_EQ(gated.decide(quality), 0);
  EXPECT_EQ(gated.decide(quality), 0);
}

TEST(Adapt, AimdFailedProbeDoublesRequirementSettledHalves) {
  ControllerConfig config;
  config.up_confirm_intervals = 2;
  config.probe_settle_intervals = 2;
  RateController controller(default_ladder(), config, 0);
  LinkQuality good;
  good.samples = 1;
  good.packet_success = 1.0;
  good.margin_valid = true;
  good.margin = 10.0;
  LinkQuality collapse = good;
  collapse.packet_success = 0.0;
  collapse.margin_valid = false;

  EXPECT_EQ(controller.decide(good), 0);
  EXPECT_EQ(controller.decide(good), 1);  // probe up
  EXPECT_EQ(controller.decide(collapse), 0);  // probe failed, collapse drop clamps
  EXPECT_EQ(controller.required_streak(), 4);  // doubled

  // Now the link must stay good 4 intervals before the next probe...
  EXPECT_EQ(controller.decide(good), 0);
  EXPECT_EQ(controller.decide(good), 0);
  EXPECT_EQ(controller.decide(good), 0);
  EXPECT_EQ(controller.decide(good), 1);  // probe again
  // ...and a probe that settles re-arms the requirement back down.
  EXPECT_EQ(controller.decide(good), 1);
  EXPECT_EQ(controller.decide(good), 1);
  EXPECT_EQ(controller.required_streak(), 2);
}

TEST(Adapt, OnAppliedKeepsDesiredWhenUplinkLags) {
  RateController controller(default_ladder(), {}, 3);
  LinkQuality collapse;
  collapse.samples = 1;
  collapse.packet_success = 0.0;
  EXPECT_EQ(controller.decide(collapse), 1);
  // The transmitter only got partway down (stale command applied):
  // desired must stay at the lower rung so the re-send loop pushes on.
  controller.on_applied(2);
  EXPECT_EQ(controller.desired_rung(), 1);
  // Matching application syncs.
  controller.on_applied(1);
  EXPECT_EQ(controller.desired_rung(), 1);
}

TEST(Adapt, SwitchCostGatesOrdinaryDownshiftsButNotCollapse) {
  LinkQuality bad;  // degraded but alive: between collapse and down thresholds
  bad.samples = 1;
  bad.packet_success = 0.6;
  LinkQuality middling = bad;  // healthy, but below the upshift bar
  middling.packet_success = 0.9;
  LinkQuality collapse = bad;
  collapse.packet_success = 0.0;

  // Free switching: the original policy, downshift on the first bad
  // interval.
  RateController free_switch(default_ladder(), {}, 3);
  EXPECT_EQ(free_switch.decide(bad), 2);

  // A 1.5-interval recalibration cost: only degradation persisting past
  // the cost is worth paying for, so the downshift needs 3 consecutive
  // sub-threshold intervals (1 + ceil(1.5)).
  ControllerConfig costly_config;
  costly_config.switch_cost_intervals = 1.5;
  RateController costly(default_ladder(), costly_config, 3);
  EXPECT_EQ(costly.decide(bad), 3);  // streak 1 of 3 — ride it out
  EXPECT_EQ(costly.decide(bad), 3);  // streak 2 of 3
  EXPECT_EQ(costly.decide(bad), 2);  // persistent: pay for the switch

  // Recovery resets the persistence gate: a dip that clears must not
  // leave a primed streak behind.
  RateController recovered(default_ladder(), costly_config, 3);
  EXPECT_EQ(recovered.decide(bad), 3);
  EXPECT_EQ(recovered.decide(bad), 3);
  EXPECT_EQ(recovered.decide(middling), 3);  // dip over — streak cleared
  EXPECT_EQ(recovered.decide(bad), 3);       // streak restarts at 1
  EXPECT_EQ(recovered.decide(bad), 3);
  EXPECT_EQ(recovered.decide(bad), 2);

  // Collapse bypasses the gate: a dead link loses more per interval
  // than any recalibration costs.
  RateController collapsed(default_ladder(), costly_config, 3);
  EXPECT_EQ(collapsed.decide(collapse), 1);

  ControllerConfig invalid;
  invalid.switch_cost_intervals = -0.5;
  EXPECT_THROW(RateController(default_ladder(), invalid, 0), std::invalid_argument);
}

TEST(Adapt, RecalibrationCostChargesDeadAirPerSwitch) {
  // One steady far leg from the top rung: the closed loop downshifts,
  // and because the channel is a single segment and every stochastic
  // stream derives from the interval counter, the free and costly runs
  // make identical per-interval decisions — the only difference is the
  // dead air charged at each switch. The costly run's post-switch
  // intervals start exactly recalibration_cost_s later, and fewer
  // intervals (so fewer payload bytes) fit into the trajectory.
  Trajectory trajectory;
  TrajectorySegment leg;
  leg.name = "far";
  leg.duration_s = 1.6;
  leg.channel.distance.distance_m = 0.13;
  leg.channel.distance.reference_distance_m = 0.08;
  trajectory.segments = {leg};

  AdaptiveLinkConfig config;
  config.profile = camera::ideal_profile();
  config.feedback.delay_intervals = 0;
  AdaptiveLinkSimulator free_sim(config, trajectory);
  const AdaptiveRunResult free_run = free_sim.run();

  config.recalibration_cost_s = 0.5;
  AdaptiveLinkSimulator costly_sim(config, trajectory);
  const AdaptiveRunResult costly_run = costly_sim.run();

  ASSERT_GT(free_run.downshifts, 0);
  ASSERT_GT(costly_run.downshifts, 0);
  EXPECT_LE(costly_run.intervals.size(), free_run.intervals.size());
  EXPECT_LE(costly_run.payload_bytes, free_run.payload_bytes);

  // First interval of the second epoch: shifted by exactly the charge.
  std::size_t switch_index = 0;
  while (switch_index < costly_run.intervals.size() &&
         costly_run.intervals[switch_index].epoch ==
             costly_run.intervals[0].epoch) {
    ++switch_index;
  }
  ASSERT_LT(switch_index, costly_run.intervals.size());
  ASSERT_LT(switch_index, free_run.intervals.size());
  EXPECT_EQ(free_run.intervals[switch_index].epoch,
            costly_run.intervals[switch_index].epoch);
  EXPECT_NEAR(costly_run.intervals[switch_index].start_time_s -
                  free_run.intervals[switch_index].start_time_s,
              config.recalibration_cost_s, 1e-9);
  // Identical decisions up to the switch.
  for (std::size_t i = 0; i < switch_index; ++i) {
    EXPECT_EQ(costly_run.intervals[i].rung, free_run.intervals[i].rung);
    EXPECT_EQ(costly_run.intervals[i].start_time_s,
              free_run.intervals[i].start_time_s);
  }

  EXPECT_THROW(
      {
        AdaptiveLinkConfig broken;
        broken.recalibration_cost_s = -1.0;
        AdaptiveLinkSimulator bad_sim(broken, trajectory);
      },
      std::invalid_argument);
}

// ---------------------------------------------------------------- feedback

TEST(Adapt, FeedbackRejectsBadConfig) {
  EXPECT_THROW(FeedbackLink({.delay_intervals = -1}), std::invalid_argument);
  EXPECT_THROW(FeedbackLink({.loss_probability = 1.5}), std::invalid_argument);
}

TEST(Adapt, FeedbackDeliversAfterDelayInOrder) {
  FeedbackLink link({.delay_intervals = 2});
  EXPECT_TRUE(link.send({0, 3}, 0));
  EXPECT_TRUE(link.send({1, 1}, 0));
  EXPECT_TRUE(link.poll(1).empty());
  EXPECT_EQ(link.in_flight(), 2u);
  const std::vector<RungCommand> delivered = link.poll(2);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], (RungCommand{0, 3}));
  EXPECT_EQ(delivered[1], (RungCommand{1, 1}));
  EXPECT_EQ(link.commands_delivered(), 2);
  EXPECT_TRUE(link.poll(99).empty());
}

TEST(Adapt, FeedbackLossIsSeededAndCounted) {
  FeedbackLink lossy({.delay_intervals = 0, .loss_probability = 0.5}, 42);
  FeedbackLink twin({.delay_intervals = 0, .loss_probability = 0.5}, 42);
  int lost = 0;
  for (int i = 0; i < 64; ++i) {
    const bool a = lossy.send({i, 0}, i);
    const bool b = twin.send({i, 0}, i);
    EXPECT_EQ(a, b) << "loss draws must be reproducible per seed";
    if (!a) ++lost;
  }
  EXPECT_EQ(lossy.commands_lost(), lost);
  EXPECT_GT(lost, 0);
  EXPECT_LT(lost, 64);
  EXPECT_EQ(lossy.commands_sent(), 64);
}

// ------------------------------------------------- streaming epoch switch

/// Transmits `payload_bytes` fresh random bytes at `order`/`rate` and
/// captures the emission with the ideal profile; returns everything the
/// epoch test needs to stream and verify one epoch.
struct EpochCapture {
  EpochCapture(csk::CskOrder order, double rate_hz, std::uint64_t seed) {
    const camera::SensorProfile profile = camera::ideal_profile();
    const rs::CodeParameters code = core::derive_link_code(
        order, rate_hz, profile.fps, profile.inter_frame_loss_ratio, 0.8);
    tx::TransmitterConfig tx_config;
    tx_config.format.order = order;
    tx_config.symbol_rate_hz = rate_hz;
    tx_config.rs_n = code.n;
    tx_config.rs_k = code.k;
    rx_config.format = tx_config.format;
    rx_config.symbol_rate_hz = rate_hz;
    rx_config.frame_rate_hz = profile.fps;
    rx_config.rs_n = code.n;
    rx_config.rs_k = code.k;

    util::Xoshiro256 rng(seed);
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(code.k) * 6);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
    const tx::Transmitter transmitter(tx_config);
    transmission = transmitter.transmit(payload);
    camera::RollingShutterCamera camera(profile, {}, seed + 1);
    frames = camera.capture_video(transmission.trace);
  }

  rx::ReceiverConfig rx_config;
  tx::Transmission transmission;
  std::vector<camera::Frame> frames;
};

TEST(Adapt, StreamingEpochSwitchRecalibratesAndTagsRecords) {
  const EpochCapture first(csk::CskOrder::kCsk8, 2000.0, 9001);
  const EpochCapture second(csk::CskOrder::kCsk16, 1000.0, 9002);

  rx::StreamingReceiver streaming(first.rx_config);
  EXPECT_EQ(streaming.epoch(), 0);
  for (const camera::Frame& frame : first.frames) {
    streaming.push_frame(frame);
    (void)streaming.poll();
  }
  streaming.begin_epoch(second.rx_config);
  EXPECT_EQ(streaming.epoch(), 1);

  for (const camera::Frame& frame : second.frames) {
    streaming.push_frame(frame);
    (void)streaming.poll();
  }
  (void)streaming.finish();

  const rx::ReceiverReport& report = streaming.report();
  int epoch0_ok = 0;
  int epoch1_ok = 0;
  for (const rx::PacketRecord& record : report.packets) {
    if (record.kind != protocol::PacketKind::kData || !record.ok) continue;
    if (record.epoch == 0) ++epoch0_ok;
    if (record.epoch == 1) ++epoch1_ok;
    // Each epoch's slot grid restarts at zero: a decoded record's start
    // slot must be small relative to a single capture, not cumulative.
    EXPECT_GE(record.start_slot, 0);
  }
  // Both epochs decoded against their own calibration despite the order
  // AND symbol-rate change mid-stream.
  EXPECT_GT(epoch0_ok, 0);
  EXPECT_GT(epoch1_ok, 0);

  // The window span keeps accumulating across epochs.
  EXPECT_GT(report.slot_span, 0);
}

TEST(Adapt, StreamingEpochSwitchMatchesFreshReceiver) {
  const EpochCapture first(csk::CskOrder::kCsk8, 2000.0, 7001);
  const EpochCapture second(csk::CskOrder::kCsk8, 1000.0, 7002);

  // Stream capture A, switch, stream capture B...
  rx::StreamingReceiver switched(first.rx_config);
  for (const camera::Frame& frame : first.frames) {
    switched.push_frame(frame);
    (void)switched.poll();
  }
  switched.begin_epoch(second.rx_config);
  for (const camera::Frame& frame : second.frames) {
    switched.push_frame(frame);
    (void)switched.poll();
  }
  (void)switched.finish();

  // ...and compare epoch 1 against a receiver that never saw epoch 0.
  rx::StreamingReceiver fresh(second.rx_config);
  for (const camera::Frame& frame : second.frames) {
    fresh.push_frame(frame);
    (void)fresh.poll();
  }
  (void)fresh.finish();

  std::vector<const rx::PacketRecord*> switched_records;
  for (const rx::PacketRecord& record : switched.report().packets) {
    if (record.epoch == 1) switched_records.push_back(&record);
  }
  const rx::ReceiverReport& fresh_report = fresh.report();
  ASSERT_EQ(switched_records.size(), fresh_report.packets.size());
  for (std::size_t i = 0; i < switched_records.size(); ++i) {
    EXPECT_EQ(switched_records[i]->start_slot, fresh_report.packets[i].start_slot);
    EXPECT_EQ(switched_records[i]->ok, fresh_report.packets[i].ok);
    EXPECT_EQ(switched_records[i]->payload, fresh_report.packets[i].payload);
  }
}

// ------------------------------------------------------------- end to end

TEST(Adapt, SimulatorValidatesConfiguration) {
  Trajectory empty;
  EXPECT_THROW(AdaptiveLinkSimulator({}, empty), std::invalid_argument);

  Trajectory bad = walkaway_trajectory();
  bad.segments[0].duration_s = 0.0;
  EXPECT_THROW(AdaptiveLinkSimulator({}, bad), std::invalid_argument);

  AdaptiveLinkConfig config;
  config.initial_rung = 99;
  EXPECT_THROW(AdaptiveLinkSimulator(config, walkaway_trajectory()),
               std::invalid_argument);
}

Trajectory trajectory_of(std::initializer_list<double> durations) {
  Trajectory trajectory;
  for (const double duration : durations) {
    TrajectorySegment segment;
    segment.duration_s = duration;
    trajectory.segments.push_back(segment);
  }
  return trajectory;
}

TEST(Adapt, TrajectoryBeyondTheSlotBudgetIsRejected) {
  // A run transmits until its trajectory ends, so a total whose slots at
  // the tri-LED's rate limit pass INT_MAX would run (nearly) forever.
  // Each such trajectory is refused before anything runs; none is run.
  const double rate = led::TriLedConfig{}.max_symbol_rate_hz;
  const double budget_s = static_cast<double>(INT_MAX) / rate;
  const double past_budget_s = (static_cast<double>(INT_MAX) + 1.0) / rate;
  ASSERT_EQ(std::ceil(budget_s * rate), static_cast<double>(INT_MAX));
  ASSERT_EQ(std::ceil(past_budget_s * rate), static_cast<double>(INT_MAX) + 1.0);
  EXPECT_NO_THROW(trajectory_of({budget_s}).validate());

  const double max = std::numeric_limits<double>::max();
  const Trajectory over_budget[] = {
      trajectory_of({1e300}),
      trajectory_of({std::numeric_limits<double>::infinity()}),
      trajectory_of({max, max}),  // each segment is finite, the sum is not
      trajectory_of({past_budget_s}),
  };
  for (const Trajectory& trajectory : over_budget) {
    try {
      trajectory.validate();
      ADD_FAILURE() << "accepted " << trajectory.total_duration_s() << " s";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("Trajectory"), std::string::npos)
          << error.what();
    }
    EXPECT_THROW(AdaptiveLinkSimulator({}, trajectory), std::invalid_argument);
  }

  // The wire decoder refuses such a job.
  svc::JobRequest job;
  job.is_adaptive = true;
  job.trajectory = walkaway_trajectory();
  std::string error;
  ASSERT_TRUE(svc::parse_message(svc::encode_job(job), &error).has_value()) << error;
  job.trajectory.segments[0].duration_s = 1e300;
  EXPECT_FALSE(svc::parse_message(svc::encode_job(job), &error).has_value());
  EXPECT_NE(error.find("Trajectory"), std::string::npos) << error;

  // run_adaptive_batch throws before any job runs or worker spawns: the
  // stats it would write stay untouched.
  for (const int workers : {0, 2}) {
    svc::ServiceConfig service;
    service.workers = workers;
    svc::SvcStats stats;
    stats.jobs_total = -1;
    EXPECT_THROW((void)svc::run_adaptive_batch({{AdaptiveLinkConfig{}, trajectory_of({1e300})}},
                                               service, &stats),
                 std::invalid_argument);
    EXPECT_EQ(stats.jobs_total, -1) << workers << " workers";
  }
}

TEST(Adapt, TrajectorySegmentLookup) {
  const Trajectory trajectory = walkaway_trajectory();
  EXPECT_EQ(trajectory.segment_index_at(0.0), 0);
  EXPECT_EQ(trajectory.segment_index_at(trajectory.total_duration_s() + 10.0),
            static_cast<int>(trajectory.segments.size()) - 1);
  double boundary = trajectory.segments[0].duration_s;
  EXPECT_EQ(trajectory.segment_index_at(boundary - 1e-6), 0);
  EXPECT_EQ(trajectory.segment_index_at(boundary + 1e-6), 1);
}

TEST(Adapt, ClosedLoopDownshiftsWhenChannelWorsens) {
  // Short two-leg trajectory: healthy close range, then past the top
  // rung's ISI cliff. The closed loop must react by downshifting and
  // keep recovering bytes after the transition.
  Trajectory trajectory;
  TrajectorySegment near;
  near.name = "near";
  near.duration_s = 1.4;
  near.channel.distance.distance_m = 0.08;
  near.channel.distance.reference_distance_m = 0.08;
  TrajectorySegment far = near;
  far.name = "far";
  far.duration_s = 2.2;
  far.channel.distance.distance_m = 0.13;
  trajectory.segments = {near, far};

  AdaptiveLinkConfig config;
  config.profile = camera::ideal_profile();
  config.feedback.delay_intervals = 0;
  AdaptiveLinkSimulator simulator(config, trajectory);
  const AdaptiveRunResult result = simulator.run();

  EXPECT_GT(result.downshifts, 0);
  EXPECT_GT(result.epochs, 1);
  EXPECT_LT(result.final_rung, config.resolved_initial_rung());
  EXPECT_GT(result.recovered_bytes, 0);
  // Bytes recovered on both sides of the transition.
  long long near_bytes = 0;
  long long far_bytes = 0;
  for (const IntervalRecord& record : result.intervals) {
    (record.segment == 0 ? near_bytes : far_bytes) += record.recovered_bytes;
  }
  EXPECT_GT(near_bytes, 0);
  EXPECT_GT(far_bytes, 0);
}

TEST(Adapt, FrozenPolicyNeverSwitches) {
  Trajectory trajectory;
  TrajectorySegment leg;
  leg.duration_s = 1.0;
  leg.channel.distance.distance_m = 0.13;  // would trigger a downshift
  leg.channel.distance.reference_distance_m = 0.08;
  trajectory.segments = {leg};

  AdaptiveLinkConfig config;
  config.adaptation_enabled = false;
  config.profile = camera::ideal_profile();
  AdaptiveLinkSimulator simulator(config, trajectory);
  const AdaptiveRunResult result = simulator.run();
  EXPECT_EQ(result.epochs, 1);
  EXPECT_EQ(result.upshifts + result.downshifts, 0);
  EXPECT_EQ(result.final_rung, config.resolved_initial_rung());
  EXPECT_EQ(result.commands_sent, 0);
}

}  // namespace
}  // namespace colorbars::adapt

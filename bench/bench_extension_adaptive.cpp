// Extension bench: closed-loop link adaptation (colorbars::adapt) vs
// every fixed rung of the rate ladder over a range+occlusion trajectory.
// The paper picks one (order, rate) per deployment and Fig. 11 shows why
// that is fragile: each rung's goodput collapses past its own ISI cliff.
// This bench walks the receiver out from the luminaire — with a hand
// passing through the beam on the far leg — and measures what a rate
// controller recovers versus any single rung frozen for the whole walk.
//
// Acceptance: the adaptive link's total goodput is at least the best
// fixed rung's, and on at least one reported phase it is strictly better
// than EVERY fixed rung (no single rung is right for a phase that spans
// a range transition).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "colorbars/adapt/simulator.hpp"

using namespace colorbars;

namespace {

/// The measured rung cliffs against an 8 cm reference panel sit at
/// ~13 cm (4 kHz dies), ~16 cm (2 kHz dies) and ~20+ cm (everything
/// dies) — see walkaway_trajectory(). The bench walk holds each leg a
/// few control intervals and adds occlusion bursts on the far leg.
adapt::Trajectory bench_trajectory() {
  adapt::Trajectory trajectory;
  auto leg = [&](const char* name, double duration_s, double distance_m,
                 double occlusion_rate_hz) {
    adapt::TrajectorySegment segment;
    segment.name = name;
    segment.duration_s = duration_s;
    segment.channel.distance.distance_m = distance_m;
    segment.channel.distance.reference_distance_m = 0.08;
    segment.channel.occlusion.rate_hz = occlusion_rate_hz;
    segment.channel.occlusion.mean_duration_s = 0.05;
    trajectory.segments.push_back(std::move(segment));
  };
  leg("5cm", 2.8, 0.05, 0.0);
  leg("13cm", 2.1, 0.13, 0.0);
  leg("16cm+occlusion", 2.1, 0.16, 0.5);
  leg("1m", 1.4, 1.00, 0.0);
  return trajectory;
}

/// Reported phases: groups of trajectory legs. The walk-out phase spans
/// the 5cm -> 13cm transition on purpose — a phase with an internal
/// range step is exactly where no frozen rung can be right throughout.
struct Phase {
  const char* name;
  std::vector<int> legs;
};

const std::vector<Phase>& phases() {
  static const std::vector<Phase> kPhases{
      {"walk-out (5->13cm)", {0, 1}},
      {"arm's length (16cm, occluded)", {2}},
      {"out of range (1m)", {3}},
  };
  return kPhases;
}

struct PolicyOutcome {
  std::string name;
  adapt::AdaptiveRunResult result;
  std::vector<long long> phase_bytes;
  std::vector<double> phase_time_s;
};

adapt::AdaptiveLinkConfig policy_config(bool adaptive, int initial_rung) {
  adapt::AdaptiveLinkConfig config;
  config.adaptation_enabled = adaptive;
  config.initial_rung = initial_rung;
  config.feedback.delay_intervals = 1;
  return config;
}

PolicyOutcome policy_outcome(const std::string& name,
                             adapt::AdaptiveRunResult result) {
  PolicyOutcome outcome;
  outcome.name = name;
  outcome.result = std::move(result);
  outcome.phase_bytes.assign(phases().size(), 0);
  outcome.phase_time_s.assign(phases().size(), 0.0);
  for (const adapt::IntervalRecord& record : outcome.result.intervals) {
    for (std::size_t p = 0; p < phases().size(); ++p) {
      for (const int leg : phases()[p].legs) {
        if (record.segment == leg) {
          outcome.phase_bytes[p] += record.recovered_bytes;
          outcome.phase_time_s[p] += record.air_time_s;
        }
      }
    }
  }
  return outcome;
}

double phase_goodput(const PolicyOutcome& outcome, std::size_t p) {
  return outcome.phase_time_s[p] > 0.0
             ? 8.0 * static_cast<double>(outcome.phase_bytes[p]) /
                   outcome.phase_time_s[p]
             : 0.0;
}

}  // namespace

int main() {
  svc::maybe_run_worker();  // this binary is its own grid worker

  bench::print_header(
      "Extension: adaptive rate control vs fixed rungs (range+occlusion walk)");
  bench::JsonReport report("extension_adaptive");

  const adapt::Trajectory trajectory = bench_trajectory();
  const adapt::AdaptiveLinkConfig defaults;
  std::printf("trajectory: ");
  for (const adapt::TrajectorySegment& segment : trajectory.segments) {
    std::printf("%s (%.1fs)  ", segment.name.c_str(), segment.duration_s);
  }
  std::printf("\n\n");

  // One job per policy: the adaptive walk plus every frozen rung. The
  // batch runs in this process on the runtime pool, or with
  // COLORBARS_GRID_WORKERS set across worker processes (byte-identical).
  std::vector<std::string> names;
  std::vector<svc::AdaptiveJob> jobs;
  names.push_back("adaptive");
  jobs.push_back({policy_config(true, -1), trajectory});
  for (std::size_t rung = 0; rung < defaults.ladder.size(); ++rung) {
    names.push_back("fixed " + adapt::rung_name(defaults.ladder[rung]));
    jobs.push_back({policy_config(false, static_cast<int>(rung)), trajectory});
  }

  svc::ServiceConfig service;
  service.workers = svc::grid_workers_from_env();
  svc::SvcStats grid_stats;
  std::vector<adapt::AdaptiveRunResult> results =
      svc::run_adaptive_batch(jobs, service, &grid_stats);

  std::vector<PolicyOutcome> outcomes;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    outcomes.push_back(policy_outcome(names[i], std::move(results[i])));
  }

  std::printf("%-20s %10s %10s %8s", "policy", "bytes", "goodput", "shifts");
  for (const Phase& phase : phases()) std::printf("  %28s", phase.name);
  std::printf("\n");
  for (const PolicyOutcome& outcome : outcomes) {
    const adapt::AdaptiveRunResult& r = outcome.result;
    std::printf("%-20s %9lldB %7.2fkbps %4d/%-3d", outcome.name.c_str(),
                r.recovered_bytes, r.goodput_bps() / 1000.0, r.downshifts,
                r.upshifts);
    for (std::size_t p = 0; p < phases().size(); ++p) {
      std::printf("  %18lldB %6.2fkbps", outcome.phase_bytes[p],
                  phase_goodput(outcome, p) / 1000.0);
    }
    std::printf("\n");

    auto& row = report.add_row();
    row.label("policy", outcome.name)
        .metric("total_bytes", static_cast<double>(r.recovered_bytes))
        .metric("total_goodput_bps", r.goodput_bps())
        .metric("air_time_s", r.total_time_s)
        .metric("packet_success",
                [&] {
                  long long sent = 0, ok = 0;
                  for (const adapt::IntervalRecord& record : r.intervals) {
                    sent += record.packets_sent;
                    ok += record.packets_ok;
                  }
                  return sent > 0 ? static_cast<double>(ok) /
                                        static_cast<double>(sent)
                                  : 0.0;
                }())
        .metric("downshifts", r.downshifts)
        .metric("upshifts", r.upshifts)
        .metric("epochs", r.epochs)
        .metric("commands_lost", static_cast<double>(r.commands_lost));
    for (std::size_t p = 0; p < phases().size(); ++p) {
      row.metric("phase" + std::to_string(p) + "_bytes",
                 static_cast<double>(outcome.phase_bytes[p]))
          .metric("phase" + std::to_string(p) + "_goodput_bps",
                  phase_goodput(outcome, p));
    }
  }

  // Acceptance check.
  const PolicyOutcome& adaptive = outcomes.front();
  long long best_fixed_bytes = 0;
  std::string best_fixed_name;
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    if (outcomes[i].result.recovered_bytes > best_fixed_bytes) {
      best_fixed_bytes = outcomes[i].result.recovered_bytes;
      best_fixed_name = outcomes[i].name;
    }
  }
  int winning_phase = -1;
  for (std::size_t p = 0; p < phases().size() && winning_phase < 0; ++p) {
    bool beats_all = true;
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
      if (adaptive.phase_bytes[p] <= outcomes[i].phase_bytes[p]) {
        beats_all = false;
        break;
      }
    }
    if (beats_all) winning_phase = static_cast<int>(p);
  }
  const bool total_ok = adaptive.result.recovered_bytes >= best_fixed_bytes;
  std::printf("\nadaptive total: %lldB vs best fixed (%s): %lldB  -> %s\n",
              adaptive.result.recovered_bytes, best_fixed_name.c_str(),
              best_fixed_bytes, total_ok ? "ok" : "WORSE");
  if (winning_phase >= 0) {
    std::printf("adaptive strictly beats every fixed rung on phase \"%s\"\n",
                phases()[static_cast<std::size_t>(winning_phase)].name);
  } else {
    std::printf("adaptive beats every fixed rung on NO phase\n");
  }
  const bool pass = total_ok && winning_phase >= 0;
  std::printf("acceptance: %s\n", pass ? "PASS" : "FAIL");

  report.add_row()
      .label("policy", "acceptance")
      .metric("total_ok", total_ok ? 1 : 0)
      .metric("winning_phase", winning_phase)
      .metric("pass", pass ? 1 : 0);
  bench::add_scheduler_row(report, "policy", grid_stats);
  report.write();
  return pass ? 0 : 1;
}

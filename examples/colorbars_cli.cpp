// colorbars_cli: a command-line front end over the full simulated link —
// what you'd reach for to explore operating points without writing code.
//
//   ./build/examples/colorbars_cli --order 16 --rate 4000 --device nexus5 \
//       --message "hello world" [--loops 3] [--phi 0.8] [--seed 42]
//
//   ./build/examples/colorbars_cli --order 8 --rate 2000 --device iphone5s --ser 5000
//
// Modes: default transfers --message (repeating up to --loops carousel
// cycles until fully received); --ser N instead measures the raw symbol
// error rate over N symbols.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "colorbars/core/link.hpp"

using namespace colorbars;

namespace {

struct Options {
  int order = 8;
  double rate = 2000.0;
  std::string device = "nexus5";
  std::string message = "Hello from the ColorBars CLI!";
  int loops = 5;
  double phi = 0.8;
  std::uint64_t seed = 1;
  int ser_symbols = 0;  // 0 = transfer mode
  bool help = false;
};

void print_usage() {
  std::printf(
      "usage: colorbars_cli [options]\n"
      "  --order N       CSK order: 4, 8, 16 or 32 (default 8)\n"
      "  --rate HZ       symbol rate, <= 4500 (default 2000)\n"
      "  --device NAME   nexus5 | iphone5s | ideal (default nexus5)\n"
      "  --message TEXT  payload to broadcast (transfer mode)\n"
      "  --loops N       max carousel cycles (default 5)\n"
      "  --phi F         data fraction of payload slots, (0,1] (default 0.8)\n"
      "  --seed N        RNG seed\n"
      "  --ser N         measure SER over N random symbols instead\n");
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--help" || flag == "-h") {
      options.help = true;
      return true;
    }
    const char* value = next();
    if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--order") {
      options.order = std::atoi(value);
    } else if (flag == "--rate") {
      options.rate = std::atof(value);
    } else if (flag == "--device") {
      options.device = value;
    } else if (flag == "--message") {
      options.message = value;
    } else if (flag == "--loops") {
      options.loops = std::atoi(value);
    } else if (flag == "--phi") {
      options.phi = std::atof(value);
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--ser") {
      options.ser_symbols = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

bool build_config(const Options& options, core::LinkConfig& config) {
  const auto order = csk::order_from_int(options.order);
  if (!order) {
    std::fprintf(stderr, "order must be 4, 8, 16, 32 or 64\n");
    return false;
  }
  config.order = *order;
  if (options.rate <= 0 || options.rate > 4500) {
    std::fprintf(stderr, "rate must be in (0, 4500] Hz (LED hardware limit)\n");
    return false;
  }
  if (!(options.phi > 0.0) || options.phi > 1.0) {
    std::fprintf(stderr, "phi must be in (0, 1]\n");
    return false;
  }
  if (options.device == "nexus5") {
    config.profile = camera::nexus5_profile();
  } else if (options.device == "iphone5s") {
    config.profile = camera::iphone5s_profile();
  } else if (options.device == "ideal") {
    config.profile = camera::ideal_profile();
  } else {
    std::fprintf(stderr, "unknown device '%s'\n", options.device.c_str());
    return false;
  }
  config.symbol_rate_hz = options.rate;
  config.illumination_ratio = options.phi;
  config.seed = options.seed;
  return true;
}

int run_ser_mode(const Options& options, core::LinkConfig config) {
  core::LinkSimulator sim(config);
  const core::SerResult result = sim.run_ser(options.ser_symbols);
  std::printf("SER measurement: CSK%d @ %.0f Hz on %s\n", options.order, options.rate,
              config.profile.name.c_str());
  std::printf("  symbols sent     : %lld\n", result.symbols_sent);
  std::printf("  symbols observed : %lld (loss ratio %.4f)\n", result.symbols_observed,
              result.inter_frame_loss_ratio);
  std::printf("  symbol errors    : %lld\n", result.symbol_errors);
  std::printf("  SER              : %.5f\n", result.ser());
  return 0;
}

int run_transfer_mode(const Options& options, core::LinkConfig config) {
  core::LinkSimulator sim(config);
  const int k = config.transmitter_config().rs_k;
  std::printf("Transfer: %zu bytes, CSK%d @ %.0f Hz on %s, RS(%d,%d), phi %.2f\n",
              options.message.size(), options.order, options.rate,
              config.profile.name.c_str(), config.transmitter_config().rs_n, k,
              options.phi);

  // Carousel: chunks of (k-2) bytes with [seq][len] headers.
  const int chunk_capacity = k - 2;
  if (chunk_capacity <= 0) {
    std::fprintf(stderr, "RS message too small at this operating point\n");
    return 1;
  }
  std::vector<std::uint8_t> cycle;
  int total_chunks = 0;
  for (std::size_t offset = 0; offset < options.message.size();
       offset += static_cast<std::size_t>(chunk_capacity)) {
    const std::size_t take = std::min(options.message.size() - offset,
                                      static_cast<std::size_t>(chunk_capacity));
    cycle.push_back(static_cast<std::uint8_t>(total_chunks++));
    cycle.push_back(static_cast<std::uint8_t>(take));
    for (std::size_t i = 0; i < take; ++i) {
      cycle.push_back(static_cast<std::uint8_t>(options.message[offset + i]));
    }
    while (cycle.size() % static_cast<std::size_t>(k) != 0) cycle.push_back(0);
  }

  std::map<int, std::vector<std::uint8_t>> chunks;
  double air_time = 0.0;
  int cycles = 0;
  while (static_cast<int>(chunks.size()) < total_chunks && cycles < options.loops) {
    ++cycles;
    const core::LinkRunResult result = sim.run_payload(cycle);
    air_time += result.air_time_s;
    for (const rx::PacketRecord& record : result.report.packets) {
      if (record.kind != protocol::PacketKind::kData || !record.ok) continue;
      if (record.payload.size() < 2) continue;
      const int seq = record.payload[0];
      if (seq < total_chunks) chunks.emplace(seq, record.payload);
    }
    std::printf("  cycle %d: %d/%d chunks (%.2f s on air)\n", cycles,
                static_cast<int>(chunks.size()), total_chunks, air_time);
  }

  std::string received;
  for (int seq = 0; seq < total_chunks; ++seq) {
    const auto it = chunks.find(seq);
    if (it == chunks.end()) {
      received += "?";
      continue;
    }
    const int length = it->second[1];
    for (int i = 0; i < length; ++i) {
      received += static_cast<char>(it->second[static_cast<std::size_t>(i) + 2]);
    }
  }
  std::printf("received: \"%s\"\n", received.c_str());
  const bool complete = received == options.message;
  std::printf("%s after %d cycle(s), %.2f s on air, effective %.0f bps\n",
              complete ? "COMPLETE" : "INCOMPLETE", cycles, air_time,
              air_time > 0 ? 8.0 * static_cast<double>(options.message.size()) / air_time
                           : 0.0);
  return complete ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    print_usage();
    return 2;
  }
  if (options.help) {
    print_usage();
    return 0;
  }
  core::LinkConfig config;
  if (!build_config(options, config)) return 2;
  if (options.ser_symbols > 0) return run_ser_mode(options, config);
  return run_transfer_mode(options, config);
}

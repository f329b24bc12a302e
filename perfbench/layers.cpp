// perfbench_layers: the host cost of each layer of the reuse study,
// timed from outside the library (METRICS.md, "Per-layer metrics").
//
// A layer is priced by the difference between two production entry
// points that differ only in that layer:
//
//   variant     entry point                              adds over
//   build       StudyEngine::shared_workload, fresh      (workload
//               engine                                   construction)
//   bare        run_workload_stream, no consumer         (interpreter)
//   table       analyze{timing=false, trace_stats=false} bare
//   partition   analyze{timing=false}                    table
//   suite       analyze                                  partition
//   fig9/H      fig9_workload_heuristic, heuristic H     bare
//   spec_sim/P  run_workload_stream with four timer-     bare
//               less spec::SpecSimConsumers, predictor P
//   fig10/P     fig10_workload_predictor, predictor P    spec_sim/P
//
// One round runs every selected variant once per workload. Within a
// workload the variants run back to back in a seeded shuffled order, so
// host drift between them cancels in their differences. Rounds repeat
// while the next one fits in --seconds; at least one runs. The output is
// one JSON object on stdout: per variant, the seconds of each round
// summed over the workloads, plus the instructions one pass streams and
// how many of those the perfect engine finds reusable.
//
//   perfbench_layers --profile ci --layers suite,rtm,spec --seconds 20
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/figures.hpp"
#include "core/profile.hpp"
#include "spec/consumer.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace tlr;
using Clock = std::chrono::steady_clock;

struct CliOptions {
  std::string profile = "ci";
  bool suite = false;
  bool rtm = false;
  bool spec = false;
  double seconds = 0.0;
  u64 seed = 1;
  std::optional<u64> workload_seed;
};

using Job = std::function<void(std::string_view, const core::SuiteConfig&)>;

struct Variant {
  std::string name;
  Job run;
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void print_usage(std::ostream& os) {
  os << "usage: perfbench_layers [options]\n"
        "\n"
        "  --profile NAME        scale profile (default ci)\n"
        "  --layers LIST         comma list of suite, rtm, spec; the\n"
        "                        build and bare variants always run\n"
        "  --seconds S           keep adding rounds while they fit in S\n"
        "                        seconds (default 0)\n"
        "  --seed N              seed of the variant order (default 1)\n"
        "  --workload-seed N     workload data seed, as reuse_study\n"
        "                        --seed (default: the profile's)\n";
}

bool parse_layers(const std::string& list, CliOptions& options) {
  std::istringstream in(list);
  std::string layer;
  while (std::getline(in, layer, ',')) {
    if (layer == "suite") {
      options.suite = true;
    } else if (layer == "rtm") {
      options.rtm = true;
    } else if (layer == "spec") {
      options.spec = true;
    } else {
      return false;
    }
  }
  return true;
}

/// The fig10 job without its timers: the four speculative RTMs of
/// fig10_workload_predictor, configured the same way, on one pass.
void run_spec_sims(const core::StudyEngine& engine, std::string_view workload,
                   const core::SuiteConfig& config,
                   const spec::PredictorConfig& predictor) {
  const core::Fig10Options defaults;
  std::vector<std::unique_ptr<spec::SpecSimConsumer>> sims;
  std::vector<core::StreamConsumer*> consumers;
  for (const auto& [label, geometry] : core::fig9_geometries()) {
    spec::RtmSpecConfig spec_config;
    spec_config.sim.geometry = geometry;
    spec_config.sim.heuristic = defaults.heuristic;
    spec_config.sim.fixed_n = defaults.fixed_n;
    spec_config.predictor = predictor;
    sims.push_back(std::make_unique<spec::SpecSimConsumer>(spec_config));
    consumers.push_back(sims.back().get());
  }
  engine.run_workload_stream(workload, config, consumers);
}

std::vector<Variant> make_variants(const core::StudyEngine& engine,
                                   const CliOptions& options) {
  std::vector<Variant> variants;
  variants.push_back({"build", [](std::string_view name,
                                  const core::SuiteConfig& config) {
                        const core::StudyEngine fresh;
                        fresh.shared_workload(name, config.seed);
                      }});
  variants.push_back({"bare", [&engine](std::string_view name,
                                        const core::SuiteConfig& config) {
                        engine.run_workload_stream(name, config, {});
                      }});
  if (options.suite) {
    const auto add_analyze = [&](std::string label,
                                 const core::MetricOptions& metric_options) {
      variants.push_back(
          {std::move(label),
           [&engine, metric_options](std::string_view name,
                                     const core::SuiteConfig& config) {
             engine.analyze(name, config, metric_options);
           }});
    };
    core::MetricOptions metric_options;
    metric_options.timing = false;
    metric_options.trace_stats = false;
    add_analyze("table", metric_options);
    metric_options.trace_stats = true;
    add_analyze("partition", metric_options);
    add_analyze("suite", core::MetricOptions{});
  }
  if (options.rtm) {
    for (const core::Fig9Heuristic& heuristic : core::fig9_heuristics()) {
      variants.push_back(
          {"fig9/" + heuristic.label,
           [&engine, heuristic](std::string_view name,
                                const core::SuiteConfig& config) {
             core::fig9_workload_heuristic(engine, config, name, heuristic);
           }});
    }
  }
  if (options.spec) {
    for (const spec::PredictorConfig& predictor : core::fig10_predictors()) {
      const std::string label(spec::predictor_name(predictor.kind));
      variants.push_back(
          {"spec_sim/" + label,
           [&engine, predictor](std::string_view name,
                                const core::SuiteConfig& config) {
             run_spec_sims(engine, name, config, predictor);
           }});
      variants.push_back(
          {"fig10/" + label,
           [&engine, predictor](std::string_view name,
                                const core::SuiteConfig& config) {
             core::fig10_workload_predictor(engine, config, name, predictor,
                                            core::Fig10Options{});
           }});
    }
  }
  return variants;
}

int run(const CliOptions& options) {
  auto profile = core::ScaleProfile::named(options.profile);
  if (!profile.has_value()) {
    std::cerr << "perfbench_layers: unknown profile '" << options.profile
              << "'\n";
    return 1;
  }
  // Mirrors reuse_study --seed: any override makes the profile custom.
  if (options.workload_seed.has_value()) {
    profile->name = "custom";
    profile->overrides.clear();
    profile->base.seed = *options.workload_seed;
  }

  core::EngineOptions engine_options;
  engine_options.threads = 1;
  const core::StudyEngine engine(engine_options);
  std::vector<Variant> variants = make_variants(engine, options);
  const auto names = workloads::workload_names();

  // Untimed warm-up: builds every workload into the engine's cache and
  // counts the stream and its perfect-engine reusable share.
  core::MetricOptions count_options;
  count_options.timing = false;
  count_options.trace_stats = false;
  u64 instructions = 0;
  double reusable = 0.0;
  for (const std::string_view name : names) {
    const core::WorkloadMetrics metrics =
        engine.analyze(name, profile->config_for(name), count_options);
    instructions += metrics.instructions;
    reusable += metrics.reusability * static_cast<double>(metrics.instructions);
  }

  std::mt19937_64 rng(options.seed);
  std::vector<usize> order(variants.size());
  std::iota(order.begin(), order.end(), usize{0});
  // seconds[v][r]: variant v in round r, summed over the workloads.
  std::vector<std::vector<double>> seconds(variants.size());
  const auto start = Clock::now();
  u64 rounds = 0;
  for (;;) {
    const auto round_start = Clock::now();
    for (std::vector<double>& rounds_of : seconds) rounds_of.push_back(0.0);
    for (const std::string_view name : names) {
      const core::SuiteConfig config = profile->config_for(name);
      std::shuffle(order.begin(), order.end(), rng);
      for (const usize index : order) {
        const auto job_start = Clock::now();
        variants[index].run(name, config);
        seconds[index].back() += seconds_since(job_start);
      }
    }
    ++rounds;
    const double round_time = seconds_since(round_start);
    if (seconds_since(start) + round_time > options.seconds) {
      break;
    }
  }

  std::cout << std::setprecision(17) << "{\"profile\": \"" << profile->name
            << "\", \"workloads\": " << names.size()
            << ", \"rounds\": " << rounds
            << ", \"instructions\": " << instructions
            << ", \"reusable\": " << std::llround(reusable)
            << ", \"variants\": {";
  for (usize v = 0; v < variants.size(); ++v) {
    std::cout << (v == 0 ? "" : ", ") << '"' << variants[v].name << "\": [";
    for (usize r = 0; r < seconds[v].size(); ++r) {
      std::cout << (r == 0 ? "" : ", ") << seconds[v][r];
    }
    std::cout << ']';
  }
  std::cout << "}}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_usage(std::cout);
      return 0;
    }
    if (i + 1 >= argc) {
      print_usage(std::cerr);
      return 1;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--profile") {
      options.profile = value;
    } else if (arg == "--layers") {
      if (!parse_layers(value, options)) {
        std::cerr << "perfbench_layers: bad --layers '" << value << "'\n";
        return 1;
      }
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--workload-seed") {
      options.workload_seed = std::strtoull(value.c_str(), &end, 10);
    } else {
      print_usage(std::cerr);
      return 1;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      std::cerr << "perfbench_layers: bad value for " << arg << "\n";
      return 1;
    }
  }
  return run(options);
}

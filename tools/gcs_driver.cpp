// gcs_driver: the measurement & calibration driver (DESIGN.md
// "Measurement layer"; ROADMAP "multi-host measurement harness").
//
// Every headline number in this repo used to be a *charged* time from
// sim/cost_model.h. This driver runs the identical value path for real,
// traced span by span, and puts measured and charged side by side:
//
//   1. sweeps a list of factory specs (scheme x chunk/bucket/workers)
//      over a real execution backend, tracing every round's phases
//      (encode per worker, per-chunk collective send/recv, reduce,
//      decode) with measure::TraceRecorder;
//   2. probes the substrate's actual link (RTT, bandwidth) and its
//      n-to-1 incast penalty with measure::LinkProber — the measured
//      penalty replaces netsim's assumed constant;
//   3. fits the cost model's alpha-beta + per-scheme coefficients to the
//      measured rounds (measure::Calibrator) and reports, per scenario,
//      measured wall-clock next to the uncalibrated (paper-testbed) and
//      calibrated charges, per phase;
//   4. writes BENCH_measured_vs_charged.json (gated by bench_compare:
//      the charged columns are deterministic; "calibration_improves"
//      asserts the fit beats the uncalibrated model) and
//      TRACE_round_traces.json (the raw spans, uploaded by CI).
//
// Execution backends:
//   --fabric=threaded   (default) one thread per rank, in-process
//   --fabric=socket     the multi-host path on loopback: ranks 1..n-1 are
//                       forked once, every rank meshes over Unix-domain
//                       sockets and runs the sweep SPMD; rank 0 traces
//   --rank=<r> --rendezvous=<addr>
//                       one rank of a multi-host sweep over a shared
//                       TCP/UDS mesh (the gcs_worker pattern): every
//                       host runs the identical command with its own
//                       --rank; rank 0 traces, calibrates and writes the
//                       artefacts.
//
// Exit code: 0 iff the calibrated model's mean absolute error against
// measured round time beats the uncalibrated model's (the acceptance
// claim), 2 on usage errors.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "comm/fabric.h"
#include "comm/group.h"
#include "common/cli.h"
#include "common/rng.h"
#include "core/aggregation_pipeline.h"
#include "core/factory.h"
#include "core/synthetic_grad.h"
#include "measure/calibrator.h"
#include "measure/link_prober.h"
#include "measure/trace.h"
#include "net/launcher.h"
#include "net/socket_fabric.h"
#include "sim/cost_model.h"
#include "telemetry/chrome_trace.h"
#include "tensor/layout.h"

namespace {

using namespace gcs;

struct DriverConfig {
  std::vector<std::string> schemes;
  int world = 4;
  int rounds = 3;  ///< round 0 is warmup (untimed) when rounds > 1
  std::size_t dim = std::size_t{1} << 16;
  std::uint64_t seed = 1234;
  std::string fabric = "threaded";  // threaded | socket
  std::string rendezvous;           // multi-host mode
  int rank = -1;                    // multi-host mode
  std::string out = ".";
};

/// The default sweep: all five schemes, plus chunked and worker-pool
/// variants — enough scenarios (and distinct scheme kinds) for the
/// calibrator's 3 + #kinds parameters, and the grid the committed
/// baseline gates.
std::vector<std::string> default_sweep() {
  return {
      "fp16",
      "fp16:chunk=16384",
      "fp16:workers=2",
      "topk:b=8",
      "topkc:b=8",
      "topkc:b=8:chunk=16384",
      "topkc:b=8:workers=2",
      "thc:q=4:b=4:sat:partial",
      "thc:q=4:b=4:sat:partial:chunk=16384",
      "powersgd:r=4",
  };
}

std::string kind_of(const std::string& spec) {
  return spec.substr(0, spec.find(':'));
}

/// Deterministic per-worker gradients: the one shared recipe every
/// protocol binary regenerates identically in every process.
std::vector<std::vector<float>> make_grads(const DriverConfig& config,
                                           std::uint64_t round) {
  return core::seeded_worker_grads(config.dim, config.world, config.seed,
                                   round);
}

struct ScenarioResult {
  std::string spec;
  measure::ScenarioSample sample;           ///< median timed round
  std::vector<measure::ScenarioSample> all; ///< every timed round (fit set)
  measure::RoundTrace trace;                ///< the median round's spans
  sim::RoundTime charged;                   ///< uncalibrated testbed charge
};

/// Builds the pipeline config for one spec, mirroring gcs_worker's
/// contract: transport selection belongs to the driver, not the spec.
/// aggregate() runs on the threaded fabric; multi-host ranks call
/// aggregate_over, which ignores the backend.
core::PipelineConfig pipeline_config_for(const DriverConfig& config,
                                         const std::string& spec,
                                         const ModelLayout& layout,
                                         measure::TraceRecorder* trace) {
  core::PipelineConfig pc =
      core::parse_pipeline_config(spec, layout, config.world);
  if (pc.backend != core::PipelineBackend::kLocalReference) {
    throw Error(
        "gcs_driver: drop fabric=/fabric from --schemes — the execution "
        "backend is chosen by --fabric/--rank");
  }
  pc.backend = core::PipelineBackend::kThreadedFabric;
  pc.trace = trace;
  return pc;
}

/// Runs one spec for `rounds` rounds and returns its samples (median + all
/// timed rounds): on the threaded fabric, or as one rank of a multi-host
/// mesh when `multihost_comm` is set.
ScenarioResult run_scenario(const DriverConfig& config,
                            const std::string& spec,
                            const ModelLayout& layout,
                            comm::Communicator* multihost_comm) {
  measure::TraceRecorder recorder;
  const bool trace_here = multihost_comm == nullptr ||
                          multihost_comm->rank() == 0;
  core::PipelineConfig pc = pipeline_config_for(
      config, spec, layout, trace_here ? &recorder : nullptr);
  core::AggregationPipeline pipeline(
      core::make_scheme_codec(spec, layout, config.world), pc);

  ScenarioResult result;
  result.spec = spec;
  std::vector<measure::RoundTrace> timed;
  std::vector<float> out(config.dim);
  for (int r = 0; r < config.rounds; ++r) {
    const auto grads = make_grads(config, static_cast<std::uint64_t>(r));
    std::vector<std::span<const float>> views;
    views.reserve(grads.size());
    for (const auto& g : grads) views.emplace_back(g.data(), g.size());
    const std::span<const std::span<const float>> grad_span(views);
    if (multihost_comm != nullptr) {
      pipeline.aggregate_over(*multihost_comm, grad_span, out,
                              static_cast<std::uint64_t>(r));
    } else {
      pipeline.aggregate(grad_span, out, static_cast<std::uint64_t>(r));
    }
    measure::RoundTrace trace = recorder.take(
        static_cast<std::uint64_t>(r), spec,
        multihost_comm != nullptr ? "multihost" : config.fabric);
    const bool warmup = config.rounds > 1 && r == 0;
    if (!warmup) timed.push_back(std::move(trace));
  }

  const std::string kind = kind_of(spec);
  for (const auto& t : timed) {
    result.all.push_back(measure::sample_from_trace(
        t, kind, config.dim, t.phase_count(measure::Phase::kStage)));
    result.all.back().label = spec;
  }
  // Median timed round (by wall clock) represents the scenario in the
  // report and the fit set stays per-round for degrees of freedom.
  std::vector<std::size_t> order(timed.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return timed[a].round_s() < timed[b].round_s();
  });
  const std::size_t mid = order.empty() ? 0 : order[order.size() / 2];
  if (!timed.empty()) {
    result.sample = result.all[mid];
    result.trace = std::move(timed[mid]);
  }

  // The uncalibrated charge: the paper-testbed model over the identical
  // spec, with zero training compute (the driver rounds run none).
  sim::WorkloadSpec workload;
  workload.name = "driver";
  workload.layout = layout;
  workload.fp32_compute_seconds = 0.0;
  const sim::CostModel cost(sim::CostConstants{}, netsim::NetworkModel{},
                            config.world);
  result.charged = cost.round_for_spec(workload, spec);
  return result;
}

struct ProbeResults {
  measure::LinkEstimate link;
  measure::IncastEstimate incast;
};

/// Probes over the threaded in-process fabric (SPMD across rank threads).
ProbeResults probe_threaded(int world) {
  ProbeResults probes;
  comm::Fabric fabric(world);
  comm::run_workers(fabric, [&](comm::Communicator& comm) {
    const auto link = measure::probe_link(comm, 0, 1 % world);
    const auto incast = measure::probe_incast(comm, 0);
    if (comm.rank() == 0) {
      probes.link = link;
      probes.incast = incast;
    }
  });
  return probes;
}

/// The full sweep + probes + calibration + artefacts on one process (or,
/// in multi-host mode, on every rank SPMD with rank 0 reporting).
/// Returns the process exit code.
int run_driver(const DriverConfig& config,
               comm::Communicator* multihost_comm) {
  const ModelLayout layout = make_transformer_like_layout(config.dim);
  const bool reporter = multihost_comm == nullptr ||
                        multihost_comm->rank() == 0;

  // ---- probes first: the link the sweep is about to use.
  ProbeResults probes;
  if (multihost_comm != nullptr) {
    probes.link = measure::probe_link(*multihost_comm, 0,
                                      1 % config.world);
    probes.incast = measure::probe_incast(*multihost_comm, 0);
  } else {
    probes = probe_threaded(config.world);
  }
  const netsim::NetworkModel measured_net =
      measure::probed_network_model(probes.link, probes.incast);

  // ---- the sweep.
  std::vector<ScenarioResult> results;
  for (const auto& spec : config.schemes) {
    if (reporter) {
      std::cout << "  running " << spec << " (" << config.rounds
                << " rounds, d=" << config.dim << ", n=" << config.world
                << ") ..." << std::flush;
    }
    results.push_back(
        run_scenario(config, spec, layout, multihost_comm));
    if (reporter) {
      std::cout << " measured "
                << format_sig(results.back().sample.measured_round_s * 1e3,
                              3)
                << " ms vs charged "
                << format_sig(results.back().charged.total() * 1e3, 3)
                << " ms\n";
    }
  }
  if (!reporter) return 0;  // non-zero multi-host ranks only participate

  // ---- calibration. The reported parameters come from the all-sample
  // fit; the headline MAE is out-of-sample where the sweep allows it:
  // each scenario's median round is predicted by a model fitted on every
  // *other* scenario's samples (leave-one-scenario-out), so an overfit
  // calibrator cannot hide behind its own training data. Sweeps too thin
  // for LOO fall back to in-sample scoring, flagged in the artefact.
  measure::Calibrator calibrator;
  for (const auto& r : results) {
    for (const auto& s : r.all) calibrator.add(s);
  }
  const measure::CalibratedCostModel fitted = calibrator.fit();
  std::vector<double> cal_pred(results.size(), 0.0);
  bool loo = true;
  for (std::size_t i = 0; i < results.size() && loo; ++i) {
    measure::Calibrator held_out;
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (j == i) continue;
      for (const auto& s : results[j].all) held_out.add(s);
    }
    try {
      cal_pred[i] =
          held_out.fit().charged_round_s(results[i].sample);
    } catch (const Error&) {
      loo = false;  // underdetermined without this scenario
    }
  }
  if (!loo) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      cal_pred[i] = fitted.charged_round_s(results[i].sample);
    }
  }
  double mae_uncal = 0.0, mae_cal = 0.0, mean_measured = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double measured = results[i].sample.measured_round_s;
    mae_uncal += std::abs(results[i].charged.total() - measured);
    mae_cal += std::abs(cal_pred[i] - measured);
    mean_measured += measured;
  }
  mae_uncal /= static_cast<double>(results.size());
  mae_cal /= static_cast<double>(results.size());
  mean_measured /= static_cast<double>(results.size());
  // Reference floor: the best feature-blind predictor. Reported so the
  // artefact shows how much of the fit is structure, not just scale.
  double mae_constant = 0.0;
  for (const auto& r : results) {
    mae_constant += std::abs(mean_measured - r.sample.measured_round_s);
  }
  mae_constant /= static_cast<double>(results.size());
  const bool improves = mae_cal < mae_uncal;

  // ---- report. Charged columns are deterministic (gated); measured
  // columns use gate-neutral *_us names (machine-dependent, reported but
  // untracked by bench_compare's direction classifier). The calibrated
  // column is the held-out prediction from the loop above.
  bench::BenchJson json("measured_vs_charged");
  json.set("meta", "description",
           "per-phase measured wall-clock vs cost-model charge");
  json.set("meta", "backend",
           multihost_comm != nullptr ? "multihost" : config.fabric);
  json.set("meta", "world", static_cast<double>(config.world));
  json.set("meta", "dim", static_cast<double>(config.dim));
  AsciiTable table({"spec", "measured ms", "charged ms", "calibrated ms",
                    "encode us", "wire us", "decode us", "msgs"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& s = r.sample;
    const double calibrated_s = cal_pred[i];
    json.set(r.spec, "charged_round_ms", r.charged.total() * 1e3);
    json.set(r.spec, "charged_compress_ms", r.charged.compress_s * 1e3);
    json.set(r.spec, "charged_comm_ms", r.charged.comm_s * 1e3);
    json.set(r.spec, "charged_fixed_ms", r.charged.fixed_s * 1e3);
    json.set(r.spec, "plan_messages", s.messages);
    json.set(r.spec, "plan_wire_bytes", s.wire_bytes);
    json.set(r.spec, "measured_round_us", s.measured_round_s * 1e6);
    json.set(r.spec, "measured_encode_us", s.measured_encode_s * 1e6);
    json.set(r.spec, "measured_comm_us", s.measured_comm_s * 1e6);
    json.set(r.spec, "measured_decode_us", s.measured_decode_s * 1e6);
    json.set(r.spec, "calibrated_round_us", calibrated_s * 1e6);
    json.set(r.spec, "uncal_abs_err_us",
             std::abs(r.charged.total() - s.measured_round_s) * 1e6);
    json.set(r.spec, "cal_abs_err_us",
             std::abs(calibrated_s - s.measured_round_s) * 1e6);
    table.add_row({r.spec, format_sig(s.measured_round_s * 1e3, 3),
                   format_sig(r.charged.total() * 1e3, 3),
                   format_sig(calibrated_s * 1e3, 3),
                   format_sig(s.measured_encode_s * 1e6, 3),
                   format_sig(s.measured_comm_s * 1e6, 3),
                   format_sig(s.measured_decode_s * 1e6, 3),
                   format_sig(s.messages, 3)});
  }
  json.set("probe", "link_rtt_us", probes.link.rtt_s * 1e6);
  json.set("probe", "link_bandwidth_gbytes",
           probes.link.bandwidth_bytes_per_sec / 1e9);
  json.set("probe", "incast_penalty", probes.incast.penalty);
  json.set("probe", "incast_senders",
           static_cast<double>(probes.incast.senders));
  // The measured penalty, consumed: PS charge under the probed model.
  {
    const double payload =
        static_cast<double>(config.dim) * 2.0;  // an FP16 payload
    json.set("probe", "ps_charge_measured_incast_us",
             measured_net.ps_aggregate_time(config.world, payload) * 1e6);
  }
  json.set("calibration", "scenarios",
           static_cast<double>(results.size()));
  json.set("calibration", "fit_samples",
           static_cast<double>(calibrator.size()));
  json.set("calibration", "calibration_improves", improves ? 1.0 : 0.0);
  json.set("calibration", "eval",
           loo ? std::string("leave_one_scenario_out")
               : std::string("in_sample"));
  json.set("calibration", "mae_uncalibrated_us", mae_uncal * 1e6);
  json.set("calibration", "mae_calibrated_us", mae_cal * 1e6);
  json.set("calibration", "mae_constant_us", mae_constant * 1e6);
  json.set("calibration", "alpha_us", fitted.alpha_s() * 1e6);
  json.set("calibration", "beta_us_per_mb",
           fitted.beta_s_per_byte() * 1e12);
  json.set("calibration", "fixed_us", fitted.fixed_s() * 1e6);
  for (const auto& kind : fitted.scheme_kinds()) {
    json.set("calibration", "gamma_ps_per_coord_" + kind,
             fitted.compute_per_coord(kind) * 1e12);
  }

  std::cout << '\n' << table.to_string() << '\n';
  std::cout << "link: rtt "
            << format_sig(probes.link.rtt_s * 1e6, 3) << " us, bandwidth "
            << format_sig(probes.link.bandwidth_bytes_per_sec / 1e9, 3)
            << " GB/s; incast penalty (" << probes.incast.senders
            << " senders): " << format_sig(probes.incast.penalty, 3)
            << " (measured, replaces netsim's assumed "
            << format_sig(netsim::incast_penalty(probes.incast.senders), 3)
            << ")\n";
  std::cout << "calibration ("
            << (loo ? "leave-one-scenario-out" : "in-sample")
            << "): MAE " << format_sig(mae_uncal * 1e6, 3)
            << " us (uncalibrated) -> " << format_sig(mae_cal * 1e6, 3)
            << " us (constant floor "
            << format_sig(mae_constant * 1e6, 3) << " us; fitted: alpha "
            << format_sig(fitted.alpha_s() * 1e6, 3) << " us/msg, beta "
            << format_sig(fitted.beta_s_per_byte() * 1e9, 3)
            << " ns/byte)\n";
  json.write(config.out);

  // The raw spans, one trace per scenario's median round (CI uploads
  // this next to the bench artefact).
  std::vector<measure::RoundTrace> traces;
  for (auto& r : results) traces.push_back(std::move(r.trace));
  const std::string trace_path = config.out + "/TRACE_round_traces.json";
  std::ofstream trace_out(trace_path);
  if (trace_out) {
    trace_out << measure::traces_to_json(traces);
    std::cout << "(traces written to " << trace_path << ")\n";
  } else {
    std::cerr << "warning: cannot write " << trace_path << '\n';
  }
  // The same spans on a chrome://tracing / Perfetto timeline.
  const std::string chrome_path =
      config.out + "/TRACE_round_traces.chrome.json";
  std::ofstream chrome_out(chrome_path);
  if (chrome_out) {
    chrome_out << telemetry::chrome_trace_json(traces);
    std::cout << "(chrome trace written to " << chrome_path << ")\n";
  } else {
    std::cerr << "warning: cannot write " << chrome_path << '\n';
  }

  if (!improves) {
    std::cerr << "gcs_driver: calibrated model did NOT beat the "
                 "uncalibrated charge — measurement noise or a fit bug\n";
    return 1;
  }
  return 0;
}

int run_multihost(const DriverConfig& config) {
  net::SocketFabricConfig fc;
  fc.rendezvous = config.rendezvous;
  fc.world_size = config.world;
  fc.rank = config.rank;
  net::SocketFabric fabric(fc);
  comm::Communicator comm(fabric, config.rank);
  return run_driver(config, &comm);
}

/// --fabric=socket: the multi-host path on one machine. Forks ranks
/// 1..n-1 once over a fresh Unix-domain rendezvous; this process is rank
/// 0 (traces, calibrates, writes the artefacts and owns the exit code).
int run_loopback_mesh(DriverConfig config) {
  config.rendezvous = net::unique_unix_rendezvous();
  net::ForkedWorkers peers(1, config.world, [&config](int rank) {
    DriverConfig peer = config;
    peer.rank = rank;
    (void)run_multihost(peer);  // non-reporting ranks always return 0
    return ByteBuffer{};
  });
  config.rank = 0;
  const int code = run_multihost(config);
  (void)peers.join();  // throws naming a rank that failed
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    if (flags.help_requested()) {
      std::cout
          << "gcs_driver — measured-vs-charged sweep + calibration\n"
             "  --schemes=<s1,s2,..>  factory specs to sweep (default: a\n"
             "                        10-scenario grid over all 5 schemes)\n"
             "  --fabric=<threaded|socket>\n"
             "                        execution backend (default threaded;\n"
             "                        socket forks one process per rank\n"
             "                        once and runs the multi-host path\n"
             "                        over Unix sockets)\n"
             "  --rank=<r> --rendezvous=<addr>\n"
             "                        multi-host mode: one rank per host\n"
             "                        over a shared TCP/UDS mesh; all\n"
             "                        hosts pass identical other flags\n"
             "  --world=<n>           world size (default 4)\n"
             "  --rounds=<k>          rounds per scenario; round 0 is\n"
             "                        warmup (default 3)\n"
             "  --dim=<d>             gradient dimension (default 65536)\n"
             "  --seed=<s>            gradient seed (default 1234)\n"
             "  --out=<dir>           artefact directory (default .)\n";
      return 0;
    }
    DriverConfig config;
    const std::string schemes = flags.get_string("schemes", "");
    config.schemes = schemes.empty() ? default_sweep() : split_csv(schemes);
    config.world = static_cast<int>(flags.get_int("world", config.world));
    config.rounds =
        static_cast<int>(flags.get_int("rounds", config.rounds));
    config.dim = static_cast<std::size_t>(
        flags.get_int("dim", static_cast<std::int64_t>(config.dim)));
    config.seed = static_cast<std::uint64_t>(
        flags.get_int("seed", static_cast<std::int64_t>(config.seed)));
    config.fabric = flags.get_string("fabric", config.fabric);
    config.rendezvous = flags.get_string("rendezvous", "");
    config.rank = static_cast<int>(flags.get_int("rank", -1));
    config.out = flags.get_string("out", config.out);
    flags.reject_unknown();
    if (config.world < 2) {
      std::cerr << "gcs_driver: --world must be >= 2\n";
      return 2;
    }
    if (config.rounds < 1) {
      std::cerr << "gcs_driver: --rounds must be >= 1\n";
      return 2;
    }
    if (config.fabric != "threaded" && config.fabric != "socket") {
      std::cerr << "gcs_driver: --fabric expects threaded or socket\n";
      return 2;
    }
    if (config.rank >= 0 && config.rendezvous.empty()) {
      std::cerr << "gcs_driver: --rank mode needs --rendezvous=<addr>\n";
      return 2;
    }
    if (config.rank >= 0) return run_multihost(config);
    if (config.fabric == "socket") return run_loopback_mesh(config);
    return run_driver(config, nullptr);
  } catch (const std::exception& e) {
    std::cerr << "gcs_driver: " << e.what() << '\n';
    return 1;
  }
}

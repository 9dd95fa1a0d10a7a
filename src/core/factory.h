// String-spec compressor factory for examples and benchmark harnesses.
//
// Grammar (colon-separated, key=value options):
//   "fp32"                      Baseline FP32
//   "fp16"                      Baseline FP16
//   "topk:b=8"                  TopK at 8 bits/coordinate (K = d*b/48)
//   "topk:k=1000"               TopK with explicit K
//   "topkc:b=2"                 TopKC at 2 bits/coordinate (paper's C rule)
//   "topkc:b=2:c=64:perm"       explicit chunk size; permutation ablation
//   "thc:q=4:b=4:sat:partial"   THC, saturating, partial rotation
//   "thc:q=4:b=8:full"          THC baseline (wide bits, full rotation)
//   "powersgd:r=4"              PowerSGD rank 4
// Common options: "noef" disables error feedback where it defaults on;
// "chunk=<bytes>" splits every stage payload into chunks of at most that
// many bytes for the pipelined collectives (bit-identical values; affects
// the wire schedule and the charged round time).
//
// Scheduler knobs (see DESIGN.md section 4):
//   "buckets=layer"          layer-aligned DDP-style buckets (reverse
//                            backprop order) instead of size-based chunks
//   "buckets=size"           the default size-based chunking, explicitly
//   "bucket=<bytes>"         layer-bucket cap (default 25 MB); only with
//                            buckets=layer
//   "workers=<N>"            encode worker pool width (default 1)
//   "backward_frac=<f>"      backward share of fwd+bwd compute used by
//                            the backward-overlap charge; strictly inside
//                            (0, 1), default 2/3 (the classic rule of
//                            thumb — override with a measured profile)
//   "autotune" / "autotune=1"
//                            pick chunk/bucket bytes by sweeping the cost
//                            model; rejects an explicit chunk=/bucket=
//
// Backend of the in-process aggregate() path (see DESIGN.md section 5):
//   "fabric"                 shorthand for fabric=threaded
//   "fabric=local"           local reference aggregators (the default)
//   "fabric=threaded"        one thread per rank over comm::Fabric
// A spec never selects a network transport: process-per-rank runs own a
// net::SocketFabric endpoint per process and call
// AggregationPipeline::aggregate_over (gcs_worker, gcs_driver), so the
// rendezvous, peer timeout and elastic membership are flags of those
// binaries, not spec keys.
//
// Throws gcs::Error on malformed specs — a typo must not silently run a
// different experiment.
#pragma once

#include <cstddef>
#include <string>

#include "core/aggregation_pipeline.h"
#include "core/codec.h"
#include "core/compressor.h"
#include "tensor/layout.h"

namespace gcs::core {

/// Builds a compressor from a spec string. `layout` provides the layer
/// structure (required by PowerSGD; others use only its total size).
CompressorPtr make_compressor(const std::string& spec,
                              const ModelLayout& layout, int world_size);

/// Builds just the scheme codec for a spec (shared pipeline/transport
/// knobs are accepted and ignored). For callers that drive the codec
/// through their own AggregationPipeline — e.g. the gcs_worker binary,
/// where every process owns one transport endpoint.
SchemeCodecPtr make_scheme_codec(const std::string& spec,
                                 const ModelLayout& layout, int world_size);

/// Parses the shared pipeline/scheduler knobs of a spec (chunk=, fabric,
/// fabric=, buckets=, bucket=, workers=, autotune) without building the
/// codec. Validates the values with the same rejection rules as
/// make_compressor. The layout-free overload
/// accepts buckets=layer/autotune but leaves PipelineConfig::layout empty
/// (and the autotuned sizes unresolved) — the caller attaches a layout,
/// or uses the overload below.
PipelineConfig parse_pipeline_config(const std::string& spec);
PipelineConfig parse_pipeline_config(const std::string& spec,
                                     const ModelLayout& layout,
                                     int world_size);

/// True when the spec explicitly carries any scheduler knob (buckets=,
/// bucket=, workers=, autotune). For callers that append default
/// scheduler knobs to user specs (the ddp examples): parse_spec is
/// last-wins for options, so appending over an explicit choice would
/// silently override it.
bool has_scheduler_knobs(const std::string& spec);

}  // namespace gcs::core

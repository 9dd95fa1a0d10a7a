// Tests for core/factory: the spec grammar and error handling.
#include "core/factory.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gcs::core {
namespace {

ModelLayout layout() { return make_transformer_like_layout(1 << 14); }

TEST(Factory, Baselines) {
  const auto l = layout();
  EXPECT_EQ(make_compressor("fp16", l, 4)->name(), "Baseline FP16");
  EXPECT_EQ(make_compressor("fp32", l, 4)->name(), "Baseline FP32");
}

TEST(Factory, TopKByBits) {
  const auto l = layout();
  auto c = make_compressor("topk:b=8", l, 4);
  EXPECT_EQ(c->name(), "TopK");
  EXPECT_EQ(c->path(), AggregationPath::kAllGather);
}

TEST(Factory, TopKByK) {
  const auto l = layout();
  EXPECT_NO_THROW(make_compressor("topk:k=100", l, 2));
}

TEST(Factory, TopKC) {
  const auto l = layout();
  auto c = make_compressor("topkc:b=2", l, 4);
  EXPECT_EQ(c->name(), "TopKC");
  EXPECT_EQ(c->path(), AggregationPath::kAllReduce);
  auto p = make_compressor("topkc:b=2:perm", l, 4);
  EXPECT_EQ(p->name(), "TopKC Permutation");
}

TEST(Factory, ThcVariants) {
  const auto l = layout();
  auto sat = make_compressor("thc:q=4:b=4:sat:partial", l, 4);
  EXPECT_NE(sat->name().find("Sat"), std::string::npos);
  auto wide = make_compressor("thc:q=4:b=8:full", l, 4);
  EXPECT_NE(wide->name().find("BL"), std::string::npos);
  EXPECT_NE(wide->name().find("full"), std::string::npos);
  auto norot = make_compressor("thc:q=2:b=2:norot", l, 4);
  EXPECT_NE(norot->name().find("no-rotation"), std::string::npos);
}

TEST(Factory, PowerSgd) {
  const auto l = layout();
  auto c = make_compressor("powersgd:r=16", l, 4);
  EXPECT_EQ(c->name(), "PowerSGD-16");
}

TEST(Factory, WorldSizePropagates) {
  const auto l = layout();
  EXPECT_EQ(make_compressor("fp16", l, 7)->world_size(), 7);
}

TEST(Factory, UnknownKindThrows) {
  const auto l = layout();
  EXPECT_THROW(make_compressor("zipzap", l, 4), Error);
}

TEST(Factory, EmptySpecThrows) {
  const auto l = layout();
  EXPECT_THROW(make_compressor("", l, 4), Error);
}

TEST(Factory, UnknownOptionOrFlagThrows) {
  // The contract: a typo must not silently run a different experiment —
  // including the shared pipeline knobs (chunk=, fabric).
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  EXPECT_THROW(make_compressor("topkc:b=8:chunck=65536", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:fabrik", l, 4), Error);
  EXPECT_THROW(make_compressor("powersgd:rank=4", l, 4), Error);
  EXPECT_THROW(make_compressor("thc:q=4:b=4:saturate", l, 4), Error);
  // The real knobs still parse.
  EXPECT_NO_THROW(make_compressor("topkc:b=8:chunk=65536:fabric", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:tree:chunk=64", l, 4));
}

TEST(Factory, RetiredIoKnobIsAnUnknownKey) {
  // The socket backend has one I/O engine; the old engine selector must
  // fail loudly instead of being silently ignored.
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  for (const char* spec :
       {"fp16:io=threads", "fp16:io=reactor"}) {
    for (const bool codec_only : {false, true}) {
      try {
        if (codec_only) {
          (void)make_scheme_codec(spec, l, 4);
        } else {
          (void)make_compressor(spec, l, 4);
        }
        ADD_FAILURE() << spec << " was accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("unknown option 'io'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Factory, FabricOptionSelectsBackend) {
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  EXPECT_NO_THROW(make_compressor("fp16:fabric=local", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:fabric=threaded", l, 4));
  // parse_pipeline_config exposes the same parse for SPMD drivers.
  EXPECT_EQ(parse_pipeline_config("fp16:fabric=threaded").backend,
            PipelineBackend::kThreadedFabric);
  EXPECT_EQ(parse_pipeline_config("fp16:fabric").backend,
            PipelineBackend::kThreadedFabric);
  // An explicit fabric=<value> beats the bare flag.
  EXPECT_EQ(parse_pipeline_config("fp16:fabric:fabric=local").backend,
            PipelineBackend::kLocalReference);
  // The fork-per-round socket backend is gone: a spec never selects a
  // network transport, and none of its keys survive.
  for (const char* spec :
       {"fp16:fabric=socket", "fp16:port=29500", "fp16:iface=127.0.0.1",
        "fp16:elastic=on", "fp16:peer_timeout_ms=500"}) {
    EXPECT_THROW(make_compressor(spec, l, 4), Error) << spec;
  }
}

TEST(Factory, ElasticKnobsParseAndReject) {
  // Elastic membership is a property of the caller's transport
  // (PipelineConfig::elastic, set by gcs_worker --elastic), not of a
  // spec: elastic= and peer_timeout_ms= are unknown keys on every entry
  // point, with any value and any fabric.
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  for (const char* spec :
       {"fp16:elastic=on", "fp16:elastic=off", "fp16:elastic=yes",
        "fp16:fabric=threaded:elastic=on", "fp16:peer_timeout_ms=500",
        "fp16:peer_timeout_ms=abc",
        "fp16:fabric=threaded:peer_timeout_ms=500"}) {
    for (const bool codec_only : {false, true}) {
      try {
        if (codec_only) {
          (void)make_scheme_codec(spec, l, 4);
        } else {
          (void)make_compressor(spec, l, 4);
        }
        ADD_FAILURE() << spec << " was accepted";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("unknown option"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_FALSE(parse_pipeline_config("fp16").elastic);
}

TEST(Factory, SchemeCodecEntryValidatesPipelineKnobs) {
  // make_scheme_codec ignores the shared knobs (the caller drives its
  // own pipeline) but must still reject malformed ones — same no-silent-
  // typo contract as make_compressor.
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  EXPECT_NO_THROW(make_scheme_codec("topkc:b=8:chunk=4096", l, 4));
  EXPECT_THROW(make_scheme_codec("topkc:b=8:fabric=bogus", l, 4), Error);
  EXPECT_THROW(make_scheme_codec("topkc:b=8:chunk=abc", l, 4), Error);
  EXPECT_THROW(make_scheme_codec("fp16:port=29500", l, 4), Error);
}

TEST(Factory, MalformedFabricValuesThrow) {
  // Same contract as the misspelled-option tests: a malformed transport
  // choice must not silently run a different experiment.
  const ModelLayout l({LayerSpec{"x", 100, 1}});
  EXPECT_THROW(make_compressor("fp16:fabric=sockets", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:fabric=bogus", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:fabric=", l, 4), Error);
  // fabric=socket and the knobs that only fed it are retired: every form
  // throws, including the ones that used to be valid.
  for (const char* spec :
       {"fp16:fabric=socket", "fp16:fabric=socket:port=29500",
        "fp16:fabric=socket:port=29500:iface=127.0.0.1",
        "fp16:fabric=socket:elastic=on",
        "fp16:fabric=socket:peer_timeout_ms=1500", "fp16:port=29500",
        "fp16:fabric=threaded:port=29500", "fp16:iface=127.0.0.1"}) {
    EXPECT_THROW(make_compressor(spec, l, 4), Error) << spec;
    EXPECT_THROW(make_scheme_codec(spec, l, 4), Error) << spec;
  }
  try {
    (void)parse_pipeline_config("fp16:fabric=socket");
    ADD_FAILURE() << "fabric=socket was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("local or threaded"),
              std::string::npos)
        << e.what();
  }
}

TEST(Factory, MalformedNumberThrows) {
  const auto l = layout();
  EXPECT_THROW(make_compressor("topkc:b=abc", l, 4), Error);
}

TEST(Factory, TopKWithoutSizeThrows) {
  const auto l = layout();
  EXPECT_THROW(make_compressor("topk", l, 4), Error);
}

TEST(Factory, SchedulerGrammarAccepts) {
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_NO_THROW(make_compressor("fp16:buckets=layer", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:buckets=size:chunk=64", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:buckets=layer:bucket=128", l, 4));
  EXPECT_NO_THROW(make_compressor("topkc:b=8:buckets=layer:workers=2", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:workers=3", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:autotune", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:autotune=1", l, 4));
  EXPECT_NO_THROW(make_compressor("fp16:autotune=0:chunk=64", l, 4));
  EXPECT_NO_THROW(
      make_compressor("fp16:buckets=layer:workers=2:autotune", l, 4));
  // The parsed knobs land in the pipeline config.
  const auto config = parse_pipeline_config(
      "fp16:buckets=layer:bucket=256:workers=2", l, 4);
  EXPECT_EQ(config.bucket_mode, sched::BucketMode::kLayerBuckets);
  EXPECT_EQ(config.bucket_bytes, 256u);
  EXPECT_EQ(config.encode_workers, 2);
  EXPECT_EQ(config.layout.total_size(), l.total_size());
}

TEST(Factory, SchedulerGrammarRejects) {
  // The no-silent-typo contract extends to the scheduler knobs: a bogus
  // bucket mode, a zero-width pool or contradictory autotuning must not
  // silently run a different schedule.
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_THROW(make_compressor("fp16:workers=0", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:workers=-2", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:workers=1.5", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:workers=abc", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:buckets=bogus", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:buckets=", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:buckets=Layer", l, 4), Error);
  // autotune picks the sizes itself; explicit sizes contradict it.
  EXPECT_THROW(make_compressor("fp16:autotune:chunk=65536", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:autotune=1:chunk=65536", l, 4), Error);
  EXPECT_THROW(
      make_compressor("fp16:buckets=layer:autotune:bucket=1024", l, 4),
      Error);
  EXPECT_THROW(make_compressor("fp16:autotune=2", l, 4), Error);
  // bucket= is a layer-bucket knob.
  EXPECT_THROW(make_compressor("fp16:bucket=1024", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:buckets=size:bucket=1024", l, 4),
               Error);
  EXPECT_THROW(make_compressor("fp16:buckets=layer:bucket=0", l, 4), Error);
  // Misspellings stay fatal.
  EXPECT_THROW(make_compressor("fp16:bucketz=layer", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:worker=2", l, 4), Error);
}

TEST(Factory, BackwardFracAcceptsInRangeFractions) {
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_NO_THROW(make_compressor("fp16:backward_frac=0.5", l, 4));
  EXPECT_NO_THROW(
      make_compressor("fp16:buckets=layer:backward_frac=0.8", l, 4));
  // Both factory entry points validate the knob (it is consumed by the
  // cost model's re-parse of the same spec, tested in test_sched.cpp).
  EXPECT_NO_THROW(parse_pipeline_config("fp16:backward_frac=0.71", l, 4));
}

TEST(Factory, BackwardFracRejectsOutOfRange) {
  // The fraction is a share of compute: 0 and 1 are degenerate (no
  // backward pass / no forward pass) and anything outside is a typo.
  const ModelLayout l({LayerSpec{"a", 100, 1}, LayerSpec{"b", 60, 1}});
  EXPECT_THROW(make_compressor("fp16:backward_frac=0", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:backward_frac=1", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:backward_frac=1.5", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:backward_frac=-0.3", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:backward_frac=abc", l, 4), Error);
  EXPECT_THROW(make_compressor("fp16:backward_frac=", l, 4), Error);
  // The misspelled knob stays fatal, as everywhere in the grammar.
  EXPECT_THROW(make_compressor("fp16:backwards_frac=0.5", l, 4), Error);
}

TEST(Factory, NoEfFlag) {
  // Spec parsing must accept the noef flag everywhere it is documented.
  const auto l = layout();
  EXPECT_NO_THROW(make_compressor("topk:b=2:noef", l, 4));
  EXPECT_NO_THROW(make_compressor("topkc:b=2:noef", l, 4));
  EXPECT_NO_THROW(make_compressor("powersgd:r=4:noef", l, 4));
}

}  // namespace
}  // namespace gcs::core

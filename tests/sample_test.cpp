// Tests for sampled mini-batch serving (graph/sample.hpp,
// serve/feature_cache.hpp): the fanout grammar, determinism of k-hop
// frontier sampling, the bitwise-exactness contract of full-fanout samples
// and mixed-batch fusion, and the pre-sampling feature cache's accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/engine.hpp"
#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "graph/sample.hpp"
#include "serve/feature_cache.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gnnerator::graph {
namespace {

TEST(FanoutSpec, ParsesCommaSlashAndRepeatSpellings) {
  EXPECT_EQ(parse_fanout("10,5").per_hop, (std::vector<std::uint32_t>{10, 5}));
  // The slash spelling survives inside a comma-delimited CSV cell.
  EXPECT_EQ(parse_fanout("10/5").per_hop, (std::vector<std::uint32_t>{10, 5}));
  // <hops>x<fanout> repeats one fanout over several hops.
  EXPECT_EQ(parse_fanout("2x10").per_hop, (std::vector<std::uint32_t>{10, 10}));
  EXPECT_EQ(parse_fanout("2x10").canonical(), "10,10");
  EXPECT_EQ(parse_fanout(" 10 , 5 ").canonical(), "10,5");
  // 0 = keep every neighbor at that hop.
  EXPECT_EQ(parse_fanout("0,0").per_hop, (std::vector<std::uint32_t>{0, 0}));
  // Equivalent spellings coalesce through canonical().
  EXPECT_EQ(parse_fanout("2x10").canonical(), parse_fanout("10/10").canonical());
}

TEST(FanoutSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fanout(""), util::CheckError);
  EXPECT_THROW((void)parse_fanout("x5"), util::CheckError);
  EXPECT_THROW((void)parse_fanout("10.5"), util::CheckError);
  EXPECT_THROW((void)parse_fanout("10,-3"), util::CheckError);
}

TEST(SampleFrontier, DeterministicInPrngStateAndWellFormed) {
  const Dataset ds = make_dataset_by_name("cora", 1, /*with_features=*/false);
  const FanoutSpec fanout = parse_fanout("4,3");

  util::Prng a(7);
  util::Prng b(7);
  const SampledSubgraph first = sample_frontier(ds.graph, {42}, fanout, a);
  const SampledSubgraph replay = sample_frontier(ds.graph, {42}, fanout, b);
  EXPECT_EQ(first.fingerprint_value, replay.fingerprint_value);
  EXPECT_EQ(first.fingerprint, replay.fingerprint);
  EXPECT_EQ(first.vertices, replay.vertices);
  EXPECT_EQ(first.seeds, replay.seeds);

  // The vertex-id mapping is monotone (ascending parent ids) — the property
  // that keeps in-neighbor summation order identical to the parent's.
  EXPECT_TRUE(std::is_sorted(first.vertices.begin(), first.vertices.end()));
  EXPECT_EQ(std::set<NodeId>(first.vertices.begin(), first.vertices.end()).size(),
            first.vertices.size());
  ASSERT_EQ(first.seeds.size(), 1u);
  EXPECT_EQ(first.vertices[first.seeds[0]], 42u);
  EXPECT_EQ(first.base_in_degree.size(), first.vertices.size());
  for (std::size_t v = 0; v < first.vertices.size(); ++v) {
    EXPECT_EQ(first.base_in_degree[v],
              static_cast<std::uint32_t>(ds.graph.coeff_in_degree(first.vertices[v])));
  }

  // A different PRNG stream truncates differently. Sample from the
  // highest-in-degree vertex with fanout 1 so truncation is guaranteed.
  NodeId hub = 0;
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.in_degree(v) > ds.graph.in_degree(hub)) {
      hub = v;
    }
  }
  ASSERT_GT(ds.graph.in_degree(hub), 1u);
  util::Prng c(7);
  const SampledSubgraph hub_sample =
      sample_frontier(ds.graph, {hub}, parse_fanout("1,1"), c);
  bool diverged = false;
  for (std::uint64_t s = 0; s < 64 && !diverged; ++s) {
    util::Prng other(100 + s);
    diverged = sample_frontier(ds.graph, {hub}, parse_fanout("1,1"), other)
                   .fingerprint_value != hub_sample.fingerprint_value;
  }
  EXPECT_TRUE(diverged) << "64 distinct PRNG streams all truncated identically";
}

TEST(SampleFrontier, FanoutBoundsFrontierExpansion) {
  const Dataset ds = make_dataset_by_name("cora", 1, /*with_features=*/false);
  util::Prng prng(3);
  const SampledSubgraph sub = sample_frontier(ds.graph, {42}, parse_fanout("2,2"), prng);
  // Hop 1 keeps <= 2 in-neighbors of the seed; hop 2 keeps <= 2 per hop-1
  // vertex: at most 1 + 2 + 4 vertices.
  EXPECT_LE(sub.vertices.size(), 7u);
  EXPECT_GE(sub.vertices.size(), 1u);
}

/// Full-fanout ("0,0") sampling over the model's receptive field must
/// reproduce the full-graph functional output at the seed vertex bitwise:
/// monotone remapping preserves the in-neighbor accumulation order, and the
/// coefficient-degree override preserves the parent's GCN-norm/mean
/// coefficients.
TEST(SampleFrontier, FullFanoutSeedRowBitwiseMatchesFullGraph) {
  const Dataset ds = make_dataset_by_name("cora");  // with features
  core::Engine engine(core::EngineOptions{.num_threads = 1});

  for (const gnn::LayerKind kind :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    SCOPED_TRACE(gnn::layer_kind_name(kind));
    const gnn::ModelSpec model = core::table3_model(kind, ds.spec);
    core::SimulationRequest request;
    request.mode = core::SimMode::kFunctional;

    const core::ExecutionResult full = engine.run(ds, model, request);
    ASSERT_TRUE(full.output.has_value());

    for (const NodeId seed : {NodeId{0}, NodeId{42}, NodeId{1000}, NodeId{2707}}) {
      util::Prng prng(11);
      const SampledSubgraph sub =
          sample_frontier(ds.graph, {seed}, parse_fanout("0,0"), prng);
      const Dataset sub_ds = subgraph_dataset(ds, sub);
      const core::ExecutionResult sampled = engine.run(sub_ds, model, request);
      ASSERT_TRUE(sampled.output.has_value());

      ASSERT_EQ(sub.seeds.size(), 1u);
      const auto full_row = full.output->row(seed);
      const auto sampled_row = sampled.output->row(sub.seeds[0]);
      ASSERT_EQ(full_row.size(), sampled_row.size());
      for (std::size_t c = 0; c < full_row.size(); ++c) {
        EXPECT_EQ(full_row[c], sampled_row[c])
            << "seed " << seed << " output column " << c << " diverged";
      }
    }
  }
}

/// Mixed-batch fusion is block-diagonal: every component's rows of the
/// fused functional output must equal running that component alone,
/// bitwise.
TEST(FuseSubgraphs, BlockOutputsBitwiseEqualSoloRuns) {
  const Dataset ds = make_dataset_by_name("cora");
  core::Engine engine(core::EngineOptions{.num_threads = 1});
  const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, ds.spec);
  core::SimulationRequest request;
  request.mode = core::SimMode::kFunctional;

  std::vector<SampledSubgraph> parts;
  for (const NodeId seed : {NodeId{5}, NodeId{600}, NodeId{2000}}) {
    util::Prng prng(17 + seed);
    parts.push_back(sample_frontier(ds.graph, {seed}, parse_fanout("5,4"), prng));
  }
  std::vector<const SampledSubgraph*> pointers;
  for (const SampledSubgraph& p : parts) {
    pointers.push_back(&p);
  }
  const SampledSubgraph fused = fuse_subgraphs(pointers);
  ASSERT_EQ(fused.vertices.size(),
            parts[0].vertices.size() + parts[1].vertices.size() + parts[2].vertices.size());

  const core::ExecutionResult fused_result =
      engine.run(subgraph_dataset(ds, fused), model, request);
  ASSERT_TRUE(fused_result.output.has_value());

  std::size_t offset = 0;
  for (const SampledSubgraph& part : parts) {
    const core::ExecutionResult solo = engine.run(subgraph_dataset(ds, part), model, request);
    ASSERT_TRUE(solo.output.has_value());
    for (std::size_t r = 0; r < part.vertices.size(); ++r) {
      const auto solo_row = solo.output->row(r);
      const auto fused_row = fused_result.output->row(offset + r);
      ASSERT_EQ(solo_row.size(), fused_row.size());
      for (std::size_t c = 0; c < solo_row.size(); ++c) {
        EXPECT_EQ(solo_row[c], fused_row[c])
            << "block row " << r << " col " << c << " diverged in the fused run";
      }
    }
    offset += part.vertices.size();
  }

  // The fused fingerprint distinguishes compositions.
  EXPECT_NE(fused.fingerprint_value, parts[0].fingerprint_value);
  const SampledSubgraph refused = fuse_subgraphs(pointers);
  EXPECT_EQ(fused.fingerprint_value, refused.fingerprint_value);
}

TEST(SubgraphDataset, NamesShapesAndGathersFeatures) {
  const Dataset ds = make_dataset_by_name("cora");
  util::Prng prng(23);
  const SampledSubgraph sub = sample_frontier(ds.graph, {42}, parse_fanout("3,2"), prng);
  const Dataset sub_ds = subgraph_dataset(ds, sub);
  EXPECT_EQ(sub_ds.spec.feature_dim, ds.spec.feature_dim);
  EXPECT_EQ(sub_ds.features.size(), sub.vertices.size() * ds.spec.feature_dim);
  for (std::size_t v = 0; v < sub.vertices.size(); ++v) {
    EXPECT_EQ(sub_ds.features[v * ds.spec.feature_dim],
              ds.features[sub.vertices[v] * ds.spec.feature_dim]);
  }

  // Structure-only bases stay structure-only (bounded serving memory).
  const Dataset bare = make_dataset_by_name("cora", 1, /*with_features=*/false);
  EXPECT_TRUE(subgraph_dataset(bare, sub).features.empty());
}

}  // namespace
}  // namespace gnnerator::graph

namespace gnnerator::serve {
namespace {

FeatureCacheOptions small_cache(std::uint64_t rows, std::uint64_t row_bytes,
                                double pinned_fraction, std::size_t trials) {
  FeatureCacheOptions options;
  options.budget_bytes = rows * row_bytes;
  options.pinned_fraction = pinned_fraction;
  options.trial_samples = trials;
  return options;
}

TEST(FeatureCache, ProbeAndCommitAgreeOnTheSameState) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::FanoutSpec fanout = graph::parse_fanout("4,3");
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  FeatureCache cache(ds, fanout, small_cache(64, row_bytes, 0.5, 64),
                     mem::DramModel::Config{});
  EXPECT_EQ(cache.row_bytes(), row_bytes);
  EXPECT_LE(cache.pinned_rows(), 32u);
  EXPECT_EQ(cache.pinned_rows() + cache.dynamic_capacity_rows(), 64u);

  const std::vector<graph::NodeId> rows{0, 1, 2, 3, 42, 42, 1000};
  const FeatureCache::Gather before = cache.probe(rows);
  EXPECT_EQ(before.hits + before.misses, rows.size());
  EXPECT_EQ(before.bytes_saved, before.hits * row_bytes);
  // Misses pay DRAM latency + transfer; hits only the faster transfer.
  const mem::DramModel::Config dram;
  EXPECT_GE(before.cycles, before.misses * dram.latency_cycles);

  cache.commit(rows);
  // Commit classified against the same pre-state probe() saw.
  EXPECT_EQ(cache.stats().hits, before.hits);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.stats().bytes_saved, before.bytes_saved);

  // After the commit, every non-pinned row it inserted is resident (the
  // gather fits the dynamic region), so a re-probe hits throughout.
  const FeatureCache::Gather after = cache.probe(rows);
  EXPECT_EQ(after.misses, 0u);
  EXPECT_EQ(after.hits, rows.size());
}

TEST(FeatureCache, LruEvictsColdRowsAndCountsEvictions) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  // No pinned region, 4 dynamic rows: inserting 6 distinct rows evicts 2.
  FeatureCache cache(ds, graph::parse_fanout("2,2"), small_cache(4, row_bytes, 0.0, 0),
                     mem::DramModel::Config{});
  ASSERT_EQ(cache.pinned_rows(), 0u);
  ASSERT_EQ(cache.dynamic_capacity_rows(), 4u);

  cache.commit(std::vector<graph::NodeId>{10, 11, 12, 13, 14, 15});
  EXPECT_EQ(cache.stats().evictions, 2u);
  const FeatureCache::Gather g = cache.probe(std::vector<graph::NodeId>{12, 13, 14, 15});
  EXPECT_EQ(g.hits, 4u);  // the 4 most recently touched survive
  EXPECT_EQ(cache.probe(std::vector<graph::NodeId>{10, 11}).misses, 2u);
}

TEST(FeatureCache, RankingPinsHotVerticesDeterministically) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::FanoutSpec fanout = graph::parse_fanout("6,4");
  const std::uint64_t row_bytes = ds.spec.feature_dim * sizeof(float);
  FeatureCache a(ds, fanout, small_cache(256, row_bytes, 1.0, 128),
                 mem::DramModel::Config{});
  FeatureCache b(ds, fanout, small_cache(256, row_bytes, 1.0, 128),
                 mem::DramModel::Config{});
  EXPECT_GT(a.pinned_rows(), 0u);
  EXPECT_EQ(a.pinned_rows(), b.pinned_rows());

  // Two identically configured caches classify identically (the ranking
  // pre-pass is seeded, not wall-clock dependent).
  std::vector<graph::NodeId> all(ds.graph.num_nodes());
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    all[v] = v;
  }
  const FeatureCache::Gather ga = a.probe(all);
  const FeatureCache::Gather gb = b.probe(all);
  EXPECT_EQ(ga.hits, gb.hits);
  EXPECT_EQ(ga.cycles, gb.cycles);
}

TEST(FeatureCache, RejectsInvalidConfigs) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::FanoutSpec fanout = graph::parse_fanout("2,2");
  FeatureCacheOptions zero;
  zero.budget_bytes = 0;
  EXPECT_THROW(FeatureCache(ds, fanout, zero, mem::DramModel::Config{}), util::CheckError);
  FeatureCacheOptions slow;
  slow.hit_speedup = 0.5;
  EXPECT_THROW(FeatureCache(ds, fanout, slow, mem::DramModel::Config{}), util::CheckError);
}

}  // namespace
}  // namespace gnnerator::serve

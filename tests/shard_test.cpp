// Tests for 2-D graph sharding: grid construction invariants, S-pattern
// traversals, the Table I analytical cost model, and scratchpad-driven
// shard sizing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generate.hpp"
#include "graph/sample.hpp"
#include "shard/cost_model.hpp"
#include "shard/shard_grid.hpp"
#include "shard/sizing.hpp"
#include "shard/traversal.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/units.hpp"

namespace gnnerator::shard {
namespace {

graph::Graph random_graph(std::uint64_t seed, graph::NodeId n = 97, std::size_t e = 700) {
  util::Prng prng(seed);
  return graph::erdos_renyi(n, e, prng);
}

// ------------------------------------------------------------ shard grid --
TEST(ShardGrid, EveryEdgeInExactlyOneShard) {
  const graph::Graph g = random_graph(1);
  const ShardGrid grid(g, 20);
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < grid.dim(); ++r) {
    for (std::uint32_t c = 0; c < grid.dim(); ++c) {
      for (const graph::Edge& e : grid.shard_edges({r, c})) {
        // Edge belongs to this shard's intervals.
        EXPECT_GE(e.src, grid.interval_begin(r));
        EXPECT_LT(e.src, grid.interval_end(r));
        EXPECT_GE(e.dst, grid.interval_begin(c));
        EXPECT_LT(e.dst, grid.interval_end(c));
        ++total;
      }
    }
  }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_EQ(grid.total_edges(), g.num_edges());
}

TEST(ShardGrid, GridDimIsCeilOfDivision) {
  const graph::Graph g = random_graph(2, 100, 500);
  EXPECT_EQ(ShardGrid(g, 100).dim(), 1u);
  EXPECT_EQ(ShardGrid(g, 50).dim(), 2u);
  EXPECT_EQ(ShardGrid(g, 33).dim(), 4u);
  EXPECT_EQ(ShardGrid(g, 1000).dim(), 1u);
}

TEST(ShardGrid, IntervalsPartitionNodeSpace) {
  const graph::Graph g = random_graph(3, 103, 400);  // non-multiple size
  const ShardGrid grid(g, 25);
  graph::NodeId expected_begin = 0;
  for (std::uint32_t i = 0; i < grid.dim(); ++i) {
    EXPECT_EQ(grid.interval_begin(i), expected_begin);
    EXPECT_GT(grid.interval_end(i), grid.interval_begin(i));
    expected_begin = grid.interval_end(i);
  }
  EXPECT_EQ(expected_begin, g.num_nodes());
  // Tail interval is smaller: 103 = 4*25 + 3.
  EXPECT_EQ(grid.interval_size(4), 3u);
}

/// Graphs the grid must shard exactly: plain random, partial and full self
/// loops, isolated vertices, a single vertex, no edges, and a sampled
/// subgraph (remapped ids with a coefficient-degree override).
std::vector<std::pair<std::string, graph::Graph>> grid_cases() {
  std::vector<std::pair<std::string, graph::Graph>> cases;
  cases.emplace_back("random", random_graph(4));

  util::Prng prng(9);
  graph::GraphBuilder some_loops(61);
  for (int i = 0; i < 300; ++i) {
    some_loops.add_edge(static_cast<graph::NodeId>(prng.uniform_u64(61)),
                        static_cast<graph::NodeId>(prng.uniform_u64(61)));
  }
  for (graph::NodeId v = 0; v < 61; v += 3) {
    some_loops.add_edge(v, v);
  }
  cases.emplace_back("some-self-loops", some_loops.build());
  cases.emplace_back("all-self-loops", graph::with_self_loops(random_graph(5)));

  graph::GraphBuilder isolated(50);  // only ids 10..19 and 40..44 have edges
  for (graph::NodeId a = 10; a < 20; ++a) {
    isolated.add_edge(a, 40 + a % 5).add_edge(40 + a % 5, a).add_edge(a, (a + 1) % 10 + 10);
  }
  cases.emplace_back("isolated-vertices", isolated.build());

  cases.emplace_back("single-vertex", graph::GraphBuilder(1).build());
  cases.emplace_back("single-vertex-loop", graph::GraphBuilder(1).add_edge(0, 0).build());
  cases.emplace_back("no-edges", graph::GraphBuilder(37).build());

  util::Prng parent_prng(6);
  const graph::Graph parent = graph::symmetrized(graph::power_law(300, 1500, 1.6, parent_prng));
  util::Prng sample_prng(7);
  cases.emplace_back("sampled",
                     graph::sample_frontier(parent, {3, 150, 299}, graph::parse_fanout("5,3"),
                                            sample_prng)
                         .graph);
  return cases;
}

std::vector<graph::NodeId> interval_sizes(graph::NodeId v) {
  return {1, 2, 7, v / 2 + 1, v, v + 5};
}

/// One shard as a comparison sort computes it.
struct ReferenceShard {
  std::vector<graph::Edge> edges;  // (dst, src) order
  std::vector<graph::NodeId> sources;
};

std::vector<ReferenceShard> reference_shards(const graph::Graph& g, graph::NodeId n) {
  const auto dim = static_cast<std::size_t>(util::ceil_div(g.num_nodes(), n));
  std::vector<ReferenceShard> shards(dim * dim);
  for (const graph::Edge& e : g.edges()) {
    shards[(e.src / n) * dim + e.dst / n].edges.push_back(e);
  }
  for (ReferenceShard& shard : shards) {
    std::sort(shard.edges.begin(), shard.edges.end(),
              [](const graph::Edge& a, const graph::Edge& b) {
                return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
              });
    for (const graph::Edge& e : shard.edges) {
      shard.sources.push_back(e.src);
    }
    std::sort(shard.sources.begin(), shard.sources.end());
    shard.sources.erase(std::unique(shard.sources.begin(), shard.sources.end()),
                        shard.sources.end());
  }
  return shards;
}

/// Runs `check(grid, reference shards)` for every case and interval size.
template <typename Check>
void for_each_grid_case(Check&& check) {
  for (const auto& [name, g] : grid_cases()) {
    for (const graph::NodeId n : interval_sizes(g.num_nodes())) {
      SCOPED_TRACE(name + " V=" + std::to_string(g.num_nodes()) + " n=" + std::to_string(n));
      const ShardGrid grid(g, n);
      const std::vector<ReferenceShard> reference = reference_shards(g, n);
      ASSERT_EQ(static_cast<std::size_t>(grid.dim()) * grid.dim(), reference.size());
      EXPECT_EQ(grid.total_edges(), g.num_edges());
      check(grid, reference);
    }
  }
}

TEST(ShardGrid, EdgesSortedDestinationMajorWithinShard) {
  for_each_grid_case([](const ShardGrid& grid, const std::vector<ReferenceShard>& reference) {
    std::size_t nonempty = 0;
    for (std::uint32_t r = 0; r < grid.dim(); ++r) {
      for (std::uint32_t c = 0; c < grid.dim(); ++c) {
        const auto edges = grid.shard_edges({r, c});
        const std::vector<graph::Edge>& expected =
            reference[static_cast<std::size_t>(r) * grid.dim() + c].edges;
        ASSERT_EQ(edges.size(), expected.size()) << "shard (" << r << "," << c << ")";
        EXPECT_TRUE(std::equal(edges.begin(), edges.end(), expected.begin()))
            << "shard (" << r << "," << c << ")";
        nonempty += expected.empty() ? 0 : 1;
      }
    }
    EXPECT_EQ(grid.num_nonempty_shards(), nonempty);
  });
}

TEST(ShardGrid, ActiveSourcesMatchEdges) {
  for_each_grid_case([](const ShardGrid& grid, const std::vector<ReferenceShard>& reference) {
    for (std::uint32_t r = 0; r < grid.dim(); ++r) {
      for (std::uint32_t c = 0; c < grid.dim(); ++c) {
        const ReferenceShard& expected = reference[static_cast<std::size_t>(r) * grid.dim() + c];
        const auto got_src = grid.shard_sources({r, c});
        ASSERT_EQ(got_src.size(), expected.sources.size()) << "shard (" << r << "," << c << ")";
        EXPECT_TRUE(std::equal(got_src.begin(), got_src.end(), expected.sources.begin()))
            << "shard (" << r << "," << c << ")";
      }
    }
  });
}

TEST(ShardGrid, EmptyShardDetection) {
  graph::GraphBuilder b(40);
  b.add_edge(0, 39);  // only corner shard (0, S-1) populated
  const graph::Graph g = b.build();
  const ShardGrid grid(g, 10);
  EXPECT_EQ(grid.num_nonempty_shards(), 1u);
  EXPECT_FALSE(grid.shard_empty({0, 3}));
  EXPECT_TRUE(grid.shard_empty({1, 1}));
}

TEST(ShardGrid, OutOfRangeCoordThrows) {
  const graph::Graph g = random_graph(6);
  const ShardGrid grid(g, 50);
  EXPECT_THROW((void)grid.shard_edges({grid.dim(), 0}), util::CheckError);
}

// ------------------------------------------------------------- traversal --
TEST(Traversal, CoversAllCoordsExactlyOnce) {
  for (const Traversal t : {Traversal::kSourceStationary, Traversal::kDestStationary}) {
    const auto order = make_traversal(5, t);
    ASSERT_EQ(order.size(), 25u);
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (const ShardCoord c : order) {
      EXPECT_LT(c.row, 5u);
      EXPECT_LT(c.col, 5u);
      seen.insert({c.row, c.col});
    }
    EXPECT_EQ(seen.size(), 25u);
  }
}

TEST(Traversal, DestStationaryWalksColumns) {
  const auto order = make_traversal(3, Traversal::kDestStationary);
  // First 3 coords share column 0.
  EXPECT_EQ(order[0].col, 0u);
  EXPECT_EQ(order[1].col, 0u);
  EXPECT_EQ(order[2].col, 0u);
  EXPECT_EQ(order[3].col, 1u);
}

TEST(Traversal, SerpentineSharesBoundaryInterval) {
  // At every outer-dimension boundary, the streaming interval must be
  // identical (that reuse is the "-S+1" term in Table I).
  for (const Traversal t : {Traversal::kSourceStationary, Traversal::kDestStationary}) {
    const auto order = make_traversal(4, t);
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (stationary_index(order[i], t) != stationary_index(order[i - 1], t)) {
        EXPECT_EQ(streaming_index(order[i], t), streaming_index(order[i - 1], t))
            << "boundary at position " << i;
      }
    }
  }
}

TEST(Traversal, StationaryIndexDefinitions) {
  const ShardCoord c{3, 7};
  EXPECT_EQ(stationary_index(c, Traversal::kDestStationary), 7u);
  EXPECT_EQ(streaming_index(c, Traversal::kDestStationary), 3u);
  EXPECT_EQ(stationary_index(c, Traversal::kSourceStationary), 3u);
  EXPECT_EQ(streaming_index(c, Traversal::kSourceStationary), 7u);
}

TEST(Traversal, Names) {
  EXPECT_EQ(traversal_name(Traversal::kSourceStationary), "src-stationary");
  EXPECT_EQ(traversal_name(Traversal::kDestStationary), "dst-stationary");
}

// ------------------------------------------------------------ cost model --
TEST(CostModel, TableOneFormulasVerbatim) {
  // S = 4, I = 2:
  //   SRC: reads = 4*2 + 3*4 - 4 + 1 = 17, writes = 16 - 4 + 1 = 13
  //   DST: reads = (16 - 4 + 1)*2 = 26, writes = 4
  const auto src = analytic_shard_cost(4, 2.0, Traversal::kSourceStationary);
  EXPECT_DOUBLE_EQ(src.reads, 17.0);
  EXPECT_DOUBLE_EQ(src.writes, 13.0);
  const auto dst = analytic_shard_cost(4, 2.0, Traversal::kDestStationary);
  EXPECT_DOUBLE_EQ(dst.reads, 26.0);
  EXPECT_DOUBLE_EQ(dst.writes, 4.0);
}

TEST(CostModel, SingleShardGridIsFree) {
  const auto src = analytic_shard_cost(1, 1.0, Traversal::kSourceStationary);
  EXPECT_DOUBLE_EQ(src.reads, 1.0);
  EXPECT_DOUBLE_EQ(src.writes, 1.0);
  const auto dst = analytic_shard_cost(1, 1.0, Traversal::kDestStationary);
  EXPECT_DOUBLE_EQ(dst.reads, 1.0);
  EXPECT_DOUBLE_EQ(dst.writes, 1.0);
}

TEST(CostModel, DestStationaryWinsAtUnitResidency) {
  for (const std::uint32_t S : {2u, 4u, 8u, 32u}) {
    EXPECT_EQ(choose_traversal(S, 1.0), Traversal::kDestStationary);
  }
}

TEST(CostModel, SourceStationaryWinsAtHighInputResidency) {
  // When every streamed shard would re-read I interval-features, keeping
  // sources resident eventually wins.
  EXPECT_EQ(choose_traversal(8, 10.0), Traversal::kSourceStationary);
}

TEST(CostModel, TotalAppliesWriteWeight) {
  const ShardCost cost{10.0, 5.0};
  EXPECT_DOUBLE_EQ(cost.total(), 15.0);
  EXPECT_DOUBLE_EQ(cost.total(2.0), 20.0);
}

// ---------------------------------------------------------------- sizing --
TEST(Sizing, LargerBlocksShrinkShards) {
  const auto small = choose_shard_size(util::kMiB, 16, 100000);
  const auto large = choose_shard_size(util::kMiB, 1024, 100000);
  EXPECT_GT(small.nodes_per_shard, large.nodes_per_shard);
  EXPECT_LE(small.grid_dim, large.grid_dim);
}

TEST(Sizing, RespectsCapacity) {
  for (const std::size_t block : {8UL, 64UL, 500UL, 3703UL}) {
    const auto sizing = choose_shard_size(23 * util::kMiB, block, 19717);
    EXPECT_LE(sizing.total_bytes, 23 * util::kMiB);
    EXPECT_GE(sizing.nodes_per_shard, 1u);
    EXPECT_EQ(sizing.grid_dim, util::ceil_div(19717, sizing.nodes_per_shard));
  }
}

TEST(Sizing, ClampsToNodeCount) {
  const auto sizing = choose_shard_size(64 * util::kMiB, 16, 100);
  EXPECT_EQ(sizing.nodes_per_shard, 100u);
  EXPECT_EQ(sizing.grid_dim, 1u);
}

TEST(Sizing, ThrowsWhenNothingFits) {
  SizingPolicy policy;
  policy.edge_buffer_bytes = 0;
  // One node needs 4 copies x 1M dims x 4 B = 16 MB > 1 KiB.
  EXPECT_THROW((void)choose_shard_size(1024, 1'000'000, 10, policy), util::CheckError);
}

TEST(Sizing, SingleBufferingDoublesCapacity) {
  SizingPolicy db;
  db.edge_buffer_bytes = 0;
  SizingPolicy sb = db;
  sb.double_buffer_sources = false;
  sb.double_buffer_dests = false;
  const auto with_db = choose_shard_size(util::kMiB, 64, 1 << 20, db);
  const auto without_db = choose_shard_size(util::kMiB, 64, 1 << 20, sb);
  EXPECT_EQ(without_db.nodes_per_shard, with_db.nodes_per_shard * 2);
}

TEST(Sizing, PaperScaleSanity) {
  // Citeseer unblocked (B = 3703): interval of ~400 nodes, S = 9 — the
  // regime where Table I costs bite. Blocked at B = 64: everything fits.
  const auto unblocked = choose_shard_size(23 * util::kMiB, 3703, 3327);
  EXPECT_GE(unblocked.grid_dim, 8u);
  const auto blocked = choose_shard_size(23 * util::kMiB, 64, 3327);
  EXPECT_EQ(blocked.grid_dim, 1u);
}

}  // namespace
}  // namespace gnnerator::shard

// Unit and property tests for the graph substrate: structures, builders,
// generators, the Table II dataset registry and text I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_set>

#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gnnerator::graph {
namespace {

// ----------------------------------------------------------------- graph --
TEST(Graph, CsrAndCscAgree) {
  GraphBuilder b(5);
  b.add_edge(0, 1).add_edge(0, 2).add_edge(3, 1).add_edge(4, 4);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(1), 2u);
  EXPECT_EQ(g.num_self_loops(), 1u);
  ASSERT_EQ(g.out_neighbors(0).size(), 2u);
  EXPECT_EQ(g.out_neighbors(0)[0], 1u);
  EXPECT_EQ(g.out_neighbors(0)[1], 2u);
  ASSERT_EQ(g.in_neighbors(1).size(), 2u);
  EXPECT_EQ(g.in_neighbors(1)[0], 0u);
  EXPECT_EQ(g.in_neighbors(1)[1], 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 0));
}

TEST(Graph, RejectsOutOfRangeAndUnsorted) {
  EXPECT_THROW(Graph(2, {{0, 5}}), util::CheckError);
  EXPECT_THROW(Graph(3, {{1, 0}, {0, 1}}), util::CheckError);      // unsorted
  EXPECT_THROW(Graph(3, {{0, 1}, {0, 1}}), util::CheckError);      // duplicate
}

TEST(Graph, DegreeSumsEqualEdgeCount) {
  util::Prng prng(5);
  const Graph g = erdos_renyi(64, 300, prng);
  std::size_t out_sum = 0;
  std::size_t in_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out_sum += g.out_degree(v);
    in_sum += g.in_degree(v);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

// --------------------------------------------------------------- builder --
TEST(Builder, DeduplicatesAndSorts) {
  GraphBuilder b(4);
  b.add_edge(2, 1).add_edge(0, 1).add_edge(2, 1).add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edges()[0], (Edge{0, 1}));
  EXPECT_EQ(g.edges()[1], (Edge{2, 1}));
}

TEST(Builder, WithSelfLoopsKeepsExistingLoop) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 1);
  const Graph looped = with_self_loops(b.build());
  EXPECT_EQ(looped.num_self_loops(), 3u);  // one per node, existing kept
  EXPECT_EQ(looped.num_edges(), 4u);
}

TEST(Builder, UndirectedEdgeAddsBothDirections) {
  GraphBuilder b(3);
  b.add_undirected_edge(0, 2);
  b.add_undirected_edge(1, 1);  // self: single edge
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Builder, RejectsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), util::CheckError);
}

// ------------------------------------------------------------ generators --
TEST(Generators, ErdosRenyiExactCountNoSelfLoops) {
  util::Prng prng(1);
  const Graph g = erdos_renyi(100, 500, prng);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_edges(), 500u);
  EXPECT_EQ(g.num_self_loops(), 0u);
}

TEST(Generators, ErdosRenyiRejectsImpossible) {
  util::Prng prng(1);
  EXPECT_THROW(erdos_renyi(3, 7, prng), util::CheckError);  // max 3*2=6
}

TEST(Generators, PreferentialAttachmentIsSymmetricHeavyTailed) {
  util::Prng prng(2);
  const Graph g = preferential_attachment(400, 3, prng);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(g.num_self_loops(), 0u);
  const GraphStats s = compute_stats(g);
  // Heavy tail: max degree well above the mean.
  EXPECT_GT(static_cast<double>(s.max_out_degree), 4.0 * s.mean_out_degree);
}

TEST(Generators, RmatExactCountAndRange) {
  util::Prng prng(3);
  const Graph g = rmat(8, 1000, 0.57, 0.19, 0.19, prng);
  EXPECT_EQ(g.num_nodes(), 256u);
  EXPECT_EQ(g.num_edges(), 1000u);
  EXPECT_EQ(g.num_self_loops(), 0u);
}

TEST(Generators, RmatSkewsTowardLowIds) {
  util::Prng prng(4);
  const Graph g = rmat(10, 4000, 0.57, 0.19, 0.19, prng);
  std::size_t low_half = 0;
  for (const Edge& e : g.edges()) {
    low_half += e.src < 512 ? 1 : 0;
  }
  EXPECT_GT(low_half, g.num_edges() / 2);
}

TEST(Generators, PowerLawExactCount) {
  util::Prng prng(5);
  const Graph g = power_law(200, 1500, 1.8, prng);
  EXPECT_EQ(g.num_edges(), 1500u);
  EXPECT_EQ(g.num_self_loops(), 0u);
}

TEST(Generators, SymmetrizedContainsReverses) {
  util::Prng prng(6);
  const Graph g = symmetrized(erdos_renyi(50, 120, prng));
  EXPECT_TRUE(g.is_symmetric());
}

TEST(Generators, DeterministicGivenSeed) {
  util::Prng a(77);
  util::Prng b(77);
  const Graph ga = power_law(100, 400, 2.0, a);
  const Graph gb = power_law(100, 400, 2.0, b);
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (std::size_t i = 0; i < ga.num_edges(); ++i) {
    EXPECT_EQ(ga.edges()[i], gb.edges()[i]);
  }
}

TEST(Generators, WithSelfLoopsMatchesSetReference) {
  util::Prng prng(3);
  std::vector<Graph> graphs;
  graphs.push_back(erdos_renyi(80, 400, prng));  // no loops
  GraphBuilder every(30);
  for (NodeId v = 0; v < 30; ++v) {
    every.add_edge(v, v).add_edge(v, (7 * v + 3) % 30);
  }
  graphs.push_back(every.build());
  GraphBuilder some(40);
  for (int i = 0; i < 200; ++i) {
    some.add_edge(static_cast<NodeId>(prng.uniform_u64(40)),
                  static_cast<NodeId>(prng.uniform_u64(40)));
  }
  some.add_edge(0, 0).add_edge(39, 39).add_edge(17, 17);
  graphs.push_back(some.build());
  graphs.push_back(GraphBuilder(25).add_edge(3, 4).build());  // isolated vertices
  graphs.push_back(GraphBuilder(1).build());
  graphs.push_back(GraphBuilder(12).build());  // no edges

  for (const Graph& g : graphs) {
    std::set<Edge> expected(g.edges().begin(), g.edges().end());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      expected.insert(Edge{v, v});
    }
    const Graph looped = with_self_loops(g);
    EXPECT_EQ(looped.num_nodes(), g.num_nodes());
    EXPECT_EQ(looped.num_self_loops(), g.num_nodes());
    ASSERT_EQ(looped.num_edges(), expected.size());
    EXPECT_TRUE(std::equal(looped.edges().begin(), looped.edges().end(), expected.begin()));
  }
}

// -------------------------------------------------------------- datasets --
TEST(Datasets, Table2SpecsVerbatim) {
  const auto& specs = table2_datasets();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "cora");
  EXPECT_EQ(specs[0].num_nodes, 2708u);
  EXPECT_EQ(specs[0].num_edges, 10556u);
  EXPECT_EQ(specs[0].feature_dim, 1433u);
  EXPECT_EQ(specs[1].name, "citeseer");
  EXPECT_EQ(specs[1].num_nodes, 3327u);
  EXPECT_EQ(specs[1].num_edges, 9104u);
  EXPECT_EQ(specs[1].feature_dim, 3703u);
  EXPECT_EQ(specs[2].name, "pubmed");
  EXPECT_EQ(specs[2].num_nodes, 19717u);
  EXPECT_EQ(specs[2].num_edges, 88648u);
  EXPECT_EQ(specs[2].feature_dim, 500u);
}

TEST(Datasets, LookupIsCaseInsensitive) {
  EXPECT_TRUE(find_dataset("CORA").has_value());
  EXPECT_TRUE(find_dataset("PubMed").has_value());
  EXPECT_FALSE(find_dataset("reddit").has_value());
  EXPECT_THROW(make_dataset_by_name("unknown"), util::CheckError);
}

TEST(Datasets, GeneratedGraphMatchesSpecExactly) {
  const Dataset ds = make_dataset_by_name("cora", 1, /*with_features=*/false);
  EXPECT_EQ(ds.graph.num_nodes(), 2708u);
  EXPECT_EQ(ds.graph.num_edges(), 10556u);
  EXPECT_TRUE(ds.graph.is_symmetric());
  EXPECT_EQ(ds.graph.num_self_loops(), 0u);
  EXPECT_TRUE(ds.features.empty());
}

TEST(Datasets, FeaturesAndLabelsWhenRequested) {
  DatasetSpec small = *find_dataset("cora");
  const Dataset ds = make_dataset(small, 1, /*with_features=*/true);
  EXPECT_EQ(ds.features.size(), 2708u * 1433u);
  EXPECT_EQ(ds.labels.size(), 2708u);
  for (const std::int32_t label : ds.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<std::int32_t>(small.num_classes));
  }
}

TEST(Datasets, GraphIndependentOfFeatureMaterialisation) {
  const Dataset with = make_dataset_by_name("cora", 1, true);
  const Dataset without = make_dataset_by_name("cora", 1, false);
  ASSERT_EQ(with.graph.num_edges(), without.graph.num_edges());
  for (std::size_t i = 0; i < with.graph.num_edges(); ++i) {
    EXPECT_EQ(with.graph.edges()[i], without.graph.edges()[i]);
  }
}

TEST(Datasets, SeedsChangeGraphDeterministically) {
  const Dataset a1 = make_dataset_by_name("cora", 1, false);
  const Dataset a2 = make_dataset_by_name("cora", 1, false);
  const Dataset b = make_dataset_by_name("cora", 2, false);
  EXPECT_EQ(a1.graph.edges()[0], a2.graph.edges()[0]);
  bool differs = false;
  for (std::size_t i = 0; i < 100 && i < a1.graph.num_edges(); ++i) {
    differs |= !(a1.graph.edges()[i] == b.graph.edges()[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(Datasets, HeavyTailedDegreeProfile) {
  const Dataset ds = make_dataset_by_name("citeseer", 1, false);
  const GraphStats s = compute_stats(ds.graph);
  EXPECT_GT(s.degree_gini, 0.3);  // citation-like concentration
  EXPECT_GT(static_cast<double>(s.max_out_degree), 20.0 * s.mean_out_degree);
}

// -------------------------------------------------------------------- io --
TEST(Io, SaveGraphWritesHeaderAndCanonicalEdges) {
  GraphBuilder b(3);
  b.add_edge(2, 0).add_edge(0, 1).add_edge(0, 1);
  std::ostringstream out;
  save_graph(out, b.build());
  EXPECT_EQ(out.str(), "# gnnerator-graph v1\n3 2\n0 1\n2 0\n");
}

// ----------------------------------------------------------------- stats --
TEST(Stats, RegularGraphGiniIsZero) {
  GraphBuilder b(4);
  // Ring: every node out-degree 1.
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).add_edge(3, 0);
  const GraphStats s = compute_stats(b.build());
  EXPECT_NEAR(s.degree_gini, 0.0, 1e-9);
  EXPECT_EQ(s.isolated_nodes, 0u);
  EXPECT_EQ(s.min_out_degree, 1u);
  EXPECT_EQ(s.max_out_degree, 1u);
}

TEST(Stats, CountsIsolatedNodes) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  const GraphStats s = compute_stats(b.build());
  EXPECT_EQ(s.isolated_nodes, 3u);  // nodes 2, 3, 4
}

TEST(Stats, FormatMentionsKeyFields) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const std::string s = format_stats(compute_stats(b.build()));
  EXPECT_NE(s.find("nodes"), std::string::npos);
  EXPECT_NE(s.find("gini"), std::string::npos);
}

}  // namespace
}  // namespace gnnerator::graph

// Reproduces paper Fig. 4: slowdown relative to the B=64 baseline as the
// feature block size B sweeps {32, 64, 128, 256, 1024, 2048, 4096}, geomean
// over the benchmark suite.
//
// Paper shape: B=64 optimal; B=32 slower because a block narrower than the
// 64-wide systolic array under-utilises the Dense Engine; large B degrades
// towards the conventional (unblocked) dataflow as fewer nodes fit on-chip.
#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"

namespace {

using namespace gnnerator;
using bench::BenchPoint;

const std::vector<std::size_t> kBlockSizes = {32, 64, 128, 256, 1024, 2048, 4096};

double simulated_ms(const BenchPoint& point, std::size_t block) {
  core::SimulationRequest request;
  request.dataflow.feature_blocking = true;
  request.dataflow.block_size = block;
  return bench::gnnerator_ms(point, request);
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::map<std::size_t, std::vector<double>> ms;  // [B][benchmark]
    for (const std::size_t block : kBlockSizes) {
      for (const BenchPoint& point : bench::fig3_points()) {
        ms[block].push_back(simulated_ms(point, block));
      }
    }
    std::cout << "\n=== Fig. 4: slowdown vs B=64 (geomean over suite) ===\n";
    util::Table table({"B", "Geomean slowdown", "Min", "Max"});
    for (const std::size_t block : kBlockSizes) {
      std::vector<double> slowdowns;
      for (std::size_t i = 0; i < ms[block].size(); ++i) {
        slowdowns.push_back(ms[block][i] / ms[64][i]);
      }
      table.add_row({std::to_string(block),
                     util::Table::speedup(util::geomean(slowdowns), 2),
                     util::Table::speedup(util::min_value(slowdowns), 2),
                     util::Table::speedup(util::max_value(slowdowns), 2)});
    }
    std::cout << table.to_string();
    std::cout << "\nPaper: B=64 optimal; B=32 under-utilises the 64-wide Dense Engine;\n"
                 "large B degrades toward the conventional dataflow (up to ~4-5x).\n";
    return 0;
  });
}

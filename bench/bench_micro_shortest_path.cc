// Micro benchmarks of the shortest-path substrate: plain Dijkstra vs
// contraction hierarchies vs the APSP matrix, plus
// the one-time preprocessing costs. Validates the oracle choice guidance in
// DESIGN.md (matrix for simulation cities, CH for larger graphs).
#include <benchmark/benchmark.h>

#include <memory>

#include "src/common/rng.h"
#include "src/geo/apsp.h"
#include "src/geo/city_generator.h"
#include "src/geo/contraction_hierarchy.h"
#include "src/geo/dijkstra.h"

namespace {

using namespace watter;

const City& BenchCity() {
  static const City* city = [] {
    auto result = GenerateCity({.width = 48, .height = 48, .seed = 9});
    return new City(std::move(result).value());
  }();
  return *city;
}

void BM_DijkstraPointToPoint(benchmark::State& state) {
  const City& city = BenchCity();
  Dijkstra search(&city.graph);
  Rng rng(1);
  for (auto _ : state) {
    NodeId s = city.RandomNode(&rng);
    NodeId t = city.RandomNode(&rng);
    search.Run(s, t);
    benchmark::DoNotOptimize(search.DistanceTo(t));
  }
}
BENCHMARK(BM_DijkstraPointToPoint);

void BM_ContractionHierarchyQuery(benchmark::State& state) {
  const City& city = BenchCity();
  static const ContractionHierarchy* ch = [] {
    auto result = ContractionHierarchy::Build(BenchCity().graph);
    return new ContractionHierarchy(std::move(result).value());
  }();
  Rng rng(1);
  for (auto _ : state) {
    NodeId s = city.RandomNode(&rng);
    NodeId t = city.RandomNode(&rng);
    benchmark::DoNotOptimize(ch->Query(s, t));
  }
}
BENCHMARK(BM_ContractionHierarchyQuery);

void BM_MatrixLookup(benchmark::State& state) {
  const City& city = BenchCity();
  static const CostMatrix* matrix = [] {
    auto result = CostMatrix::Build(BenchCity().graph);
    return new CostMatrix(std::move(result).value());
  }();
  Rng rng(1);
  for (auto _ : state) {
    NodeId s = city.RandomNode(&rng);
    NodeId t = city.RandomNode(&rng);
    benchmark::DoNotOptimize(matrix->Cost(s, t));
  }
}
BENCHMARK(BM_MatrixLookup);

void BM_ChBuild(benchmark::State& state) {
  auto small = GenerateCity({.width = 24, .height = 24, .seed = 5});
  for (auto _ : state) {
    auto ch = ContractionHierarchy::Build(small->graph);
    benchmark::DoNotOptimize(ch->num_shortcuts());
  }
}
BENCHMARK(BM_ChBuild)->Unit(benchmark::kMillisecond);

void BM_ApspBuild(benchmark::State& state) {
  auto small = GenerateCity({.width = 24, .height = 24, .seed = 5});
  for (auto _ : state) {
    auto matrix = CostMatrix::Build(small->graph);
    benchmark::DoNotOptimize(matrix->num_nodes());
  }
}
BENCHMARK(BM_ApspBuild)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

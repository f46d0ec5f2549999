// Shared, lazily-built test fixtures. World generation and full pipeline
// runs are the expensive part of the suite; building each once and sharing
// across test files keeps the suite fast without sacrificing integration
// coverage.
#pragma once

#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/pipeline.h"
#include "topology/generator.h"

namespace cloudmap::testfx {

// A small world with every structural feature (seed-fixed).
inline const World& small_world() {
  static const World world = [] {
    GeneratorConfig config = GeneratorConfig::small();
    config.seed = 42;
    return generate_world(config);
  }();
  return world;
}

// A fully-run pipeline over the small world.
inline Pipeline& small_pipeline() {
  static Pipeline* pipeline = [] {
    auto* p = new Pipeline(small_world());
    p->run_all();
    return p;
  }();
  return *pipeline;
}

// A paper-shape world (larger; used by the heavier integration tests).
inline const World& paper_world() {
  static const World world = [] {
    GeneratorConfig config = GeneratorConfig::paper_shape();
    config.seed = 1;
    return generate_world(config);
  }();
  return world;
}

inline Pipeline& paper_pipeline() {
  static Pipeline* pipeline = [] {
    auto* p = new Pipeline(paper_world());
    p->run_all();
    return p;
  }();
  return *pipeline;
}

// A committed fuzz corpus file (fuzz/corpus/<name>, e.g.
// "snapshot/v1.snap"). The v1/v2 snapshot layouts exist only as these
// frozen bytes, so the legacy-format tests start from them.
inline std::string corpus_path(const std::string& name) {
  return std::string(CLOUDMAP_CORPUS_DIR) + "/" + name;
}

inline std::string corpus_bytes(const std::string& name) {
  std::ifstream in(corpus_path(name), std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + corpus_path(name));
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace cloudmap::testfx

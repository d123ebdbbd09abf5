// Analytic gate accounting (Table 2 methodology): per-operation XOR /
// non-XOR costs are measured once from synthesized blocks, then rolled up
// over the network dimensions. This is how the paper (and this repo)
// obtains gate totals for networks far too large to materialize
// (benchmark 4 is ~5x10^9 gates).
#pragma once

#include <cstdint>

#include "synth/layer_circuits.h"

namespace deepsecure::synth {

struct GateCount {
  uint64_t num_xor = 0;
  uint64_t num_non_xor = 0;

  GateCount& operator+=(const GateCount& o) {
    num_xor += o.num_xor;
    num_non_xor += o.num_non_xor;
    return *this;
  }
  friend GateCount operator*(GateCount c, uint64_t k) {
    return GateCount{c.num_xor * k, c.num_non_xor * k};
  }
  friend GateCount operator+(GateCount a, const GateCount& b) {
    a += b;
    return a;
  }
};

GateCount count_circuit(const Circuit& c);

/// Measured costs of the fundamental blocks at format `fmt` (built once
/// and memoized per format).
struct BlockCosts {
  GateCount add;
  GateCount mult;
  GateCount div;
  GateCount relu;
  GateCount max;          // CMP + MUX (pooling / argmax step)
  GateCount mean4;        // 2x2 mean pooling tail (const multiply)
  GateCount act[10];      // indexed by ActKind
};
const BlockCosts& block_costs(FixedFormat fmt);

/// Table-2-style roll-up of a whole model (exact for FC/conv/pool/act
/// chains built by compile_model, up to constant-folding variations that
/// are negligible at network scale).
GateCount count_model(const ModelSpec& spec);

/// Per-layer breakdown, same totals as count_model.
std::vector<GateCount> count_model_layers(const ModelSpec& spec);

}  // namespace deepsecure::synth

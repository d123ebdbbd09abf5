// Sequential (folded) circuit support — the paper's Section 3.5.
//
// Instead of instantiating e.g. every MULT/ADD of a matrix product, a
// compact step circuit (one MAC + accumulator registers) is garbled and
// evaluated for many clock cycles. Memory footprint is that of the step
// circuit; total cost scales with cycles.
#pragma once

#include <cstddef>

#include "circuit/circuit.h"

namespace deepsecure {

struct SequentialSpec {
  Circuit step;
  size_t cycles = 1;

  /// Aggregate gate counts over the full execution.
  CircuitStats total_stats() const {
    CircuitStats s = step.stats();
    s.num_xor *= cycles;
    s.num_and *= cycles;
    s.num_and_one_row *= cycles;
    return s;
  }
};

}  // namespace deepsecure
